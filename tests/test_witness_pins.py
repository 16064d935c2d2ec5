"""Witnesses and counterexamples pinned as literal lasso strings.

Each is the exact lasso the library returns for a seeded input.  A change
to how the product, its components or its paths are searched must keep
them all; the other tests only check that a witness is valid.  Each test
also checks, by naive simulation, that its lassos tell the two sides
apart.
"""

import random

import pytest

from rightcon import (
    LassoWord,
    classify,
    equivalent,
    fixture,
    format_lasso,
    is_non_counting,
    is_respective,
    random_dma,
    state_equivalent,
)

from helpers import ACCEPTANCE_KINDS, naive_accepts, random_acceptor


# (kind, lasso) of the first two pairs of each kind, drawn in turn from
# random.Random("pins/equivalent"), that differ with a witness longer than 2
EQUIVALENT = [
    ("buchi", "a:aa"),
    ("buchi", ":aaaa"),
    ("cobuchi", "a:aaaaaa"),
    ("cobuchi", "a:aa"),
    ("parity", ":abbab"),
    ("parity", ":aaaa"),
    ("muller", ":abab"),
    ("muller", ":abbabb"),
    ("tmuller", "a:aa"),
    ("tmuller", "ab:aaabaaab"),
]


def test_equivalent_witnesses():
    rng = random.Random("pins/equivalent")
    got = []
    for kind in ACCEPTANCE_KINDS:
        found = 0
        while found < 2:
            a = random_acceptor(rng, 5, kinds=(kind,))
            b = random_acceptor(rng, 5, kinds=(kind,))
            same, w = equivalent(a, b)
            if not same and len(w.spoke) + len(w.cycle) > 2:
                assert naive_accepts(a, w) != naive_accepts(b, w)
                got.append((kind, format_lasso(w)))
                found += 1
    assert got == EQUIVALENT


@pytest.mark.parametrize(
    "n, seed, p, q, lasso",
    [
        (5, "pin/0", 0, 1, "b:acbcbbbbb"),
        (5, "pin/0", 0, 3, "b:acbbbbbbbb"),
        (5, "pin/0", 3, 4, "bb:acbcb"),
        (6, "pin/1", 0, 2, "c:bbccabbcca"),
        (6, "pin/1", 4, 5, ":bacabbcc"),
        (7, "pin/2", 5, 6, "aa:baaa"),
        (8, "pin/3", 0, 2, ":cbabc"),
        (8, "pin/3", 6, 7, "ab:abccbaa"),
    ],
)
def test_state_equivalent_witnesses(n, seed, p, q, lasso):
    a = random_dma(n, seed)
    same, w = state_equivalent(a, p, q)
    assert not same
    assert format_lasso(w) == lasso
    assert naive_accepts(a, w, p) != naive_accepts(a, w, q)


@pytest.mark.parametrize(
    "i, u, v, lasso",
    [
        (1, "", "a", "a:abababab"),
        (3, "a", "b", ":acaccbac"),
        (8, "", "a", "cbca:cbbcacbbca"),
        (15, "", "b", "b:bababbabb"),
        (16, "", "ab", "ab:ccb"),
        (18, "b", "a", "a:bcabbc"),
    ],
)
def test_counting_witnesses(i, u, v, lasso):
    a = random_dma(4, f"nc/{i}")
    verdict, witness = is_non_counting(a)
    assert not verdict
    wu, wv, w, n = witness
    assert ("".join(wu), "".join(wv), format_lasso(w), n) == (u, v, lasso, 1)
    # u.v.w and u.v.v.w: one of them is in the language
    once = LassoWord(wu + wv + w.spoke, w.cycle)
    twice = LassoWord(wu + wv + wv + w.spoke, w.cycle)
    assert naive_accepts(a, once) != naive_accepts(a, twice)


@pytest.mark.parametrize(
    "acceptor, x, u",
    [
        (fixture("fig3_B"), (), ("a", "b", "c")),
        (fixture("fig6_BC"), (), ("b",)),
        (fixture("fig3_M"), (), ("1",)),
        (random_dma(4, "nc/24"), ("c", "a", "b"), ("a",)),
        (random_dma(5, "nc/3"), ("b",), ("a", "a", "b")),
    ],
)
def test_respective_witnesses(acceptor, x, u):
    # the first reachable state, in index order, of the first element the
    # closure finds whose orbit does not settle on an accepted loop
    assert is_respective(acceptor) == (False, (x, u))


@pytest.mark.parametrize(
    "i, flag, pos, neg",
    [
        (11, "IM", "ac:c", "a:b"),
        (27, "IT", "a:ba", ":abb"),
        (36, "IT", ":baac", ":abc"),
        (36, "IM", ":bbc", ":c"),
        (38, "IM", "ba:ba", ":a"),
    ],
)
def test_conflict_counterexamples(i, flag, pos, neg):
    a = random_dma(4, f"c/{i}")
    kind, w_pos, w_neg = classify(a).counterexamples[flag]
    assert (kind, format_lasso(w_pos), format_lasso(w_neg)) == ("conflict", pos, neg)
    assert naive_accepts(a, w_pos) and not naive_accepts(a, w_neg)
