"""Witnesses and counterexamples pinned as literal lasso strings.

Each is the exact lasso the library returns for a seeded input.  A change
to how the product, its components or its paths are searched must keep
them all; the other tests only check that a witness is valid.
"""

import random

import pytest

from rightcon import (
    classify,
    equivalent,
    format_lasso,
    is_non_counting,
    random_dma,
    state_equivalent,
)

from helpers import ACCEPTANCE_KINDS, random_acceptor


# (kind, lasso) of the first two pairs of each kind, drawn in turn from
# random.Random("pins/equivalent"), that differ with a witness longer than 2
EQUIVALENT = [
    ("buchi", "a:aa"),
    ("buchi", ":aaaa"),
    ("cobuchi", "a:aaaaaa"),
    ("cobuchi", "a:aa"),
    ("parity", ":abbab"),
    ("parity", ":aaaa"),
    ("muller", "a:aaaaaa"),
    ("muller", ":abbbab"),
    ("tmuller", "a:aababba"),
    ("tmuller", "aa:aa"),
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
                got.append((kind, format_lasso(w)))
                found += 1
    assert got == EQUIVALENT


@pytest.mark.parametrize(
    "n, seed, p, q, lasso",
    [
        (5, "pin/0", 0, 1, "b:abcbcbbbbbacabcbcb"),
        (5, "pin/0", 0, 3, "b:abbbbbbcbbbbbbbbbbbb"),
        (5, "pin/0", 3, 4, "bb:abcbcbbbbbacabcbcb"),
        (6, "pin/1", 0, 2, "ac:bacabbccbacabbcc"),
        (6, "pin/1", 4, 5, "ca:aacccabcac"),
        (7, "pin/2", 5, 6, "cacb:baba"),
        (8, "pin/3", 0, 2, "cb:abccbabccccb"),
        (8, "pin/3", 6, 7, "ab:abccbabccccbaa"),
    ],
)
def test_state_equivalent_witnesses(n, seed, p, q, lasso):
    same, w = state_equivalent(random_dma(n, seed), p, q)
    assert not same
    assert format_lasso(w) == lasso


@pytest.mark.parametrize(
    "i, u, v, lasso",
    [
        (1, "", "a", "a:abababab"),
        (3, "a", "b", ":acaccbac"),
        (8, "", "a", "cabca:cbbcacbbca"),
        (15, "", "b", "cbaaba:bbccaaba"),
        (16, "", "ab", "ab:ccbcb"),
        (18, "b", "a", "b:aacbbbbb"),
    ],
)
def test_counting_witnesses(i, u, v, lasso):
    verdict, witness = is_non_counting(random_dma(4, f"nc/{i}"))
    assert not verdict
    wu, wv, w, n = witness
    assert ("".join(wu), "".join(wv), format_lasso(w), n) == (u, v, lasso, 1)


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
    kind, w_pos, w_neg = classify(random_dma(4, f"c/{i}")).counterexamples[flag]
    assert (kind, format_lasso(w_pos), format_lasso(w_neg)) == ("conflict", pos, neg)
