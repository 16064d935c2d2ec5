"""Loop tables, chain classes, alternation measure, weak conversions."""

import random

import pytest

from rightcon import (
    alternation_measure,
    classify,
    convert,
    equivalent,
    fixture,
    is_db,
    is_dc,
    is_weak,
    loopable_sets,
    random_dma,
    weak_to_buchi,
    weak_to_cobuchi,
)
from rightcon.errors import CapacityExceeded, NotWeak
from rightcon.loops import is_loopable, loopable_state_sets, loopable_transition_sets
from rightcon.model import Alphabet
from rightcon.ops import combine

from helpers import (
    AB,
    all_fixtures,
    brute_loopable_state_sets,
    brute_loopable_transition_sets,
    naive_chain_flags,
    naive_strongly_connected,
    random_acceptor,
    random_structure,
)


def table_as_dict(acceptor):
    t = loopable_sets(acceptor)
    return {frozenset(e.states): e.accepting for e in t.sorted_entries()}


class TestLoopTables:
    def test_fig3_M_entries(self):
        assert table_as_dict(fixture("fig3_M")) == {
            frozenset({0, 1}): False,
            frozenset({0, 1, 2}): False,
            frozenset({0, 2}): True,
            frozenset({2}): False,
        }

    def test_fig3_Mprime_entries(self):
        assert table_as_dict(fixture("fig3_Mprime")) == {
            frozenset({0}): True,
            frozenset({1}): True,
            frozenset({0, 1}): False,
            frozenset({2}): False,
        }

    def test_fig2_B_entries(self):
        assert table_as_dict(fixture("fig2_B")) == {
            frozenset({0, 1, 2}): True,
            frozenset({1}): False,
            frozenset({2}): False,
        }

    def test_keying_follows_acceptance_kind(self):
        assert loopable_sets(fixture("fig2_T")).keyed_by == "transitions"
        assert loopable_sets(fixture("fig2_M")).keyed_by == "states"

    def test_entries_are_loopable(self):
        for name in ("fig3_M", "fig6_P", "L1"):
            a = fixture(name)
            for e in loopable_sets(a).sorted_entries():
                # strongly connected: every state reaches every other inside
                for p in e.states:
                    seen = {p}
                    stack = [p]
                    while stack:
                        u = stack.pop()
                        for (x, _, y) in e.transitions:
                            if x == u and y not in seen:
                                seen.add(y)
                                stack.append(y)
                    assert e.states <= seen

    def test_singleton_needs_self_loop(self):
        a = fixture("fig3_M")
        sets = {s for s, _ in loopable_state_sets(a.structure)}
        assert frozenset({0}) not in sets  # no self-loop on state 0
        assert frozenset({2}) in sets

    def test_capacity_exceeded(self):
        a = fixture("fig6_P")
        with pytest.raises(CapacityExceeded):
            loopable_state_sets(a.structure, capacity=1)
        with pytest.raises(CapacityExceeded):
            loopable_transition_sets(a.structure, capacity=1)

    def test_transition_capacity_counts_sets_over_all_state_sets(self):
        structure = fixture("fig3_B").structure
        with pytest.raises(CapacityExceeded):
            loopable_transition_sets(structure, capacity=492)
        assert len(loopable_transition_sets(structure, capacity=493)) == 493

    def test_transition_sets_match_brute_force(self):
        def check(structure, tag):
            got = loopable_transition_sets(structure)
            assert len({t for _, t in got}) == len(got), tag  # no duplicates
            assert set(got) == set(brute_loopable_transition_sets(structure)), tag

        for name, a in all_fixtures():
            s = a.structure
            if len(s.reachable_states()) * len(s.alphabet) <= 14:
                check(s, name)
        abc = Alphabet(("a", "b", "c"))
        rng = random.Random("loops/brute")
        for i in range(200):
            alphabet = AB if i % 2 else abc
            n = rng.randint(1, 6 if alphabet is AB else 4)
            check(random_structure(rng, n, alphabet), i)

    def test_state_sets_match_brute_force(self):
        def check(structure, tag):
            got = loopable_state_sets(structure)
            assert len({s for s, _ in got}) == len(got), tag  # no duplicates
            assert set(got) == set(brute_loopable_state_sets(structure)), tag

        for name, a in all_fixtures():
            if len(a.structure.reachable_states()) <= 12:
                check(a.structure, name)
        abc = Alphabet(("a", "b", "c"))
        rng = random.Random("loops/brute-states")
        for i in range(200):
            alphabet = AB if i % 2 else abc
            check(random_structure(rng, rng.randint(1, 9), alphabet), i)
        products = 0
        while products < 6:
            a, b = random_acceptor(rng, max_states=3), random_acceptor(rng, max_states=3)
            structure = combine(a, b, "union").structure
            if len(structure.reachable_states()) <= 12:
                check(structure, ("combine", products))
                products += 1

    def test_loopable_test_matches_brute_force(self):
        rng = random.Random("loops/is-loopable")
        for i in range(200):
            structure = random_structure(rng, rng.randint(1, 8), AB if i % 2 else Alphabet(("a", "b", "c")))
            for _ in range(10):
                states = frozenset(q for q in range(structure.state_count) if rng.random() < 0.5)
                if states:
                    assert is_loopable(structure, states) == naive_strongly_connected(structure, states), (i, states)

    def test_transition_sets_of_chosen_state_sets(self):
        structure = fixture("fig2_B").structure
        every = loopable_transition_sets(structure)
        for states, _ in loopable_state_sets(structure):
            chosen = loopable_transition_sets(structure, state_sets=[states])
            assert chosen == [(s, t) for s, t in every if s == states]


class TestChainClasses:
    def test_weak_db_dc_fixtures(self):
        expected = {
            "aab": (True, True, True),
            "fig2_B": (False, True, False),
            "fig2_C": (False, False, True),
            "fig3_B": (False, True, False),
            "fig3_C": (False, False, True),
            "fig3_M": (False, False, False),
            "fig6_P": (True, True, True),
            "fig5_Dbad": (True, True, True),
        }
        for name, (w, db, dc) in expected.items():
            a = fixture(name)
            assert is_weak(a) == w, name
            assert is_db(a) == db, name
            assert is_dc(a) == dc, name

    def test_classify_chain_flags_match_pairwise_oracle(self):
        # the 5-state conversion has 6,472 transition-keyed entries
        inputs = all_fixtures() + [("tmuller/5", convert(random_dma(5, "c/0"), "tmuller"))]
        for name, a in inputs:
            table = loopable_sets(a)
            want = naive_chain_flags([(table.key_of(e), e.accepting) for e in table.entries.values()])
            flags = classify(a).flags
            assert {k: flags[k] for k in want} == want, name

    def test_weak_iff_db_and_dc(self):
        for name, a in all_fixtures():
            assert is_weak(a) == (is_db(a) and is_dc(a)), name


class TestAlternationMeasure:
    def test_examples(self):
        expected = {
            "fig2_M": (1, "+"),
            "fig2_B": (1, "-"),
            "fig3_M": (2, "-"),
            "fig2_P": (2, "-"),
            "aab": (0, "-"),
            "fig6_P": (0, "-"),
            "fig7_bowtie": (0, "+"),
        }
        for name, (alt, pol) in expected.items():
            m = alternation_measure(fixture(name))
            assert (m.max_alternations, m.polarity) == (alt, pol), name

    def test_witness_chain_alternates(self):
        for name in ("fig3_M", "fig2_P", "fig2_M"):
            a = fixture(name)
            table = loopable_sets(a)
            m = alternation_measure(a)
            chain = m.witness_chain
            assert len(chain) == m.max_alternations + 1
            for small, big in zip(chain, chain[1:]):
                assert table.key_of(small) < table.key_of(big)
                assert small.accepting != big.accepting

    def test_weak_means_zero_alternations(self):
        for name, a in all_fixtures():
            m = alternation_measure(a)
            assert is_weak(a) == (m.max_alternations == 0), name


class TestWeakConversions:
    def test_weak_to_buchi_preserves_language(self):
        for name in ("aab", "fig6_P", "fig5_Dbad", "fig7_bowtie"):
            a = fixture(name)
            b = weak_to_buchi(a)
            assert b.acceptance.kind == "buchi"
            assert b.structure is a.structure
            assert equivalent(a, b)[0], name

    def test_weak_to_cobuchi_preserves_language(self):
        for name in ("aab", "fig6_P", "fig5_Dbad", "fig7_bowtie"):
            a = fixture(name)
            c = weak_to_cobuchi(a)
            assert c.acceptance.kind == "cobuchi"
            assert equivalent(a, c)[0], name

    def test_not_weak_raises(self):
        with pytest.raises(NotWeak):
            weak_to_buchi(fixture("fig2_M"))
        with pytest.raises(NotWeak):
            weak_to_cobuchi(fixture("fig3_M"))
