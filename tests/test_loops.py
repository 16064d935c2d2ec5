"""Loop tables, chain classes, alternation measure, weak conversions."""

import itertools
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
    rightcon_quotient,
    weak_to_buchi,
    weak_to_cobuchi,
)
from rightcon.errors import CapacityExceeded, NotWeak
from rightcon.loops import (
    Budget,
    _loopable_scc,
    _state_graph,
    least_spanning,
    loopable_state_sets,
    loopable_transition_sets,
)
from rightcon.model import Alphabet, make_structure, muller, validate
from rightcon.ops import combine

from helpers import (
    AB,
    ACCEPTANCE_KINDS,
    all_fixtures,
    brute_loopable_state_sets,
    brute_loopable_transition_sets,
    naive_alternation,
    naive_chain_flags,
    naive_strongly_connected,
    naive_transitions_connect,
    oracle_least_spanning,
    random_acceptor,
    random_structure,
)


def chain_inputs():
    """Every fixture, seeded draws of each kind with up to 6 states, and an
    acceptor whose alternating SCC is unreachable: the loop tree spans
    every state, while the loop table lists only the reachable ones."""
    rng = random.Random("loops/chains")
    out = all_fixtures()
    out += [
        (f"{kind}/{i}", random_acceptor(rng, max_states=6, kinds=(kind,)))
        for kind in ACCEPTANCE_KINDS
        for i in range(30)
    ]
    # a rejecting self-loop at 0; from 1 and 2, which 0 does not reach,
    # {1, 2} rejects and {1} accepts
    structure = make_structure(
        AB, 3, 0, {(0, "a"): 0, (0, "b"): 0, (1, "a"): 1, (1, "b"): 2, (2, "a"): 1, (2, "b"): 2}
    )
    out.append(("unreachable", validate(structure, muller([1]))))
    return out


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
            succ, pred = _state_graph(structure)
            for _ in range(10):
                states = frozenset(q for q in range(structure.state_count) if rng.random() < 0.5)
                if states:
                    mask = sum(1 << q for q in states)
                    loopable = _loopable_scc(succ, pred, min(states), mask) == mask
                    assert loopable == naive_strongly_connected(structure, states), (i, states)

    def test_transition_sets_of_chosen_state_sets(self):
        structure = fixture("fig2_B").structure
        every = loopable_transition_sets(structure)
        for states, _ in loopable_state_sets(structure):
            chosen = loopable_transition_sets(structure, state_sets=[states])
            assert chosen == [(s, t) for s, t in every if s == states]


class TestLeastSpanning:
    @staticmethod
    def inputs():
        rng = random.Random("loops/least-spanning")
        out = all_fixtures()
        out += [(f"dma/{n}/c/{i}", random_dma(n, f"c/{i}")) for n in (3, 4) for i in range(20)]
        out += [
            (f"{kind}/{i}", random_acceptor(rng, kinds=(kind,)))
            for kind in ACCEPTANCE_KINDS
            for i in range(12)
        ]
        return out

    def test_least_spanning_set_matches_brute_force(self):
        for tag, a in self.inputs():
            for states, trans in loopable_state_sets(a.structure):
                assert least_spanning(states, trans) == oracle_least_spanning(states, trans), (tag, states)

    def test_least_spanning_set_of_an_image_matches_brute_force(self):
        # two loopable state sets with one quotient image admit an image I,
        # within the quotient transitions both have, when the transitions
        # of each over I connect it strongly; every such I is tried
        checked = 0
        for tag, a in self.inputs():
            proj = rightcon_quotient(a).projection
            by_states: dict = {}
            for states, trans in loopable_state_sets(a.structure):
                labels = {(p, sym, q): (proj[p], sym, proj[q]) for (p, sym, q) in trans}
                by_states.setdefault(frozenset(proj[q] for q in states), []).append((states, labels))
            for group in by_states.values():
                for pair in itertools.combinations(group, 2):
                    common = sorted(set(pair[0][1].values()) & set(pair[1][1].values()))
                    for size in range(1, len(common) + 1):
                        for chosen in itertools.combinations(common, size):
                            images = [{e: y for e, y in labels.items() if y in chosen} for _, labels in pair]
                            if not all(naive_transitions_connect(s, set(i)) for (s, _), i in zip(pair, images)):
                                continue
                            for (states, labels), image in zip(pair, images):
                                want = oracle_least_spanning(states, labels, image)
                                assert least_spanning(states, labels, image) == want, (tag, states, chosen)
                                checked += 1
        assert checked > 100

    def test_more_edges_than_the_recursion_limit(self):
        # a 40-state cycle on 26 letters: 1,040 edges, each state's edges
        # all to the next state; the least spanning set is the a-cycle
        n, letters = 40, "abcdefghijklmnopqrstuvwxyz"
        edges = [(q, c, (q + 1) % n) for q in range(n) for c in letters]
        assert least_spanning(frozenset(range(n)), edges) == {(q, "a", (q + 1) % n) for q in range(n)}

    def test_small_capacity_stops_the_search(self):
        sets = loopable_state_sets(random_dma(8, "c/10").structure)
        states, trans = max(sets, key=lambda pair: (len(pair[1]), sorted(pair[1])))
        assert least_spanning(states, trans) is not None
        with pytest.raises(CapacityExceeded):
            least_spanning(states, trans, budget=Budget("spanning search nodes", 10))


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
        for name, a in chain_inputs():
            table = loopable_sets(a)
            want = naive_chain_flags([(table.key_of(e), e.accepting) for e in table.entries.values()])
            assert {"weak": is_weak(a), "db": is_db(a), "dc": is_dc(a)} == want, name

    def test_classify_chain_flags_match_pairwise_oracle(self):
        # the 5-state conversion has 6,472 transition-keyed entries
        inputs = chain_inputs() + [("tmuller/5", convert(random_dma(5, "c/0"), "tmuller"))]
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

    def test_both_polarities_in_unrelated_sccs(self):
        # 0 leads to an accepting self-loop sink 1 and a rejecting one 2;
        # neither maximal SCC reaches the other, so both verdicts count
        structure = make_structure(
            Alphabet(("a", "b")), 3, 0,
            {(0, "a"): 1, (0, "b"): 2, (1, "a"): 1, (1, "b"): 1, (2, "a"): 2, (2, "b"): 2},
        )
        m = alternation_measure(validate(structure, muller([1])))
        assert (m.max_alternations, m.polarity) == (0, "+-")
        assert [e.accepting for e in m.witness_chain] == [True]

    def test_witness_chain_alternates(self):
        # the measure and polarity against the pairwise chain count; the
        # chain is a branch of table entries, each with its own verdict
        for name, a in chain_inputs():
            table = loopable_sets(a)
            m = alternation_measure(a)
            assert (m.max_alternations, m.polarity) == naive_alternation(table, a.structure), name
            chain = m.witness_chain
            assert len(chain) == m.max_alternations + 1, name
            for e in chain:
                assert table.entries.get(table.key_of(e)) == e, name
            for small, big in zip(chain, chain[1:]):
                assert table.key_of(small) < table.key_of(big), name
                assert small.accepting != big.accepting, name

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
