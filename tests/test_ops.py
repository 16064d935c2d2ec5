"""Boolean operations, conversions, and the exact equivalence check."""

import random

import pytest

from rightcon import (
    accepts,
    combine,
    complement,
    convert,
    equivalent,
    fixture,
    lasso,
    loopable_sets,
    random_dma,
)
from rightcon.errors import AlphabetMismatch, UnsupportedConversion
from rightcon.model import Buchi, CoBuchi, MullerStates, Parity, TransitionStructure, validate
from rightcon.ops import product, transition_expand

from helpers import AB, all_fixtures, brute_loopable_transition_sets, random_acceptor, random_lasso


class TestComplement:
    def test_kind_mapping(self):
        assert isinstance(complement(fixture("fig2_B")).acceptance, CoBuchi)
        assert isinstance(complement(fixture("fig2_C")).acceptance, Buchi)
        assert isinstance(complement(fixture("fig2_P")).acceptance, Parity)

    def test_parity_shift(self):
        a = fixture("fig2_P")
        co = complement(a)
        assert co.acceptance.colors == tuple(c + 1 for c in a.acceptance.colors)

    def test_muller_table_is_loopable_complement(self):
        a = fixture("fig2_M")
        co = complement(a)
        loopable = {e.states for e in loopable_sets(a).sorted_entries()}
        assert co.acceptance.table == frozenset(
            s for s in loopable if s not in a.acceptance.table
        )

    def test_involution_on_lassos(self):
        rng = random.Random(7)
        for name in ("fig2_T", "fig3_M", "L1"):
            a = fixture(name)
            cc = complement(complement(a))
            for _ in range(20):
                w = random_lasso(rng, a.alphabet)
                assert accepts(a, w) == accepts(cc, w)


class TestProduct:
    def test_pairing(self):
        a = fixture("fig3_B").structure
        b = fixture("fig3_Mprime").structure
        prod = product(a, b)
        assert prod.pairs[0] == (a.initial, b.initial)
        # the product simulates both components
        for sid, (pa, pb) in enumerate(prod.pairs):
            for i in range(len(a.alphabet)):
                ta = a.delta[pa][i]
                tb = b.delta[pb][i]
                assert prod.pairs[prod.structure.delta[sid][i]] == (ta, tb)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            product(fixture("fig3_M").structure, fixture("fig3_B").structure)


class TestTransitionExpand:
    def test_expansion_shape(self):
        a = fixture("fig2_T")
        e = transition_expand(a)
        assert isinstance(e.acceptance, MullerStates)
        assert e.structure.state_count == len(a.structure.all_transitions()) + 1

    def test_language_preserved(self):
        a = fixture("fig2_T")
        assert equivalent(a, transition_expand(a))[0]

    def test_noop_for_state_based(self):
        a = fixture("fig2_M")
        assert transition_expand(a) is a


class TestCombine:
    def test_verdict_laws_on_lassos(self):
        rng = random.Random(11)
        pairs = [("fig3_B", "fig3_Mprime"), ("fig2_C", "fig2_P"), ("fig2_M", "fig2_T")]
        for na, nb in pairs:
            a, b = fixture(na), fixture(nb)
            u = combine(a, b, "union")
            x = combine(a, b, "intersection")
            for _ in range(40):
                w = random_lasso(rng, a.alphabet)
                va, vb = accepts(a, w), accepts(b, w)
                assert accepts(u, w) == (va or vb), (na, nb, w)
                assert accepts(x, w) == (va and vb), (na, nb, w)

    def test_bad_mode(self):
        a = fixture("fig2_M")
        with pytest.raises(ValueError):
            combine(a, a, "xor")

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            combine(fixture("fig3_M"), fixture("fig3_B"), "union")


class TestConvert:
    def test_buchi_to_parity(self):
        p = convert(fixture("fig2_B"), "parity")
        assert p.acceptance == Parity((1, 2, 2))
        assert equivalent(fixture("fig2_B"), p)[0]

    def test_cobuchi_to_parity(self):
        a = fixture("fig2_C")
        p = convert(a, "parity")
        assert equivalent(a, p)[0]

    def test_parity_to_muller(self):
        a = fixture("fig3_P")
        m = convert(a, "muller")
        assert isinstance(m.acceptance, MullerStates)
        assert equivalent(a, m)[0]

    def test_muller_to_tmuller(self):
        a = fixture("fig3_M")
        t = convert(a, "tmuller")
        assert t.acceptance.kind == "tmuller"
        assert equivalent(a, t)[0]

    def test_muller_to_tmuller_table_is_loops_of_entries(self):
        # the last input's table holds an unreachable loop {3}, a set {0, 1}
        # that is not strongly connected, and a singleton {0} without a
        # self-loop
        odd = validate(
            TransitionStructure(AB, 4, 0, ((1, 2), (1, 2), (2, 2), (3, 3))),
            MullerStates(frozenset(map(frozenset, ({3}, {0, 1}, {0}, {1}, {2})))),
        )
        inputs = [a for _, a in all_fixtures() if a.acceptance.kind == "muller"]
        inputs += [random_dma(n, f"c/{i}") for n in (3, 4) for i in range(3)] + [odd]
        for a in inputs:
            if len(a.structure.all_transitions()) > 14:
                continue
            want = {
                t for s, t in brute_loopable_transition_sets(a.structure) if s in a.acceptance.table
            }
            assert convert(a, "tmuller").acceptance.table == want

    def test_chain_buchi_to_tmuller(self):
        a = fixture("fig2_B")
        t = convert(convert(convert(a, "parity"), "muller"), "tmuller")
        assert equivalent(a, t)[0]

    def test_same_kind_is_noop(self):
        a = fixture("fig2_M")
        assert convert(a, "muller") is a

    def test_unsupported(self):
        with pytest.raises(UnsupportedConversion):
            convert(fixture("fig2_M"), "buchi")
        with pytest.raises(UnsupportedConversion):
            convert(fixture("fig2_T"), "muller")


class TestEquivalent:
    def test_same_language_pair(self):
        same, witness = equivalent(fixture("fig3_M"), fixture("fig3_P"))
        assert same and witness is None

    def test_complement_gives_witness(self):
        for name in ("fig2_B", "fig3_M", "L1", "fig6_P"):
            a = fixture(name)
            same, witness = equivalent(a, complement(a))
            assert not same
            assert accepts(a, witness) != accepts(complement(a), witness)

    def test_witness_distinguishes(self):
        rng = random.Random(23)
        for i in range(40):
            a = random_acceptor(rng, max_states=4)
            b = random_acceptor(rng, max_states=4)
            same, witness = equivalent(a, b)
            if same:
                for _ in range(10):
                    w = random_lasso(rng, a.alphabet)
                    assert accepts(a, w) == accepts(b, w), (i, w)
            else:
                assert accepts(a, witness) != accepts(b, witness), i

    def test_reflexive(self):
        for name in ("fig2_T", "fig5_Dbad"):
            assert equivalent(fixture(name), fixture(name))[0]
