"""Transition profiles, the profile monoid, respectiveness, non-counting."""

import random

import pytest

from rightcon import (
    LassoWord,
    accepts,
    fixture,
    complement,
    is_non_counting,
    is_respective,
    lasso,
    omega_accept,
    profile_monoid,
    random_dma,
    respective_pair_check,
)
from rightcon.errors import CapacityExceeded
from rightcon.profiles import compose, identity_profile, profile_of_word

from helpers import (
    ACCEPTANCE_KINDS,
    all_fixtures,
    naive_accepts,
    oracle_respective_bruteforce,
    prefix_pumping_flip,
    random_acceptor,
    words_up_to,
)

EXPECTED_RESPECTIVE = {
    "fig3_M": False, "fig3_B": False, "fig3_C": False, "fig3_Mprime": True,
    "fig3_T": True, "fig5_Bbad": False, "fig5_Cbad": False, "fig5_Dbad": False,
    "fig6_P": True, "fig6_B2": False, "fig6_BC": False, "fig7_bowtie": False,
    "aab": True, "fgaxa": True, "L1": True, "L2": True,
}

EXPECTED_NONCOUNTING = {
    "aab": False, "fgaxa": True, "fig3_M": False, "fig3_Mprime": True,
    "fig6_P": False, "L1": True, "L2": True, "fig2_M": True,
}


class TestProfileAlgebra:
    def test_identity_laws(self):
        s = fixture("fig3_M").structure
        e = identity_profile(s.state_count)
        for w in ("", "0", "01", "110"):
            p = profile_of_word(s, w)
            assert compose(e, p) == p
            assert compose(p, e) == p

    def test_composition_matches_concatenation(self):
        rng = random.Random(3)
        for name in ("fig3_M", "fig6_P", "aab"):
            s = fixture(name).structure
            syms = s.alphabet.symbols
            for _ in range(50):
                u = tuple(rng.choice(syms) for _ in range(rng.randint(0, 4)))
                v = tuple(rng.choice(syms) for _ in range(rng.randint(0, 4)))
                assert compose(
                    profile_of_word(s, u), profile_of_word(s, v)
                ) == profile_of_word(s, u + v)

    def test_profile_targets_match_runs(self):
        s = fixture("fig5_Bbad").structure
        for w in words_up_to(s.alphabet, 0, 3):
            p = profile_of_word(s, w)
            for q in range(s.state_count):
                assert p.targets[q] == s.run(q, w)


class TestProfileMonoid:
    def test_closed_under_composition(self):
        a = fixture("fig3_M")
        m = profile_monoid(a)
        keys = {m.key(e) for e in m.elements}
        # the identity (empty word) is tracked separately from the
        # nonempty-word elements
        assert m.identity.representative == ()
        assert m.key(m.identity) not in keys
        for e in m.elements:
            for f in m.elements:
                assert m.key(m.canonical(compose(e, f))) in keys

    def test_representatives_generate_elements(self):
        a = fixture("aab")
        m = profile_monoid(a)
        for e in m.elements:
            assert m.key(profile_of_word(a.structure, e.representative)) == m.key(e)

    def test_right_table_composes_with_generators(self):
        for name in ("fig3_M", "aab", "fig5_Dbad"):
            m = profile_monoid(fixture(name))
            assert len(m.right) == len(m.elements), name
            for e, row in zip(m.elements, m.right):
                assert row == [m.element_index(compose(e, g)) for g in m.generators], name
            # walking right along f's representative multiplies by f
            symbol_index = m.acceptor.alphabet.index
            for i, e in enumerate(m.elements):
                for f in m.elements:
                    j = i
                    for sym in f.representative:
                        j = m.right[j][symbol_index(sym)]
                    assert j == m.element_index(compose(e, f)), name

    def test_capacity(self):
        with pytest.raises(CapacityExceeded):
            profile_monoid(fixture("fig5_Dbad"), capacity=2)

    def test_reduced_key_is_sound(self):
        # canonical elements stand for their words in loops and products:
        # a key that merged words behaving differently would fail here
        rng = random.Random("profiles/key")
        for kind in ACCEPTANCE_KINDS:
            for _ in range(8):
                a = random_acceptor(rng, max_states=4, kinds=(kind,))
                s = a.structure
                m = profile_monoid(a)
                syms = s.alphabet.symbols
                for _ in range(10):
                    x = tuple(rng.choice(syms) for _ in range(rng.randint(1, 5)))
                    y = tuple(rng.choice(syms) for _ in range(rng.randint(1, 5)))
                    cx = m.canonical(profile_of_word(s, x))
                    cy = m.canonical(profile_of_word(s, y))
                    for q in range(s.state_count):
                        got = omega_accept(a, cx, cy, q)
                        assert got == naive_accepts(a, LassoWord(x, y), q), (kind, x, y, q)
                    assert m.key(compose(cx, cy)) == m.key(profile_of_word(s, x + y))

    def test_transition_muller_monoid_stays_small(self):
        # keyed on full visited-transition sets, this acceptor's monoid
        # passed a gigabyte before raising CapacityExceeded
        rng = random.Random(5)
        for i in range(40):
            a = random_acceptor(rng, 6, kinds=(ACCEPTANCE_KINDS[i % 5],))
        assert a.acceptance.kind == "tmuller"
        assert len(profile_monoid(a).elements) < 1000
        assert is_respective(a)[0] == oracle_respective_bruteforce(a)[0]


class TestOmegaAccept:
    def test_matches_lasso_membership(self):
        rng = random.Random(17)
        for name in ("fig3_M", "fig6_P", "fig2_T", "fig5_Cbad"):
            a = fixture(name)
            s = a.structure
            syms = s.alphabet.symbols
            for _ in range(50):
                spoke = tuple(rng.choice(syms) for _ in range(rng.randint(0, 4)))
                cycle = tuple(rng.choice(syms) for _ in range(rng.randint(1, 4)))
                got = omega_accept(
                    a,
                    profile_of_word(s, spoke),
                    profile_of_word(s, cycle),
                    s.initial,
                )
                assert got == naive_accepts(a, LassoWord(spoke, cycle)), (name, spoke, cycle)


class TestRespective:
    def test_fixture_verdicts(self):
        for name, want in EXPECTED_RESPECTIVE.items():
            got, witness = is_respective(fixture(name))
            assert got == want, name
            assert (witness is None) == want, name

    def test_witness_fails_pair_check(self):
        for name, want in EXPECTED_RESPECTIVE.items():
            if want:
                continue
            a = fixture(name)
            _, (x, u) = is_respective(a)
            assert not respective_pair_check(a, x, u), name
            # and the witnessed word really is in the language
            assert accepts(a, LassoWord(tuple(x), tuple(u))), name

    def test_pair_check_examples(self):
        a = fixture("fig5_Bbad")
        assert not respective_pair_check(a, "", "1")
        assert not respective_pair_check(a, "", "1012")
        assert respective_pair_check(a, "", "10121012")

    def test_pair_check_vacuous_when_rejected(self):
        a = fixture("fig3_M")
        # a rejected lasso never witnesses non-respectiveness; the orbit of
        # [""] under 0 alternates between two classes, so only the rejection
        # makes this check pass
        assert not naive_accepts(a, lasso("", "0"))
        assert respective_pair_check(a, (), ("0",))

    def test_complement_fig6_P(self):
        got, witness = is_respective(complement(fixture("fig6_P")))
        assert not got
        assert witness == ((), ("b",))


class TestNonCounting:
    def test_fixture_verdicts(self):
        for name, want in EXPECTED_NONCOUNTING.items():
            got, witness = is_non_counting(fixture(name))
            assert got == want, name
            assert (witness is None) == want, name

    def test_witness_semantics(self):
        # a witness (u, v, w, n) exactly when counting: pumping v once more
        # at power n flips membership
        for name, a in all_fixtures():
            got, witness = is_non_counting(a)
            assert (witness is None) == got, name
            if witness is not None:
                u, v, w, n = witness
                before = LassoWord(tuple(u) + tuple(v) * n + w.spoke, w.cycle)
                after = LassoWord(tuple(u) + tuple(v) * (n + 1) + w.spoke, w.cycle)
                assert accepts(a, before) != accepts(a, after), name

    def test_no_witness_when_counting_only_in_the_period(self):
        # these count inside u.(v^n.w)^omega; no prefix pumping flips
        assert prefix_pumping_flip(fixture("aab")) is not None
        for seed in ("nc/6", "nc/26"):
            a = random_dma(4, seed)
            assert is_non_counting(a) == (False, None), seed
            assert prefix_pumping_flip(a) is None, seed

    def test_noncounting_implies_respective_on_fixtures(self):
        for name, a in all_fixtures():
            if is_non_counting(a)[0]:
                assert is_respective(a)[0], name

    def test_noncounting_implies_respective_random(self):
        rng = random.Random(29)
        for i in range(30):
            a = random_acceptor(rng, max_states=4)
            if is_non_counting(a)[0]:
                assert is_respective(a)[0], i
