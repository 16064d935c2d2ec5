"""Transition profiles, the profile monoid, respectiveness, non-counting."""

import random
from itertools import islice

import pytest

from rightcon import (
    LassoWord,
    accepts,
    convert,
    fixture,
    complement,
    is_non_counting,
    is_respective,
    lasso,
    omega_accept,
    profile_monoid,
    random_dma,
    respective_pair_check,
    rightcon_quotient,
)
from rightcon.errors import CapacityExceeded
from rightcon.model import Alphabet, Profile, buchi, make_structure, validate
from rightcon.profiles import (
    MONOID_CAPACITY,
    _aperiodic,
    _closure,
    _counting_by_classes,
    _counts,
    _on_cycles,
    _syntactic_classes,
)
from rightcon.semantics import LoopVerdicts, _walk

from helpers import (
    ACCEPTANCE_KINDS,
    all_fixtures,
    naive_accepts,
    naive_monoid,
    naive_profile,
    naive_verdict,
    oracle_respective_bruteforce,
    prefix_pumping_flip,
    random_acceptor,
    refutes_respective,
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


def element_of(m, word):
    """Index of the element of a nonempty word, walked along `right` from
    the element of its first letter."""
    symbol_index = m.acceptor.alphabet.index
    i = m.letters[symbol_index(word[0])]
    for sym in word[1:]:
        i = m.right[i][symbol_index(sym)]
    return i


def _subset(rng, pool):
    """A random nonempty subset of pool."""
    items = sorted(pool)
    return frozenset(x for x in items if rng.random() < 0.5) or frozenset([rng.choice(items)])


def _visited_sets(rng, a, draws):
    """Random nonempty (states, transitions) visited sets of acceptor a,
    drawn from all states/transitions and from inside Muller table entries."""
    state_pools = [range(a.structure.state_count)]
    trans_pools = [a.structure.all_transitions()]
    if a.acceptance.kind == "muller":
        state_pools += sorted(a.acceptance.table, key=sorted)
    if a.acceptance.kind == "tmuller":
        trans_pools += sorted(a.acceptance.table, key=sorted)
    for _ in range(draws):
        yield _subset(rng, rng.choice(state_pools)), _subset(rng, rng.choice(trans_pools))


def _assert_naive_monoid(name, a):
    """Check profile_monoid(a) against helpers.naive_monoid; returns its
    elements as (targets, keys, representative)."""
    m = profile_monoid(a)
    elements = [(e.targets, e.keys, e.representative) for e in m.elements]
    assert (elements, m.letters, m.right) == naive_monoid(a), name
    return elements


def _power_cycle(m, i):
    """Indices of the powers of elements[i] on their cycle: the right
    table's run on its representative, read once per power."""
    u = tuple(map(m.acceptor.alphabet.index, m.elements[i].representative))
    path, entry = _walk(m.right, i, u, ())
    return set(path[entry * len(u)::len(u)])


def _small_inputs(per_kind=6):
    """The fixtures, then random acceptors of every kind."""
    rng = random.Random("profiles/tables")
    out = all_fixtures()
    for kind in ACCEPTANCE_KINDS:
        out += [(f"{kind}/{i}", random_acceptor(rng, max_states=4, kinds=(kind,))) for i in range(per_kind)]
    return out


class TestProfileAlgebra:
    def test_letters_are_single_transitions(self):
        for name in ("fig3_M", "fig6_P", "fig2_T", "fig5_Dbad"):
            a = fixture(name)
            m = profile_monoid(a)
            syms = a.alphabet.symbols
            assert len(m.letters) == len(syms), name
            for sym, i in zip(syms, m.letters):
                assert i == m.by_key[naive_profile(a, (sym,))], (name, sym)
            # the first elements are the distinct letters, in alphabet order
            distinct = list(dict.fromkeys(m.letters))
            assert distinct == list(range(len(distinct))), name

    def test_composition_matches_concatenation(self):
        # walking `right` from x's element along y lands on the element of
        # x + y, which holds the simulated profile of x + y
        rng = random.Random(3)
        for name in ("fig3_M", "fig6_P", "aab"):
            a = fixture(name)
            m = profile_monoid(a)
            syms = a.alphabet.symbols
            for _ in range(50):
                u = tuple(rng.choice(syms) for _ in range(rng.randint(1, 4)))
                v = tuple(rng.choice(syms) for _ in range(rng.randint(1, 4)))
                assert element_of(m, u) == m.by_key[naive_profile(a, u)], (name, u)
                want = m.by_key[naive_profile(a, u + v)]
                assert element_of(m, u + v) == want, (name, u, v)
                e = m.elements[element_of(m, v)]
                assert element_of(m, u + e.representative) == want, (name, u, v)

    def test_profile_targets_match_runs(self):
        a = fixture("fig5_Bbad")
        s = a.structure
        m = profile_monoid(a)
        for w in words_up_to(s.alphabet, 1, 3):
            e = m.elements[element_of(m, w)]
            for q in range(s.state_count):
                assert e.targets[q] == s.run(q, w)


class TestProfileMonoid:
    def test_closed_under_composition(self):
        a = fixture("fig3_M")
        m = profile_monoid(a)
        keys = {(e.targets, e.keys) for e in m.elements}
        assert len(keys) == len(m.elements)
        # the monoid holds nonempty words only: the empty word has no element
        assert all(e.representative for e in m.elements)
        for e in m.elements:
            for f in m.elements:
                assert naive_profile(a, e.representative + f.representative) in keys

    def test_representatives_generate_elements(self):
        for name in ("aab", "fig3_M", "fig6_P", "fig2_T", "fig5_Dbad"):
            a = fixture(name)
            m = profile_monoid(a)
            for i, e in enumerate(m.elements):
                assert (e.targets, e.keys) == naive_profile(a, e.representative), (name, i)
                assert m.by_key[e.targets, e.keys] == i, (name, i)

    def test_right_table_composes_with_generators(self):
        for name in ("fig3_M", "aab", "fig5_Dbad"):
            a = fixture(name)
            m = profile_monoid(a)
            syms = a.alphabet.symbols
            assert len(m.right) == len(m.elements), name
            for e, row in zip(m.elements, m.right):
                assert row == [
                    m.by_key[naive_profile(a, e.representative + (sym,))] for sym in syms
                ], name
            # walking right along f's representative multiplies by f
            for i, e in enumerate(m.elements):
                for f in m.elements:
                    j = i
                    for sym in f.representative:
                        j = m.right[j][a.alphabet.index(sym)]
                    want = naive_profile(a, e.representative + f.representative)
                    assert j == m.by_key[want], name

    def test_capacity(self):
        with pytest.raises(CapacityExceeded):
            profile_monoid(fixture("fig5_Dbad"), capacity=2)

    def test_reduced_key_is_sound(self):
        # elements stand for their words in loops and products: a key that
        # merged words behaving differently would fail here
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
                    cx = m.elements[element_of(m, x)]
                    cy = m.elements[element_of(m, y)]
                    for q in range(s.state_count):
                        got = omega_accept(a, cx, cy, q)
                        assert got == naive_accepts(a, LassoWord(x, y), q), (kind, x, y, q)
                    xy = element_of(m, cx.representative + cy.representative)
                    assert xy == m.by_key[naive_profile(a, x + y)], (kind, x, y)

    def test_join_is_the_key_of_a_union(self):
        # join(loop_key(A), loop_key(B)) == loop_key(A | B) for nonempty
        # visited sets, drawn inside Muller table entries as well as anywhere
        rng = random.Random("profiles/join")
        for kind in ACCEPTANCE_KINDS:
            for _ in range(30):
                a = random_acceptor(rng, max_states=5, kinds=(kind,))
                acc = a.acceptance
                draws = list(_visited_sets(rng, a, 40))
                for (sa, ta), (sb, tb) in zip(draws[::2], draws[1::2]):
                    ka, kb = acc.loop_key(sa, ta), acc.loop_key(sb, tb)
                    assert acc.join(ka, kb) == acc.loop_key(sa | sb, ta | tb), (kind, sa, sb, ta, tb)

    def test_accepts_key_is_the_verdict_of_the_sets(self):
        rng = random.Random("profiles/accepts_key")
        for kind in ACCEPTANCE_KINDS:
            seen = set()
            for _ in range(30):
                a = random_acceptor(rng, max_states=5, kinds=(kind,))
                acc = a.acceptance
                for states, trans in _visited_sets(rng, a, 20):
                    want = naive_verdict(acc, states, trans)
                    assert acc.accepts_key(acc.loop_key(states, trans)) == want, (kind, states, trans)
                    seen.add(want)
            # both verdicts occur for every kind
            assert seen == {False, True}, kind

    def test_closure_streams_the_monoid_in_order(self):
        for name, a in _small_inputs():
            elements = profile_monoid(a).elements
            assert list(_closure(a, MONOID_CAPACITY, [], [])) == elements, name
            # each element is yielded when found, before later ones are
            # searched for: a capacity one short of the monoid still yields
            # every element but the last
            n = len(elements)
            stream = _closure(a, n - 1, [], [])
            assert list(islice(stream, n - 1)) == elements[:-1], name
            if n > 1:
                with pytest.raises(CapacityExceeded):
                    next(stream)

    def test_closure_matches_the_naive_monoid(self):
        # the same elements (targets, keys, representative) in the same
        # order, and the same letters and right table, as a breadth-first
        # search over simulated words
        rng = random.Random("profiles/naive_monoid")
        inputs = all_fixtures()
        inputs += [(f"{n}/nc/{i}", random_dma(n, f"nc/{i}")) for n in (3, 4, 5) for i in range(20)]
        for kind in ACCEPTANCE_KINDS:
            inputs += [(f"{kind}/{i}", random_acceptor(rng, max_states=4, kinds=(kind,))) for i in range(6)]
        for name, a in inputs:
            _assert_naive_monoid(name, a)

    def test_closure_matches_the_naive_monoid_past_the_byte_limit(self):
        # (label, acceptor, cells) on both sides of the 256-cell limit of
        # the closure's byte codes; past it the codes are tuples
        wide = [
            (f"tmuller/c/{i}", convert(random_dma(4, f"c/{i}"), "tmuller"), cells)
            for i, cells in ((14, 245), (114, 263), (22, 301))
        ]
        # 300 states but 3 cells: a byte cannot name the targets
        ab = Alphabet(("a", "b"))
        tall = make_structure(ab, 300, 0, {(q, s): 299 - (s == "b") for q in range(300) for s in "ab"})
        wide.append(("300 states", validate(tall, buchi(299)), 3))
        for name, a, cells in wide:
            elements = _assert_naive_monoid(name, a)
            assert len({cell for t, k, _ in elements for cell in zip(t, k)}) == cells, name

    def test_transition_muller_monoid_stays_small(self):
        # keyed on full visited-transition sets, this acceptor's monoid
        # passed a gigabyte before raising CapacityExceeded
        rng = random.Random(5)
        for i in range(40):
            a = random_acceptor(rng, 6, kinds=(ACCEPTANCE_KINDS[i % 5],))
        assert a.acceptance.kind == "tmuller"
        assert len(profile_monoid(a).elements) < 1000
        assert is_respective(a)[0] == oracle_respective_bruteforce(a)[0]


def _iterate(f, x, times):
    for _ in range(times):
        x = f[x]
    return x


def _functional_graphs():
    """Maps of n = 1..40 states: random ones, an (n-1)-step path into a
    fixed point, one n-cycle (n = 1 gives the single state), and several
    cycles of mixed length with tails."""
    rng = random.Random("profiles/on_cycles")
    maps = [[rng.randrange(n) for _ in range(n)] for n in range(1, 41) for _ in range(5)]
    maps += [list(range(1, n)) + [n - 1] for n in range(1, 41)]
    maps += [list(range(1, n)) + [0] for n in range(1, 41)]
    for n in range(12, 41):
        f, start = [], 0
        for length in (1, 2, 3, 5):  # cycles on the first 11 states
            f += [start + (i + 1) % length for i in range(length)]
            start += length
        f += [rng.randrange(len(f)) for _ in range(n - 11)]  # tails into them
        perm = list(range(n))
        rng.shuffle(perm)
        inverse = {p: q for q, p in enumerate(perm)}
        maps.append([perm[f[inverse[q]]] for q in range(n)])
    return maps


class TestOnCycles:
    def test_matches_iterating_the_map(self):
        for f in _functional_graphs():
            n = len(f)
            g = _on_cycles(f)
            for x in range(n):
                h = _iterate(f, x, n)  # on x's cycle, as n steps pass any tail
                assert g[x] in {_iterate(f, h, k) for k in range(n)}, (f, x)
                # x's orbit settles iff its image is a fixed point
                assert (f[g[x]] == g[x]) == (f[h] == h), (f, x)

    def test_aperiodic_and_counts_read_it(self):
        rng = random.Random("profiles/on_cycles/rules")
        for f in _functional_graphs():
            n = len(f)
            cycles = [{_iterate(f, h, k) for k in range(n)} for h in {_iterate(f, x, n) for x in range(n)}]
            e = Profile(tuple(f), (None,) * n, ("a",))
            assert _aperiodic(e) == all(len(c) == 1 for c in cycles), f
            # proj on the states the map reaches from a random start set
            reached = set()
            for q in rng.sample(range(n), rng.randint(1, n)):
                while q not in reached:
                    reached.add(q)
                    q = f[q]
            proj = {q: rng.randrange(3) for q in sorted(reached)}
            want = any(len({proj[q] for q in c}) > 1 for c in cycles if c <= reached)
            assert _counts(e, proj) == want, (f, proj)


class TestOmegaAccept:
    def test_table_verdicts_match_simulation(self):
        # the ω-verdict of every element from every reachable state, read
        # from its tables, against simulation of its representative
        for name, a in _small_inputs():
            for e in profile_monoid(a).elements:
                verdicts = LoopVerdicts(a, e)
                w = LassoWord((), e.representative)
                for q in sorted(a.structure.reachable_states()):
                    assert verdicts[q] == naive_accepts(a, w, q), (name, e.representative, q)

    def test_matches_lasso_membership(self):
        # an empty spoke is read as one more turn of the cycle: the monoid
        # has no element for the empty word
        rng = random.Random(17)
        for name in ("fig3_M", "fig6_P", "fig2_T", "fig5_Cbad"):
            a = fixture(name)
            m = profile_monoid(a)
            syms = a.alphabet.symbols
            for _ in range(50):
                spoke = tuple(rng.choice(syms) for _ in range(rng.randint(0, 4)))
                cycle = tuple(rng.choice(syms) for _ in range(rng.randint(1, 4)))
                got = omega_accept(
                    a,
                    m.elements[element_of(m, spoke or cycle)],
                    m.elements[element_of(m, cycle)],
                    a.structure.initial,
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

    def test_stops_at_the_first_failing_element(self):
        # its monoid has over 100,000 elements; the witness is the 47th found
        a = random_dma(7, "dump/0")
        assert is_respective(a) == (False, ((), ("a", "a", "c", "b")))
        assert refutes_respective(a, (), ("a", "a", "c", "b"))

    def test_answers_before_the_monoid_exceeds_capacity(self):
        # the whole monoid of each of these exceeds MONOID_CAPACITY
        inputs = [random_dma(8, f"dump/{i}") for i in range(3)]
        inputs.append(convert(random_dma(5, "c/0"), "tmuller"))
        for a in inputs:
            with pytest.raises(CapacityExceeded):
                profile_monoid(a, capacity=5000)
            got, (x, u) = is_respective(a)
            assert not got
            assert refutes_respective(a, x, u), (x, u)


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

    def test_streamed_answer_matches_the_whole_monoid(self):
        # the rules settle elements in shortlex order of the symbols; over
        # ("c", "b", "a") that order is not the closure's alphabet-index order
        rng = random.Random("profiles/noncounting/cba")
        inputs = _small_inputs(per_kind=12)
        inputs += [(f"{n}/nc/{i}", random_dma(n, f"nc/{i}")) for n in (3, 4) for i in range(60)]
        inputs += [(f"cba/{i}", random_acceptor(rng, max_states=4, alphabet=Alphabet(("c", "b", "a")))) for i in range(30)]
        for name, a in inputs:
            m = profile_monoid(a)
            proj = rightcon_quotient(a).projection
            assert is_non_counting(a) == _counting_by_classes(a, proj, m.elements, m.letters, m.right), name

    def test_rules_match_their_definitions(self):
        # aperiodic: the powers reach a fixed point; counts: two powers on
        # the cycle differ in base colour, and so in syntactic class
        seen = set()
        for name, a in _small_inputs():
            m = profile_monoid(a)
            proj = rightcon_quotient(a).projection
            reachable = sorted(proj)
            cls = _syntactic_classes(a, proj, m.elements, m.letters, m.right)

            def base_colour(f):
                verdicts = LoopVerdicts(a, f)
                return tuple(proj[f.targets[p]] for p in reachable), tuple(verdicts[p] for p in reachable)

            for i, e in enumerate(m.elements):
                cycle = _power_cycle(m, i)
                aperiodic, counts = _aperiodic(e), _counts(e, proj)
                assert aperiodic == (len(cycle) == 1), (name, i)
                assert counts == (len({base_colour(m.elements[j]) for j in cycle}) > 1), (name, i)
                if counts:
                    assert len({cls[j] for j in cycle}) > 1, (name, i)
                seen.add((aperiodic, counts))
        # every combination the rules allow occurs
        assert seen == {(True, False), (False, True), (False, False)}

    def test_answers_before_the_monoid_exceeds_capacity(self):
        # the whole monoid of each of these exceeds MONOID_CAPACITY
        inputs = [random_dma(8, f"dump/{i}") for i in range(3)]
        inputs.append(convert(random_dma(5, "c/0"), "tmuller"))
        for a in inputs:
            with pytest.raises(CapacityExceeded):
                profile_monoid(a, capacity=5000)
            got, (u, v, w, n) = is_non_counting(a)
            assert not got
            before = LassoWord(tuple(u) + tuple(v) * n + w.spoke, w.cycle)
            after = LassoWord(tuple(u) + tuple(v) * (n + 1) + w.spoke, w.cycle)
            assert naive_accepts(a, before) != naive_accepts(a, after), (u, v, w, n)

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
