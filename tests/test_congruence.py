"""Right congruence: quotient, index, classification, decomposition."""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from rightcon import (
    accepts,
    classify,
    equivalent,
    fixture,
    index,
    is_trivial,
    powerset,
    print_oaf,
    random_dma,
    refines,
    rightcon_quotient,
    state_equivalent,
    trivial_decomposition,
    validate,
)
from rightcon import parity
from rightcon.cli import main
from rightcon.congruence import _parity_certificate, partition_language_equivalent
from rightcon.dfa import Dfa
from rightcon.errors import CapacityExceeded, NotMuller, NotTrivial
from rightcon.model import Alphabet, alphabet
from rightcon.ops import combine

from helpers import (
    ACCEPTANCE_KINDS,
    all_fixtures,
    forced_verdicts,
    naive_accepts,
    random_acceptor,
    random_lasso,
    shortlex_first_words,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Prints every fixture's classify counterexamples and certificates as JSON,
# the certificates with every set sorted.
COUNTEREXAMPLES_SCRIPT = """
import json
from rightcon import classify, fixture, fixture_names

def canon(x):
    if isinstance(x, frozenset):
        return sorted(map(canon, x), key=repr)
    if isinstance(x, tuple):
        return [canon(y) for y in x]
    return x

out = {}
for name in fixture_names():
    c = classify(fixture(name))
    out[name] = {
        flag: [sorted(x) if isinstance(x, frozenset) else str(x) for x in ce]
        for flag, ce in c.counterexamples.items()
    }
    out[name]["certificates"] = {
        flag: [cert.kind] + [canon(v) for v in vars(cert).values()]
        for flag, cert in c.certificates.items()
    }
print(json.dumps(out))
"""

EXPECTED_INDEX = {
    "fig2_B": 1, "fig2_C": 1, "fig2_M": 1, "fig2_P": 4, "fig2_T": 1,
    "fig3_M": 3, "fig3_P": 3, "fig3_B": 4, "fig3_C": 4, "fig3_Mprime": 3,
    "fig3_T": 1, "fig5_Bbad": 4, "fig5_Cbad": 5, "fig5_Dbad": 6,
    "fig6_B1": 3, "fig6_B2": 3, "fig6_BC": 4, "fig6_P": 5,
    "fig7_M1": 2, "fig7_M2": 2, "fig7_M3": 1, "fig7_P1": 2, "fig7_P2": 2,
    "fig7_C1": 2, "fig7_C2": 2, "fig7_bowtie": 6,
    "L1": 4, "L2": 1, "aab": 4, "fgaxa": 1,
}


class TestQuotient:
    def test_indices(self):
        for name, n in EXPECTED_INDEX.items():
            assert index(fixture(name)) == n, name

    def test_trivial(self):
        for name, n in EXPECTED_INDEX.items():
            assert is_trivial(fixture(name)) == (n == 1), name

    def test_L1_representatives(self):
        q = rightcon_quotient(fixture("L1"))
        assert q.class_representatives == ((), ("a",), ("b",), ("a", "b"))
        assert q.classes == tuple(frozenset({i}) for i in range(4))

    def test_projection_consistent_with_representatives(self):
        # class ids follow the shortlex order of the representatives, and
        # each is the shortlex-least word reaching its class, as found by
        # enumerating words
        rng = random.Random("quotient/representatives")
        inputs = all_fixtures() + [
            (f"random/{kind}/{i}", random_acceptor(rng, max_states=6, kinds=(kind,)))
            for kind in ACCEPTANCE_KINDS
            for i in range(8)
        ]
        for name, a in inputs:
            q = rightcon_quotient(a)
            s = a.structure
            for cls_id, rep in enumerate(q.class_representatives):
                assert q.projection[s.run(s.initial, rep)] == cls_id, name
                assert q.structure.run(q.structure.initial, rep) == cls_id, name
            first = shortlex_first_words(s, q.projection.__getitem__)
            assert list(first) == list(range(len(q.classes))), name
            assert tuple(first.values()) == q.class_representatives, name

    def test_quotient_classes_partition_reachable(self):
        for name in ("fig3_B", "fig6_P", "aab"):
            a = fixture(name)
            q = rightcon_quotient(a)
            union = set()
            for c in q.classes:
                assert not (union & c)
                union |= c
            assert union == set(a.structure.reachable_states())

    def test_states_in_same_class_are_equivalent(self):
        for name in ("fig5_Dbad", "fig6_P", "L2"):
            a = fixture(name)
            q = rightcon_quotient(a)
            for cls in q.classes:
                members = sorted(cls)
                for other in members[1:]:
                    same, _ = state_equivalent(a, members[0], other)
                    assert same, (name, members[0], other)

    def test_distinct_classes_not_equivalent(self):
        a = fixture("fig3_M")
        q = rightcon_quotient(a)
        reps = [min(c) for c in q.classes]
        for i, p in enumerate(reps):
            for r in reps[i + 1:]:
                same, witness = state_equivalent(a, p, r)
                assert not same
                assert accepts(a, witness, p) != accepts(a, witness, r)

    def test_partition_matches_pairwise_checks(self):
        # two states share a block exactly when the pairwise product search
        # finds no discrepancy, whose witness the naive simulator confirms
        rng = random.Random("partition")
        inputs = all_fixtures()
        inputs += [(f"random/{i}", random_acceptor(rng, max_states=6)) for i in range(60)]
        for i in range(15):
            a = random_acceptor(rng, max_states=3)
            b = random_acceptor(rng, max_states=3)
            inputs.append((f"combine/{i}", combine(a, b, ("union", "intersection")[i % 2])))
        # experiment-sized draws, mostly their own quotient, where the
        # partition stops once every pair is split: 6/1 and 8/2 need several
        # discrepant SCCs for that, and 6/4, 8/1 and 9/4 keep a pair unsplit.
        # They are taken from the first five draws of each size, leaving out
        # those whose pairwise checks take longest.
        draws = {5: (0, 1, 2), 6: (1, 4), 7: (2, 4), 8: (1, 2), 9: (1, 4), 10: (2,)}
        inputs += [
            (f"dma/{n}/{i}", random_dma(n, f"partition/{i}")) for n, ids in draws.items() for i in ids
        ]
        merged = set()
        for name, a in inputs:
            blocks = partition_language_equivalent(a)
            block_of = {q: i for i, b in enumerate(blocks) for q in b}
            assert sum(map(len, blocks)) == len(block_of), name
            states = sorted(a.structure.reachable_states())
            if len(blocks) < len(states):
                merged.add(name)
            assert sorted(block_of) == states, name
            for k, q in enumerate(states):
                for p in states[:k]:
                    same, witness = state_equivalent(a, p, q)
                    assert (block_of[p] == block_of[q]) == same, (name, p, q)
                    if not same:
                        assert naive_accepts(a, witness, p) != naive_accepts(a, witness, q)
        assert {m for m in merged if m.startswith("dma/")} == {"dma/6/4", "dma/8/1", "dma/9/4"}

    def test_product_capacity_stops_a_blowup(self, monkeypatch, tmp_path):
        # the partition product of this draw pairs 1,417 parity states;
        # unbounded, its quotient runs half a minute to about 800 MB
        a = random_dma(18, "x/0", 3, 8)
        monkeypatch.setattr(parity, "PRODUCT_CAPACITY", 50_000)
        start = time.perf_counter()
        with pytest.raises(CapacityExceeded) as info:
            rightcon_quotient(a)
        assert time.perf_counter() - start < 10
        assert (info.value.what, info.value.limit) == ("parity product", 50_000)
        path = tmp_path / "x0.oaf"
        path.write_text(print_oaf(a))
        assert main(["quotient", str(path), "-o", str(tmp_path / "q.oaf")]) == 4

    def test_refines_quotient(self):
        for name in ("fig3_M", "fig5_Bbad", "L1", "fig7_bowtie"):
            a = fixture(name)
            q = rightcon_quotient(a)
            assert refines(a.structure, q.structure), name

    def test_refines_negative(self):
        from rightcon import make_structure

        ab = alphabet("a", "b")
        one = make_structure(ab, 1, 0, {(0, "a"): 0, (0, "b"): 0})
        swap = make_structure(
            ab, 2, 0, {(0, "a"): 1, (0, "b"): 0, (1, "a"): 0, (1, "b"): 1}
        )
        assert refines(swap, one)  # everything refines the trivial partition
        assert not refines(one, swap)
        assert refines(swap, swap)


class TestPowerset:
    def test_subset_construction(self):
        ab = alphabet("a", "b")
        # NFA: 0 -a-> {0,1}, 1 -b-> {1}
        ndelta = {(0, "a"): (0, 1), (1, "b"): (1,)}
        det = powerset(ab, [0], ndelta)
        # initial {0}; a -> {0,1}; b -> {} (dead)
        assert det.state_count == 4
        s0 = det.initial
        s01 = det.step(s0, "a")
        dead = det.step(s0, "b")
        assert det.step(s01, "a") == s01
        assert det.step(dead, "a") == dead and det.step(dead, "b") == dead
        assert det.step(s01, "b") != dead  # {1} survives on b

    def test_deterministic_input_unchanged_shape(self):
        ab = alphabet("a")
        det = powerset(ab, [0], {(0, "a"): (1,), (1, "a"): (0,)})
        assert det.state_count == 2


class TestClassify:
    def test_flags_and_evidence_keys(self):
        c = classify(fixture("fig3_M"))
        assert set(c.flags) == {"weak", "db", "dc", "IT", "IM", "IP", "IB", "IC"}
        assert c.index == 3 and not c.trivial

    def test_certificates_recognize_language(self):
        # every state-based certificate must yield the same language on the
        # quotient structure
        for name in ("fig3_M", "fig3_B", "fig3_C", "fig6_P", "aab", "fig7_P1"):
            a = fixture(name)
            c = classify(a)
            for flag in ("IM", "IP", "IB", "IC"):
                cert = c.certificates.get(flag)
                if cert is None:
                    continue
                cand = validate(c.quotient.structure, cert)
                assert equivalent(a, cand)[0], (name, flag)

    def test_conflict_counterexamples_distinguish(self):
        for name in ("fig3_Mprime", "L1", "fgaxa", "fig2_M"):
            a = fixture(name)
            c = classify(a)
            for flag, ce in c.counterexamples.items():
                if ce[0] != "conflict":
                    continue
                _, pos, neg = ce
                assert accepts(a, pos) and not accepts(a, neg), (name, flag)

    def test_counterexamples_only_for_failed_flags(self):
        for name in ("fig3_M", "fig3_Mprime", "fig6_P"):
            c = classify(fixture(name))
            for flag in ("IT", "IM", "IP", "IB", "IC"):
                assert (flag in c.counterexamples) == (not c.flags[flag]), name
                assert (flag in c.certificates) == c.flags[flag], name

    def test_counterexamples_do_not_depend_on_hash_seed(self):
        # loop sets are enumerated in set order over string-keyed
        # transitions, and that order follows the hash seed
        outs = []
        for seed in ("0", "1"):
            path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-c", COUNTEREXAMPLES_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            )
            outs.append(json.loads(proc.stdout))
        assert outs[0] == outs[1]
        assert any(ce[0] == "conflict" for ces in outs[0].values() for ce in ces.values())
        assert any("IP" in ces["certificates"] for ces in outs[0].values())

    def test_seven_to_ten_states_stay_within_capacity(self):
        # state sets whose quotient-image group holds no accepting set are
        # never expanded into transition sets
        for n in (7, 10):
            c = classify(random_dma(n, "c/0"), capacity=10_000)
            assert c.index == n

    def test_random_certificates_and_conflicts(self):
        rng = random.Random(5)
        for _ in range(30):
            a = random_acceptor(rng, max_states=4)
            c = classify(a)
            for flag, ce in c.counterexamples.items():
                if ce[0] == "conflict":
                    assert accepts(a, ce[1]) != accepts(a, ce[2])
            for flag in ("IM", "IP", "IB", "IC"):
                cert = c.certificates.get(flag)
                if cert is not None:
                    cand = validate(c.quotient.structure, cert)
                    assert equivalent(a, cand)[0]

    def test_parity_certificate_ignores_table_order(self):
        # classify hands the quotient loop table to the peeling in the order
        # the loop enumeration lists sets; the coloring must not depend on it
        rng = random.Random("classify/ip-order")
        inputs = [(name, a) for name, a in all_fixtures()]
        inputs += [(i, random_acceptor(rng)) for i in range(60)]
        checked = 0
        for tag, a in inputs:
            c = classify(a)
            if not c.flags["IP"]:
                continue
            # the quotient image of every loop with the verdict its lasso gets
            items = list({s: v for s, _, v in forced_verdicts(a, c.quotient)}.items())
            for _ in range(6):
                got = _parity_certificate(c.quotient.structure, dict(items))
                assert got == c.certificates["IP"], tag
                rng.shuffle(items)
            checked += 1
        assert checked >= 40


class TestTrivialDecomposition:
    def test_L2(self):
        dfas = trivial_decomposition(fixture("L2"))
        words = [d.enumerate_words(4) for d in dfas]
        assert words == [
            [("a",), ("a", "a"), ("a", "a", "a"), ("a", "a", "a", "a")],
            [("b",), ("b", "b"), ("b", "b", "b"), ("b", "b", "b", "b")],
        ]

    def test_block_words_loop_into_accepting_lassos(self):
        rng = random.Random(13)
        for name in ("L2", "fig2_M", "fig7_M3"):
            a = fixture(name)
            dfas = trivial_decomposition(a)
            assert dfas
            for d in dfas:
                for block in d.enumerate_words(6):
                    # any prefix followed by repeating the block is accepted
                    spoke = tuple(
                        rng.choice(a.alphabet.symbols)
                        for _ in range(rng.randint(0, 3))
                    )
                    from rightcon import lasso

                    assert accepts(a, lasso(spoke, block)), (name, block)

    def test_word_enumeration_over_budget_raises(self):
        # 2^20 words lie below the first accepted one: the search runs out
        # of steps and must say so instead of returning a short list
        ab = alphabet("a", "b")
        chain = {(q, s): min(q + 1, 20) for q in range(21) for s in ab.symbols}
        d = Dfa(ab, 0, chain, frozenset([20]))
        assert d.accepts("a" * 20)
        with pytest.raises(CapacityExceeded):
            d.enumerate_words(3)
        short = {(q, s): min(q + 1, 5) for q in range(6) for s in ab.symbols}
        assert len(Dfa(ab, 0, short, frozenset([5])).enumerate_words(3)) == 3

    def test_not_trivial(self):
        with pytest.raises(NotTrivial):
            trivial_decomposition(fixture("fig3_M"))

    def test_not_muller(self):
        with pytest.raises(NotMuller):
            trivial_decomposition(fixture("fig2_B"))
