"""Random acceptor generation and the quotient-isomorphism experiment."""

import random

import pytest

from rightcon import (
    ExperimentConfig,
    fixture,
    random_dma,
    rightcon_quotient,
    run_experiment,
    validate,
)
from rightcon.lab import _sampled_distinguished
from rightcon.graph import sccs
from rightcon.model import MullerStates

from helpers import ACCEPTANCE_KINDS, naive_sampled_distinguished, random_acceptor


class TestRandomDma:
    def test_deterministic(self):
        a = random_dma(5, seed=42)
        b = random_dma(5, seed=42)
        assert a.structure == b.structure
        assert a.acceptance == b.acceptance
        assert random_dma(5, seed=43).structure != a.structure or (
            random_dma(5, seed=43).acceptance != a.acceptance
        )

    def test_postconditions(self):
        for seed in range(10):
            a = random_dma(6, seed=seed, alphabet_size=3, accepting_sets=2)
            s = a.structure
            assert s.state_count == 6
            assert len(s.alphabet) == 3
            assert s.reachable_states() == frozenset(range(6))
            assert isinstance(a.acceptance, MullerStates)
            assert len(a.acceptance.table) == 2
            for entry in a.acceptance.table:
                # strongly connected, self-loop required for singletons
                comps = sccs(entry, lambda q: s.delta[q])
                assert len(comps) == 1
                if len(entry) == 1:
                    q = next(iter(entry))
                    assert q in s.delta[q]
            validate(s, a.acceptance)

    def test_validates(self):
        validate(*(lambda a: (a.structure, a.acceptance))(random_dma(8, 1)))

    def test_bad_state_count(self):
        with pytest.raises(ValueError):
            random_dma(0, seed=1)


class TestSampledDistinguished:
    def test_implies_exact_distinct(self):
        # whenever sampling splits all states, the exact partition must be
        # discrete too; sampling can only under-approximate distinctions
        for seed in range(25):
            a = random_dma(4, seed=f"t/{seed}")
            rng = random.Random(seed)
            sampled = _sampled_distinguished(a, 3000, rng)
            exact = rightcon_quotient(a).structure.state_count == 4
            if sampled:
                assert exact, seed

    def test_single_state_trivially_distinguished(self):
        a = random_dma(1, seed=3, accepting_sets=1)
        assert _sampled_distinguished(a, 10, random.Random(0))

    def test_single_state_cannot_host_two_sets(self):
        from rightcon.errors import SamplingExhausted

        with pytest.raises(SamplingExhausted):
            random_dma(1, seed=3, accepting_sets=2)


class TestSampledReplayOracle:
    """The replay against its plain form, draw for draw: both get a
    fresh generator of the same seed, and must agree on the verdict and on
    the generator's state afterwards.  500 and 5000 samples straddle the
    warm-up at step 1000."""

    @staticmethod
    def agree(acceptor, samples, seed):
        ours, twin = random.Random(seed), random.Random(seed)
        verdict = _sampled_distinguished(acceptor, samples, ours)
        assert verdict == naive_sampled_distinguished(acceptor, samples, twin), seed
        assert ours.getstate() == twin.getstate(), seed
        return verdict

    @pytest.mark.parametrize("samples", [30, 500, 5000])
    def test_all_acceptance_kinds(self, samples):
        rng = random.Random("replay/kinds")
        verdicts = set()
        for i in range(25):
            kind = ACCEPTANCE_KINDS[i % len(ACCEPTANCE_KINDS)]
            a = random_acceptor(rng, 6, kinds=(kind,))
            verdicts.add(self.agree(a, samples, f"replay/{kind}/{i}"))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("samples", [30, 500, 5000])
    def test_random_dmas(self, samples):
        verdicts = set()
        for n in range(3, 9):
            for t in range(5):
                a = random_dma(n, f"replay/{t}")
                verdicts.add(self.agree(a, samples, f"replay/{n}/{t}"))
        assert verdicts == {True, False}


class TestRunExperiment:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(sizes=(3,), mode="guess"))

    def test_deterministic_report(self):
        cfg = ExperimentConfig(sizes=(3, 4), trials_per_size=5, seed=12)
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1 == r2

    def test_report_lines_format(self):
        cfg = ExperimentConfig(sizes=(3,), trials_per_size=4, seed=2)
        lines = run_experiment(cfg).lines()
        assert lines[0] == "mode=exact"
        assert lines[1] == "seed=2"
        assert lines[2].startswith("size=3 trials=4 isomorphic=")

    def test_counts_add_up(self):
        cfg = ExperimentConfig(sizes=(3, 4), trials_per_size=6, seed=8)
        for row in run_experiment(cfg).rows:
            assert row.isomorphic + row.not_isomorphic == row.trials

    def test_sampled_never_beats_exact(self):
        sizes = (3, 4)
        exact = run_experiment(
            ExperimentConfig(sizes=sizes, trials_per_size=8, seed=21)
        )
        sampled = run_experiment(
            ExperimentConfig(
                sizes=sizes, trials_per_size=8, seed=21, mode="sampled",
                samples=5000,
            )
        )
        for e_row, s_row in zip(exact.rows, sampled.rows):
            assert s_row.isomorphic <= e_row.isomorphic
