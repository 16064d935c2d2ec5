"""Random acceptor generation and the quotient-isomorphism experiment."""

import random

import pytest

from rightcon import (
    Alphabet,
    ExperimentConfig,
    TransitionStructure,
    convert,
    fixture,
    random_dma,
    rightcon_quotient,
    run_experiment,
    validate,
)
import rightcon.lab
from rightcon.lab import _sampled_distinguished
from rightcon.graph import sccs
from rightcon.model import LassoWord, MullerStates

from helpers import (
    ACCEPTANCE_KINDS,
    naive_accepts,
    naive_sampled_distinguished,
    random_acceptance,
    random_acceptor,
    random_structure,
)


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
                comps = sccs([[t for t in s.delta[q] if t in entry] for q in range(6)], sorted(entry))
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

    @pytest.mark.parametrize(
        "size, trial, samples, verdict",
        [(5, 76, 3200, True), (6, 67, 2000, False), (6, 67, 2400, True), (7, 73, 2400, True), (8, 69, 2100, True)],
    )
    def test_pairs_live_after_warmup(self, size, trial, samples, verdict):
        # criterion 5's draws: in each, a two-state block is live from the
        # warm-up at step 1000 on for 1,000 or more lassos (2,136, 1,322,
        # 1,382 and 1,095 of them) before a lasso splits it.  With 2000
        # samples the pair of (6, 67) survives every lasso drawn.
        a = random_dma(size, f"1/{size}/{trial}")
        assert self.agree(a, samples, f"lasso/1/{size}/{trial}") is verdict

    def test_no_verdicts_when_runs_merge(self, monkeypatch):
        # every lasso's LoopVerdicts is recorded by the step that drew it;
        # the live blocks are re-derived from naive verdicts on the same
        # lassos, and a lasso on which every live block's runs meet after
        # the spoke or after one reading of the cycle builds none
        lassos, built = [], []
        draw = rightcon.lab._draw_lasso

        def recording_draw(rng, n, k):
            lassos.append(draw(rng, n, k))
            return lassos[-1]

        class RecordingVerdicts(rightcon.lab.LoopVerdicts):
            def __init__(self, acceptor, cycle):
                super().__init__(acceptor, cycle)
                built.append(len(lassos) - 1)

        monkeypatch.setattr(rightcon.lab, "_draw_lasso", recording_draw)
        monkeypatch.setattr(rightcon.lab, "LoopVerdicts", RecordingVerdicts)
        merging = 0
        for size, trial in ((5, 76), (6, 67), (8, 69)):
            a = random_dma(size, f"1/{size}/{trial}")
            lassos.clear()
            built.clear()
            _sampled_distinguished(a, 2000, random.Random(f"lasso/1/{size}/{trial}"))
            assert len(built) == len(set(built)), "one LoopVerdicts per lasso at most"
            delta = a.structure.delta
            symbols = a.alphabet.symbols
            blocks = [list(range(size))]
            for step, (spoke, cycle) in enumerate(lassos):
                meet = True
                for block in blocks:
                    ends = set(block)
                    for i in spoke + cycle:
                        ends = {delta[q][i] for q in ends}
                    meet = meet and len(ends) == 1
                if meet:
                    merging += 1
                    assert step not in built, (size, trial, step)
                w = LassoWord(tuple(symbols[i] for i in spoke), tuple(symbols[i] for i in cycle))
                blocks = [
                    part
                    for block in blocks
                    for verdict in (True, False)
                    if len(part := [q for q in block if naive_accepts(a, w, q) is verdict]) > 1
                ]
            assert built
        assert merging > 1000

    @pytest.mark.parametrize("samples", [500, 5000])
    def test_reset_letter_merges_runs(self, samples):
        # a and b are random, r sends every state to 0: spokes and cycles
        # that read r merge whole blocks, and the random rows merge some
        # of their states.  Most lassos read r, so 30 of them split no
        # acceptor here.
        rng = random.Random("replay/reset")
        verdicts = set()
        for i in range(15):
            kind = ACCEPTANCE_KINDS[i % len(ACCEPTANCE_KINDS)]
            ab = random_structure(rng, rng.randint(2, 6))
            rows = tuple(row + (0,) for row in ab.delta)
            s = TransitionStructure(Alphabet(("a", "b", "r")), ab.state_count, 0, rows)
            a = validate(s, random_acceptance(rng, s, kind))
            verdicts.add(self.agree(a, samples, f"replay/reset/{i}"))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("samples", [30, 500, 5000])
    def test_permutations_never_merge(self, samples):
        # every letter permutes the states, a in one cycle through all of
        # them: no two runs ever meet
        rng = random.Random("replay/permutation")
        verdicts = set()
        for i in range(15):
            kind = ACCEPTANCE_KINDS[i % len(ACCEPTANCE_KINDS)]
            n = rng.randint(3, 7)
            order = rng.sample(range(n), n)
            step_a = {order[j]: order[(j + 1) % n] for j in range(n)}
            step_b = rng.sample(range(n), n)
            rows = tuple((step_a[q], step_b[q]) for q in range(n))
            s = TransitionStructure(Alphabet(("a", "b")), n, order[0], rows)
            a = validate(s, random_acceptance(rng, s, kind))
            verdicts.add(self.agree(a, samples, f"replay/permutation/{i}"))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("samples", [30, 500, 5000])
    def test_transition_tables(self, samples):
        # transition sets tell apart runs that visit the same states
        rng = random.Random("replay/tmuller")
        verdicts = set()
        for i in range(10):
            a = random_acceptor(rng, 6, kinds=("tmuller",))
            verdicts.add(self.agree(a, samples, f"replay/tmuller/{i}"))
        for n in range(3, 6):
            a = convert(random_dma(n, f"replay/tmuller/{n}"), "tmuller")
            verdicts.add(self.agree(a, samples, f"replay/tmuller/dma/{n}"))
        assert verdicts == {True, False}


class TestRunExperiment:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(sizes=(3,), mode="guess"))

    @pytest.mark.parametrize(
        "changes",
        [{"trials_per_size": -3}, {"trials_per_size": 0}, {"samples": 0}, {"mode": "sampled", "samples": -5}],
    )
    def test_bad_counts(self, changes):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(sizes=(4,), **changes))

    @pytest.mark.parametrize("alphabet_size", [0, 27, 30])
    def test_alphabet_size_out_of_range(self, alphabet_size):
        with pytest.raises(ValueError, match=r"1\.\.26"):
            random_dma(4, 1, alphabet_size=alphabet_size)

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
