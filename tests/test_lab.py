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
from rightcon.lab import _lasso_draws, _sampled_distinguished, _word_maps
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

    @staticmethod
    def recorded_replays(monkeypatch):
        """Criterion 5's draws (5, 76), (6, 67) and (8, 69), each replayed
        over 2000 lassos.  Yields size, trial, the acceptor, the lassos
        drawn, the steps whose lasso built a LoopVerdicts, and the blocks
        live before each step, re-derived from naive verdicts on the same
        lassos."""
        lassos, built = [], []
        draws = rightcon.lab._lasso_draws

        def recording_draws(rng, n, k):
            for lasso in draws(rng, n, k):
                lassos.append(lasso)
                yield lasso

        class RecordingVerdicts(rightcon.lab.LoopVerdicts):
            def __init__(self, acceptor, cycle):
                super().__init__(acceptor, cycle)
                built.append(len(lassos) - 1)

        monkeypatch.setattr(rightcon.lab, "_lasso_draws", recording_draws)
        monkeypatch.setattr(rightcon.lab, "LoopVerdicts", RecordingVerdicts)
        for size, trial in ((5, 76), (6, 67), (8, 69)):
            a = random_dma(size, f"1/{size}/{trial}")
            lassos.clear()
            built.clear()
            _sampled_distinguished(a, 2000, random.Random(f"lasso/1/{size}/{trial}"))
            symbols = a.alphabet.symbols
            blocks, live = [list(range(size))], []
            for spoke, cycle in lassos:
                live.append(blocks)
                w = LassoWord(tuple(symbols[i] for i in spoke), tuple(symbols[i] for i in cycle))
                blocks = [
                    part
                    for block in blocks
                    for verdict in (True, False)
                    if len(part := [q for q in block if naive_accepts(a, w, q) is verdict]) > 1
                ]
            yield size, trial, a, list(lassos), list(built), live

    @staticmethod
    def ends(delta, states, word):
        for i in word:
            states = {delta[q][i] for q in states}
        return states

    def test_no_verdicts_when_runs_merge(self, monkeypatch):
        # every lasso's LoopVerdicts is recorded by the step that drew it;
        # a lasso on which every live block's runs meet after the spoke or
        # after one reading of the cycle builds none
        merging = 0
        for size, trial, a, lassos, built, live in self.recorded_replays(monkeypatch):
            assert len(built) == len(set(built)), "one LoopVerdicts per lasso at most"
            delta = a.structure.delta
            for step, ((spoke, cycle), blocks) in enumerate(zip(lassos, live)):
                if all(len(self.ends(delta, block, spoke + cycle)) == 1 for block in blocks):
                    merging += 1
                    assert step not in built, (size, trial, step)
            assert built
        assert merging > 1000

    def test_no_verdicts_when_runs_meet_later(self, monkeypatch):
        # runs still apart after one reading of the cycle may meet after
        # more; after n more readings every end lies on a cycle of the
        # cycle's map, and ends that have not met by then never do.  A
        # lasso on which the ends of every live block come to one state
        # builds no LoopVerdicts, and more lassos do so than meet after
        # one reading
        once = later = 0
        for size, trial, a, lassos, built, live in self.recorded_replays(monkeypatch):
            delta = a.structure.delta
            for step, ((spoke, cycle), blocks) in enumerate(zip(lassos, live)):
                ends = [self.ends(delta, block, spoke + cycle) for block in blocks]
                once += all(len(e) == 1 for e in ends)
                if all(len(self.ends(delta, e, cycle * size)) == 1 for e in ends):
                    later += 1
                    assert step not in built, (size, trial, step)
        assert later > once

    @pytest.mark.parametrize("n", [256, 257])
    def test_word_maps_either_side_of_the_byte_limit(self, n):
        # a byte names a state up to 256 states; past that the maps walk
        # the word from each state looked up
        rng = random.Random(f"maps/{n}")
        s = random_structure(rng, n, Alphabet(("a", "b", "c")))
        word_map = _word_maps(s)
        assert isinstance(word_map([0]), bytes) is (n <= 256)
        draws = _lasso_draws(rng, n, 3)
        for _ in range(3):
            for word in next(draws):
                m = word_map(word)
                letters = [s.alphabet.symbols[i] for i in word]
                assert [m[q] for q in range(n)] == [s.run(q, letters) for q in range(n)]

    @pytest.mark.parametrize("kind", ["buchi", "muller"])
    def test_past_the_byte_limit(self, kind):
        # the blocks of a 257-state acceptor read their ends through the
        # walking maps.  The naive replay reads each cycle 2n times from
        # every live state, so the lassos' seed is one whose first three
        # cycles are short (14, 10 and 6 symbols, after spokes of 6, 0
        # and 2)
        rng = random.Random(f"replay/257/{kind}")
        s = random_structure(rng, 257)
        a = validate(s, random_acceptance(rng, s, kind))
        self.agree(a, 3, "replay/257/3157")

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
