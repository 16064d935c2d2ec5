"""Random acceptor generation and the quotient-isomorphism experiment."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .congruence import partition_language_equivalent
from .errors import SamplingExhausted
from .loops import _loopable_scc, _state_graph
from .model import Acceptor, Alphabet, MullerStates, TransitionStructure, validate
from .semantics import LoopVerdicts

_RETRY_BOUND = 100000

_SYMBOL_POOL = "abcdefghijklmnopqrstuvwxyz"


def random_dma(
    states: int,
    seed,
    alphabet_size: int = 3,
    accepting_sets: int = 2,
) -> Acceptor:
    """Seeded random complete structure with a state-table acceptance.

    Transitions are uniform per (state, symbol), redrawn until every state
    is reachable; each table entry is a uniformly drawn state subset,
    redrawn until strongly connected (and distinct from earlier entries).
    """
    if states < 1:
        raise ValueError("states must be positive")
    rng = random.Random(f"dma/{states}/{alphabet_size}/{accepting_sets}/{seed}")
    symbols = Alphabet(tuple(_SYMBOL_POOL[:alphabet_size]))
    for _ in range(_RETRY_BOUND):
        rows = tuple(
            tuple(rng.randrange(states) for _ in range(alphabet_size))
            for _ in range(states)
        )
        structure = TransitionStructure(symbols, states, 0, rows)
        if len(structure.reachable_states()) == states:
            break
    else:
        raise SamplingExhausted("no fully reachable structure found")
    graph = _state_graph(structure)
    table = []
    for _ in range(accepting_sets):
        for _ in range(_RETRY_BOUND):
            subset = frozenset(q for q in range(states) if rng.random() < 0.5)
            if not subset or subset in table:
                continue
            mask = sum(1 << q for q in subset)
            if _loopable_scc(*graph, min(subset), mask) == mask:
                table.append(subset)
                break
        else:
            raise SamplingExhausted("no strongly connected subset found")
    return validate(structure, MullerStates(frozenset(table)))


@dataclass(frozen=True)
class ExperimentConfig:
    sizes: tuple[int, ...]
    trials_per_size: int = 100
    alphabet_size: int = 3
    accepting_sets: int = 2
    mode: str = "exact"
    samples: int = 100000
    seed: int = 0


@dataclass(frozen=True)
class SizeResult:
    size: int
    trials: int
    isomorphic: int
    not_isomorphic: int


@dataclass(frozen=True)
class ExperimentReport:
    mode: str
    seed: int
    rows: tuple[SizeResult, ...]

    def lines(self) -> list[str]:
        out = [f"mode={self.mode}", f"seed={self.seed}"]
        for r in self.rows:
            out.append(
                f"size={r.size} trials={r.trials} "
                f"isomorphic={r.isomorphic} not_isomorphic={r.not_isomorphic}"
            )
        return out


def _draw_lasso(rng: random.Random, n: int, k: int) -> tuple[list[int], list[int]]:
    """Spoke and cycle, as symbol indices over k symbols, of one sampled
    lasso for an n-state acceptor.

    The spoke has geometric length, at most 2n, and its symbols are
    rng.randrange(k); the cycle has rng.randint(1, 2n) symbols.  Those calls
    are inlined as the random module makes them, getrandbits of the bound's
    bit length redrawn until it falls below the bound, so the draws and the
    state of rng after them are the same.
    """
    random_ = rng.random
    getrandbits = rng.getrandbits
    k_bits = k.bit_length()
    width = 2 * n
    spoke_len = 0
    while random_() < 0.5 and spoke_len < width:
        spoke_len += 1
    spoke = []
    for _ in range(spoke_len):
        i = getrandbits(k_bits)
        while i >= k:
            i = getrandbits(k_bits)
        spoke.append(i)
    width_bits = width.bit_length()
    cycle_len = getrandbits(width_bits)
    while cycle_len >= width:
        cycle_len = getrandbits(width_bits)
    cycle = []
    for _ in range(cycle_len + 1):
        i = getrandbits(k_bits)
        while i >= k:
            i = getrandbits(k_bits)
        cycle.append(i)
    return spoke, cycle


def _sampled_distinguished(acceptor: Acceptor, samples: int, rng: random.Random) -> bool:
    """Replay of the sampling procedure: are all states pairwise split by
    random lassos?

    Each step draws one lasso and splits every block of states that no
    earlier lasso told apart by their verdicts on it.  Only blocks of two or
    more states are kept, and the states reached after the spoke share one
    LoopVerdicts, so each boundary state reads the cycle at most once per
    lasso.

    Equivalent states are never split, so if the exact partition is not
    discrete the answer is already False.  It is consulted once, after the
    warm-up, for the trials that sampling has not settled by then; the
    lassos drawn and the verdict are those of the full replay.
    """
    structure = acceptor.structure
    delta = structure.delta
    n = structure.state_count
    k = len(structure.alphabet)
    warmup = 1000
    live = [list(range(n))] if n > 1 else []
    for step in range(samples):
        if not live:
            return True
        if step == warmup and any(len(b) > 1 for b in partition_language_equivalent(acceptor)):
            return False
        spoke, cycle = _draw_lasso(rng, n, k)
        verdicts = LoopVerdicts(acceptor, cycle)
        split = []
        for block in live:
            accepted, rejected = [], []
            for q in block:
                p = q
                for i in spoke:
                    p = delta[p][i]
                (accepted if verdicts[p] else rejected).append(q)
            if len(accepted) > 1:
                split.append(accepted)
            if len(rejected) > 1:
                split.append(rejected)
        live = split
    return not live


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Count how often a random acceptor already is its own quotient."""
    if cfg.mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {cfg.mode!r}")
    rows = []
    for size in cfg.sizes:
        iso = 0
        for trial in range(cfg.trials_per_size):
            acceptor = random_dma(
                size,
                f"{cfg.seed}/{size}/{trial}",
                cfg.alphabet_size,
                cfg.accepting_sets,
            )
            if cfg.mode == "exact":
                blocks = partition_language_equivalent(acceptor)
                if all(len(b) == 1 for b in blocks):
                    iso += 1
            else:
                rng = random.Random(f"lasso/{cfg.seed}/{size}/{trial}")
                if _sampled_distinguished(acceptor, cfg.samples, rng):
                    iso += 1
        rows.append(
            SizeResult(size, cfg.trials_per_size, iso, cfg.trials_per_size - iso)
        )
    return ExperimentReport(cfg.mode, cfg.seed, tuple(rows))
