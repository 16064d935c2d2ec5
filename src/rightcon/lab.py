"""Random acceptor generation and the quotient-isomorphism experiment."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .congruence import partition_language_equivalent
from .errors import SamplingExhausted
from .graph import sccs
from .model import Acceptor, Alphabet, MullerStates, TransitionStructure, validate
from .semantics import accepts_indices

_RETRY_BOUND = 100000

_SYMBOL_POOL = "abcdefghijklmnopqrstuvwxyz"


def _strongly_connected(structure: TransitionStructure, states: frozenset) -> bool:
    comps = sccs(states, structure.delta.__getitem__)
    if len(comps) != 1:
        return False
    if len(states) == 1:
        q = next(iter(states))
        return q in structure.delta[q]
    return True


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
    table = []
    for _ in range(accepting_sets):
        for _ in range(_RETRY_BOUND):
            subset = frozenset(q for q in range(states) if rng.random() < 0.5)
            if not subset or subset in table:
                continue
            if _strongly_connected(structure, subset):
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


def _sampled_distinguished(acceptor: Acceptor, samples: int, rng: random.Random) -> bool:
    """Replay of the sampling procedure: are all states pairwise split by
    random lassos?

    Equivalent states are never split, so if the exact partition is not
    discrete the answer is already False.  It is consulted once, after the
    warm-up, for the trials that sampling has not settled by then; the
    lassos drawn and the verdict are those of the full replay.
    """
    structure = acceptor.structure
    n = structure.state_count
    blocks = [list(range(n))]
    warmup = 1000

    k = len(structure.alphabet)
    for step in range(samples):
        if all(len(b) == 1 for b in blocks):
            return True
        if step == warmup and any(len(b) > 1 for b in partition_language_equivalent(acceptor)):
            return False
        spoke_len = 0
        while rng.random() < 0.5 and spoke_len < 2 * n:
            spoke_len += 1
        spoke_idx = tuple(rng.randrange(k) for _ in range(spoke_len))
        cycle_idx = tuple(rng.randrange(k) for _ in range(rng.randint(1, 2 * n)))
        new = []
        for b in blocks:
            if len(b) == 1:
                new.append(b)
                continue
            groups: dict = {}
            for q in b:
                groups.setdefault(accepts_indices(acceptor, q, spoke_idx, cycle_idx), []).append(q)
            new.extend(groups.values())
        blocks = new
    return all(len(b) == 1 for b in blocks)


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
