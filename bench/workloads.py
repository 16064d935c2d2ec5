"""Inputs and operations of the three workloads.

Every workload is a pass: a fixed list of operations, in a fixed order,
that a run repeats whole.  The inputs are string-seeded draws that do not
depend on `--seed`: per-operation cost is heavy-tailed, so inputs drawn
from `--seed` moved the totals and the percentiles by more than any bound
allows, and a shuffled order moved peak memory (README.md has the figures).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

WORKLOADS = ("experiment", "classify", "profiles")

ACCEPTANCE_KINDS = ("buchi", "cobuchi", "parity", "muller", "tmuller")

EXPERIMENT_SIZES = tuple(range(5, 11))
EXPERIMENT_POOL = 9  # trials per size, each run in both modes

CLASSIFY_DMA = ((4, 6), (5, 3), (6, 2))  # (states, draws "c/0".."c/k-1")
CLASSIFY_RANDOM_PER_KIND = 6
PROFILES_NC_DRAWS = 10  # random_dma(4, "nc/i") for i < 10, as in criterion 3


@dataclass(frozen=True)
class Op:
    """One timed operation: `kind` names the library call, `label` the input
    (the group before the first "/": catalog, wagner+, wagner-, dma, random,
    nc, trial)."""

    label: str
    kind: str
    input: Any


def call(rc, op: Op):
    if op.kind == "classify":
        return rc.classify(op.input)
    if op.kind == "is_respective":
        return rc.is_respective(op.input)
    if op.kind == "is_non_counting":
        return rc.is_non_counting(op.input)
    if op.kind in ("exact", "sampled"):
        return rc.run_experiment(op.input)
    raise ValueError(op.kind)


def failed(op: Op, out) -> bool:
    """A 'counting' answer without a witness is a failed operation."""
    return op.kind == "is_non_counting" and not out[0] and out[1] is None


def random_acceptor(rc, rng: random.Random, kind: str, max_states: int = 5):
    """Random complete acceptor over {a, b} with every state reachable."""
    n = rng.randint(1, max_states)
    rows = [[rng.randrange(n) for _ in range(2)] for _ in range(n)]
    for q in range(1, n):
        rows[rng.randrange(q)][rng.randrange(2)] = q
    structure = rc.TransitionStructure(
        rc.Alphabet(("a", "b")), n, 0, tuple(tuple(r) for r in rows)
    )
    pick = lambda p: frozenset(q for q in range(n) if rng.random() < p)
    if kind == "buchi":
        acc = rc.Buchi(pick(0.5))
    elif kind == "cobuchi":
        acc = rc.CoBuchi(pick(0.5))
    elif kind == "parity":
        acc = rc.Parity(tuple(rng.randint(0, 2 * n) for _ in range(n)))
    elif kind == "muller":
        acc = rc.MullerStates(frozenset(s for s in (pick(0.5) for _ in range(rng.randint(1, 3))) if s))
    else:
        trans = structure.all_transitions()
        table = (frozenset(t for t in trans if rng.random() < 0.4) for _ in range(rng.randint(1, 3)))
        acc = rc.MullerTransitions(frozenset(t for t in table if t))
    return rc.validate(structure, acc)


def _experiment(rc, smoke: bool):
    trials = [
        (f"trial/bench/{j}/{size}", f"bench/{j}", size)
        for size in (EXPERIMENT_SIZES[:3] if smoke else EXPERIMENT_SIZES)
        for j in range(1 if smoke else EXPERIMENT_POOL)
    ]
    return [
        Op(label, mode, rc.ExperimentConfig(sizes=(size,), trials_per_size=1, mode=mode, seed=cfg_seed))
        for label, cfg_seed, size in trials
        for mode in ("exact", "sampled")
    ]


def _catalog_and_wagner(rc, polarities, smoke: bool):
    names = rc.fixture_names()
    if smoke:
        names = ["aab", "fig3_M", "fig2_B", "L1"]
    out = [(f"catalog/{name}", rc.fixture(name)) for name in names]
    for pol in polarities:
        for n in range(4):
            for m in range(4):
                if smoke and n + m > 2:
                    continue
                out.append((f"wagner{pol}/{n}/{m}", rc.wagner_family(n, m, pol)))
    return out


def _classify(rc, smoke: bool):
    inputs = _catalog_and_wagner(rc, "+-", smoke)
    for states, draws in CLASSIFY_DMA:
        for i in range(draws):
            if smoke and states > 4:
                continue
            inputs.append((f"dma/{states}/c/{i}", rc.random_dma(states, f"c/{i}")))
    rng = random.Random("classify")
    for i in range(1 if smoke else CLASSIFY_RANDOM_PER_KIND):
        for kind in ACCEPTANCE_KINDS:
            inputs.append((f"random/{i}/{kind}", random_acceptor(rc, rng, kind)))
    return [Op(label, "classify", a) for label, a in inputs]


def _profiles(rc, smoke: bool):
    both = _catalog_and_wagner(rc, "+", smoke)
    both += [
        (f"nc/{i}", rc.random_dma(4, f"nc/{i}"))
        for i in range(2 if smoke else PROFILES_NC_DRAWS)
    ]
    return [Op(label, kind, a) for label, a in both for kind in ("is_respective", "is_non_counting")]


def build(rc, workload: str, smoke: bool = False) -> list[Op]:
    """The operations of one pass."""
    return {"experiment": _experiment, "classify": _classify, "profiles": _profiles}[workload](rc, smoke)
