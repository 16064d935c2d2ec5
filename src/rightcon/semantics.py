"""Run analysis and membership for lasso words."""

from __future__ import annotations

from .model import (
    Acceptor,
    LassoWord,
    MullerTransitions,
    RunAnalysis,
    TransitionStructure,
)


def _period(structure: TransitionStructure, q: int, cycle) -> tuple[int, list[int]]:
    """Repeat the cycle from q until the boundary state repeats.

    cycle is a sequence of symbol indices.  The state at the cycle boundary
    must repeat within state_count+1 repetitions.  Returns the number of
    repetitions before the periodic part and the states of that part, from
    its first boundary state to the same state again.
    """
    delta = structure.delta
    boundary_seen = {q: 0}
    path = [q]
    for rep in range(1, structure.state_count + 2):
        for i in cycle:
            q = delta[q][i]
            path.append(q)
        entry = boundary_seen.get(q)
        if entry is not None:
            return entry, path[entry * len(cycle):]
        boundary_seen[q] = rep
    raise AssertionError("cycle boundary state failed to repeat")


def _after(structure: TransitionStructure, q: int, spoke) -> int:
    """The state that reading spoke, a sequence of symbol indices, leads to."""
    delta = structure.delta
    for i in spoke:
        q = delta[q][i]
    return q


def _transitions(structure: TransitionStructure, cycle, path: list[int]):
    """The transitions of a path from _period, read off the cycle's symbols."""
    symbols = structure.alphabet.symbols
    m = len(cycle)
    return frozenset(
        (path[k], symbols[cycle[k % m]], path[k + 1]) for k in range(len(path) - 1)
    )


def _indices(structure: TransitionStructure, w: LassoWord):
    index = structure.alphabet.index
    return tuple(map(index, w.spoke)), tuple(map(index, w.cycle))


def lasso_run(
    structure: TransitionStructure, w: LassoWord, from_state: int | None = None
) -> RunAnalysis:
    """Infinity sets of the run on w; they are collected over the periodic part."""
    start = structure.initial if from_state is None else from_state
    spoke, cycle = _indices(structure, w)
    entry, path = _period(structure, _after(structure, start, spoke), cycle)
    return RunAnalysis(frozenset(path), _transitions(structure, cycle, path), entry)


def loop_verdict(acceptor: Acceptor, q: int, cycle) -> bool:
    """Membership of cycle^omega, given as symbol indices, from state q."""
    structure = acceptor.structure
    acc = acceptor.acceptance
    _, path = _period(structure, q, cycle)
    if isinstance(acc, MullerTransitions):
        trans = _transitions(structure, cycle, path)
    else:
        trans = frozenset()
    return acc.accepts_loop(frozenset(path), trans)


def accepts_indices(acceptor: Acceptor, q: int, spoke, cycle) -> bool:
    """Membership of spoke.cycle^omega, given as symbol indices, from state q."""
    return loop_verdict(acceptor, _after(acceptor.structure, q, spoke), cycle)


def accepts(acceptor: Acceptor, w: LassoWord, from_state: int | None = None) -> bool:
    structure = acceptor.structure
    start = structure.initial if from_state is None else from_state
    return accepts_indices(acceptor, start, *_indices(structure, w))
