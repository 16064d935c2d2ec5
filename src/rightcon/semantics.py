"""Run analysis and membership for lasso words."""

from __future__ import annotations

from .model import (
    Acceptor,
    LassoWord,
    MullerTransitions,
    RunAnalysis,
    TransitionStructure,
)


def _walk(delta, q: int, cycle, known) -> tuple[list[int], int | None]:
    """Read the cycle from q, then again from where it ends, and so on,
    until the boundary state is in `known` or repeats.

    cycle is a sequence of symbol indices.  Returns the states read, from q
    to the state where the walk stopped, and the number of readings before
    the repeated state, or None when the walk stopped at a known state.  A
    state repeats within state_count readings.
    """
    path = [q]
    seen: dict[int, int] = {}
    while q not in known:
        entry = seen.get(q)
        if entry is not None:
            return path, entry
        seen[q] = len(seen)
        for i in cycle:
            q = delta[q][i]
            path.append(q)
    return path, None


def _infinity_sets(
    structure: TransitionStructure, cycle, path: list[int], entry: int, transitions: bool
):
    """States and, if asked for, transitions of the periodic part of a walk
    that repeated after `entry` readings."""
    m = len(cycle)
    periodic = path[entry * m:]
    states = frozenset(periodic)
    if not transitions:
        return states, frozenset()
    symbols = structure.alphabet.symbols
    return states, frozenset(
        (periodic[k], symbols[cycle[k % m]], periodic[k + 1]) for k in range(len(periodic) - 1)
    )


def _after_spoke(structure: TransitionStructure, w: LassoWord, from_state: int | None):
    """The state reached by reading the spoke of w from from_state, or the
    initial state, and the cycle of w as symbol indices."""
    index = structure.alphabet.index
    delta = structure.delta
    q = structure.initial if from_state is None else from_state
    for symbol in w.spoke:
        q = delta[q][index(symbol)]
    return q, tuple(map(index, w.cycle))


class LoopVerdicts(dict):
    """Membership of cycle^omega from each state, for one cycle given as
    symbol indices; a state's entry is computed when it is first looked up.

    The run from q passes the boundary states q, f(q), f(f(q)), ..., where f
    reads the cycle once, and its infinity sets are the union of the paths
    read from the boundary states that repeat.  Every boundary state of one
    walk reaches the same repetition, so the walk settles them all, and a
    later walk stops at the first settled state.  Entries hold for this
    cycle only.
    """

    def __init__(self, acceptor: Acceptor, cycle):
        self.acceptor = acceptor
        self.cycle = cycle

    def __missing__(self, q: int) -> bool:
        cycle = self.cycle
        path, entry = _walk(self.acceptor.structure.delta, q, cycle, self)
        if entry is None:
            verdict = self[path[-1]]
        else:
            acc = self.acceptor.acceptance
            sets = _infinity_sets(
                self.acceptor.structure, cycle, path, entry, isinstance(acc, MullerTransitions)
            )
            verdict = acc.accepts_loop(*sets)
        for b in path[:: len(cycle)]:
            self[b] = verdict
        return verdict


def lasso_run(
    structure: TransitionStructure, w: LassoWord, from_state: int | None = None
) -> RunAnalysis:
    """Infinity sets of the run on w; they are collected over the periodic part."""
    q, cycle = _after_spoke(structure, w, from_state)
    path, entry = _walk(structure.delta, q, cycle, ())
    return RunAnalysis(*_infinity_sets(structure, cycle, path, entry, True), entry)


def accepts(acceptor: Acceptor, w: LassoWord, from_state: int | None = None) -> bool:
    q, cycle = _after_spoke(acceptor.structure, w, from_state)
    return LoopVerdicts(acceptor, cycle)[q]
