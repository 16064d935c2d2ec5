"""Run analysis and membership for lasso words; ω-verdicts of a word given
by its symbols or by its profile."""

from __future__ import annotations

from functools import reduce

from .model import (
    Acceptor,
    LassoWord,
    MullerTransitions,
    Profile,
    RunAnalysis,
    TransitionStructure,
)


def _walk(delta, q: int, cycle, known) -> tuple[list[int], int | None]:
    """Read the cycle from q, then again from where it ends, and so on,
    until the boundary state is in `known` or repeats.

    cycle is a sequence of symbol indices, each read as delta[q][i]; or
    None, when delta maps a state straight to the next boundary state.
    Returns the states read, from q to the state where the walk stopped,
    and the number of readings before the repeated state, or None when the
    walk stopped at a known state.  A state repeats within state_count
    readings.
    """
    path = [q]
    seen: dict[int, int] = {}
    while q not in known:
        entry = seen.get(q)
        if entry is not None:
            return path, entry
        seen[q] = len(seen)
        if cycle is None:
            q = delta[q]
            path.append(q)
        else:
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
    """Membership of u^omega from each state, for one nonempty word u; a
    state's entry is computed when it is first looked up.

    u is given as symbol indices, read through the structure's delta, or as
    its Profile, which steps a state straight to its target.  The run from
    q passes the boundary states q, f(q), f(f(q)), ..., where f reads u
    once.  Once one of them repeats, the infinity sets are what u visits
    from the periodic boundary states, and the verdict is `accepts_key` of
    their loop key: `loop_key` of the periodic part of the path read, or
    for a profile the join of the periodic states' keys.  Every boundary
    state of one walk reaches the same repetition, so the walk settles them
    all, and a later walk stops at the first settled state.  Entries hold
    for this u only.
    """

    def __init__(self, acceptor: Acceptor, u):
        self.acceptor = acceptor
        self.u = u

    def __missing__(self, q: int) -> bool:
        u = self.u
        acc = self.acceptor.acceptance
        if isinstance(u, Profile):
            boundary, entry = _walk(u.targets, q, None, self)
            if entry is not None:
                key = reduce(acc.join, [u.keys[p] for p in boundary[entry:-1]])
        else:
            structure = self.acceptor.structure
            path, entry = _walk(structure.delta, q, u, self)
            boundary = path[:: len(u)]
            if entry is not None:
                sets = _infinity_sets(structure, u, path, entry, isinstance(acc, MullerTransitions))
                key = acc.loop_key(*sets)
        verdict = self[boundary[-1]] if entry is None else acc.accepts_key(key)
        for b in boundary:
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
