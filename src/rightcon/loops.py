"""Loopable-set enumeration and structural measures.

A loopable set is a reachable, strongly connected (not necessarily maximal)
subset of states; a singleton qualifies only with a self-loop.  For
transition-table acceptance the unit is a strongly connected transition set
instead, so one state set may contribute several entries.  The transition
sets are built from the state sets: each state set's spanning transition
sets are listed once, under that state set, without any search for
duplicates.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import CapacityExceeded, NotWeak
from .graph import bfs_order, sccs
from .model import (
    Acceptance,
    Acceptor,
    Buchi,
    CoBuchi,
    MullerTransitions,
    Transition,
    TransitionStructure,
)

DEFAULT_CAPACITY = 1 << 20


@dataclass(frozen=True)
class LoopEntry:
    states: frozenset[int]
    transitions: frozenset[Transition]
    accepting: bool


@dataclass(frozen=True)
class LoopTable:
    """All loopable sets of an acceptor with their verdicts.

    keyed_by is "states" or "transitions"; entries maps key -> LoopEntry.
    """

    keyed_by: str
    entries: dict

    def sorted_entries(self) -> list[LoopEntry]:
        return [self.entries[k] for k in sorted(self.entries, key=sorted)]

    def key_of(self, entry: LoopEntry):
        return entry.transitions if self.keyed_by == "transitions" else entry.states


def _internal_transitions(
    structure: TransitionStructure, states: frozenset[int]
) -> frozenset[Transition]:
    out = []
    for q in states:
        for t in structure.transitions_from(q):
            if t[2] in states:
                out.append(t)
    return frozenset(out)


def _loopable(states: frozenset[int], edges: frozenset[Transition]) -> bool:
    if len(states) > 1:
        return True
    return any(p == q for (p, _, q) in edges)


def loopable_state_sets(
    structure: TransitionStructure, capacity: int = DEFAULT_CAPACITY
) -> list[tuple[frozenset[int], frozenset[Transition]]]:
    """Enumerate reachable strongly connected state subsets.

    Recursive vertex-removal within each maximal SCC, deduplicated by
    state-set key.
    """
    reachable = structure.reachable_states()

    def succ(q):
        return structure.delta[q]

    seen: set[frozenset[int]] = set()
    out = []

    def visit(component: frozenset[int]):
        # component is strongly connected; record if loopable, then recurse
        if component in seen:
            return
        seen.add(component)
        if len(seen) > capacity:
            raise CapacityExceeded("loopable state sets", capacity)
        edges = _internal_transitions(structure, component)
        if _loopable(component, edges):
            out.append((component, edges))
        if len(component) <= 1:
            return
        for v in component:
            rest = component - {v}
            for sub in sccs(rest, succ):
                sub_edges = _internal_transitions(structure, sub)
                if _loopable(sub, sub_edges):
                    visit(sub)

    for comp in sccs(reachable, succ):
        edges = _internal_transitions(structure, comp)
        if _loopable(comp, edges):
            visit(comp)
    return out


def loopable_transition_sets(
    structure: TransitionStructure,
    capacity: int = DEFAULT_CAPACITY,
    state_sets: Iterable[frozenset[int]] | None = None,
) -> list[tuple[frozenset[int], frozenset[Transition]]]:
    """Enumerate reachable strongly connected transition subsets.

    Each set is listed once, under its own state set S.  The sets spanning
    S strongly connected form an up-set whose top is S's internal
    transitions, so walking those in sorted order and dropping each one
    while the rest still spans S reaches every such set exactly once.
    `state_sets` are the reachable state sets to expand, all loopable ones
    by default; a set that is not loopable lists nothing.  `capacity` bounds
    the number of sets listed over all of them.
    """
    if state_sets is None:
        state_sets = [s for s, _ in loopable_state_sets(structure, capacity)]
    out = []
    for states in state_sets:
        edges = sorted(_internal_transitions(structure, states))
        for mask in _spanning_masks(states, edges):
            out.append((states, frozenset(e for i, e in enumerate(edges) if mask >> i & 1)))
            if len(out) > capacity:
                raise CapacityExceeded("loopable transition sets", capacity)
    return out


def _spanning_masks(states: frozenset[int], edges: list[Transition]):
    """Bitmasks over `edges` of the subsets that span `states` strongly
    connected; a singleton needs a self-loop, i.e. a nonempty mask."""
    local = {q: i for i, q in enumerate(sorted(states))}
    everyone = (1 << len(states)) - 1
    succ: list[list[tuple[int, int]]] = [[] for _ in states]
    pred: list[list[tuple[int, int]]] = [[] for _ in states]
    for i, (p, _, q) in enumerate(edges):
        succ[local[p]].append((1 << i, local[q]))
        pred[local[q]].append((1 << i, local[p]))

    def reaches_all(adj, mask):
        # from min(states), which has local index 0
        seen, stack = 1, [0]
        while stack:
            for bit, v in adj[stack.pop()]:
                if mask & bit and not seen >> v & 1:
                    seen |= 1 << v
                    stack.append(v)
        return seen == everyone

    def spans(mask):
        return mask != 0 and reaches_all(succ, mask) and reaches_all(pred, mask)

    full = (1 << len(edges)) - 1
    if not spans(full):
        return
    # a transition that cannot leave a mask cannot leave any subset of it
    # either, so each child tries only the droppable ones after its own
    stack = [(full, range(len(edges)))]
    while stack:
        mask, candidates = stack.pop()
        yield mask
        droppable = [i for i in candidates if spans(mask & ~(1 << i))]
        for k, i in enumerate(droppable):
            stack.append((mask & ~(1 << i), droppable[k + 1:]))


def loopable_sets(acceptor: Acceptor, capacity: int = DEFAULT_CAPACITY) -> LoopTable:
    """Full loop table of an acceptor, keyed per its acceptance kind."""
    if isinstance(acceptor.acceptance, MullerTransitions):
        raw = loopable_transition_sets(acceptor.structure, capacity)
    else:
        raw = loopable_state_sets(acceptor.structure, capacity)
    return loop_table(acceptor.acceptance, raw)


def loop_table(acc: Acceptance, raw) -> LoopTable:
    """Loop table of `acc` over enumerated (states, transitions) pairs.

    For state-based acceptance the table is keyed by state set, so `raw`
    may also be the transition sets: their state sets are the loopable
    state sets, and the verdict does not read the transitions.
    """
    keyed_by = "transitions" if isinstance(acc, MullerTransitions) else "states"
    entries = {}
    for states, trans in raw:
        key = trans if keyed_by == "transitions" else states
        entries[key] = LoopEntry(states, trans, acc.accepts_loop(states, trans))
    return LoopTable(keyed_by, entries)


def _chain_flags(table: LoopTable) -> dict[str, bool]:
    """weak, db and dc of a loop table.

    db: no superset of an accepting loopable set is rejecting; dc: no
    superset of a rejecting one is accepting; weak: both.  Only pairs of
    opposite verdicts can clear a flag, and each search stops at its first
    witness.
    """
    accepting = [table.key_of(e) for e in table.entries.values() if e.accepting]
    rejecting = [table.key_of(e) for e in table.entries.values() if not e.accepting]
    db = not any(a < r for a in accepting for r in rejecting)
    dc = not any(r < a for r in rejecting for a in accepting)
    return {"weak": db and dc, "db": db, "dc": dc}


def is_weak(acceptor: Acceptor, capacity: int = DEFAULT_CAPACITY) -> bool:
    return _chain_flags(loopable_sets(acceptor, capacity))["weak"]


def is_db(acceptor: Acceptor, capacity: int = DEFAULT_CAPACITY) -> bool:
    """No superset of an accepting loopable set may be rejecting."""
    return _chain_flags(loopable_sets(acceptor, capacity))["db"]


def is_dc(acceptor: Acceptor, capacity: int = DEFAULT_CAPACITY) -> bool:
    return _chain_flags(loopable_sets(acceptor, capacity))["dc"]


@dataclass(frozen=True)
class AlternationMeasure:
    max_alternations: int
    polarity: str
    witness_chain: tuple[LoopEntry, ...]


def alternation_measure(
    acceptor: Acceptor, capacity: int = DEFAULT_CAPACITY
) -> AlternationMeasure:
    """Longest alternating inclusion chain over the loop table.

    Polarity convention: consider every entry that starts a maximal-length
    alternating chain; keep only those lying in maximal SCCs not reachable
    from another such SCC, and report the verdicts found among them (+ for
    accepting starts, - for rejecting, +- for both).
    """
    table = loopable_sets(acceptor, capacity)
    ents = table.sorted_entries()
    keys = [table.key_of(e) for e in ents]
    order = sorted(range(len(ents)), key=lambda i: -len(keys[i]))
    up = [0] * len(ents)
    best_succ = [-1] * len(ents)
    for i in order:
        for j in order:
            if keys[i] < keys[j]:
                cand = up[j] + (1 if ents[i].accepting != ents[j].accepting else 0)
                if cand > up[i]:
                    up[i] = cand
                    best_succ[i] = j
    if not ents:
        return AlternationMeasure(0, "+-", ())
    best = max(up)
    starts = [i for i in range(len(ents)) if up[i] == best]

    # map each start to its containing maximal SCC, then drop SCCs reachable
    # from another start's SCC
    structure = acceptor.structure
    reachable = structure.reachable_states()
    comps = sccs(reachable, structure.delta.__getitem__)
    scc_of = {q: idx for idx, comp in enumerate(comps) for q in comp}
    start_sccs = {scc_of[next(iter(ents[i].states))] for i in starts}
    below = {
        s: {scc_of[q] for q in bfs_order(min(comps[s]), structure.delta.__getitem__)} - {s}
        for s in start_sccs
    }
    minimal = {s for s in start_sccs if not any(s in below[o] for o in start_sccs)}
    verdicts = {ents[i].accepting for i in starts if scc_of[next(iter(ents[i].states))] in minimal}
    if verdicts == {True}:
        polarity = "+"
    elif verdicts == {False}:
        polarity = "-"
    else:
        polarity = "+-"

    # canonical witness chain from the first minimal-SCC start in sort order
    chain_start = min(
        (i for i in starts if scc_of[next(iter(ents[i].states))] in minimal),
        key=lambda i: sorted(keys[i]),
    )
    chain = []
    i = chain_start
    while i != -1:
        chain.append(ents[i])
        i = best_succ[i]
    return AlternationMeasure(best, polarity, tuple(chain))


def _weak_union(acceptor: Acceptor, want_accepting: bool, capacity: int) -> frozenset[int]:
    table = loopable_sets(acceptor, capacity)
    if not _chain_flags(table)["weak"]:
        raise NotWeak("acceptance alternates along an inclusion chain")
    out: set[int] = set()
    for e in table.entries.values():
        if e.accepting == want_accepting:
            out |= e.states
    return frozenset(out)


def weak_to_buchi(acceptor: Acceptor, capacity: int = DEFAULT_CAPACITY) -> Acceptor:
    """Equivalent Buchi acceptor on the same structure; requires weakness."""
    return Acceptor(acceptor.structure, Buchi(_weak_union(acceptor, True, capacity)))


def weak_to_cobuchi(acceptor: Acceptor, capacity: int = DEFAULT_CAPACITY) -> Acceptor:
    return Acceptor(acceptor.structure, CoBuchi(_weak_union(acceptor, False, capacity)))
