"""Loopable-set enumeration and structural measures.

A loopable set is a reachable, strongly connected (not necessarily maximal)
subset of states; a singleton qualifies only with a self-loop.  For
transition-table acceptance the unit is a strongly connected transition set
instead, so one state set may contribute several entries.  The transition
sets are built from the state sets: each state set's spanning transition
sets are listed once, under that state set, without any search for
duplicates.

Sets are bitmasks, and one search, `_reach`, answers every reachability
question here: the SCCs of a state set, whether transitions span their
states, and which SCCs reach which.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import CapacityExceeded, NotWeak
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


def _reach(adj, start: int, mask: int) -> int:
    """Bitmask of the vertices reachable from `start`.

    adj[v] lists (bit, w) pairs: an edge to w that may be taken when `bit`
    is in `mask`.  For a state graph the bit is w's own, so `mask` picks the
    states; for a transition graph it is the edge's, so `mask` picks edges.
    """
    seen, stack = 1 << start, [start]
    while stack:
        for bit, w in adj[stack.pop()]:
            if mask & bit and not seen >> w & 1:
                seen |= 1 << w
                stack.append(w)
    return seen


def _state_graph(structure: TransitionStructure):
    """Successor and predecessor lists of `structure` for `_reach`."""
    succ: list[list[tuple[int, int]]] = [[] for _ in range(structure.state_count)]
    pred: list[list[tuple[int, int]]] = [[] for _ in range(structure.state_count)]
    for p, row in enumerate(structure.delta):
        for q in sorted(set(row)):
            succ[p].append((1 << q, q))
            pred[q].append((1 << p, p))
    return succ, pred


def _loopable_scc(succ, pred, v: int, mask: int) -> int:
    """Mask of v's SCC among the states in `mask`, or 0 if not loopable.

    The SCC is v's forward reach meet its backward reach; a singleton is
    loopable only with its self-loop.
    """
    comp = _reach(succ, v, mask) & _reach(pred, v, mask)
    return comp if comp != 1 << v or (1 << v, v) in succ[v] else 0


def is_loopable(structure: TransitionStructure, states: frozenset[int]) -> bool:
    """Is `states` loopable: strongly connected, with a self-loop if a singleton?"""
    mask = sum(1 << q for q in states)
    return mask != 0 and _loopable_scc(*_state_graph(structure), min(states), mask) == mask


def loopable_state_sets(
    structure: TransitionStructure, capacity: int = DEFAULT_CAPACITY
) -> list[tuple[frozenset[int], frozenset[Transition]]]:
    """Enumerate reachable strongly connected state subsets, each once.

    Sets are state bitmasks, and each is found under its least state v: it
    lies in v's loopable SCC among the reachable states from v on.  Under a
    listed set S, the loopable sets strictly inside S that hold `kept` (v at
    first) are split by the first state q of S they miss: each lies in v's
    loopable SCC of S minus q and holds `kept` and the states of S before q.
    The splits are disjoint, so no set is listed twice, and each listed
    set's internal transitions are built once.
    """
    succ, pred = _state_graph(structure)
    outgoing = [structure.transitions_from(q) for q in range(structure.state_count)]
    reachable = sorted(structure.reachable_states())
    rest = sum(1 << q for q in reachable)
    stack = []
    for v in reachable:
        comp = _loopable_scc(succ, pred, v, rest)
        if comp:
            stack.append((comp, 1 << v))
        rest &= ~(1 << v)
    out = []
    while stack:
        mask, kept = stack.pop()
        members = [q for q in range(mask.bit_length()) if mask >> q & 1]
        states = frozenset(members)
        out.append((states, frozenset(t for q in members for t in outgoing[q] if mask >> t[2] & 1)))
        if len(out) > capacity:
            raise CapacityExceeded("loopable state sets", capacity)
        for q in members:
            if not kept >> q & 1:
                comp = _loopable_scc(succ, pred, members[0], mask & ~(1 << q))
                if comp & kept == kept:
                    stack.append((comp, kept))
                kept |= 1 << q
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
        edges = sorted(t for q in states for t in structure.transitions_from(q) if t[2] in states)
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

    def spans(mask):
        # from min(states), which has local index 0
        return mask != 0 and _reach(succ, 0, mask) == everyone == _reach(pred, 0, mask)

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

    # keep the starts whose maximal SCC no other start's SCC reaches: a start
    # at q is dropped when some start at p reaches q but q does not reach p
    succ, _ = _state_graph(acceptor.structure)
    everyone = (1 << acceptor.structure.state_count) - 1
    anchor = {i: min(ents[i].states) for i in starts}
    reach = {i: _reach(succ, anchor[i], everyone) for i in starts}
    minimal = [
        i
        for i in starts
        if not any(reach[j] >> anchor[i] & 1 and not reach[i] >> anchor[j] & 1 for j in starts)
    ]
    verdicts = {ents[i].accepting for i in minimal}
    if verdicts == {True}:
        polarity = "+"
    elif verdicts == {False}:
        polarity = "-"
    else:
        polarity = "+-"

    # canonical witness chain from the first minimal-SCC start in sort order
    chain_start = min(minimal, key=lambda i: sorted(keys[i]))
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
