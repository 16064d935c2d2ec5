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


def _edge_graph(states: frozenset[int], edges: list[Transition]):
    """Successor and predecessor lists for `_reach` over `edges`, transitions
    inside `states`: the states are numbered in sorted order, and edge i may
    be taken when bit i is in the mask."""
    local = {q: i for i, q in enumerate(sorted(states))}
    succ: list[list[tuple[int, int]]] = [[] for _ in states]
    pred: list[list[tuple[int, int]]] = [[] for _ in states]
    for i, (p, _, q) in enumerate(edges):
        succ[local[p]].append((1 << i, local[q]))
        pred[local[q]].append((1 << i, local[p]))
    return succ, pred


def _spans(graph, mask: int) -> bool:
    """Do the edges in `mask` connect all of `graph`'s states strongly?  A
    singleton needs a self-loop, i.e. a nonempty mask."""
    succ, pred = graph
    everyone = (1 << len(succ)) - 1
    # from the least state, which has local index 0
    return mask != 0 and _reach(succ, 0, mask) == everyone == _reach(pred, 0, mask)


def _spanning_masks(states: frozenset[int], edges: list[Transition]):
    """Bitmasks over `edges` of the subsets that span `states` strongly
    connected."""
    graph = _edge_graph(states, edges)
    full = (1 << len(edges)) - 1
    if not _spans(graph, full):
        return
    # a transition that cannot leave a mask cannot leave any subset of it
    # either, so each child tries only the droppable ones after its own
    stack = [(full, range(len(edges)))]
    while stack:
        mask, candidates = stack.pop()
        yield mask
        droppable = [i for i in candidates if _spans(graph, mask & ~(1 << i))]
        for k, i in enumerate(droppable):
            stack.append((mask & ~(1 << i), droppable[k + 1:]))


class Budget:
    """Steps of work that the searches of one call share; the step past
    `capacity` raises `CapacityExceeded`."""

    def __init__(self, what: str, capacity: int = DEFAULT_CAPACITY):
        self.what = what
        self.capacity = capacity
        self.left = capacity

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise CapacityExceeded(self.what, self.capacity)


def least_spanning(
    states: frozenset[int],
    edges: Iterable[Transition],
    image: dict | None = None,
    budget: Budget | None = None,
) -> frozenset[Transition] | None:
    """The (size, sorted)-least subset of `edges` spanning `states` strongly
    connected, or None if there is none.

    `edges` are transitions inside `states`.  When `image` is given it maps
    the edges the subset may use to their labels, and the subset must hold
    an edge of every label.  Sizes are tried from the least possible up,
    each by an include-first search over the sorted edges, so the first
    subset found is the answer.  A branch is cut when the edges left cannot
    give every state an out-edge and an in-edge, and every label an edge,
    within the size left, or when the edges chosen and those left no longer
    span.  The problem is NP-hard (a spanning set of |states| edges is a
    Hamiltonian cycle), so every search node is spent from `budget`.
    """
    if budget is None:
        budget = Budget("spanning search nodes")
    edges = sorted(e for e in edges if image is None or e in image)
    graph = _edge_graph(states, edges)
    m = len(edges)
    full = (1 << m) - 1
    if not _spans(graph, full):
        return None
    local = {q: i for i, q in enumerate(sorted(states))}
    labels: dict = {}
    if image is not None:
        for e in edges:
            labels.setdefault(image[e], 1 << len(labels))
    # per edge, its bits as an out-edge, an in-edge and a label; then the
    # unions of those bits over each suffix of the edges
    bits = [(1 << local[e[0]], 1 << local[e[2]], labels[image[e]] if labels else 0) for e in edges]
    suffix = [(0, 0, 0)] * (m + 1)
    for i in range(m - 1, -1, -1):
        o, n, l = suffix[i + 1]
        suffix[i] = (o | bits[i][0], n | bits[i][1], l | bits[i][2])
    everyone = (1 << len(states)) - 1
    all_labels = (1 << len(labels)) - 1

    def search(size):
        # frames (next edge, chosen mask, outs, ins, labels, size left,
        # whether an edge was just left out); the include branch is pushed
        # last, so it is searched first
        stack = [(0, 0, 0, 0, 0, size, False)]
        while stack:
            i, mask, outs, ins, labs, left, dropped = stack.pop()
            # without the edge left out, the chosen edges and those from i
            # on must still span
            if dropped and not _spans(graph, mask | full & ~((1 << i) - 1)):
                continue
            budget.spend()
            if left == 0:
                if outs == ins == everyone and labs == all_labels and _spans(graph, mask):
                    return mask
                continue
            if m - i < left or any(
                missing & ~reachable or missing.bit_count() > left
                for missing, reachable in zip((everyone & ~outs, everyone & ~ins, all_labels & ~labs), suffix[i])
            ):
                continue
            o, n, l = bits[i]
            stack.append((i + 1, mask, outs, ins, labs, left, True))
            stack.append((i + 1, mask | 1 << i, outs | o, ins | n, labs | l, left - 1, False))
        return None

    for size in range(max(len(states), len(labels)), m + 1):
        mask = search(size)
        if mask is not None:
            return frozenset(e for i, e in enumerate(edges) if mask >> i & 1)
    raise AssertionError("the full edge set spans, so some size is found")


def loopable_sets(acceptor: Acceptor, capacity: int = DEFAULT_CAPACITY) -> LoopTable:
    """Full loop table of an acceptor, keyed per its acceptance kind: by
    transition set for a transition table, by state set otherwise."""
    acc = acceptor.acceptance
    if isinstance(acc, MullerTransitions):
        keyed_by, raw = "transitions", loopable_transition_sets(acceptor.structure, capacity)
    else:
        keyed_by, raw = "states", loopable_state_sets(acceptor.structure, capacity)
    entries = {}
    for states, trans in raw:
        key = trans if keyed_by == "transitions" else states
        entries[key] = LoopEntry(states, trans, acc.accepts_key(acc.loop_key(states, trans)))
    return LoopTable(keyed_by, entries)


def _chain_flags(loops) -> dict[str, bool]:
    """weak, db and dc of loop sets given as (key, verdict) pairs.

    db: no superset of an accepting loopable set is rejecting; dc: no
    superset of a rejecting one is accepting; weak: both.  Only pairs of
    opposite verdicts can clear a flag, and each search stops at its first
    witness.
    """
    accepting = [k for k, v in loops if v]
    rejecting = [k for k, v in loops if not v]
    db = not any(a < r for a in accepting for r in rejecting)
    dc = not any(r < a for r in rejecting for a in accepting)
    return {"weak": db and dc, "db": db, "dc": dc}


def _table_flags(table: LoopTable) -> dict[str, bool]:
    return _chain_flags([(table.key_of(e), e.accepting) for e in table.entries.values()])


def is_weak(acceptor: Acceptor, capacity: int = DEFAULT_CAPACITY) -> bool:
    return _table_flags(loopable_sets(acceptor, capacity))["weak"]


def is_db(acceptor: Acceptor, capacity: int = DEFAULT_CAPACITY) -> bool:
    """No superset of an accepting loopable set may be rejecting."""
    return _table_flags(loopable_sets(acceptor, capacity))["db"]


def is_dc(acceptor: Acceptor, capacity: int = DEFAULT_CAPACITY) -> bool:
    return _table_flags(loopable_sets(acceptor, capacity))["dc"]


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
    if not _table_flags(table)["weak"]:
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
