"""Loopable-set enumeration and structural measures.

A loopable set is a reachable, strongly connected (not necessarily maximal)
subset of states; a singleton qualifies only with a self-loop.  For
transition-table acceptance the unit is a strongly connected transition set
instead, so one state set may contribute several entries.  The transition
sets are built from the state sets: each state set's spanning transition
sets are listed once, under that state set, without any search for
duplicates.

The structural measures (weak, DB, DC and the alternation measure) list
no loop sets: they read the alternating cycle decomposition, `AcdTree`,
one loop tree for every acceptance kind.  Sets are bitmasks, and one
search, `_reach`, answers every reachability question here: the SCCs of a
state set, whether transitions span their states, and which SCCs reach
which.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import CapacityExceeded, NotWeak
from .model import (
    Acceptance,
    Acceptor,
    Buchi,
    CoBuchi,
    MullerTransitions,
    Parity,
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


def as_parity(acc: Buchi | CoBuchi, state_count: int) -> Parity:
    """The 1/2 coloring of a Büchi condition, the 0/1 one of a co-Büchi one."""
    if isinstance(acc, Buchi):
        return Parity(tuple(1 if q in acc.accepting else 2 for q in range(state_count)))
    return Parity(tuple(0 if q in acc.avoided else 1 for q in range(state_count)))


def _priorities(colors: tuple[int, ...]) -> list[int]:
    """Each color's priority once each run of same-parity colors, in
    increasing order, is merged into one: the least color's parity plus
    the parity changes up to the color."""
    levels = sorted(set(colors))
    rank = {levels[0]: levels[0] % 2}
    for low, high in zip(levels, levels[1:]):
        rank[high] = rank[low] + (high - low) % 2
    return [rank[c] for c in colors]


def _maximal(sets) -> list[frozenset]:
    """The inclusion-maximal sets, sorted by their sorted colors, so in a
    hash-independent order."""
    kept: list[frozenset] = []
    for s in sorted(sets, key=len, reverse=True):
        if not any(s < k for k in kept):
            kept.append(s)
    return sorted(kept, key=sorted)


def _muller_children(label: frozenset, table: frozenset, loops) -> list[frozenset]:
    """The maximal loops strictly inside `label` with the opposite verdict.

    `loops` splits a set of colors into its loops.  Below a rejecting
    label the children are the maximal table entries inside it that are
    loops.  Below an accepting one, removing one color at a time and
    splitting into loops, through accepting loops only, reaches every
    maximal rejecting loop R: removing a color outside R leaves R inside
    one loop, which is R or an accepting loop strictly between R and the
    label.
    """
    if label not in table:
        return _maximal([e for e in table if e < label and loops(e) == [e]])
    found = set()
    seen = {label}
    stack = [label]
    while stack:
        entry = stack.pop()
        for c in entry:
            for y in loops(entry - {c}):
                if y not in seen:
                    seen.add(y)
                    if y in table:
                        stack.append(y)
                    else:
                        found.add(y)
    return _maximal(found)


@dataclass
class _TreeNode:
    label: frozenset  # its colors
    states: frozenset  # the states its colors touch
    priority: int
    parent: int
    children: list = field(default_factory=list)


# The priority of a step between two SCCs.  A run takes finitely many, so
# any fixed value will do.
_BETWEEN_SCCS = 0


class AcdTree:
    """Alternating cycle decomposition of an acceptance condition (Casares,
    Colcombet & Fijalkow, ICALP 2021; Wagner, Inf. & Control 1979): a
    forest of trees over loops.

    The colors are transitions for a transition table, whose loops are the
    inner transitions of the SCCs of a transition set, and states for every
    other kind.  Each SCC of the state graph that holds a loop roots a
    tree; a node's children are the maximal loops inside its label with
    the opposite verdict, sorted by their sorted colors, and its priority
    is its depth, plus one when its root accepts: odd exactly on accepting
    nodes.  A Muller table finds the children with `_muller_children`.
    Büchi, co-Büchi and parity conditions use merged priorities: a node
    whose least one is m splits into the loopable SCCs of its label without
    the priority-m states, and an SCC whose least has m's parity splits
    again.  A state on no loop roots a one-node tree with no colors.  The
    nodes are numbered breadth first; `reachable` lists those that hold a
    loop on reachable states, and `loops` splits a set of colors into its
    loops.  A run at state q sits at a leaf of T_q, the nodes whose states
    hold q.
    """

    def __init__(self, structure: TransitionStructure, acc: Acceptance):
        n = structure.state_count
        self.by_transition = by_transition = isinstance(acc, MullerTransitions)
        split: dict = {}
        if by_transition:
            edges = structure.all_transitions()
            bit = {t: 1 << i for i, t in enumerate(edges)}
            succ, pred = _edge_graph(frozenset(range(n)), edges)

            def loops(label: frozenset) -> list[frozenset]:
                """The inner transitions of the SCCs of `label`, by least state."""
                if label not in split:
                    mask = rest = 0
                    for t in label:
                        mask |= bit[t]
                        rest |= 1 << t[0]
                    out = []
                    while rest:
                        v = (rest & -rest).bit_length() - 1
                        comp = _reach(succ, v, mask) & _reach(pred, v, mask)
                        rest &= ~comp
                        inner = frozenset(t for t in label if comp >> t[0] & 1 and comp >> t[2] & 1)
                        if inner:
                            out.append(inner)
                    split[label] = out
                return split[label]

            colors = frozenset(edges)
        else:
            succ, pred = _state_graph(structure)

            def loops(states: frozenset) -> list[frozenset]:
                """The loopable SCCs of `states`, by least state."""
                if len(states) < 2:
                    # a single state is a loop only with its self-loop
                    return [states] if any(q in structure.delta[q] for q in states) else []
                if states not in split:
                    rest = 0
                    for q in states:
                        rest |= 1 << q
                    out = []
                    while rest:
                        v = (rest & -rest).bit_length() - 1
                        comp = _loopable_scc(succ, pred, v, rest)
                        rest &= ~(comp or 1 << v)
                        if comp:
                            out.append(frozenset(q for q in states if comp >> q & 1))
                    split[states] = out
                return split[states]

            colors = frozenset(range(n))

        if isinstance(acc, (Buchi, CoBuchi)):
            acc = as_parity(acc, n)
        if isinstance(acc, Parity):
            rank = _priorities(acc.colors)

            def accepts(label: frozenset) -> bool:
                return min(rank[q] for q in label) % 2 == 1

            def children(label: frozenset) -> list[frozenset]:
                verdict, found, stack = accepts(label), [], [label]
                while stack:
                    s = stack.pop()
                    low = min(rank[q] for q in s)
                    for y in loops(frozenset(q for q in s if rank[q] != low)):
                        (stack if accepts(y) == verdict else found).append(y)
                return sorted(found, key=sorted)

        else:
            table = acc.table
            accepts = table.__contains__

            def children(label: frozenset) -> list[frozenset]:
                return _muller_children(label, table, loops)

        def node(label, priority, parent):
            states = frozenset(p for p, _, _ in label) if by_transition else label
            return _TreeNode(label, states, priority, parent)

        self.loops = loops
        tops = loops(colors)
        self.nodes = nodes = [node(s, 1 if accepts(s) else 0, -1) for s in tops]
        queue = deque(range(len(nodes)))
        while queue:
            i = queue.popleft()
            for child in children(nodes[i].label):
                nodes[i].children.append(len(nodes))
                queue.append(len(nodes))
                nodes.append(node(child, nodes[i].priority + 1, i))
        # a tree lies in one SCC, which is reachable whole or not at all
        reachable = structure.reachable_states()
        self.reachable = [i for i, x in enumerate(nodes) if x.states <= reachable]
        # a state on no loop gets a node of its own that holds no color, so
        # no step stays in it
        on_loops = frozenset().union(*(nodes[r].states for r in range(len(tops))))
        for q in range(n):
            if q not in on_loops:
                nodes.append(_TreeNode(frozenset(), frozenset([q]), _BETWEEN_SCCS, -1))
        self.starts = [0] * n
        for r, root in enumerate(nodes):
            if root.parent < 0:
                for q in root.states:
                    self.starts[q] = self._down(r, q)

    def _down(self, i: int, q: int) -> int:
        """The leftmost leaf of T_q below node i, whose states hold q."""
        nodes = self.nodes
        while True:
            for c in nodes[i].children:
                if q in nodes[c].states:
                    i = c
                    break
            else:
                return i

    def advance(self, leaf: int, t) -> tuple[int, int]:
        """Process the step t = (q, a, q2) from a state whose leaf is
        `leaf`: returns (next leaf, emitted priority).

        The deepest node on the leaf's branch whose label holds t's color
        (t, or q2 for a state table) emits its priority, and the run moves
        on to the next of its children after the one on the branch (from
        the first, when the leaf itself emits), cyclically, among those
        that hold q2, and down to the leftmost leaf of T_q2; with no such
        child it stays at that node.  A step out of the tree, to another
        SCC, enters q2's own start leaf.
        """
        nodes = self.nodes
        q2 = t[2]
        color = t if self.by_transition else q2
        below, i = -1, leaf
        node = nodes[i]
        while color not in node.label:
            if node.parent < 0:
                return self.starts[q2], _BETWEEN_SCCS
            below, i = i, node.parent
            node = nodes[i]
        kids = node.children
        if kids:
            k = kids.index(below) + 1 if below >= 0 else 0
            for c in kids[k:] + kids[:k]:
                if q2 in nodes[c].states:
                    return self._down(c, q2), node.priority
        return i, node.priority


def _chain_flags(tree: AcdTree) -> dict[str, bool]:
    """weak, db and dc of the reachable loops of an acceptance's tree.

    db: no superset of an accepting loop is rejecting, so it fails on a
    rejecting node with children; dc fails on an accepting one; weak: both
    hold.
    """
    split = {tree.nodes[i].priority % 2 for i in tree.reachable if tree.nodes[i].children}
    return {"weak": not split, "db": 0 not in split, "dc": 1 not in split}


def is_weak(acceptor: Acceptor) -> bool:
    return _chain_flags(AcdTree(acceptor.structure, acceptor.acceptance))["weak"]


def is_db(acceptor: Acceptor) -> bool:
    """No superset of an accepting loopable set may be rejecting."""
    return _chain_flags(AcdTree(acceptor.structure, acceptor.acceptance))["db"]


def is_dc(acceptor: Acceptor) -> bool:
    return _chain_flags(AcdTree(acceptor.structure, acceptor.acceptance))["dc"]


@dataclass(frozen=True)
class AlternationMeasure:
    max_alternations: int
    polarity: str
    witness_chain: tuple[LoopEntry, ...]


def alternation_measure(acceptor: Acceptor) -> AlternationMeasure:
    """Longest alternating inclusion chain of loops: the greatest depth in
    the loop tree, along a branch of maximal loops.

    Polarity convention: consider the deepest nodes; keep only those lying
    in maximal SCCs not reachable from another deepest node's SCC, and
    report the verdicts found among them (+ for accepting, - for
    rejecting, +- for both).  The witness chain is the branch from the
    sorted-least node kept up to its root.
    """
    structure = acceptor.structure
    tree = AcdTree(structure, acceptor.acceptance)
    nodes = tree.nodes
    depth: dict[int, int] = {}
    for i in tree.reachable:
        parent = nodes[i].parent
        depth[i] = depth[parent] + 1 if parent >= 0 else 0
    best = max(depth.values())
    deepest = [i for i, d in depth.items() if d == best]

    # keep the deepest nodes whose maximal SCC no other one's SCC reaches: a
    # node at q is dropped when some node at p reaches q but q does not
    # reach p
    succ, _ = _state_graph(structure)
    everyone = (1 << structure.state_count) - 1
    anchor = {i: min(nodes[i].states) for i in deepest}
    reach = {i: _reach(succ, anchor[i], everyone) for i in deepest}
    minimal = [
        i
        for i in deepest
        if not any(reach[j] >> anchor[i] & 1 and not reach[i] >> anchor[j] & 1 for j in deepest)
    ]
    verdicts = {nodes[i].priority % 2 == 1 for i in minimal}
    polarity = ("+" if True in verdicts else "") + ("-" if False in verdicts else "")

    chain = []
    i = min(minimal, key=lambda i: sorted(nodes[i].label))
    while i >= 0:
        x = nodes[i]
        states = x.states
        trans = x.label if tree.by_transition else frozenset(
            t for q in states for t in structure.transitions_from(q) if t[2] in states
        )
        chain.append(LoopEntry(states, trans, x.priority % 2 == 1))
        i = x.parent
    return AlternationMeasure(best, polarity, tuple(chain))


def _weak_union(acceptor: Acceptor, want_accepting: bool) -> frozenset[int]:
    """The states of the reachable loops with the wanted verdict: when no
    node has children, those of the roots with that verdict."""
    tree = AcdTree(acceptor.structure, acceptor.acceptance)
    loops = [tree.nodes[i] for i in tree.reachable]
    if any(x.children for x in loops):
        raise NotWeak("acceptance alternates along an inclusion chain")
    return frozenset().union(*(x.states for x in loops if (x.priority % 2 == 1) == want_accepting))


def weak_to_buchi(acceptor: Acceptor) -> Acceptor:
    """Equivalent Buchi acceptor on the same structure; requires weakness."""
    return Acceptor(acceptor.structure, Buchi(_weak_union(acceptor, True)))


def weak_to_cobuchi(acceptor: Acceptor) -> Acceptor:
    return Acceptor(acceptor.structure, CoBuchi(_weak_union(acceptor, False)))
