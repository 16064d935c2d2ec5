"""Exact language comparison via an internal parity machine.

Each acceptor is read as a deterministic edge-colored parity machine, the
ParityView, whose least priority seen infinitely often is odd exactly on
accepted runs; its tree comes from the acceptance kind.  Büchi and
co-Büchi conditions are read as their parity colorings, and a parity
coloring needs no tree: the step into state q emits q's color, with each
run of same-parity colors merged into one priority.  A Muller table, of
states or of transitions, is read through its alternating cycle
decomposition (Casares, Colcombet & Fijalkow, ICALP 2021): one tree per
SCC of the state graph over the loops the automaton has, so the view has
no leaf that no run inside one SCC can use.  Comparing two acceptors then
reduces to a threshold-subgraph cycle search on the product.

Everything on this path is numbered: a ParityView numbers its view
states and tabulates their steps when it is built, the pair product
numbers its nodes breadth first and keeps its edges as int tuples, and the
SCC search runs on adjacency lists indexed by node.  The product stops
with CapacityExceeded past PRODUCT_CAPACITY nodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import CapacityExceeded
from .graph import bfs_path, sccs
from .loops import _edge_graph, _loopable_scc, _reach, _state_graph
from .model import (
    Acceptor,
    Buchi,
    CoBuchi,
    LassoWord,
    MullerStates,
    MullerTransitions,
    Parity,
)
from .semantics import accepts


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
    """Alternating cycle decomposition of a Muller table (Casares,
    Colcombet & Fijalkow, ICALP 2021): a forest of trees over loops.

    The colors are states for a state table and transitions for a
    transition table, whose loops are the inner transitions of the SCCs of
    a transition set.  Each SCC of the state graph that holds a loop roots
    a tree; a node's children are the maximal loops inside its label with
    the opposite verdict, sorted by their sorted colors, and its priority
    is its depth, plus one when its root accepts.  A state on no loop roots
    a one-node tree with no colors.  The nodes are numbered breadth first.
    A run at state q sits at a leaf of T_q, the nodes whose states hold q.
    """

    def __init__(self, structure, acc: MullerStates | MullerTransitions):
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

        def node(label, priority, parent):
            states = frozenset(p for p, _, _ in label) if by_transition else label
            return _TreeNode(label, states, priority, parent)

        table = acc.table
        tops = loops(colors)
        self.nodes = nodes = [node(s, 1 if s in table else 0, -1) for s in tops]
        queue = deque(range(len(nodes)))
        while queue:
            i = queue.popleft()
            for child in _muller_children(nodes[i].label, table, loops):
                nodes[i].children.append(len(nodes))
                queue.append(len(nodes))
                nodes.append(node(child, nodes[i].priority + 1, i))
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


class ParityView:
    """Deterministic edge-colored parity machine for an acceptor.

    Reading symbol index i from view state s leads to nxt[s*k + i] and
    emits priority pri[s*k + i], over k symbols, and states[s] is view
    state s's automaton state; view state q is automaton state q.  The
    least priority occurring infinitely often is odd iff the run is
    accepted by the original acceptor.  For a Büchi, co-Büchi or parity
    condition the view states are the automaton states, and a step emits
    its target's merged priority.  For a Muller table they are the (state,
    leaf) pairs of its AcdTree reachable from (q, its start leaf) for each
    state q, numbered breadth first, the roots first; the tree's `advance`
    moves a run on by one step.
    """

    def __init__(self, acceptor: Acceptor):
        self.acceptor = acceptor
        structure = acceptor.structure
        acc = acceptor.acceptance
        symbols = structure.alphabet.symbols
        delta = structure.delta
        self.k = len(symbols)
        if isinstance(acc, (Buchi, CoBuchi)):
            acc = as_parity(acc, structure.state_count)
        if isinstance(acc, Parity):
            rank = _priorities(acc.colors)
            self.states = list(range(structure.state_count))
            self.nxt = [q2 for row in delta for q2 in row]
            self.pri = [rank[q2] for q2 in self.nxt]
            return
        tree = AcdTree(structure, acc)
        # the (automaton state, leaf) pair of each view state
        pairs = list(enumerate(tree.starts))
        ids = {s: q for q, s in enumerate(pairs)}
        self.nxt: list[int] = []
        self.pri: list[int] = []
        for q, leaf in pairs:  # grows while it is read
            for sym, q2 in zip(symbols, delta[q]):
                leaf2, priority = tree.advance(leaf, (q, sym, q2))
                t = ids.get((q2, leaf2))
                if t is None:
                    t = ids[q2, leaf2] = len(pairs)
                    pairs.append((q2, leaf2))
                self.nxt.append(t)
                self.pri.append(priority)
        self.states = [q for q, _ in pairs]

    def initial(self, q: int | None = None) -> int:
        """The view state of automaton state q, by default the initial one."""
        return self.acceptor.structure.initial if q is None else q


# Most product nodes pair_product numbers before it gives up.  The catalog
# fixtures and the benchmark inputs build at most 1,631 and the tests at
# most 7,840, apart from the 187,230 of the partition of
# random_dma(18, "x/0", 3, 8).  The partition of random_dma(19, "x/0", 3, 8),
# 265,092 nodes, peaks at 188 MB of process memory (Python 3.11), so one
# just below the bound takes about 210 MB.
PRODUCT_CAPACITY = 300_000


def pair_product(view_a: ParityView, view_b: ParityView, roots) -> tuple[list, list]:
    """Product of two parity machines reachable from the `roots` pairs of
    view states, which must be distinct.

    Nodes are numbered 0, 1, ... in breadth-first order, so root pair r is
    node r.  Returns the parent of every node, (previous node, symbol index)
    or None for a root, and the edges (src, symbol index, dst, pa, pb) in
    discovery order: node s's edge on symbol index i is edge s*k + i.
    Raises CapacityExceeded once more than PRODUCT_CAPACITY nodes are
    numbered.
    """
    k = view_a.k
    nxt_a, pri_a = view_a.nxt, view_a.pri
    nxt_b, pri_b = view_b.nxt, view_b.pri
    width = len(view_b.states)
    ids = {a * width + b: r for r, (a, b) in enumerate(roots)}
    node_a = [a for a, _ in roots]
    node_b = [b for _, b in roots]
    parent: list = [None] * len(ids)
    edges: list[tuple[int, int, int, int, int]] = []
    cap = PRODUCT_CAPACITY
    # the lists grow while they are read: breadth-first order
    for s, (a, b) in enumerate(zip(node_a, node_b)):
        ea, eb = a * k, b * k
        for i in range(k):
            ta, tb = nxt_a[ea + i], nxt_b[eb + i]
            key = ta * width + tb
            t = ids.get(key)
            if t is None:
                t = ids[key] = len(parent)
                if t >= cap:
                    raise CapacityExceeded("parity product", cap)
                node_a.append(ta)
                node_b.append(tb)
                parent.append((s, i))
            edges.append((s, i, t, pri_a[ea + i], pri_b[eb + i]))
    return parent, edges


def discrepant_components(edges, size: int):
    """SCCs of the product that carry a cycle the two machines disagree on.

    The edges are pair_product's, over nodes 0..size-1.  For each priority
    pair (i, j) of opposite parity, keeps the edges with priorities
    >= (i, j) and yields, smallest first, each SCC of that subgraph holding
    both an i-edge and a j-edge: (its nodes, its inner edges, an i-edge, a
    j-edge).  A cycle through both has least priorities exactly i and j.
    """
    pa_values = sorted({e[3] for e in edges})
    pb_values = sorted({e[4] for e in edges})
    for i in pa_values:
        edges_i = [e for e in edges if e[3] >= i]
        for j in pb_values:
            if (i + j) % 2 == 0:
                continue
            sub = [e for e in edges_i if e[4] >= j]
            if not any(e[3] == i for e in sub) or not any(e[4] == j for e in sub):
                continue
            adj: list[list[int]] = [[] for _ in range(size)]
            for e in sub:
                adj[e[0]].append(e[2])
            # the search starts from each edge's source in edge order, so
            # it repeats run to run
            comps = sccs(adj, (v for v in range(size) if adj[v]))
            comp_of = [-1] * size
            for ci, comp in enumerate(comps):
                for v in comp:
                    comp_of[v] = ci
            inner_by_comp: dict = {}
            for e in sub:
                ci = comp_of[e[0]]
                if ci == comp_of[e[2]]:
                    inner_by_comp.setdefault(ci, []).append(e)
            for ci in sorted(inner_by_comp, key=lambda c: len(comps[c])):
                inner = inner_by_comp[ci]
                e1 = next((e for e in inner if e[3] == i), None)
                e2 = next((e for e in inner if e[4] == j), None)
                if e1 is not None and e2 is not None:
                    yield comps[ci], inner, e1, e2


def find_discrepancy(
    view_a: ParityView,
    view_b: ParityView,
    from_a: int | None = None,
    from_b: int | None = None,
) -> LassoWord | None:
    """Search for a lasso accepted by exactly one of the two acceptors.

    The lasso reaches the first SCC `discrepant_components` yields on the
    product from (from_a, from_b) and cycles through its two edges.
    """
    start = (view_a.initial(from_a), view_b.initial(from_b))
    parent, edges = pair_product(view_a, view_b, [start])
    symbols = view_a.acceptor.alphabet.symbols

    def spoke_to(node):
        out = []
        while parent[node] is not None:
            node, i = parent[node]
            out.append(symbols[i])
        return tuple(reversed(out))

    def symbols_between(adj, src, dst):
        """Symbols of a shortest path from src to dst in the edge lists adj."""
        if src == dst:
            return []
        steps = bfs_path(src, lambda u: adj.get(u, ()), lambda u, i, v: v == dst)
        return [symbols[i] for _, i, _ in steps]

    for _, inner, e1, e2 in discrepant_components(edges, len(parent)):
        inner_adj: dict = {}
        for (u, i, v, _, _) in inner:
            inner_adj.setdefault(u, []).append((i, v))
        cycle = [
            symbols[e1[1]],
            *symbols_between(inner_adj, e1[2], e2[0]),
            symbols[e2[1]],
            *symbols_between(inner_adj, e2[2], e1[0]),
        ]
        witness = LassoWord(spoke_to(e1[0]), tuple(cycle))
        va = accepts(view_a.acceptor, witness, from_a)
        vb = accepts(view_b.acceptor, witness, from_b)
        if va == vb:
            raise AssertionError("discrepancy witness failed verification")
        return witness
    return None
