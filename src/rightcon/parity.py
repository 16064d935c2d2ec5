"""Exact language comparison via an internal parity translation.

Any acceptance condition is turned into a deterministic edge-colored parity
machine.  Colors are states (or transitions, for transition-table
acceptance).  The Zielonka tree of the condition over color sets
(Zielonka, TCS 1998) is read off the acceptance itself: each node's
children are the maximal proper nonempty subsets of its label with the
opposite verdict.  The
leaf-tracking construction yields emitted priorities whose minimal
infinitely-occurring value is odd exactly on accepted runs.  Comparing two
acceptors then reduces to a threshold-subgraph cycle search on the product.

Everything on this path is numbered: a ParityView numbers its (state,
leaf) pairs and tabulates their steps when it is built, the pair product
numbers its nodes breadth first and keeps its edges as int tuples, and the
SCC search runs on adjacency lists indexed by node.  The product stops
with CapacityExceeded past PRODUCT_CAPACITY nodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import CapacityExceeded
from .graph import bfs_path, sccs
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


def _maximal(sets) -> list[frozenset]:
    """The inclusion-maximal sets, in a hash-independent order."""
    kept: list[frozenset] = []
    for s in sorted(sets, key=len, reverse=True):
        if not any(s < k for k in kept):
            kept.append(s)
    return sorted(kept, key=lambda s: sorted(map(repr, s)))


def _muller_children(label: frozenset, table: frozenset) -> list[frozenset]:
    """Maximal proper nonempty subsets of `label` with the opposite verdict.

    Below a rejecting label these are the maximal table entries inside it.
    Below an accepting one every set between a maximal non-entry and the
    label is an entry, so removing one color at a time and passing through
    entries only reaches them all.
    """
    if label not in table:
        return _maximal(e for e in table if e < label)
    found = set()
    seen = {label}
    stack = [label]
    while stack:
        entry = stack.pop()
        for c in entry:
            y = entry - {c}
            if y and y not in seen:
                seen.add(y)
                if y in table:
                    stack.append(y)
                else:
                    found.add(y)
    return _maximal(found)


def _parity_children(label: frozenset, colors: tuple[int, ...]) -> list[frozenset]:
    """The one maximal subset of `label` whose least color has the other
    parity: its states colored at or above the least such color."""
    least = min(colors[q] for q in label)
    other = [colors[q] for q in label if (colors[q] - least) % 2]
    if not other:
        return []
    floor = min(other)
    return [frozenset(q for q in label if colors[q] >= floor)]


@dataclass
class _TreeNode:
    label: frozenset
    priority: int
    parent: int
    children: list = field(default_factory=list)
    leftmost_leaf: int = -1


class AlternatingTree:
    """Zielonka tree of a Muller table or parity coloring over `colors`.

    The root is labelled with every color; each node's children are the
    maximal proper nonempty subsets of its label with the opposite verdict,
    in a hash-independent order.  A node's priority is its depth, plus one
    when the root accepts.
    """

    def __init__(self, colors: frozenset, acc: MullerStates | MullerTransitions | Parity):
        if isinstance(acc, Parity):
            rank = acc.colors
            offset = min(rank[q] for q in colors) % 2

            def children(label):
                return _parity_children(label, rank)

        else:
            table = acc.table
            offset = 1 if colors in table else 0

            def children(label):
                return _muller_children(label, table)

        self.nodes: list[_TreeNode] = []
        self.nodes.append(_TreeNode(colors, offset, -1))
        queue = deque([0])
        while queue:
            i = queue.popleft()
            node = self.nodes[i]
            for child_label in children(node.label):
                j = len(self.nodes)
                self.nodes.append(_TreeNode(child_label, node.priority + 1, i))
                node.children.append(j)
                queue.append(j)
        for i in reversed(range(len(self.nodes))):
            n = self.nodes[i]
            n.leftmost_leaf = i if not n.children else self.nodes[n.children[0]].leftmost_leaf

    def advance(self, leaf: int, color) -> tuple[int, int]:
        """Process one emitted color: returns (next leaf, emitted priority).

        The deepest node on the leaf's branch whose label holds the color
        emits its priority; unless it is the leaf itself, the run moves on
        to the leftmost leaf of its child after the one on the branch.
        """
        below, i = -1, leaf
        while color not in self.nodes[i].label:
            if i == 0:
                # colors outside the root label cannot occur on runs
                raise AssertionError("color outside tree root")
            below, i = i, self.nodes[i].parent
        node = self.nodes[i]
        if below == -1:
            return leaf, node.priority
        k = node.children.index(below)
        nxt = node.children[(k + 1) % len(node.children)]
        return self.nodes[nxt].leftmost_leaf, node.priority


class ParityView:
    """Deterministic edge-colored parity machine for an acceptor.

    Its states are the (automaton state, leaf) pairs reachable from
    (q, leftmost leaf of the root) for each automaton state q, the leaves
    being those of the acceptance's AlternatingTree (Büchi and co-Büchi
    are read as their parity colorings).  They are numbered breadth first
    when the view is built, the roots first, so that automaton state q is
    view state q.  Reading symbol index i from view state s leads to
    nxt[s*k + i] and emits priority pri[s*k + i], over k symbols.  The
    minimal priority occurring infinitely often is odd iff the run is
    accepted by the original acceptor.
    """

    def __init__(self, acceptor: Acceptor):
        self.acceptor = acceptor
        structure = acceptor.structure
        acc = acceptor.acceptance
        transition_colors = isinstance(acc, MullerTransitions)
        if transition_colors:
            colors = frozenset(structure.all_transitions())
        else:
            colors = frozenset(range(structure.state_count))
        if isinstance(acc, (Buchi, CoBuchi)):
            acc = as_parity(acc, structure.state_count)
        self.tree = tree = AlternatingTree(colors, acc)
        root_leaf = tree.nodes[0].leftmost_leaf
        symbols = structure.alphabet.symbols
        delta = structure.delta
        self.k = len(symbols)
        # the (automaton state, leaf) pair of each view state
        self.states = [(q, root_leaf) for q in range(structure.state_count)]
        ids = {s: q for q, s in enumerate(self.states)}
        self.nxt: list[int] = []
        self.pri: list[int] = []
        for q, leaf in self.states:  # grows while it is read
            for sym, q2 in zip(symbols, delta[q]):
                color = (q, sym, q2) if transition_colors else q2
                leaf2, priority = tree.advance(leaf, color)
                t = ids.get((q2, leaf2))
                if t is None:
                    t = ids[q2, leaf2] = len(self.states)
                    self.states.append((q2, leaf2))
                self.nxt.append(t)
                self.pri.append(priority)

    def initial(self, q: int | None = None) -> int:
        """The view state of automaton state q, by default the initial one."""
        return self.acceptor.structure.initial if q is None else q


# Most product nodes pair_product numbers before it gives up.  The tests,
# the catalog fixtures and the benchmark inputs build at most about 22,000;
# a partition product just below the bound peaks near 250 MB.
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
