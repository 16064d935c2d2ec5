"""Exact language comparison via an internal parity machine.

Each acceptor is read as a deterministic edge-colored parity machine, the
ParityView, whose least priority seen infinitely often is odd exactly on
accepted runs.  Büchi and co-Büchi conditions are read as their parity
colorings, and a parity coloring needs no tree: the step into state q
emits q's color, with each run of same-parity colors merged into one
priority.  A Muller table, of states or of transitions, is read through
its alternating cycle decomposition, `loops.AcdTree` (Casares, Colcombet &
Fijalkow, ICALP 2021): one tree per SCC of the state graph over the loops
the automaton has, so the view has no leaf that no run inside one SCC can
use.  The view keeps that tree, so a caller that also reads the loop
structure builds it once.  Comparing two acceptors then reduces to a
threshold-subgraph cycle search on the product.

Everything on this path is numbered: a ParityView numbers its view
states and tabulates their steps when it is built, the pair product
numbers its nodes breadth first and keeps its edges as int tuples, and the
SCC search runs on adjacency lists indexed by node.  The product stops
with CapacityExceeded past PRODUCT_CAPACITY nodes.
"""

from __future__ import annotations

from .errors import CapacityExceeded
from .graph import bfs_path, sccs
from .loops import AcdTree, _priorities, as_parity
from .model import Acceptor, Buchi, CoBuchi, LassoWord, Parity
from .semantics import accepts


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
    moves a run on by one step.  `tree` is that AcdTree, or None for a
    priority view.
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
            self.tree = None
            self.states = list(range(structure.state_count))
            self.nxt = [q2 for row in delta for q2 in row]
            self.pri = [rank[q2] for q2 in self.nxt]
            return
        self.tree = tree = AcdTree(structure, acc)
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
