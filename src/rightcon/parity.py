"""Exact language comparison via an internal parity translation.

Any acceptance condition is turned into a deterministic edge-colored parity
machine: colors are states (or transitions, for transition-table acceptance),
the verdict function on color sets induces an alternating subset tree, and
the leaf-tracking construction yields emitted priorities whose minimal
infinitely-occurring value is odd exactly on accepted runs.  Comparing two
acceptors then reduces to a threshold-subgraph cycle search on the product.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .graph import bfs_path, sccs
from .model import Acceptor, LassoWord, MullerTransitions
from .semantics import accepts


def maximal_flipped_subsets(colors: frozenset, polarity, memo) -> list[frozenset]:
    """Maximal proper nonempty subsets of `colors` with opposite verdict."""

    def pol(s):
        if s not in memo:
            memo[s] = polarity(s)
        return memo[s]

    target = not pol(colors)
    found: list[frozenset] = []
    frontier = {colors - {c} for c in colors}
    frontier.discard(frozenset())
    visited: set[frozenset] = set()
    while frontier:
        nxt: set[frozenset] = set()
        for y in frontier:
            if y in visited:
                continue
            visited.add(y)
            if any(y <= f for f in found):
                continue
            if pol(y) == target:
                found.append(y)
            else:
                for c in y:
                    z = y - {c}
                    if z:
                        nxt.add(z)
        frontier = nxt
    # keep only inclusion-maximal results
    return sorted(
        (f for f in found if not any(f < g for g in found)),
        key=lambda s: sorted(map(repr, s)),
    )


@dataclass
class _TreeNode:
    label: frozenset
    depth: int
    priority: int
    parent: int
    children: list = field(default_factory=list)
    leftmost_leaf: int = -1


class AlternatingTree:
    """Alternating maximal-subset tree of a verdict function over colors."""

    def __init__(self, colors: frozenset, polarity):
        self.memo: dict[frozenset, bool] = {}

        def pol(s):
            if s not in self.memo:
                self.memo[s] = polarity(s)
            return self.memo[s]

        offset = 1 if pol(colors) else 0
        self.nodes: list[_TreeNode] = []
        self.nodes.append(_TreeNode(colors, 0, offset, -1))
        queue = deque([0])
        while queue:
            i = queue.popleft()
            node = self.nodes[i]
            for child_label in maximal_flipped_subsets(node.label, polarity, self.memo):
                j = len(self.nodes)
                self.nodes.append(
                    _TreeNode(child_label, node.depth + 1, node.depth + 1 + offset, i)
                )
                node.children.append(j)
                queue.append(j)
        self.leaves = [i for i, n in enumerate(self.nodes) if not n.children]
        for i in reversed(range(len(self.nodes))):
            n = self.nodes[i]
            n.leftmost_leaf = i if not n.children else self.nodes[n.children[0]].leftmost_leaf
        self.max_priority = max(n.priority for n in self.nodes)

    def branch(self, leaf: int) -> list[int]:
        out = []
        i = leaf
        while i != -1:
            out.append(i)
            i = self.nodes[i].parent
        return list(reversed(out))

    def advance(self, leaf: int, color) -> tuple[int, int]:
        """Process one emitted color: returns (next leaf, emitted priority)."""
        branch = self.branch(leaf)
        support = None
        for i in branch:
            if color in self.nodes[i].label:
                support = i
            else:
                break
        if support is None:
            # color outside the root label cannot occur on reachable runs
            raise AssertionError("color outside tree root")
        node = self.nodes[support]
        if not node.children:
            return leaf, node.priority
        pos = branch.index(support)
        on_branch = branch[pos + 1]
        k = node.children.index(on_branch)
        nxt = node.children[(k + 1) % len(node.children)]
        return self.nodes[nxt].leftmost_leaf, node.priority


class ParityView:
    """Deterministic edge-colored parity machine for an acceptor.

    States are (automaton state, tree leaf); each step emits a priority.
    The minimal priority occurring infinitely often is odd iff the run is
    accepted by the original acceptor.
    """

    def __init__(self, acceptor: Acceptor):
        self.acceptor = acceptor
        structure = acceptor.structure
        acc = acceptor.acceptance
        if isinstance(acc, MullerTransitions):
            self.transition_colors = True
            colors = frozenset(structure.all_transitions())

            def polarity(tset):
                states = frozenset(t[0] for t in tset) | frozenset(t[2] for t in tset)
                return acc.accepts_loop(states, frozenset(tset))

        else:
            self.transition_colors = False
            colors = frozenset(range(structure.state_count))

            def polarity(sset):
                return acc.accepts_loop(frozenset(sset), frozenset())

        self.tree = AlternatingTree(colors, polarity)
        self.root_leaf = self.tree.nodes[0].leftmost_leaf
        self._cache: dict = {}

    def initial(self, q: int | None = None):
        if q is None:
            q = self.acceptor.structure.initial
        return (q, self.root_leaf)

    def step(self, state, symbol: str):
        """Returns ((q', leaf'), priority)."""
        key = (state, symbol)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        q, leaf = state
        q2 = self.acceptor.structure.step(q, symbol)
        color = (q, symbol, q2) if self.transition_colors else q2
        leaf2, priority = self.tree.advance(leaf, color)
        result = ((q2, leaf2), priority)
        self._cache[key] = result
        return result


def find_discrepancy(
    view_a: ParityView,
    view_b: ParityView,
    from_a: int | None = None,
    from_b: int | None = None,
) -> LassoWord | None:
    """Search for a lasso accepted by exactly one of the two acceptors.

    Explores the product of the two parity machines; for each priority pair
    (i, j) of opposite parity it keeps edges with priorities >= (i, j) and
    looks for an SCC containing both an i-edge and a j-edge.
    """
    symbols = view_a.acceptor.alphabet.symbols
    start = (view_a.initial(from_a), view_b.initial(from_b))
    parent: dict = {start: None}
    edges = []  # (src, sym, dst, pa, pb)
    queue = deque([start])
    while queue:
        s = queue.popleft()
        sa, sb = s
        for sym in symbols:
            ta, pa = view_a.step(sa, sym)
            tb, pb = view_b.step(sb, sym)
            t = (ta, tb)
            edges.append((s, sym, t, pa, pb))
            if t not in parent:
                parent[t] = (s, sym)
                queue.append(t)

    def spoke_to(node):
        out = []
        cur = node
        while parent[cur] is not None:
            prev, sym = parent[cur]
            out.append(sym)
            cur = prev
        return tuple(reversed(out))

    def symbols_between(adj, src, dst):
        """Symbols of a shortest path from src to dst in the edge lists adj."""
        if src == dst:
            return []
        steps = bfs_path(src, lambda u: adj.get(u, ()), lambda u, sym, v: v == dst)
        return [sym for _, sym, _ in steps]

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
            adj: dict = {}  # insertion-ordered, so the search repeats run to run
            for e in sub:
                adj.setdefault(e[0], [])
                adj.setdefault(e[2], [])
                adj[e[0]].append(e[2])
            comps = sccs(adj, adj.__getitem__)
            comp_of = {}
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
                if e1 is None or e2 is None:
                    continue
                inner_adj: dict = {}
                for (u, sym, v, _, _) in inner:
                    inner_adj.setdefault(u, []).append((sym, v))
                cycle = [
                    e1[1],
                    *symbols_between(inner_adj, e1[2], e2[0]),
                    e2[1],
                    *symbols_between(inner_adj, e2[2], e1[0]),
                ]
                witness = LassoWord(spoke_to(e1[0]), tuple(cycle))
                va = accepts(view_a.acceptor, witness, from_a)
                vb = accepts(view_b.acceptor, witness, from_b)
                if va == vb:
                    raise AssertionError("discrepancy witness failed verification")
                return witness
    return None
