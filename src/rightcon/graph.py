"""Graph kernels: strongly connected components and breadth-first search.

Graphs are given by a successor function; vertices are any hashable values.
Every search follows the order in which its inputs list vertices and edges,
so its results do not depend on hash order.

They serve reachable states, the quotient and its representatives, the
counting witness, trivial-decomposition blocks, subset and product
constructions, lasso spokes, covering walks and pair-product SCCs.
"""

from __future__ import annotations

from collections import deque


def sccs(vertices, succ) -> list[frozenset]:
    """Maximal SCCs of the graph restricted to `vertices` (iterative Tarjan).

    Roots are tried in the iteration order of `vertices`; components come
    out in completion order, so a component precedes every one reaching it.
    """
    index = {}
    low = {}
    on_stack = set()
    stack = []
    out = []
    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in vertices:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                out.append(frozenset(comp))
    return out


def bfs_order(src, succ) -> list:
    """Vertices reachable from src in breadth-first discovery order."""
    order = [src]
    seen = {src}
    for u in order:
        for v in succ(u):
            if v not in seen:
                seen.add(v)
                order.append(v)
    return order


def bfs_path(src, succ, goal) -> list[tuple] | None:
    """Shortest path from src whose last edge satisfies goal(u, label, v).

    succ(u) yields (label, v) pairs.  The path is a list of (u, label, v)
    edges; it is None when no reachable edge satisfies goal.
    """
    prev = {src: None}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for label, v in succ(u):
            if goal(u, label, v):
                path = [(u, label, v)]
                while prev[u] is not None:
                    path.append(prev[u])
                    u = prev[u][0]
                path.reverse()
                return path
            if v not in prev:
                prev[v] = (u, label, v)
                queue.append(v)
    return None
