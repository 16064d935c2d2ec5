"""Graph kernels: strongly connected components and breadth-first search.

The SCC search takes adjacency lists over vertices numbered from 0; the
breadth-first searches take a successor function over any hashable values.
Every search follows the order in which its inputs list vertices and edges,
so its results do not depend on hash order.

The SCCs are those of the parity pair product's threshold subgraphs.  The
breadth-first searches serve reachable states, the partition's state
order, the quotient and its representatives, refinement, the counting
witness, trivial-decomposition blocks, subset and product constructions,
lasso spokes, covering walks and the paths inside a product SCC.
"""

from __future__ import annotations

from collections import deque


def sccs(adj: list[list[int]], roots) -> list[list[int]]:
    """Maximal SCCs of the part of a graph on vertices 0..len(adj)-1 that
    the roots reach (iterative Tarjan).

    adj[v] lists the successors of v.  Roots are tried in the order given,
    successors in list order; components come out in completion order, so
    a component precedes every one reaching it.
    """
    index = [0] * len(adj)  # preorder number from 1; 0 while unvisited
    low = [0] * len(adj)
    on_stack = bytearray(len(adj))
    stack: list[int] = []
    out = []
    count = 0
    for root in roots:
        if index[root]:
            continue
        count += 1
        index[root] = low[root] = count
        stack.append(root)
        on_stack[root] = 1
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if not index[w]:
                    count += 1
                    index[w] = low[w] = count
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    at = len(stack) - 1
                    while stack[at] != v:
                        at -= 1
                    comp = stack[at:]
                    del stack[at:]
                    for w in comp:
                        on_stack[w] = 0
                    out.append(comp)
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
