"""Lasso simulation and language checks of the benchmark's own.

Nothing here imports rightcon or calls its simulator (`lasso_run`,
`accepts`, `accepts_loop`).  An acceptor is read through its plain fields:
`structure.delta`, `structure.alphabet.symbols`, `structure.initial`, and the
acceptance condition's `kind` with its set, colours or table.  A fault in the
library's simulation or decision code therefore cannot vouch for itself.
"""

from __future__ import annotations

import itertools
from collections import deque


class SearchBudgetExceeded(Exception):
    """The exact separation search gave up before deciding."""


def loop_accepted(acceptance, inf_states, inf_trans) -> bool:
    """Verdict of a run whose infinity sets are the given ones."""
    kind = acceptance.kind
    if kind == "buchi":
        return bool(inf_states & acceptance.accepting)
    if kind == "cobuchi":
        return not (inf_states & acceptance.avoided)
    if kind == "parity":
        return min(acceptance.colors[q] for q in inf_states) % 2 == 1
    if kind == "muller":
        return inf_states in acceptance.table
    if kind == "tmuller":
        return inf_trans in acceptance.table
    raise ValueError(f"unknown acceptance kind {kind!r}")


class Machine:
    """An acceptor (or a structure with another condition) as plain tables."""

    def __init__(self, structure, acceptance):
        self.delta = [list(row) for row in structure.delta]
        self.symbols = tuple(structure.alphabet.symbols)
        self.index = {s: i for i, s in enumerate(self.symbols)}
        self.initial = structure.initial
        self.n = structure.state_count
        self.acceptance = acceptance
        self.state_based = acceptance.kind != "tmuller"

    @classmethod
    def of(cls, acceptor):
        return cls(acceptor.structure, acceptor.acceptance)

    def run(self, q: int, word) -> int:
        for s in word:
            q = self.delta[q][self.index[s]]
        return q

    def loop(self, q: int, cycle):
        """Infinity sets of cycle^omega read from q."""
        idx = [self.index[s] for s in cycle]
        boundary = {q: 0}
        laps = []
        for lap in range(self.n + 1):
            states, trans = [], []
            for i in idx:
                nxt = self.delta[q][i]
                trans.append((q, self.symbols[i], nxt))
                states.append(nxt)
                q = nxt
            laps.append((states, trans))
            if q in boundary:
                inf_s, inf_t = set(), set()
                for states, trans in laps[boundary[q]:]:
                    inf_s.update(states)
                    inf_t.update(trans)
                return frozenset(inf_s), frozenset(inf_t)
            boundary[q] = lap + 1
        raise AssertionError("a deterministic run must repeat a lap boundary")

    def member(self, spoke, cycle, q: int | None = None) -> bool:
        start = self.initial if q is None else q
        inf_s, inf_t = self.loop(self.run(start, spoke), cycle)
        return loop_accepted(self.acceptance, inf_s, inf_t)


def words(symbols, lo: int, hi: int):
    for n in range(lo, hi + 1):
        yield from itertools.product(symbols, repeat=n)


def lasso_bounds(symbols) -> tuple[int, int]:
    """Longest spoke and cycle of the exhaustive lasso sets, by alphabet size."""
    return (3, 5) if len(symbols) <= 2 else (2, 3)


class BoundedSignatures:
    """Verdicts of every lasso u.v^omega with |u| <= S and 1 <= |v| <= C.

    `of(q)` is the verdict vector from state q; two states agree on every
    lasso up to those lengths exactly when their vectors are equal.
    """

    def __init__(self, machine: Machine, bounds=None):
        self.machine = machine
        s_max, c_max = bounds or lasso_bounds(machine.symbols)
        self.spokes = list(words(machine.symbols, 0, s_max))
        self.cycles = list(words(machine.symbols, 1, c_max))
        self._cycle_row = {}
        self._sig = {}

    def cycle_row(self, q: int) -> tuple:
        row = self._cycle_row.get(q)
        if row is None:
            row = tuple(self.machine.member((), c, q) for c in self.cycles)
            self._cycle_row[q] = row
        return row

    def of(self, q: int) -> tuple:
        sig = self._sig.get(q)
        if sig is None:
            sig = tuple(self.cycle_row(self.machine.run(q, u)) for u in self.spokes)
            self._sig[q] = sig
        return sig

    def first_difference(self, p: int, q: int):
        """A lasso within the bounds on which p and q disagree, or None."""
        m = self.machine
        for u in self.spokes:
            rp, rq = self.cycle_row(m.run(p, u)), self.cycle_row(m.run(q, u))
            if rp != rq:
                k = next(i for i, (a, b) in enumerate(zip(rp, rq)) if a != b)
                return u, self.cycles[k]
        return None


def _sccs(vertices, succ):
    """Strongly connected components of the graph induced on `vertices`."""
    index, low, on_stack, stack, out = {}, {}, set(), [], []
    counter = 0
    for root in vertices:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter([w for w in succ(root) if w in vertices]))]
        while work:
            v, it = work[-1]
            pushed = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter([x for x in succ(w) if x in vertices])))
                    pushed = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if pushed:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
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


def separating_lasso(machine: Machine, p: int, q: int, budget: int = 20000):
    """A lasso accepted from exactly one of p and q, or None if none exists.

    Exact: it searches the product of the machine with itself started at
    (p, q) for a strongly connected set of product edges whose two
    projections get different verdicts.  If a strongly connected set fails,
    any separating subset must drop some state (or, for transition tables,
    some transition) of one projection, so the search recurses on the
    components left after each such removal.  For a state table the search
    starts from each entry instead, as one projection of a separating set
    is an entry.  Raises SearchBudgetExceeded after `budget` component
    visits.
    """
    if p == q:
        return None
    k = len(machine.symbols)
    delta = machine.delta
    start = (p, q)
    parent = {start: None}
    queue = deque([start])
    edges = []
    while queue:
        node = queue.popleft()
        a, b = node
        for i in range(k):
            nxt = (delta[a][i], delta[b][i])
            edges.append((node, i, nxt))
            if nxt not in parent:
                parent[nxt] = (node, i)
                queue.append(nxt)
    out_edges = {}
    for e in edges:
        out_edges.setdefault(e[0], []).append(e)
    sym = machine.symbols

    def succ(e):
        return out_edges[e[2]]

    def projections(comp):
        ls, rs, lt, rt = set(), set(), set(), set()
        for (src, i, dst) in comp:
            ls.add(dst[0])
            rs.add(dst[1])
            lt.add((src[0], sym[i], dst[0]))
            rt.add((src[1], sym[i], dst[1]))
        return frozenset(ls), frozenset(rs), frozenset(lt), frozenset(rt)

    seen = set()
    visits = 0
    acc = machine.acceptance

    def components(vertices):
        nonlocal visits
        for comp in _sccs(vertices, succ):
            if len(comp) == 1:
                (e,) = comp
                if e[0] != e[2]:
                    continue
            if comp in seen:
                continue
            seen.add(comp)
            visits += 1
            if visits > budget:
                raise SearchBudgetExceeded(f"{budget} components")
            yield comp, projections(comp)

    def search(vertices):
        for comp, (ls, rs, lt, rt) in components(vertices):
            if loop_accepted(acc, ls, lt) != loop_accepted(acc, rs, rt):
                return comp
            if machine.state_based:
                drops = [(0, s) for s in ls] + [(1, s) for s in rs]
                key = lambda e, side: e[2][side]
            else:
                drops = [(0, t) for t in lt] + [(1, t) for t in rt]
                key = lambda e, side: (e[0][side], sym[e[1]], e[2][side])
            for side, item in drops:
                found = search(frozenset(e for e in comp if key(e, side) != item))
                if found is not None:
                    return found
        return None

    def search_entry(vertices, side, entry):
        # a state table accepts exactly its entries: look for a set whose
        # `side` projection is `entry` and whose other one is no entry
        for comp, proj in components(vertices):
            if proj[side] != entry:
                continue
            other = proj[1 - side]
            if other not in acc.table:
                return comp
            for s in other:
                found = search_entry(frozenset(e for e in comp if e[2][1 - side] != s), side, entry)
                if found is not None:
                    return found
        return None

    def search_table():
        for side in (0, 1):
            for entry in sorted(acc.table, key=sorted):
                seen.clear()
                inside = frozenset(e for e in edges if e[0][side] in entry and e[2][side] in entry)
                comp = search_entry(inside, side, entry)
                if comp is not None:
                    return comp
        return None

    comp = search_table() if acc.kind == "muller" else search(frozenset(edges))
    if comp is None:
        return None
    anchor = min(comp)[0]
    spoke = []
    node = anchor
    while parent[node] is not None:
        node, i = parent[node]
        spoke.append(sym[i])
    spoke.reverse()
    cycle = _covering_walk(comp, anchor, sym)
    if machine.member(spoke, cycle, p) == machine.member(spoke, cycle, q):
        raise AssertionError("separating lasso failed its own simulation")
    return tuple(spoke), tuple(cycle)


def _covering_walk(comp, anchor, sym):
    """Closed walk from anchor that uses every edge of comp and no other."""
    adj = {}
    for e in comp:
        adj.setdefault(e[0], []).append(e)
    unused = set(comp)
    walk = []
    cur = anchor

    def path(src, goal):
        prev = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for e in adj.get(u, ()):
                if goal(e):
                    steps = [e]
                    while prev[u] is not None:
                        steps.append(prev[u])
                        u = prev[u][0]
                    return steps[::-1]
                if e[2] not in prev:
                    prev[e[2]] = e
                    queue.append(e[2])
        raise AssertionError("component is not strongly connected")

    while unused:
        for e in path(cur, lambda e: e in unused):
            unused.discard(e)
            walk.append(sym[e[1]])
            cur = e[2]
    if cur != anchor:
        for e in path(cur, lambda e: e[2] == anchor):
            walk.append(sym[e[1]])
            cur = e[2]
    return walk


class Separator:
    """Decides, with proof, that two states of one machine differ."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.bounded = BoundedSignatures(machine)
        self._memo = {}

    def lasso(self, p: int, q: int):
        """A separating lasso for p and q, or None when they are equivalent."""
        key = (min(p, q), max(p, q))
        if key not in self._memo:
            if p == q:
                found = None
            elif self.bounded.of(p) != self.bounded.of(q):
                found = self.bounded.first_difference(p, q)
            else:
                found = separating_lasso(self.machine, p, q)
            self._memo[key] = found
        return self._memo[key]


def orbit_pairs(machine: Machine, x, u):
    """Consecutive state pairs (s_i, s_i+1) of the orbit of x under u,
    up to the first repeated pair."""
    cur = machine.run(machine.initial, x)
    seen = set()
    pairs = []
    while True:
        nxt = machine.run(cur, u)
        if (cur, nxt) in seen:
            return pairs
        seen.add((cur, nxt))
        pairs.append((cur, nxt))
        cur = nxt
