"""Graph kernels and the lasso simulator against brute-force oracles."""

import random

from rightcon import (
    Alphabet,
    Buchi,
    CoBuchi,
    LassoWord,
    MullerStates,
    MullerTransitions,
    Parity,
    TransitionStructure,
    accepts,
    lasso_run,
    validate,
)
from rightcon.graph import bfs_order, bfs_path, sccs
from rightcon.semantics import LoopVerdicts

from helpers import (
    AB,
    ACCEPTANCE_KINDS,
    naive_accepts,
    naive_infinity_sets,
    random_acceptor,
    random_lasso,
)


def random_graph(rng, n):
    """Adjacency lists with random labelled edges, self-loops included."""
    return {
        u: [(label, rng.randrange(n)) for label in range(rng.randint(0, 3))]
        for u in range(n)
    }


def reach(adj, within):
    """reach[u]: vertices reachable from u by a nonempty path inside `within`."""
    out = {u: {v for _, v in adj[u] if v in within} for u in within}
    changed = True
    while changed:
        changed = False
        for u in within:
            more = set().union(*(out[v] for v in out[u])) - out[u]
            if more:
                out[u] |= more
                changed = True
    return out


def distances(adj, src):
    """Shortest path lengths from src by repeated relaxation."""
    dist = {src: 0}
    for _ in range(len(adj)):
        for u in list(dist):
            for _, v in adj[u]:
                if v not in dist or dist[u] + 1 < dist[v]:
                    dist[v] = dist[u] + 1
    return dist


def check_path(adj, src, path, goal):
    assert path[0][0] == src
    for (u, label, v), nxt in zip(path, path[1:] + [None]):
        assert (label, v) in adj[u]
        if nxt is not None:
            assert nxt[0] == v
            assert not goal(u, label, v)
    assert goal(*path[-1])


def test_sccs_match_mutual_reachability():
    rng = random.Random("graph/sccs")
    for _ in range(300):
        n = rng.randint(1, 9)
        adj = random_graph(rng, n)
        within = [u for u in range(n) if rng.random() < 0.8]
        rng.shuffle(within)
        inside = set(within)
        comps = sccs([[v for _, v in adj[u] if v in inside] for u in range(n)], within)
        r = reach(adj, inside)
        want = {frozenset({u} | {v for v in r[u] if u in r[v]}) for u in within}
        assert sorted(map(sorted, comps)) == sorted(map(sorted, want))
        # completion order: a component comes before every one that reaches it
        pos = {u: i for i, comp in enumerate(comps) for u in comp}
        for u in within:
            for v in r[u]:
                assert pos[v] <= pos[u]


def test_bfs_path_lengths_match_distances():
    rng = random.Random("graph/bfs")
    for _ in range(300):
        n = rng.randint(1, 9)
        adj = random_graph(rng, n)
        succ = adj.__getitem__
        src = rng.randrange(n)
        dist = distances(adj, src)
        assert sorted(bfs_order(src, lambda u: [v for _, v in adj[u]])) == sorted(dist)
        for dst in range(n):
            goal = lambda u, label, v: v == dst
            path = bfs_path(src, succ, goal)
            # a path ends with an edge, so src itself is reached by its
            # shortest cycle: one edge more than the shortest path to a
            # predecessor of src
            ends = [dist[u] + 1 for u in dist for _, v in adj[u] if v == dst]
            if not ends:
                assert path is None
                continue
            assert len(path) == min(ends)
            check_path(adj, src, path, goal)
        targets = {(u, label, v) for u in adj for label, v in adj[u] if rng.random() < 0.2}
        goal = lambda *edge: edge in targets
        path = bfs_path(src, succ, goal)
        ends = [dist[u] + 1 for (u, _, _) in targets if u in dist]
        if not ends:
            assert path is None
        else:
            assert len(path) == min(ends)
            check_path(adj, src, path, goal)


def test_lasso_kernel_matches_naive_simulator():
    rng = random.Random("graph/lasso")
    abc = Alphabet(("a", "b", "c"))
    for i in range(400):
        kind = ACCEPTANCE_KINDS[i % len(ACCEPTANCE_KINDS)]
        a = random_acceptor(rng, 6, abc if i % 2 else Alphabet(("a", "b")), (kind,))
        for _ in range(4):
            w = random_lasso(rng, a.alphabet, 6)
            q = rng.choice([None, rng.randrange(a.structure.state_count)])
            run = lasso_run(a.structure, w, q)
            assert (run.inf_states, run.inf_transitions) == naive_infinity_sets(
                a.structure, w, q
            )
            assert accepts(a, w, q) == naive_accepts(a, w, q)


def test_loop_verdicts_match_naive_simulator_from_every_state():
    # one LoopVerdicts per cycle answers for every state, looked up in a
    # random order, so later walks stop at states that earlier ones settled;
    # the same acceptor is asked again under each new cycle
    rng = random.Random("graph/loop-verdicts")
    abc = Alphabet(("a", "b", "c"))
    for i in range(150):
        kind = ACCEPTANCE_KINDS[i % len(ACCEPTANCE_KINDS)]
        a = random_acceptor(rng, 7, abc if i % 2 else AB, (kind,))
        n = a.structure.state_count
        states = list(range(n))
        for length in range(1, 2 * n + 1):
            cycle = tuple(rng.choice(a.alphabet.symbols) for _ in range(length))
            verdicts = LoopVerdicts(a, tuple(map(a.alphabet.index, cycle)))
            rng.shuffle(states)
            for q in states:
                assert verdicts[q] == naive_accepts(a, LassoWord((), cycle), q), (i, cycle, q)


def test_loop_verdicts_union_every_pass_of_the_period():
    # on a ring of n states, where a steps on and b stays, the cycle a^m
    # from any state comes back after n / gcd(n, m) passes, and only the
    # union of all those passes visits the whole ring; each acceptance below
    # gives the whole ring a verdict that some shorter stretch of it does not
    for n in range(2, 8):
        structure = TransitionStructure(AB, n, 0, tuple(((q + 1) % n, q) for q in range(n)))
        ring = frozenset((q, "a", (q + 1) % n) for q in range(n))
        for acc in (
            Buchi(frozenset([n - 1])),
            CoBuchi(frozenset([n - 1])),
            Parity(tuple(range(1, n + 1))),
            MullerStates(frozenset([frozenset(range(n))])),
            MullerTransitions(frozenset([ring])),
        ):
            a = validate(structure, acc)
            for m in range(1, 2 * n + 1):
                for cycle in ("a" * m, "a" * (m - 1) + "b"):
                    w = LassoWord((), tuple(cycle))
                    verdicts = LoopVerdicts(a, tuple(map(AB.index, cycle)))
                    for q in range(n):
                        assert verdicts[q] == naive_accepts(a, w, q), (n, acc.kind, cycle, q)
                        run = lasso_run(structure, w, q)
                        naive = naive_infinity_sets(structure, w, q)
                        assert (run.inf_states, run.inf_transitions) == naive, (n, cycle, q)
