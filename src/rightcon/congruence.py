"""Right-congruence quotient and the informative-class decisions."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .dfa import Dfa
from .errors import NotMuller, NotTrivial
from .graph import bfs_order, bfs_path
from .loops import (
    DEFAULT_CAPACITY,
    _chain_flags,
    loop_table,
    loopable_state_sets,
    loopable_transition_sets,
)
from .model import (
    Acceptor,
    Buchi,
    CoBuchi,
    LassoWord,
    MullerStates,
    MullerTransitions,
    Parity,
    Transition,
    TransitionStructure,
    check_same_alphabet,
)
from .parity import ParityView, discrepant_components, find_discrepancy, pair_product


def shortest_word_to(structure: TransitionStructure, src: int, dst: int):
    """BFS word from src to dst in symbol order; None if unreachable."""
    if src == dst:
        return ()
    path = bfs_path(
        src,
        lambda u: zip(structure.alphabet.symbols, structure.delta[u]),
        lambda u, sym, v: v == dst,
    )
    return None if path is None else tuple(sym for _, sym, _ in path)


def closed_walk_covering(
    structure: TransitionStructure,
    transitions: frozenset[Transition],
    start: int,
) -> tuple[str, ...]:
    """Closed walk from start traversing every transition of the set.

    The set must be strongly connected and contain start.  The walk takes
    the shortest path to the nearest unused transition until none is left,
    then the shortest path back to start.
    """
    adj: dict[int, list[tuple[str, int]]] = {}
    for (p, sym, q) in sorted(transitions):
        adj.setdefault(p, []).append((sym, q))
    remaining = set(transitions)
    walk: list[str] = []
    cur = start
    while remaining or cur != start:
        if remaining:
            goal = lambda *t: t in remaining
        else:
            goal = lambda u, sym, v: v == start
        for t in bfs_path(cur, lambda u: adj.get(u, ()), goal):
            walk.append(t[1])
            remaining.discard(t)
            cur = t[2]
    return tuple(walk)


@dataclass(frozen=True)
class Quotient:
    structure: TransitionStructure
    projection: dict
    class_representatives: tuple[tuple[str, ...], ...]
    classes: tuple[frozenset[int], ...]


def partition_language_equivalent(acceptor: Acceptor) -> list[list[int]]:
    """Partition reachable states by language equality.

    One product of the acceptor's parity machine with itself, rooted at
    every pair of reachable states, settles all pairs at once: a pair is
    inequivalent exactly when its root reaches an SCC on which the two
    copies disagree, the SCCs `find_discrepancy` would accept.  The product
    numbers its nodes, root pair r as node r, so the predecessor lists and
    the marks of the nodes reaching such an SCC are indexed by node.  The
    marks grow after each SCC found, and the search stops once every root
    is marked: most random acceptors are their own quotient, and the first
    SCC already splits every pair.  Blocks list states in breadth-first
    order; each state joins the block of the first earlier representative
    it is equivalent to.
    """
    structure = acceptor.structure
    order = bfs_order(structure.initial, structure.delta.__getitem__)
    view = ParityView(acceptor)
    # automaton state q is view state q
    roots = list(combinations(order, 2))
    _, edges = pair_product(view, view, roots)
    size = len(edges) // view.k  # every node has one edge per symbol
    preds: list[list[int]] = [[] for _ in range(size)]
    for (u, _, v, _, _) in edges:
        preds[v].append(u)
    bad = bytearray(size)
    for nodes, _, _, _ in discrepant_components(edges, size):
        frontier = [v for v in nodes if not bad[v]]
        for v in frontier:
            bad[v] = 1
        while frontier:
            for u in preds[frontier.pop()]:
                if not bad[u]:
                    bad[u] = 1
                    frontier.append(u)
        if all(bad[: len(roots)]):
            break
    root_of = {pair: r for r, pair in enumerate(roots)}
    blocks: list[list[int]] = []
    for q in order:
        for b in blocks:
            if not bad[root_of[b[0], q]]:
                b.append(q)
                break
        else:
            blocks.append([q])
    return blocks


def state_equivalent(
    acceptor: Acceptor, p: int, q: int
) -> tuple[bool, LassoWord | None]:
    """Exact comparison of the languages of two states."""
    if p == q:
        return True, None
    view = ParityView(acceptor)
    witness = find_discrepancy(view, view, p, q)
    return witness is None, witness


def rightcon_quotient(acceptor: Acceptor) -> Quotient:
    """Quotient of the structure by language equivalence of states.

    Class ids follow the shortlex order of the representatives, the
    shortlex-least words reaching each class.
    """
    structure = acceptor.structure
    blocks = partition_language_equivalent(acceptor)
    block_of = {q: i for i, b in enumerate(blocks) for q in b}

    def succ(b):
        # language equivalence is a right congruence: any member will do
        return [block_of[t] for t in structure.delta[blocks[b][0]]]

    discovered = bfs_order(block_of[structure.initial], succ)
    ids = {b: i for i, b in enumerate(discovered)}
    rows = tuple(tuple(ids[t] for t in succ(b)) for b in discovered)
    q_structure = TransitionStructure(structure.alphabet, len(ids), 0, rows)
    reps = tuple(shortest_word_to(q_structure, 0, c) for c in range(len(ids)))
    projection = {q: ids[b] for q, b in block_of.items()}
    classes = tuple(frozenset(blocks[b]) for b in discovered)
    return Quotient(q_structure, projection, reps, classes)


def index(acceptor: Acceptor) -> int:
    return rightcon_quotient(acceptor).structure.state_count


def is_trivial(acceptor: Acceptor) -> bool:
    return index(acceptor) == 1


def refines(a: TransitionStructure, b: TransitionStructure) -> bool:
    """Does the word partition by a-states refine the one by b-states?"""
    check_same_alphabet(a, b)
    pairs = bfs_order((a.initial, b.initial), lambda p: zip(a.delta[p[0]], b.delta[p[1]]))
    image: dict[int, int] = {}
    return all(image.setdefault(pa, pb) == pb for pa, pb in pairs)


def powerset(
    alphabet,
    initial_states,
    ndelta,
) -> TransitionStructure:
    """Subset construction on a nondeterministic delta (acceptance-free).

    ndelta maps (state, symbol) to an iterable of successor states.
    """

    def succ(s):
        return [frozenset(q2 for q in s for q2 in ndelta.get((q, sym), ())) for sym in alphabet.symbols]

    order = bfs_order(frozenset(initial_states), succ)
    ids = {s: i for i, s in enumerate(order)}
    rows = tuple(tuple(ids[t] for t in succ(s)) for s in order)
    return TransitionStructure(alphabet, len(order), 0, rows)


@dataclass(frozen=True)
class Classification:
    index: int
    trivial: bool
    flags: dict
    certificates: dict
    counterexamples: dict
    quotient: Quotient


def _size_then_sorted(s) -> tuple:
    return len(s), sorted(s)


def _loop_lasso(
    structure: TransitionStructure, states: frozenset[int], trans: frozenset[Transition]
) -> LassoWord:
    anchor = min(states)
    spoke = shortest_word_to(structure, structure.initial, anchor)
    cycle = closed_walk_covering(structure, trans, anchor)
    return LassoWord(spoke, cycle)


def _uniform_core(table: dict, verdict: bool, region: frozenset[int]) -> frozenset[int]:
    """States on some loop inside region whose every loop inside region has
    the given verdict."""
    inside = [s for s in table if s <= region]
    return frozenset(
        q
        for q in frozenset().union(*inside)
        if all(table[s] == verdict for s in inside if q in s)
    )


def _parity_certificate(
    q_structure: TransitionStructure, table: dict
) -> Parity:
    """Alternation-peeling coloring for a union-closed quotient loop table."""
    colors: dict[int, int] = {}

    def maximal_within(universe: frozenset[int]):
        inside = [s for s in table if s <= universe]
        return [s for s in inside if not any(s < t for t in inside)]

    def assign(region: frozenset[int], color: int):
        verdict = table[region]
        if (color % 2 == 1) != verdict:
            raise AssertionError("peeling parity drifted from loop verdict")
        core = _uniform_core(table, verdict, region)
        if not core:
            raise AssertionError("peeling found no uniform-polarity states")
        for q in core:
            colors[q] = color
        rest = region - core
        for sub in maximal_within(frozenset(rest)):
            assign(sub, color + 1)

    for top in maximal_within(frozenset(q for s in table for q in s)):
        assign(top, 1 if table[top] else 0)
    fallback = max(colors.values(), default=0)
    return Parity(
        tuple(colors.get(q, fallback) for q in range(q_structure.state_count))
    )


def classify(acceptor: Acceptor, capacity: int = DEFAULT_CAPACITY) -> Classification:
    """Index, triviality, and the informative-class flags with evidence."""
    quotient = rightcon_quotient(acceptor)
    proj = quotient.projection
    structure = acceptor.structure
    acc = acceptor.acceptance

    def t_key(s, t):
        return frozenset((proj[p], sym, proj[q]) for (p, sym, q) in t)

    def s_key(s, t):
        return frozenset(proj[q] for q in s)

    ssets = loopable_state_sets(structure, capacity)
    if isinstance(acc, MullerTransitions):
        expand = [s for s, _ in ssets]
    else:
        # A state-based verdict reads the state set alone, and transition
        # sets with equal quotient images have equal state images.  So an IT
        # conflict lies inside an IM-conflicting group, the IT certificate
        # lists only accepting sets, and a group of rejecting state sets
        # cannot change IT: only groups holding an accepting set are expanded.
        wanted = {s_key(s, t) for s, t in ssets if acc.accepts_loop(s, t)}
        expand = [s for s, t in ssets if s_key(s, t) in wanted]
    tsets = loopable_transition_sets(structure, capacity, expand)
    # the loop sets a verdict is read from: transition sets for a
    # transition table, state sets for every other kind
    loops = tsets if isinstance(acc, MullerTransitions) else ssets
    flags: dict = {}
    certificates: dict = {}
    counterexamples: dict = {}

    def fingerprint_consistent(key_fn, flag: str, sets):
        groups: dict = {}
        for s, t in sets:
            groups.setdefault(key_fn(s, t), set()).add(acc.accepts_loop(s, t))
        conflicts = [k for k, verdicts in groups.items() if len(verdicts) > 1]
        if not conflicts:
            return True, groups
        # the least conflicting key and its least transition sets, so that
        # the counterexample does not depend on the enumeration order; every
        # transition set of a conflicting group is in tsets
        key = min(conflicts, key=sorted)
        least: dict = {}
        for s, t in tsets:
            if key_fn(s, t) == key:
                v = acc.accepts_loop(s, t)
                if v not in least or _size_then_sorted(t) < _size_then_sorted(least[v][1]):
                    least[v] = (s, t)
        pos = _loop_lasso(structure, *least[True])
        neg = _loop_lasso(structure, *least[False])
        counterexamples[flag] = ("conflict", pos, neg)
        return False, groups

    it_ok, it_groups = fingerprint_consistent(t_key, "IT", tsets)
    flags["IT"] = it_ok
    if it_ok:
        certificates["IT"] = MullerTransitions(
            frozenset(k for k, v in it_groups.items() if True in v)
        )

    im_ok, im_groups = fingerprint_consistent(s_key, "IM", loops)
    flags["IM"] = im_ok
    table: dict = {}
    if im_ok:
        table = {k: (True in v) for k, v in im_groups.items()}
        certificates["IM"] = MullerStates(
            frozenset(k for k, v in table.items() if v)
        )

    if not im_ok:
        flags["IP"] = flags["IB"] = flags["IC"] = False
        counterexamples.setdefault("IP", ("requires", "IM"))
        counterexamples.setdefault("IB", ("requires", "IM"))
        counterexamples.setdefault("IC", ("requires", "IM"))
    else:
        # union-closure of each polarity family over the quotient loop table;
        # the least covered set is the counterexample, whatever the hash order
        ip_ok = True
        for s, v in sorted(table.items(), key=lambda e: _size_then_sorted(e[0])):
            covered = all(
                any(q in s2 and s2 <= s and table[s2] != v for s2 in table)
                for q in s
            )
            if covered:
                ip_ok = False
                counterexamples["IP"] = ("union_closure", s, v)
                break
        flags["IP"] = ip_ok
        if ip_ok:
            certificates["IP"] = _parity_certificate(quotient.structure, table)
            everything = frozenset(range(quotient.structure.state_count))
            f_star = _uniform_core(table, True, everything)
            ib_ok = all(s & f_star for s, v in table.items() if v)
            flags["IB"] = ib_ok
            if ib_ok:
                certificates["IB"] = Buchi(f_star)
            else:
                counterexamples["IB"] = ("accepting_loop_misses_core", f_star)
            f_circ = _uniform_core(table, False, everything)
            ic_ok = all(s & f_circ for s, v in table.items() if not v)
            flags["IC"] = ic_ok
            if ic_ok:
                certificates["IC"] = CoBuchi(f_circ)
            else:
                counterexamples["IC"] = ("rejecting_loop_misses_core", f_circ)
        else:
            flags["IB"] = flags["IC"] = False
            counterexamples.setdefault("IB", ("requires", "IP"))
            counterexamples.setdefault("IC", ("requires", "IP"))

    flags.update(_chain_flags(loop_table(acc, loops)))

    n = quotient.structure.state_count
    return Classification(n, n == 1, flags, certificates, counterexamples, quotient)


def trivial_decomposition(acceptor: Acceptor, capacity: int = DEFAULT_CAPACITY):
    """Finite-word acceptors R_i decomposing a trivial-congruence language.

    The language then equals the union over i of: all words, followed by an
    infinite concatenation of R_i blocks.
    """
    if not isinstance(acceptor.acceptance, MullerStates):
        raise NotMuller("convert to a state-table acceptor first")
    if not is_trivial(acceptor):
        raise NotTrivial("right congruence has more than one class")
    structure = acceptor.structure
    loopable = {s for s, _ in loopable_state_sets(structure, capacity)}
    out = []
    for entry in sorted(acceptor.acceptance.table, key=sorted):
        if entry not in loopable:
            continue  # unrealizable table entries contribute nothing
        anchor = min(entry)
        out.append(_cycle_dfa(structure, entry, anchor))
    return out


def _cycle_dfa(structure: TransitionStructure, states: frozenset[int], anchor: int) -> Dfa:
    """Nonempty words looping anchor -> anchor visiting exactly `states`."""
    alphabet = structure.alphabet
    start = ("start",)

    def edges(node):
        q, visited = (anchor, frozenset([anchor])) if node == start else node
        for sym, t in zip(alphabet.symbols, structure.delta[q]):
            if t in states:
                yield sym, (t, visited | {t})

    nodes = bfs_order(start, lambda node: [v for _, v in edges(node)])
    trans = {(node, sym): v for node in nodes for sym, v in edges(node)}
    goal = (anchor, states)
    return Dfa(alphabet, start, trans, frozenset([goal] if goal in nodes else []))
