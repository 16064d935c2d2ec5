"""Right-congruence quotient and the informative-class decisions."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations

from .dfa import Dfa
from .errors import NotMuller, NotTrivial
from .graph import bfs_order, bfs_path
from .loops import (
    DEFAULT_CAPACITY,
    AcdTree,
    Budget,
    _chain_flags,
    _edge_graph,
    _loopable_scc,
    _spans,
    _state_graph,
    inner_transitions,
    least_spanning,
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


def partition_language_equivalent(view: ParityView) -> list[list[int]]:
    """Partition the reachable states of `view`'s acceptor by language
    equality.

    One product of the view with itself, rooted at every pair of reachable
    states, settles all pairs at once: a pair is inequivalent exactly when
    its root reaches an SCC on which the two copies disagree, the SCCs
    `find_discrepancy` would accept.  This is the view every comparison
    uses, so the partition and the witnesses of `state_equivalent` agree.
    The product numbers its nodes, root pair r as node r, so the
    predecessor lists and the marks of the nodes reaching such an SCC are
    indexed by node.  The marks grow after each SCC found, and the search
    stops once every root is marked: most random acceptors are their own
    quotient, and the first SCC already splits every pair.  Blocks list
    states in breadth-first order; each state joins the block of the first
    earlier representative it is equivalent to.
    """
    structure = view.acceptor.structure
    order = bfs_order(structure.initial, structure.delta.__getitem__)
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
    return _quotient(ParityView(acceptor))


def _quotient(view: ParityView) -> Quotient:
    """`rightcon_quotient` of the view's acceptor."""
    structure = view.acceptor.structure
    blocks = partition_language_equivalent(view)
    block_of = {q: i for i, b in enumerate(blocks) for q in b}

    def succ(b):
        # language equivalence is a right congruence: any member will do
        return [block_of[t] for t in structure.delta[blocks[b][0]]]

    discovered = bfs_order(block_of[structure.initial], succ)
    ids = {b: i for i, b in enumerate(discovered)}
    rows = tuple(tuple(ids[t] for t in succ(b)) for b in discovered)
    q_structure = TransitionStructure(structure.alphabet, len(ids), 0, rows)
    # the shortlex-least word to each class, from the same breadth-first
    # order: classes are numbered as found, symbols in alphabet order, and
    # the first discovery wins
    words = {0: ()}
    for c, row in enumerate(rows):
        for sym, d in zip(structure.alphabet.symbols, row):
            if d not in words:
                words[d] = words[c] + (sym,)
    reps = tuple(words[c] for c in range(len(rows)))
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


class Certificates(Mapping):
    """The certificates of the flags that hold, by flag; read only.

    A value given as a function is called on the first read of its flag,
    and the result kept.  Membership, length and iteration call nothing, so
    `"IT" in certificates` answers whether IT holds without building its
    certificate; the repr shows a value not yet built as `<deferred>`.  A
    build that raises raises again on the next read.
    """

    def __init__(self, entries: dict):
        self._entries = entries

    def __getitem__(self, flag):
        value = self._entries[flag]
        if callable(value):
            value = self._entries[flag] = value()
        return value

    def __contains__(self, flag):
        return flag in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    def __repr__(self):
        # a value not yet built is shown as such, and not built
        shown = (f"{k!r}: {'<deferred>' if callable(v) else repr(v)}" for k, v in self._entries.items())
        return "{" + ", ".join(shown) + "}"


@dataclass(frozen=True)
class Classification:
    """What `classify` found.

    `certificates` maps each flag that holds among IT, IM, IP, IB and IC to
    an acceptance condition on `quotient.structure` recognizing the input's
    language; `counterexamples` maps each flag that fails to its evidence.
    The IT certificate of a state-based input is built on its first read and
    may raise `CapacityExceeded` there.
    """

    index: int
    trivial: bool
    flags: dict
    certificates: Certificates
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


def _parity_classes(structure: TransitionStructure, table: MullerStates, flags, certificates, counterexamples) -> None:
    """IP, and when it holds IB and IC, of the state table `table` on
    `structure`, read from its alternating cycle decomposition.

    IP fails iff the union of some node's children holds a loop that no
    single child holds.  That loop's SCC K in the union is then a loop
    with the node's verdict and a union of loops with the other one, which
    no coloring allows; the counterexample is the (size, sorted)-least K.
    Otherwise the nodes holding a state form a branch, and each state gets
    the priority of the deepest one, a state on no loop the greatest.  IB
    holds iff every accepting node is a root, IC iff every rejecting one
    is, and each core is its roots' states outside their children.
    """
    tree = AcdTree(structure, table)
    nodes = tree.nodes
    held = [nodes[i] for i in tree.reachable]  # the nodes that hold a loop
    merged = []
    for x in held:
        kids = [nodes[c].label for c in x.children]
        if len(kids) > 1:
            merged += [(y, x.priority % 2 == 1) for y in tree.loops(frozenset().union(*kids)) if y not in kids]
    flags["IP"] = not merged
    if merged:
        counterexamples["IP"] = ("union_closure", *min(merged, key=lambda m: _size_then_sorted(m[0])))
        return
    colors = {}
    for x in held:  # breadth first, so the deepest node holding q is last
        for q in x.states:
            colors[q] = x.priority
    top = max(colors.values())
    certificates["IP"] = Parity(tuple(colors.get(q, top) for q in range(structure.state_count)))
    for flag, parity, kind, evidence in (
        ("IB", 1, Buchi, "accepting_loop_misses_core"),
        ("IC", 0, CoBuchi, "rejecting_loop_misses_core"),
    ):
        roots = [x for x in held if x.parent < 0 and x.priority % 2 == parity]
        core = frozenset().union(*(x.states.difference(*(nodes[c].states for c in x.children)) for x in roots))
        flags[flag] = all(x.parent < 0 for x in held if x.priority % 2 == parity)
        if flags[flag]:
            certificates[flag] = kind(core)
        else:
            counterexamples[flag] = (evidence, core)


def _verdict_groups(keys, loops, verdicts) -> dict:
    """The loop sets `loops` by their key in `keys`, then by their verdict
    in `verdicts`, in the order of `loops`."""
    groups: dict = {}
    for key, loop, verdict in zip(keys, loops, verdicts):
        groups.setdefault(key, {}).setdefault(verdict, []).append(loop)
    return groups


class _LoopImage:
    """A loopable state set's internal transitions, sorted, with their
    quotient images and the mask of the transitions over each image."""

    def __init__(self, structure: TransitionStructure, states: frozenset[int], proj: dict):
        self.states = states
        self.edges = sorted(inner_transitions(structure, states))
        self.images = [(proj[p], sym, proj[q]) for (p, sym, q) in self.edges]
        self.graph = _edge_graph(states, self.edges)
        self.masks: dict = {}
        for i, y in enumerate(self.images):
            self.masks[y] = self.masks.get(y, 0) | 1 << i

    def spans(self, image) -> bool:
        """Do its transitions over `image`, a subset of its images, span it?"""
        mask = 0
        for y in image:
            mask |= self.masks[y]
        return _spans(self.graph, mask)

    def least(self, budget: Budget, image=None) -> tuple:
        """(states, T) for its (size, sorted)-least spanning T, of image
        exactly `image` when given; it must span over `image`."""
        labels = None
        if image is not None:
            labels = {e: y for e, y in zip(self.edges, self.images) if y in image}
        return self.states, least_spanning(self.states, self.edges, labels, budget)


def _least_common_image(a: _LoopImage, b: _LoopImage, common: set, budget: Budget) -> list:
    """The sorted-least image within `common` over which both a and b span,
    as a sorted list; both must span over all of `common`.

    Such images form an up-set, and the sorted-least member of an up-set of
    subsets of `common` is its shortest prefix in sorted order: any other
    member is larger where it first leaves that order, or extends it.  The
    prefixes are nested, so the shortest is found by bisection."""
    image = sorted(common)
    lo, hi = 1, len(image)
    while lo < hi:
        mid = (lo + hi) // 2
        budget.spend()
        if a.spans(image[:mid]) and b.spans(image[:mid]):
            hi = mid
        else:
            lo = mid + 1
    return image[:hi]


def _least_pair(options) -> tuple:
    """The (states, T) pair of least (size, sorted) T among `options`."""
    return min(options, key=lambda pair: _size_then_sorted(pair[1]))


def _state_conflicts(structure: TransitionStructure, mixed: dict, proj: dict, budget: Budget) -> tuple:
    """The IT and IM conflicts of a state-based acceptance, each None or a
    pair ((states, T) accepted, (states, T) rejected).

    `mixed` maps the state image of each IM-conflicting group to its state
    sets by verdict.  Transitions with equal quotient images have equal
    state images, so an IT conflict is an accepting S1 and a rejecting S2
    of one group with spanning transition sets of one image.  Spanning is
    closed upward, so that holds iff the internal transitions of each S_i
    over the images both share still span it.  The IT conflict is taken at
    the sorted-least conflicting image, the IM conflict in the sorted-least
    group, and each side at its (size, sorted)-least spanning T.
    """
    loop_images = {s: _LoopImage(structure, s, proj) for g in mixed.values() for sets in g.values() for s in sets}
    least_images = []
    for g in mixed.values():
        for s1 in g[True]:
            a = loop_images[s1]
            for s2 in g[False]:
                budget.spend()
                b = loop_images[s2]
                common = a.masks.keys() & b.masks.keys()
                if a.spans(common) and b.spans(common):
                    least_images.append(_least_common_image(a, b, common, budget))
    it = None
    if least_images:
        image = frozenset(min(least_images))
        # a spanning image leaves every class of its state sets
        group = mixed[frozenset(c for (c, _, _) in image)]

        def least_over_image(verdict):
            return _least_pair(
                loop_images[s].least(budget, image)
                for s in group[verdict]
                if image <= loop_images[s].masks.keys() and loop_images[s].spans(image)
            )

        it = least_over_image(True), least_over_image(False)
    im = None
    if mixed:
        group = mixed[min(mixed, key=sorted)]
        im = tuple(_least_pair(loop_images[s].least(budget) for s in group[v]) for v in (True, False))
    return it, im


def classify(acceptor: Acceptor, capacity: int = DEFAULT_CAPACITY) -> Classification:
    """Index, triviality, and the informative-class flags with evidence.

    IM groups the loop sets by the quotient image of their states.  A
    transition-table acceptance lists every transition set and groups those
    by their quotient image for IT.  A state-based verdict reads the state
    set only, so IT is decided on the state sets of the IM-conflicting
    groups, and no transition set is listed (`_state_conflicts`); the IT
    certificate is built on its first read by listing the transition sets
    of the accepting state sets.  Every listing, the deferred one too,
    raises `CapacityExceeded` past `capacity` sets, and the conflict search
    past `capacity` steps.  IP, IB and IC are read from the alternating
    cycle decomposition of the IM certificate (`_parity_classes`), and
    weak, db and dc from that of the acceptance.
    """
    view = ParityView(acceptor)
    quotient = _quotient(view)
    proj = quotient.projection
    structure = acceptor.structure
    acc = acceptor.acceptance

    def t_key(t):
        return frozenset((proj[p], sym, proj[q]) for (p, sym, q) in t)

    def s_key(s):
        return frozenset(proj[q] for q in s)

    ssets = loopable_state_sets(structure, capacity)
    flags: dict = {}
    certificates: dict = {}
    counterexamples: dict = {}

    def conflict(flag: str, pos, neg) -> None:
        counterexamples[flag] = ("conflict", _loop_lasso(structure, *pos), _loop_lasso(structure, *neg))

    def consistent(groups, flag: str) -> bool:
        conflicts = [k for k, g in groups.items() if len(g) > 1]
        if conflicts:
            # the least conflicting key and its least transition sets, so
            # that the counterexample does not depend on the listing order
            group = groups[min(conflicts, key=sorted)]
            conflict(flag, *(_least_pair(group[v]) for v in (True, False)))
        return not conflicts

    # the loop sets a verdict is read from, each read once: (state set,
    # transition set) pairs for a transition table, state sets for every
    # other kind
    if isinstance(acc, MullerTransitions):
        loops = loopable_transition_sets(structure, capacity, ssets)
        verdicts = [acc.accepts_key(acc.loop_key(s, t)) for s, t in loops]
        im_groups = _verdict_groups([s_key(s) for s, _ in loops], loops, verdicts)
        it_groups = _verdict_groups([t_key(t) for _, t in loops], loops, verdicts)
        flags["IT"] = consistent(it_groups, "IT")
        if flags["IT"]:
            certificates["IT"] = MullerTransitions(
                frozenset(k for k, g in it_groups.items() if True in g)
            )
        flags["IM"] = consistent(im_groups, "IM")
    else:
        verdicts = [acc.accepts_key(acc.loop_key(s, frozenset())) for s in ssets]
        im_groups = _verdict_groups([s_key(s) for s in ssets], ssets, verdicts)
        mixed = {k: g for k, g in im_groups.items() if len(g) > 1}
        it, im = _state_conflicts(structure, mixed, proj, Budget("conflict search steps", capacity))
        flags["IT"] = it is None
        if it is not None:
            conflict("IT", *it)
        else:
            # the images of the accepting transition sets, listed on the
            # first read from the accepting state sets
            wanted = [s for s, v in zip(ssets, verdicts) if v]
            certificates["IT"] = lambda: MullerTransitions(
                frozenset(t_key(t) for _, t in loopable_transition_sets(structure, capacity, wanted))
            )
        flags["IM"] = im is None
        if im is not None:
            conflict("IM", *im)

    if flags["IM"]:
        certificates["IM"] = MullerStates(frozenset(k for k, g in im_groups.items() if True in g))
        _parity_classes(quotient.structure, certificates["IM"], flags, certificates, counterexamples)
    for flag in ("IP", "IB", "IC"):
        if flag not in flags:  # IM fails, or IP does
            flags[flag] = False
            counterexamples[flag] = ("requires", "IP" if flags["IM"] else "IM")

    # the tree of a Muller table is the one the quotient's view built
    flags.update(_chain_flags(view.tree or AcdTree(structure, acc)))

    n = quotient.structure.state_count
    return Classification(
        n, n == 1, flags, Certificates(certificates), counterexamples, quotient
    )


def trivial_decomposition(acceptor: Acceptor):
    """Finite-word acceptors R_i decomposing a trivial-congruence language.

    The language then equals the union over i of: all words, followed by an
    infinite concatenation of R_i blocks.  Each table entry is tested on
    its own: it contributes a block acceptor only when it lies among the
    reachable states and is strongly connected by its own transitions, as
    only then can it be a run's infinity set.
    """
    if not isinstance(acceptor.acceptance, MullerStates):
        raise NotMuller("convert to a state-table acceptor first")
    if not is_trivial(acceptor):
        raise NotTrivial("right congruence has more than one class")
    structure = acceptor.structure
    succ, pred = _state_graph(structure)
    reachable = structure.reachable_states()
    out = []
    for entry in sorted(acceptor.acceptance.table, key=sorted):
        anchor = min(entry)
        mask = sum(1 << q for q in entry)
        if entry <= reachable and _loopable_scc(succ, pred, anchor, mask) == mask:
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
