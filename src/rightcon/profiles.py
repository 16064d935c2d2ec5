"""Transition-profile monoid; respectiveness and non-counting decisions."""

from __future__ import annotations

from dataclasses import dataclass

from .congruence import rightcon_quotient, shortest_word_to
from .errors import CapacityExceeded
from .graph import bfs_order
from .model import Acceptor, LassoWord, Transition
from .parity import ParityView, find_discrepancy
from .semantics import accepts

MONOID_CAPACITY = 200000


@dataclass(frozen=True)
class Profile:
    """Behavior summary of a finite word: per source state, the target and
    the states/transitions entered along the way."""

    targets: tuple[int, ...]
    visited_states: tuple[frozenset[int], ...]
    visited_transitions: tuple[frozenset[Transition], ...]
    representative: tuple[str, ...]

    def target(self, p: int) -> int:
        return self.targets[p]


def identity_profile(state_count: int) -> Profile:
    return Profile(
        tuple(range(state_count)),
        tuple(frozenset() for _ in range(state_count)),
        tuple(frozenset() for _ in range(state_count)),
        (),
    )


def letter_profile(structure, symbol: str) -> Profile:
    i = structure.alphabet.index(symbol)
    targets = tuple(structure.delta[q][i] for q in range(structure.state_count))
    return Profile(
        targets,
        tuple(frozenset([t]) for t in targets),
        tuple(
            frozenset([(q, symbol, targets[q])])
            for q in range(structure.state_count)
        ),
        (symbol,),
    )


def compose(e: Profile, f: Profile) -> Profile:
    n = len(e.targets)
    return Profile(
        tuple(f.targets[e.targets[p]] for p in range(n)),
        tuple(
            e.visited_states[p] | f.visited_states[e.targets[p]] for p in range(n)
        ),
        tuple(
            e.visited_transitions[p] | f.visited_transitions[e.targets[p]]
            for p in range(n)
        ),
        e.representative + f.representative,
    )


def profile_of_word(structure, word) -> Profile:
    out = identity_profile(structure.state_count)
    for sym in word:
        out = compose(out, letter_profile(structure, sym))
    return out


class ProfileMonoid:
    """Profiles of all nonempty words, closed under composition.

    Elements are keyed on each source's target and the acceptance's
    `loop_key` of that source's visited states and transitions: the part
    of the visited sets that acceptance can observe (a hit bit for Büchi
    and co-Büchi, the minimum colour for parity, the set itself or TOP for
    Muller).  The key is a congruence for `compose`, and `omega_accept`
    depends on nothing else, so words with equal keys are merged; the
    breadth-first search keeps the shortlex-least word of each as its
    representative.
    """

    def __init__(self, acceptor: Acceptor, capacity: int = MONOID_CAPACITY):
        self.acceptor = acceptor
        structure = acceptor.structure
        self.identity = identity_profile(structure.state_count)
        self.generators = [
            letter_profile(structure, sym) for sym in structure.alphabet.symbols
        ]
        self.elements: list[Profile] = []
        self.by_key: dict = {}
        # right[i][j]: index of elements[i] composed with generators[j]
        self.right: list[list[int]] = []

        def index_of(p: Profile) -> int:
            k = self.key(p)
            if k not in self.by_key:
                if len(self.elements) >= capacity:
                    raise CapacityExceeded("profile monoid", capacity)
                self.by_key[k] = len(self.elements)
                self.elements.append(p)
            return self.by_key[k]

        for g in self.generators:
            index_of(g)
        # breadth-first: elements are expanded in the order they are found
        for e in self.elements:
            self.right.append([index_of(compose(e, g)) for g in self.generators])

    def key(self, p: Profile):
        loop_key = self.acceptor.acceptance.loop_key
        return p.targets, tuple(map(loop_key, p.visited_states, p.visited_transitions))

    def element_index(self, p: Profile) -> int:
        return self.by_key[self.key(p)]

    def canonical(self, p: Profile) -> Profile:
        return self.elements[self.element_index(p)]


def profile_monoid(acceptor: Acceptor, capacity: int = MONOID_CAPACITY) -> ProfileMonoid:
    return ProfileMonoid(acceptor, capacity)


def omega_accept(acceptor: Acceptor, s: Profile, t: Profile, from_state: int) -> bool:
    """Acceptance of rep(s) . rep(t)^omega started at from_state."""
    q0 = s.targets[from_state]
    seen = {q0: 0}
    seq = [q0]
    cur = q0
    while True:
        cur = t.targets[cur]
        if cur in seen:
            entry = seen[cur]
            break
        seen[cur] = len(seq)
        seq.append(cur)
    states: set[int] = set()
    trans: set[Transition] = set()
    for p in seq[entry:]:
        states |= t.visited_states[p]
        trans |= t.visited_transitions[p]
    return acceptor.acceptance.accepts_loop(frozenset(states), frozenset(trans))


def _orbit_stabilizes(start: int, step_map, bound: int) -> bool:
    """Does iterating step_map from start reach a fixed point?"""
    seen = {start: 0}
    cur = start
    for _ in range(bound + 1):
        nxt = step_map(cur)
        if nxt == cur:
            return True
        if nxt in seen:
            return False
        seen[nxt] = len(seen)
        cur = nxt
    return False


def is_respective(acceptor: Acceptor):
    """Whenever some x.u^omega is accepted, must the congruence orbit of
    x under u stabilize?  Returns (verdict, witness words or None)."""
    quotient = rightcon_quotient(acceptor)
    proj = quotient.projection
    monoid = profile_monoid(acceptor)
    structure = acceptor.structure
    reachable = sorted(proj)
    member = {}
    for q in reachable:
        c = proj[q]
        if c not in member or q < member[c]:
            member[c] = q
    for e in monoid.elements:
        qmap = {c: proj[e.targets[member[c]]] for c in member}
        for q in reachable:
            if omega_accept(acceptor, monoid.identity, e, q):
                if not _orbit_stabilizes(proj[q], qmap.__getitem__, len(member)):
                    x = shortest_word_to(structure, structure.initial, q)
                    return False, (x, e.representative)
    return True, None


def respective_pair_check(acceptor: Acceptor, x, u) -> bool:
    """Single-instance check: if x.u^omega is accepted, does the orbit of
    [x] under u reach a fixed point?"""
    x = tuple(x)
    u = tuple(u)
    if not accepts(acceptor, LassoWord(x, u)):
        return True
    quotient = rightcon_quotient(acceptor)
    start = quotient.projection[acceptor.structure.run(acceptor.structure.initial, x)]
    qs = quotient.structure

    def step(c):
        return qs.run(c, u)

    return _orbit_stabilizes(start, step, qs.state_count)


def _syntactic_classes(acceptor: Acceptor, monoid: ProfileMonoid):
    """Two-context congruence classes over the monoid elements.

    Start from a coloring by (linear-context signature, cycle acceptance
    from every reachable state) and refine to a two-sided congruence under
    the letter generators.
    """
    structure = acceptor.structure
    reachable = sorted(structure.reachable_states())
    els = monoid.elements
    n_el = len(els)

    # acceptance of p . e^omega for every reachable p and element e
    acc1 = [
        tuple(omega_accept(acceptor, monoid.identity, e, p) for e in els)
        for p in reachable
    ]
    pos = {p: i for i, p in enumerate(reachable)}

    # state classes: p and p' agree on cycle acceptance after any word
    state_cls = {}
    by_row: dict = {}
    for p in reachable:
        by_row.setdefault(acc1[pos[p]], []).append(p)
    for i, row in enumerate(sorted(by_row.values(), key=min)):
        for p in row:
            state_cls[p] = i
    while True:
        sig = {
            p: (state_cls[p],)
            + tuple(state_cls[g.targets[p]] for g in monoid.generators)
            for p in reachable
        }
        groups: dict = {}
        for p in reachable:
            groups.setdefault(sig[p], []).append(p)
        if len(groups) == len(set(state_cls.values())):
            break
        for i, grp in enumerate(sorted(groups.values(), key=min)):
            for p in grp:
                state_cls[p] = i

    # generator multiplication tables over elements
    right = monoid.right
    left = [
        [monoid.element_index(compose(g, e)) for g in monoid.generators] for e in els
    ]

    def base_color(i):
        e = els[i]
        lin = tuple(state_cls[e.targets[p]] for p in reachable)
        cyc = tuple(acc1[pos[p]][i] for p in reachable)
        return (lin, cyc)

    colors: dict = {}
    cls = [0] * n_el
    for i in range(n_el):
        c = base_color(i)
        colors.setdefault(c, len(colors))
        cls[i] = colors[c]
    while True:
        sigs: dict = {}
        new = [0] * n_el
        for i in range(n_el):
            s = (
                cls[i],
                tuple(cls[j] for j in right[i]),
                tuple(cls[j] for j in left[i]),
            )
            if s not in sigs:
                sigs[s] = len(sigs)
            new[i] = sigs[s]
        if len(sigs) == len(set(cls)):
            return new
        cls = new


def is_non_counting(acceptor: Acceptor):
    """Insensitivity to pumping v^n vs v^{n+1} in every context.

    Decided as aperiodicity of the two-context quotient of the profile
    monoid.  Returns (verdict, witness or None).  On "counting" the witness
    is a concrete (u, v, w-lasso, n) where u.v^n.w and u.v^{n+1}.w differ
    in membership, built for the shortest v whose powers cycle in
    the quotient.  It pumps a finite prefix only, so it is None when v
    counts only inside the periodic part, as in u.(v^n.w)^omega.
    """
    monoid = profile_monoid(acceptor)
    cls = _syntactic_classes(acceptor, monoid)
    els = monoid.elements
    n_cls = len(set(cls))

    def el_mult(i, j):
        return monoid.element_index(compose(els[i], els[j]))

    def cls_power_periodic(i):
        # follow element powers, compare class projections
        powers = [i]
        cur = i
        for _ in range(n_cls + 1):
            cur = el_mult(cur, i)
            if cls[cur] == cls[powers[-1]]:
                return False
            powers.append(cur)
            if any(cls[old] == cls[cur] for old in powers[:-1]):
                return True
        return False

    by_word = sorted(range(len(els)), key=lambda i: (len(els[i].representative), els[i].representative))
    v_idx = next((i for i in by_word if cls_power_periodic(i)), None)
    if v_idx is None:
        return True, None
    return False, _counting_witness(acceptor, els[v_idx].representative)


def _counting_witness(acceptor: Acceptor, v):
    """(u, v, w, n) with u.v^n.w and u.v^{n+1}.w of different membership,
    or None if no such witness exists for this v.

    For each reachable state q in breadth-first order and n = 1..|Q|+1,
    the states q.v^n and q.v^{n+1} are compared exactly; the sequence q.v^n
    is periodic within |Q| + 1 steps, so no larger n can give a new pair.
    """
    structure = acceptor.structure
    view = ParityView(acceptor)
    checked = set()
    for q in bfs_order(structure.initial, structure.delta.__getitem__):
        p = structure.run(q, v)
        for n in range(1, structure.state_count + 2):
            p_next = structure.run(p, v)
            pair = (min(p, p_next), max(p, p_next))
            if p != p_next and pair not in checked:
                checked.add(pair)
                w = find_discrepancy(view, view, p, p_next)
                if w is not None:
                    u = shortest_word_to(structure, structure.initial, q)
                    return u, v, w, n
            p = p_next
    return None
