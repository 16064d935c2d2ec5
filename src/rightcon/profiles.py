"""Transition-profile monoid; respectiveness and non-counting decisions."""

from __future__ import annotations

from dataclasses import dataclass

from .congruence import rightcon_quotient, shortest_word_to
from .errors import CapacityExceeded
from .graph import bfs_order
from .model import Acceptor, LassoWord
from .parity import ParityView, find_discrepancy
from .semantics import LoopVerdicts, _walk, accepts

MONOID_CAPACITY = 200000


@dataclass(frozen=True)
class Profile:
    """Behavior summary of a nonempty finite word: per source state, the
    target and the loop key of the states and transitions entered."""

    targets: tuple[int, ...]
    keys: tuple
    representative: tuple[str, ...]


class ProfileMonoid:
    """Profiles of all nonempty words, built letter by letter.

    A profile keeps, per source state, only the target and the loop key of
    the visited sets: the ω-verdicts of a word's products read nothing else.
    The breadth-first closure starts from the letters, keyed on single
    transitions, and extends each element by each letter g: a source with
    target t and key k gets target g.targets[t] and key
    `Acceptance.join(k, g.keys[t])`.  Equal profiles are merged; the
    shortlex-least word of each is its representative.

    `right[i][a]` is elements[i] followed by letter a, whose element is
    `letters[a]`.  Profiles form a congruence, so walking `right` from i
    along the representative of j multiplies elements[i] by elements[j].
    """

    def __init__(self, acceptor: Acceptor, capacity: int = MONOID_CAPACITY):
        self.acceptor = acceptor
        acceptance = acceptor.acceptance
        delta = acceptor.structure.delta
        letters = [
            Profile(
                tuple(row[a] for row in delta),
                tuple(
                    acceptance.loop_key(frozenset([row[a]]), frozenset([(q, sym, row[a])]))
                    for q, row in enumerate(delta)
                ),
                (sym,),
            )
            for a, sym in enumerate(acceptor.alphabet.symbols)
        ]
        join = acceptance.join
        self.elements: list[Profile] = []
        self.by_key: dict = {}
        self.right: list[list[int]] = []

        def index_of(p: Profile) -> int:
            k = p.targets, p.keys
            if k not in self.by_key:
                if len(self.elements) >= capacity:
                    raise CapacityExceeded("profile monoid", capacity)
                self.by_key[k] = len(self.elements)
                self.elements.append(p)
            return self.by_key[k]

        self.letters = [index_of(g) for g in letters]
        # breadth-first: elements are expanded in the order they are found
        for e in self.elements:
            self.right.append([
                index_of(Profile(
                    tuple(g.targets[t] for t in e.targets),
                    tuple(join(k, g.keys[t]) for k, t in zip(e.keys, e.targets)),
                    e.representative + g.representative,
                ))
                for g in letters
            ])


def profile_monoid(acceptor: Acceptor, capacity: int = MONOID_CAPACITY) -> ProfileMonoid:
    return ProfileMonoid(acceptor, capacity)


def omega_accept(acceptor: Acceptor, s: Profile, t: Profile, from_state: int) -> bool:
    """Acceptance of rep(s) . rep(t)^omega started at from_state, read off
    the lasso simulator."""
    return accepts(acceptor, LassoWord(s.representative, t.representative), from_state)


def _cycle(monoid: ProfileMonoid, e: Profile) -> tuple[int, ...]:
    """The representative of e as symbol indices."""
    return tuple(map(monoid.acceptor.alphabet.index, e.representative))


def _stabilizes(delta, start: int, cycle) -> bool:
    """Does the run from start on cycle^omega reach a state that one reading
    of cycle maps to itself, so that its walk repeats after one reading?"""
    path, entry = _walk(delta, start, cycle, ())
    return len(path) == (entry + 1) * len(cycle) + 1


def is_respective(acceptor: Acceptor):
    """Whenever some x.u^omega is accepted, must the congruence orbit of
    x under u stabilize?  Returns (verdict, witness words or None).

    Each element's cycle verdicts from the reachable states come from one
    LoopVerdicts over its representative u, and the orbit of [x] is the
    quotient's run on u^omega."""
    quotient = rightcon_quotient(acceptor)
    proj = quotient.projection
    qdelta = quotient.structure.delta
    monoid = profile_monoid(acceptor)
    structure = acceptor.structure
    reachable = sorted(proj)
    for e in monoid.elements:
        u = _cycle(monoid, e)
        verdicts = LoopVerdicts(acceptor, u)
        for q in reachable:
            if verdicts[q] and not _stabilizes(qdelta, proj[q], u):
                x = shortest_word_to(structure, structure.initial, q)
                return False, (x, e.representative)
    return True, None


def respective_pair_check(acceptor: Acceptor, x, u) -> bool:
    """Single-instance check: if x.u^omega is accepted, does the orbit of
    [x] under u reach a fixed point?"""
    x, u = tuple(x), tuple(u)
    if not accepts(acceptor, LassoWord(x, u)):
        return True
    quotient = rightcon_quotient(acceptor)
    structure = acceptor.structure
    start = quotient.projection[structure.run(structure.initial, x)]
    return _stabilizes(quotient.structure.delta, start, tuple(map(structure.alphabet.index, u)))


def _times(monoid: ProfileMonoid, i: int, word) -> int:
    """Index of elements[i] times the profile of word, read off `right`."""
    symbol_index = monoid.acceptor.alphabet.index
    for sym in word:
        i = monoid.right[i][symbol_index(sym)]
    return i


def _syntactic_classes(monoid: ProfileMonoid, proj: dict):
    """Two-context congruence classes over the monoid elements.

    Start from a coloring by (linear-context signature, cycle acceptance
    from every reachable state), where the linear context is read through
    the quotient projection `proj`, and refine to a two-sided congruence
    under the letters.
    """
    acceptor = monoid.acceptor
    reachable = sorted(proj)
    els = monoid.elements
    n_el = len(els)

    # letter multiplication tables over elements
    right = monoid.right
    left = [[_times(monoid, g, e.representative) for g in monoid.letters] for e in els]

    def base_color(i):
        e = els[i]
        lin = tuple(proj[e.targets[p]] for p in reachable)
        # acceptance of p . e^omega for every reachable p
        verdicts = LoopVerdicts(acceptor, _cycle(monoid, e))
        cyc = tuple(verdicts[p] for p in reachable)
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
    monoid, whose state classes are those of the right-congruence quotient.
    Returns (verdict, witness or None).  On "counting" the witness
    is a concrete (u, v, w-lasso, n) where u.v^n.w and u.v^{n+1}.w differ
    in membership, built for the shortest v whose powers cycle in
    the quotient.  It pumps a finite prefix only, so it is None when v
    counts only inside the periodic part, as in u.(v^n.w)^omega.
    """
    proj = rightcon_quotient(acceptor).projection
    monoid = profile_monoid(acceptor)
    cls = _syntactic_classes(monoid, proj)
    els = monoid.elements

    def cls_power_periodic(i):
        # the powers of element i are the right table's run on its
        # representative; it counts when their cycle spans several classes
        u = _cycle(monoid, els[i])
        path, entry = _walk(monoid.right, i, u, ())
        return len({cls[j] for j in path[entry * len(u)::len(u)]}) > 1

    by_word = sorted(range(len(els)), key=lambda i: (len(els[i].representative), els[i].representative))
    v_idx = next((i for i in by_word if cls_power_periodic(i)), None)
    if v_idx is None:
        return True, None
    return False, _counting_witness(acceptor, els[v_idx].representative, proj)


def _counting_witness(acceptor: Acceptor, v, proj: dict):
    """(u, v, w, n) with u.v^n.w and u.v^{n+1}.w of different membership,
    or None if no such witness exists for this v.

    The witness comes from the first reachable state q, in breadth-first
    order, whose q.v and q.v.v lie in different classes of the quotient
    projection `proj`, and its n is 1.  A larger n cannot help: the classes
    form a right congruence, so once q.v^n and q.v^{n+1} share a class, all
    later powers do too.  Only that pair is searched for the distinguishing
    lasso w.
    """
    structure = acceptor.structure
    for q in bfs_order(structure.initial, structure.delta.__getitem__):
        p = structure.run(q, v)
        p_next = structure.run(p, v)
        if proj[p] != proj[p_next]:
            view = ParityView(acceptor)
            u = shortest_word_to(structure, structure.initial, q)
            return u, v, find_discrepancy(view, view, p, p_next), 1
    return None
