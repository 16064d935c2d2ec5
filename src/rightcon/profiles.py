"""Transition-profile monoid; respectiveness and non-counting decisions."""

from __future__ import annotations

from itertools import groupby

from .congruence import Quotient, rightcon_quotient, shortest_word_to
from .errors import CapacityExceeded
from .graph import bfs_order
from .model import Acceptor, LassoWord, Profile
from .parity import ParityView, find_discrepancy
from .semantics import LoopVerdicts, _walk, accepts

MONOID_CAPACITY = 200000


class ProfileMonoid:
    """Profiles of all nonempty words, built letter by letter.

    A profile keeps, per source state, only the target and the loop key of
    the visited sets: the ω-verdicts and quotient orbits of a word's
    products read nothing else, and are read from these two tables
    (`LoopVerdicts`, `_on_cycles`), not from the word.  The elements are
    those of the breadth-first closure `_closure` on numbered (target, key)
    cells, drained whole, in the order it finds them; the shortlex-least
    word of each is its representative.  `by_key` maps each element's
    (targets, keys) to its index.

    `right[i][a]` is elements[i] followed by letter a, whose element is
    `letters[a]`.  Profiles form a congruence, so walking `right` from i
    along the representative of j multiplies elements[i] by elements[j].
    """

    def __init__(self, acceptor: Acceptor, capacity: int = MONOID_CAPACITY):
        self.acceptor = acceptor
        self.letters: list[int] = []
        self.right: list[list[int]] = []
        self.elements = list(_closure(acceptor, capacity, self.letters, self.right))
        self.by_key = {(e.targets, e.keys): i for i, e in enumerate(self.elements)}


def profile_monoid(acceptor: Acceptor, capacity: int = MONOID_CAPACITY) -> ProfileMonoid:
    return ProfileMonoid(acceptor, capacity)


class _Cells(dict):
    """Numbers each (target, key) pair on first lookup; cell c is the pair
    (target[c], key[c])."""

    def __init__(self):
        self.target, self.key = [], []

    def __missing__(self, pair) -> int:
        self[pair] = c = len(self.target)
        self.target.append(pair[0])
        self.key.append(pair[1])
        return c


class _Step(dict):
    """One letter's map from cell to cell, (t, k) to (targets[t], join(k,
    keys[t])), computed on first use."""

    def __init__(self, cells: _Cells, targets, keys, join):
        self.cells, self.targets, self.keys, self.join = cells, targets, keys, join

    def __missing__(self, c: int) -> int:
        cells = self.cells
        t = cells.target[c]
        self[c] = d = cells[self.targets[t], self.join(cells.key[c], self.keys[t])]
        return d


def _closure(acceptor: Acceptor, capacity: int, letters: list, right: list):
    """Yield each element of the profile monoid when it is first found.

    Each (target, key) pair met is numbered once as a cell, and an element
    is coded as the tuple of its cells, one per source state.  The letters
    come first, keyed on single transitions.  Then each element, in the
    order found, is extended by each letter a through a's step table,
    which sends cell (t, k) to (delta(t, a), `Acceptance.join(k,
    keys_a[t])`); a product is looked up by its code before a Profile is
    built for it from its cells.  Fills `letters` with each letter's
    element index and `right` with each extended element's row, so a
    consumer that stops early leaves them partial.
    """
    acceptance = acceptor.acceptance
    delta = acceptor.structure.delta
    cells = _Cells()
    codes: list[tuple] = []
    representatives: list[tuple] = []
    index: dict = {}

    def add(code, representative) -> Profile:
        if len(codes) >= capacity:
            raise CapacityExceeded("profile monoid", capacity)
        index[code] = len(codes)
        codes.append(code)
        representatives.append(representative)
        return Profile(tuple(map(cells.target.__getitem__, code)), tuple(map(cells.key.__getitem__, code)), representative)

    steps = []
    for a, sym in enumerate(acceptor.alphabet.symbols):
        targets = tuple(row[a] for row in delta)
        keys = tuple(
            acceptance.loop_key(frozenset([t]), frozenset([(q, sym, t)]))
            for q, t in enumerate(targets)
        )
        steps.append((sym, _Step(cells, targets, keys, acceptance.join).__getitem__))
        code = tuple(map(cells.__getitem__, zip(targets, keys)))
        if code not in index:
            yield add(code, (sym,))
        letters.append(index[code])
    # breadth-first: elements are extended in the order they are found
    for code, representative in zip(codes, representatives):
        row = []
        for sym, step in steps:
            product = tuple(map(step, code))
            i = index.get(product)
            if i is None:
                yield add(product, representative + (sym,))
                i = len(codes) - 1
            row.append(i)
        right.append(row)


def omega_accept(acceptor: Acceptor, s: Profile, t: Profile, from_state: int) -> bool:
    """Acceptance of rep(s) . rep(t)^omega started at from_state: the
    verdict of rep(t)^omega from s.targets[from_state], read from the
    tables of t."""
    return LoopVerdicts(acceptor, t)[s.targets[from_state]]


def _on_cycles(f) -> list[int]:
    """f composed with itself until 2^j >= len(f): an orbit of f enters its
    cycle within len(f) - 1 steps, so every image lies on a cycle.  x's
    orbit settles iff its image is a fixed point of f, and f's cycles are
    those through the images."""
    g = f
    for _ in range((len(f) - 1).bit_length()):
        g = list(map(g.__getitem__, g))
    return g


def is_respective(acceptor: Acceptor):
    """Whenever some x.u^omega is accepted, must the congruence orbit of
    x under u stabilize?  Returns (verdict, witness words or None).

    Each element e of the monoid is tested as the closure finds it, and the
    first failure ends the closure.  The verdicts of rep(e)^omega come from
    e's tables, and the orbit of [x] under rep(e) is that of the class map
    c -> [e.targets[q]] for any q in c, whose unsettled classes are found
    once per distinct e.targets; the verdicts are read only when some class
    does not settle."""
    return _is_respective(acceptor, rightcon_quotient(acceptor))


def _is_respective(acceptor: Acceptor, quotient: Quotient):
    """`is_respective` on the right-congruence quotient of acceptor."""
    proj = quotient.projection
    members = [min(c) for c in quotient.classes]
    structure = acceptor.structure
    reachable = sorted(proj)
    unsettled_by_targets: dict = {}
    for e in _closure(acceptor, MONOID_CAPACITY, [], []):
        unsettled = unsettled_by_targets.get(e.targets)
        if unsettled is None:
            step = [proj[e.targets[q]] for q in members]
            unsettled_by_targets[e.targets] = unsettled = {
                c for c, d in enumerate(_on_cycles(step)) if step[d] != d
            }
        if not unsettled:
            continue
        verdicts = LoopVerdicts(acceptor, e)
        for q in reachable:
            if proj[q] in unsettled and verdicts[q]:
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
    qs = quotient.structure
    start = quotient.projection[structure.run(structure.initial, x)]
    step = [qs.run(c, u) for c in range(qs.state_count)]
    end = _on_cycles(step)[start]
    return step[end] == end


def _times(right, i: int, word) -> int:
    """Index of element i times the profile of word (symbol indices)."""
    for a in word:
        i = right[i][a]
    return i


def _syntactic_classes(acceptor: Acceptor, proj: dict, elements, letters, right):
    """Two-context congruence classes over the monoid elements.

    Start from a coloring by (linear-context signature, cycle acceptance
    from every reachable state), where the linear context is read through
    the quotient projection `proj`, and refine to a two-sided congruence
    under the letters, given as a `ProfileMonoid`'s tables.
    """
    symbol_index = acceptor.alphabet.index
    reachable = sorted(proj)
    n_el = len(elements)

    # letter multiplication tables over elements
    left = [[_times(right, g, map(symbol_index, e.representative)) for g in letters] for e in elements]

    def base_color(i):
        e = elements[i]
        lin = tuple(proj[e.targets[p]] for p in reachable)
        # acceptance of p . e^omega for every reachable p
        verdicts = LoopVerdicts(acceptor, e)
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


def _aperiodic(e: Profile) -> bool:
    """Do e's powers reach a fixed point, e^m = e^{m+1}?  A join only grows
    a key, so they do exactly when every cycle of e.targets is a fixed point."""
    return all(e.targets[c] == c for c in _on_cycles(e.targets))


def _counts(e: Profile, proj: dict) -> bool:
    """Do two of e's powers on their cycle differ in base colour?  All have
    the omega-verdicts of rep(e)^omega, and they send a reachable state round
    the whole cycle of e.targets it enters: so, does such a cycle meet two
    classes of `proj`?  It does iff two adjacent states on it do."""
    g = _on_cycles(e.targets)
    return any(proj[g[q]] != proj[e.targets[g[q]]] for q in proj)


def is_non_counting(acceptor: Acceptor):
    """Insensitivity to pumping v^n vs v^{n+1} in every context.

    Decided as aperiodicity of the two-context quotient of the profile
    monoid, whose state classes are those of the right-congruence quotient:
    v is the representative of the shortlex-first element whose powers
    cycle through several classes.  Returns (verdict, witness or None).  On
    "counting" the witness is a concrete (u, v, w-lasso, n) where u.v^n.w
    and u.v^{n+1}.w differ in membership.  It pumps a finite prefix only,
    so it is None when v counts only inside the periodic part, as in
    u.(v^n.w)^omega.

    The closure is streamed and each element settled from its own tables:
    an `_aperiodic` element's powers lie in one class, and those of an
    element that `_counts` do not, as refinement only splits base colours.
    Within one representative length the closure follows alphabet-index
    order, not shortlex order, so each length is finished and sorted
    first.  The first element that is not aperiodic answers "counting" if
    it counts; if every element is aperiodic the answer is non-counting.
    Otherwise the closure is drained and the classes of the whole monoid
    decide (`_counting_by_classes`): aperiodicity is PSPACE-complete, so no
    such rules settle every input.
    """
    return _is_non_counting(acceptor, rightcon_quotient(acceptor))


def _is_non_counting(acceptor: Acceptor, quotient: Quotient):
    """`is_non_counting` on the right-congruence quotient of acceptor."""
    proj = quotient.projection
    elements: list[Profile] = []
    letters: list[int] = []
    right: list[list[int]] = []
    stream = _closure(acceptor, MONOID_CAPACITY, letters, right)
    levels = groupby(stream, key=lambda e: len(e.representative))
    aperiodic: dict = {}
    for _, level in levels:
        level = list(level)
        elements += level
        for e in sorted(level, key=lambda f: f.representative):
            if e.targets not in aperiodic:
                aperiodic[e.targets] = _aperiodic(e)
            if aperiodic[e.targets]:
                continue
            if _counts(e, proj):
                return False, _counting_witness(acceptor, e.representative, proj)
            for _, rest in levels:
                elements += rest
            return _counting_by_classes(acceptor, proj, elements, letters, right)
    return True, None


def _counting_by_classes(acceptor: Acceptor, proj: dict, elements, letters, right):
    """`is_non_counting` read from the syntactic classes of the whole
    monoid, given by its tables `elements`, `letters` and `right`."""
    cls = _syntactic_classes(acceptor, proj, elements, letters, right)
    symbol_index = acceptor.alphabet.index

    def cls_power_periodic(i):
        # the powers of element i are the right table's run on its
        # representative; it counts when their cycle spans several classes
        u = tuple(map(symbol_index, elements[i].representative))
        path, entry = _walk(right, i, u, ())
        return len({cls[j] for j in path[entry * len(u)::len(u)]}) > 1

    by_word = sorted(range(len(elements)), key=lambda i: (len(elements[i].representative), elements[i].representative))
    v_idx = next((i for i in by_word if cls_power_periodic(i)), None)
    if v_idx is None:
        return True, None
    return False, _counting_witness(acceptor, elements[v_idx].representative, proj)


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
