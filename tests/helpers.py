"""Shared generators and independent oracles for the test suite.

The oracles here intentionally avoid the library's own decision logic:
class flags are re-derived by exhaustive search over candidate acceptance
conditions on the quotient structure, and respectiveness by bounded brute
force over words.  Expensive suites are memoized so the acceptance tests
and the property tests share one computation per pytest process.
"""

from __future__ import annotations

import functools
import itertools
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
    classify,
    complement,
    combine,
    fixture,
    fixture_names,
    is_respective,
    refines,
    rightcon_quotient,
    validate,
)
from rightcon.congruence import (
    closed_walk_covering,
    partition_language_equivalent,
    shortest_word_to,
)
from rightcon.loops import loopable_state_sets, loopable_transition_sets
from rightcon.parity import ParityView

AB = Alphabet(("a", "b"))

ACCEPTANCE_KINDS = ("buchi", "cobuchi", "parity", "muller", "tmuller")


# ---------------------------------------------------------------- generators


def random_structure(rng: random.Random, n: int, alphabet: Alphabet = AB):
    """Random complete structure where every state is reachable."""
    k = len(alphabet)
    rows = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
    # force reachability: each state q>0 gets an incoming edge from below
    for q in range(1, n):
        rows[rng.randrange(q)][rng.randrange(k)] = q
    return TransitionStructure(
        alphabet, n, 0, tuple(tuple(r) for r in rows)
    )


def random_acceptance(rng: random.Random, structure, kind: str):
    n = structure.state_count
    if kind == "buchi":
        return Buchi(frozenset(q for q in range(n) if rng.random() < 0.5))
    if kind == "cobuchi":
        return CoBuchi(frozenset(q for q in range(n) if rng.random() < 0.5))
    if kind == "parity":
        return Parity(tuple(rng.randint(0, 2 * n) for _ in range(n)))
    if kind == "muller":
        entries = set()
        for _ in range(rng.randint(1, 3)):
            s = frozenset(q for q in range(n) if rng.random() < 0.5)
            if s:
                entries.add(s)
        return MullerStates(frozenset(entries))
    trans = structure.all_transitions()
    entries = set()
    for _ in range(rng.randint(1, 3)):
        t = frozenset(t for t in trans if rng.random() < 0.4)
        if t:
            entries.add(t)
    return MullerTransitions(frozenset(entries))


def random_acceptor(
    rng: random.Random,
    max_states: int = 5,
    alphabet: Alphabet = AB,
    kinds=ACCEPTANCE_KINDS,
):
    n = rng.randint(1, max_states)
    structure = random_structure(rng, n, alphabet)
    return validate(structure, random_acceptance(rng, structure, rng.choice(kinds)))


def random_lasso(rng: random.Random, alphabet: Alphabet, max_len: int = 4):
    syms = alphabet.symbols
    spoke = tuple(rng.choice(syms) for _ in range(rng.randint(0, max_len)))
    cycle = tuple(rng.choice(syms) for _ in range(rng.randint(1, max_len)))
    return LassoWord(spoke, cycle)


def all_fixtures():
    return [(name, fixture(name)) for name in fixture_names()]


# ------------------------------------------------------ naive lasso runs


def naive_infinity_sets(structure, w, from_state=None):
    """States and transitions the run on w visits infinitely often.

    Runs the spoke, then |Q| cycle repetitions, after which the state at
    each cycle boundary has entered its period (of length at most |Q|),
    then collects over |Q| more repetitions.
    """
    idx = {s: i for i, s in enumerate(structure.alphabet.symbols)}
    delta = structure.delta
    q = structure.initial if from_state is None else from_state
    for s in w.spoke:
        q = delta[q][idx[s]]
    n = structure.state_count
    for _ in range(n):
        for s in w.cycle:
            q = delta[q][idx[s]]
    states, trans = set(), set()
    for _ in range(n):
        for s in w.cycle:
            t = delta[q][idx[s]]
            states.add(t)
            trans.add((q, s, t))
            q = t
    return frozenset(states), frozenset(trans)


def naive_verdict(acc, states, trans):
    """Verdict on infinity sets, read off the acceptance condition's fields
    directly."""
    if acc.kind == "buchi":
        return bool(states & acc.accepting)
    if acc.kind == "cobuchi":
        return not states & acc.avoided
    if acc.kind == "parity":
        return min(acc.colors[q] for q in states) % 2 == 1
    if acc.kind == "muller":
        return states in acc.table
    return trans in acc.table


def naive_accepts(acceptor, w, from_state=None):
    """Membership of w by its naive infinity sets and naive_verdict."""
    states, trans = naive_infinity_sets(acceptor.structure, w, from_state)
    return naive_verdict(acceptor.acceptance, states, trans)


def naive_sampled_distinguished(acceptor, samples: int, rng: random.Random) -> bool:
    """The sampled replay in its plain form: lassos drawn with rng.randrange
    and rng.randint, every block re-split each step by naive_accepts, and
    the exact partition consulted once, at step 1000, for a trial that
    sampling has not settled by then."""
    structure = acceptor.structure
    n = structure.state_count
    syms = structure.alphabet.symbols
    k = len(syms)
    blocks = [list(range(n))]
    for step in range(samples):
        if all(len(b) == 1 for b in blocks):
            return True
        if step == 1000 and any(len(b) > 1 for b in partition_language_equivalent(ParityView(acceptor))):
            return False
        spoke_len = 0
        while rng.random() < 0.5 and spoke_len < 2 * n:
            spoke_len += 1
        spoke = tuple(syms[rng.randrange(k)] for _ in range(spoke_len))
        cycle = tuple(syms[rng.randrange(k)] for _ in range(rng.randint(1, 2 * n)))
        w = LassoWord(spoke, cycle)
        new = []
        for b in blocks:
            groups: dict = {}
            for q in b:
                groups.setdefault(naive_accepts(acceptor, w, q), []).append(q)
            new.extend(groups.values())
        blocks = new
    return all(len(b) == 1 for b in blocks)


def naive_profile(acceptor, word):
    """(targets, keys) of a nonempty finite word: its run from each state,
    with the acceptance's loop_key of the states and transitions that run
    enters, collected by simulation."""
    structure = acceptor.structure
    targets, keys = [], []
    for source in range(structure.state_count):
        q = source
        states, trans = set(), set()
        for sym in word:
            t = structure.step(q, sym)
            states.add(t)
            trans.add((q, sym, t))
            q = t
        targets.append(q)
        keys.append(acceptor.acceptance.loop_key(frozenset(states), frozenset(trans)))
    return tuple(targets), tuple(keys)


def naive_monoid(acceptor):
    """(elements, letters, right) of the profile monoid, by a breadth-first
    search over words in alphabet order: each word's (targets, keys) is
    simulated with naive_profile, a word is kept when no kept word has its
    profile, and kept words are extended by each letter in turn.  Each
    element is (targets, keys, word) for the first word found with that
    profile; `right[i][a]` is the index of the profile of element i's word
    followed by letter a."""
    symbols = acceptor.alphabet.symbols
    index: dict = {}
    elements: list = []

    def find(word):
        profile = naive_profile(acceptor, word)
        if profile not in index:
            index[profile] = len(elements)
            elements.append(profile + (word,))
        return index[profile]

    letters = [find((sym,)) for sym in symbols]
    right = []
    for _, _, word in elements:  # grows while it is read
        right.append([find(word + (sym,)) for sym in symbols])
    return elements, letters, right


# ------------------------------------------------------ naive loop sets


def naive_strongly_connected(structure, states):
    """Does every state of `states` reach every other inside it?  A
    singleton needs a self-loop.  Found by naive closure from each state."""
    if len(states) == 1:
        q = next(iter(states))
        return q in structure.delta[q]
    for src in states:
        seen = {src}
        changed = True
        while changed:
            changed = False
            for p in list(seen):
                for r in structure.delta[p]:
                    if r in states and r not in seen:
                        seen.add(r)
                        changed = True
        if seen != states:
            return False
    return bool(states)


def brute_loopable_state_sets(structure):
    """Every strongly connected set of reachable states, found by trying
    every nonempty subset.  Returns (states, internal transitions) pairs."""
    reachable = sorted(structure.reachable_states())
    out = []
    for bits in range(1, 1 << len(reachable)):
        states = frozenset(q for i, q in enumerate(reachable) if bits >> i & 1)
        if naive_strongly_connected(structure, states):
            trans = frozenset(t for t in structure.all_transitions() if t[0] in states and t[2] in states)
            out.append((states, trans))
    return out


def brute_loopable_transition_sets(structure):
    """Every strongly connected set of reachable transitions, found by
    trying every subset and testing it by naive reachability; a singleton
    state set needs a self-loop.  Returns (states, transitions) pairs."""
    reachable = structure.reachable_states()
    trans = [t for t in structure.all_transitions() if t[0] in reachable]
    out = []
    for bits in range(1, 1 << len(trans)):
        t_set = frozenset(t for i, t in enumerate(trans) if bits >> i & 1)
        states = frozenset(q for (p, _, r) in t_set for q in (p, r))
        if naive_transitions_connect(states, t_set):
            out.append((states, t_set))
    return out


def naive_transitions_connect(states, t_set):
    """Do the transitions `t_set` connect `states` strongly, touching no
    other state?  A singleton needs a self-loop.  Found by naive closure
    from each state."""
    if not t_set or {q for (p, _, r) in t_set for q in (p, r)} != set(states):
        return False
    for src in states:
        seen = {src}
        changed = True
        while changed:
            changed = False
            for (p, _, r) in t_set:
                if p in seen and r not in seen:
                    seen.add(r)
                    changed = True
        if seen != states:
            return False
    return True


def brute_acd(acceptor):
    """The alternating cycle decomposition of an acceptance condition, by
    brute force: one tree per SCC that holds a loop, that is per maximal
    loop, as nested (colors, accepting, children) triples.  A node's
    children are the maximal loops inside its colors with the opposite
    verdict, sorted by their sorted colors.  The colors of a loop are the
    transitions of one of brute_loopable_transition_sets for a transition
    table, and the states of one of brute_loopable_state_sets for every
    other kind; the verdicts are naive_verdict's."""
    acc = acceptor.acceptance
    if acc.kind == "tmuller":
        loops = [(t, s, t) for s, t in brute_loopable_transition_sets(acceptor.structure)]
    else:
        loops = [(s, s, t) for s, t in brute_loopable_state_sets(acceptor.structure)]
    verdict = {colors: naive_verdict(acc, s, t) for colors, s, t in loops}

    def maximal(sets):
        return sorted((s for s in sets if not any(s < t for t in sets)), key=sorted)

    def node(label):
        flipped = [s for s in verdict if s < label and verdict[s] != verdict[label]]
        return label, verdict[label], [node(s) for s in maximal(flipped)]

    return [node(s) for s in maximal(list(verdict))]


def oracle_least_spanning(states, edges, image=None):
    """The (size, sorted)-least subset of `edges` that connects `states`
    strongly, or None.  When `image` is given it maps the edges the subset
    may use to their labels, and the subset must hold every label among
    them.  Found by trying the subsets size by size, each size in sorted
    order, so the first that qualifies is the least."""
    allowed = sorted(e for e in edges if image is None or e in image)
    labels = None if image is None else {image[e] for e in allowed}
    for size in range(1, len(allowed) + 1):
        for t in itertools.combinations(allowed, size):
            if labels is not None and {image[e] for e in t} != labels:
                continue
            if naive_transitions_connect(states, frozenset(t)):
                return frozenset(t)
    return None


def naive_chain_flags(entries):
    """weak, db and dc over (key, accepting) pairs, by checking every
    ordered pair: an accepting key inside a rejecting one clears db, a
    rejecting key inside an accepting one clears dc."""
    db = dc = True
    for k1, v1 in entries:
        for k2, v2 in entries:
            if k1 < k2 and v1 != v2:
                if v1:
                    db = False
                else:
                    dc = False
        if not (db or dc):
            break
    return {"weak": db and dc, "db": db, "dc": dc}


def naive_alternation(table, structure):
    """(max alternations, polarity) of a loop table on `structure`, by the
    pairwise chain count: up[i] is the most verdict changes along an
    inclusion chain of entries upward from entry i, found from the larger
    entries down.  The polarity is the verdicts of the entries with the
    most whose maximal SCC no other such entry's SCC reaches (+, - or +-),
    reachability found by naive closure."""
    ents = table.sorted_entries()
    keys = [table.key_of(e) for e in ents]
    order = sorted(range(len(ents)), key=lambda i: -len(keys[i]))
    up = [0] * len(ents)
    for i in order:
        for j in order:
            if keys[i] < keys[j]:
                up[i] = max(up[i], up[j] + (ents[i].accepting != ents[j].accepting))
    best = max(up)
    starts = [i for i in range(len(ents)) if up[i] == best]

    def reach(q):
        seen, stack = {q}, [q]
        while stack:
            for r in structure.delta[stack.pop()]:
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return seen

    anchor = {i: min(ents[i].states) for i in starts}
    reached = {i: reach(anchor[i]) for i in starts}
    minimal = [
        i for i in starts
        if not any(anchor[i] in reached[j] and anchor[j] not in reached[i] for j in starts)
    ]
    verdicts = {ents[i].accepting for i in minimal}
    return best, ("+" if True in verdicts else "") + ("-" if False in verdicts else "")


# ------------------------------------------------------- forced loop lassos


def loop_lasso(structure, states, trans):
    """A lasso whose run has infinity sets exactly (states, trans)."""
    anchor = min(states)
    spoke = shortest_word_to(structure, structure.initial, anchor)
    cycle = closed_walk_covering(structure, trans, anchor)
    return LassoWord(spoke, cycle)


def forced_verdicts(acceptor, quotient):
    """Projected infinity sets with the verdicts the language forces.

    Every lasso's run settles into some loopable transition set of the
    original structure, and every such set is realized by a lasso; the
    quotient run's infinity sets are the projections.  So an acceptance
    condition on the quotient structure recognizes the same language
    exactly when its loop verdict on each projected set matches the
    verdict observed on a lasso realizing the original set.
    """
    structure = acceptor.structure
    proj = quotient.projection
    out = []
    for states, trans in loopable_transition_sets(structure):
        w = loop_lasso(structure, states, trans)
        proj_s = frozenset(proj[q] for q in states)
        proj_t = frozenset((proj[p], sym, proj[q]) for (p, sym, q) in trans)
        out.append((proj_s, proj_t, accepts(acceptor, w)))
    return out


# ------------------------------------------------- exhaustive class oracles
#
# Each oracle decides "does some acceptance condition of this kind on the
# quotient structure recognize the same language?" by exhausting candidate
# conditions against the forced verdicts above.


def oracle_IT_certificate(acceptor, quotient):
    """The transition table on the quotient that the forced verdicts allow:
    every projected transition set whose lasso is accepted.  None when two
    sets with one projection get different verdicts, i.e. when IT fails."""
    by_trans = {}
    for _, t, v in forced_verdicts(acceptor, quotient):
        by_trans.setdefault(t, set()).add(v)
    if any(len(vs) > 1 for vs in by_trans.values()):
        return None
    return MullerTransitions(frozenset(t for t, vs in by_trans.items() if True in vs))


def oracle_conflicts(acceptor, quotient):
    """The IT and IM conflicts `classify` reports, by brute force over every
    strongly connected transition set.  Each set is keyed by its projected
    transitions for IT and its projected states for IM; for each flag
    whose keys hold both verdicts, the sorted-least such key gives the
    (size, sorted)-least accepted and rejected transition sets."""
    proj = quotient.projection
    groups = {"IT": {}, "IM": {}}
    for states, trans in brute_loopable_transition_sets(acceptor.structure):
        verdict = naive_verdict(acceptor.acceptance, states, trans)
        keys = {
            "IT": frozenset((proj[p], sym, proj[q]) for (p, sym, q) in trans),
            "IM": frozenset(proj[q] for q in states),
        }
        for flag, key in keys.items():
            groups[flag].setdefault(key, {}).setdefault(verdict, []).append(trans)
    out = {}
    for flag, by_key in groups.items():
        conflicts = [k for k, g in by_key.items() if len(g) > 1]
        if conflicts:
            g = by_key[min(conflicts, key=sorted)]
            out[flag] = tuple(min(g[v], key=lambda t: (len(t), sorted(t))) for v in (True, False))
    return out


def oracle_IT(acceptor, quotient):
    return oracle_IT_certificate(acceptor, quotient) is not None


def oracle_IM(acceptor, quotient):
    by_states = {}
    for s, _, v in forced_verdicts(acceptor, quotient):
        by_states.setdefault(s, set()).add(v)
    return all(len(vs) == 1 for vs in by_states.values())


def oracle_IB(acceptor, quotient):
    forced = forced_verdicts(acceptor, quotient)
    n = quotient.structure.state_count
    return any(
        all(bool(s & f) == v for s, _, v in forced)
        for f in map(
            lambda bits: frozenset(q for q in range(n) if bits >> q & 1),
            range(1 << n),
        )
    )


def oracle_IC(acceptor, quotient):
    forced = forced_verdicts(acceptor, quotient)
    n = quotient.structure.state_count
    return any(
        all((not s & f) == v for s, _, v in forced)
        for f in map(
            lambda bits: frozenset(q for q in range(n) if bits >> q & 1),
            range(1 << n),
        )
    )


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def _colorings(n):
    """Every parity coloring of n states up to verdict equivalence: an
    ordered partition into color levels plus the parity of the top level."""
    for part in _set_partitions(list(range(n))):
        for order in itertools.permutations(part):
            for start in (0, 1):
                colors = [0] * n
                for level, block in enumerate(order):
                    for q in block:
                        colors[q] = start + level
                yield tuple(colors)


def oracle_IP(acceptor, quotient):
    forced = forced_verdicts(acceptor, quotient)
    n = quotient.structure.state_count
    for colors in _colorings(n):
        if all(
            (min(colors[q] for q in s) % 2 == 1) == v for s, _, v in forced
        ):
            return True
    return False


CLASS_ORACLES = {
    "IT": oracle_IT,
    "IM": oracle_IM,
    "IP": oracle_IP,
    "IB": oracle_IB,
    "IC": oracle_IC,
}


# ------------------------------------------------ respectiveness brute force


def words_up_to(alphabet: Alphabet, lo: int, hi: int):
    for length in range(lo, hi + 1):
        yield from itertools.product(alphabet.symbols, repeat=length)


def shortlex_first_words(structure, class_of):
    """The shortlex-least word reaching each class of the reachable states,
    keyed by class in the order word enumeration first reaches them."""
    first: dict = {}
    for w in words_up_to(structure.alphabet, 0, structure.state_count - 1):
        first.setdefault(class_of(structure.run(structure.initial, w)), w)
    return first


def orbit_stabilizes(acceptor, quotient, x, u) -> bool:
    """Does the orbit of [x] under u in the quotient reach a fixed point?
    Runs u on the quotient structure from [x] until a class repeats."""
    qs = quotient.structure
    cur = quotient.projection[acceptor.structure.run(acceptor.structure.initial, x)]
    seen = {cur}
    for _ in range(qs.state_count + 1):
        nxt = qs.run(cur, u)
        if nxt == cur:
            return True
        if nxt in seen:
            return False
        seen.add(nxt)
        cur = nxt
    return False


def refutes_respective(acceptor, x, u) -> bool:
    """Is (x, u) a witness against respectiveness: x.u^omega accepted, by
    naive simulation, while the quotient orbit of [x] under u never
    reaches a fixed point?"""
    x, u = tuple(x), tuple(u)
    return naive_accepts(acceptor, LassoWord(x, u)) and not orbit_stabilizes(
        acceptor, rightcon_quotient(acceptor), x, u
    )


def oracle_respective_bruteforce(acceptor, max_x: int = 3, max_u: int = 4):
    """Bounded search for a pair (x, u) where x.u^omega is accepted but the
    quotient orbit of [x] under u never reaches a fixed point."""
    quotient = rightcon_quotient(acceptor)
    for x in words_up_to(acceptor.alphabet, 0, max_x):
        for u in words_up_to(acceptor.alphabet, 1, max_u):
            if accepts(acceptor, LassoWord(x, u)) and not orbit_stabilizes(acceptor, quotient, x, u):
                return False, (x, u)
    return True, None


# ------------------------------------------------- prefix pumping brute force


def prefix_pumping_flip(
    acceptor, max_u: int = 2, max_v: int = 3, max_spoke: int = 2, max_cycle: int = 3
):
    """Bounded search for (u, v, w, n) with u.v^n.w and u.v^(n+1).w of
    different membership, n = 1..|Q|+1; None if every bounded one agrees.

    Two states are told apart by the verdicts of every bounded lasso read
    from them, so the search only runs the words u.v^n.
    """
    structure = acceptor.structure
    alpha = acceptor.alphabet
    ws = [
        LassoWord(spoke, cycle)
        for spoke in words_up_to(alpha, 0, max_spoke)
        for cycle in words_up_to(alpha, 1, max_cycle)
    ]
    sigs = [tuple(accepts(acceptor, w, q) for w in ws) for q in range(structure.state_count)]
    for u in words_up_to(alpha, 0, max_u):
        for v in words_up_to(alpha, 1, max_v):
            p = structure.run(structure.initial, u + v)
            for n in range(1, structure.state_count + 2):
                p_next = structure.run(p, v)
                if sigs[p] != sigs[p_next]:
                    w = next(w for w, a, b in zip(ws, sigs[p], sigs[p_next]) if a != b)
                    return u, v, w, n
                p = p_next
    return None


# -------------------------------------------------------- memoized suites
#
# Shared between test_properties.py and test_acceptance.py so the 500-case
# batteries run once per pytest process.


@functools.lru_cache(maxsize=None)
def suite_complement_flip(cases: int = 500):
    """Violations of: complement flips every lasso verdict."""
    rng = random.Random("suite/complement")
    bad = []
    for i in range(cases):
        a = random_acceptor(rng)
        co = complement(a)
        for _ in range(4):
            w = random_lasso(rng, a.alphabet)
            if accepts(co, w) == accepts(a, w):
                bad.append((i, w))
    return bad


@functools.lru_cache(maxsize=None)
def suite_boolean_combos(cases: int = 500):
    """Violations of: union/intersection verdicts are boolean combos."""
    rng = random.Random("suite/combine")
    bad = []
    for i in range(cases):
        a = random_acceptor(rng, max_states=4)
        b = random_acceptor(rng, max_states=4)
        u = combine(a, b, "union")
        x = combine(a, b, "intersection")
        for _ in range(4):
            w = random_lasso(rng, a.alphabet)
            va, vb = accepts(a, w), accepts(b, w)
            if accepts(u, w) != (va or vb) or accepts(x, w) != (va and vb):
                bad.append((i, w))
    return bad


@functools.lru_cache(maxsize=None)
def suite_refines(cases: int = 500):
    """Violations of: the state partition refines the quotient partition."""
    rng = random.Random("suite/refines")
    bad = []
    for i in range(cases):
        a = random_acceptor(rng)
        q = rightcon_quotient(a)
        if not refines(a.structure, q.structure):
            bad.append(i)
    return bad


@functools.lru_cache(maxsize=None)
def suite_flag_laws(cases: int = 500):
    """Violations of (db and dc) <=> (IB and IC) and of the inclusion
    chain IB or IC => IP => IM => IT, over fixtures plus random acceptors."""
    rng = random.Random("suite/flags")
    inputs = [(f"fixture/{name}", acc) for name, acc in all_fixtures()]
    for i in range(cases):
        inputs.append((f"random/{i}", random_acceptor(rng, max_states=4)))
    bad = []
    for tag, acc in inputs:
        f = classify(acc).flags
        if (f["db"] and f["dc"]) != (f["IB"] and f["IC"]):
            bad.append((tag, "db_dc_iff_IB_IC", dict(f)))
        if (f["IB"] or f["IC"]) and not f["IP"]:
            bad.append((tag, "IB_or_IC_implies_IP", dict(f)))
        if f["IP"] and not f["IM"]:
            bad.append((tag, "IP_implies_IM", dict(f)))
        if f["IM"] and not f["IT"]:
            bad.append((tag, "IM_implies_IT", dict(f)))
    return bad


@functools.lru_cache(maxsize=None)
def suite_classify_vs_exhaustive(randoms: int = 25, max_quotient: int = 7):
    """Mismatches between classify's flags and the exhaustive-search oracles
    on every fixture (plus random acceptors) with a small enough quotient."""
    rng = random.Random("suite/exhaustive")
    inputs = [(f"fixture/{name}", acc) for name, acc in all_fixtures()]
    for i in range(randoms):
        inputs.append((f"random/{i}", random_acceptor(rng, max_states=4)))
    bad = []
    for tag, acc in inputs:
        c = classify(acc)
        if c.index > max_quotient:
            continue
        for flag, oracle in CLASS_ORACLES.items():
            expected = oracle(acc, c.quotient)
            if c.flags[flag] != expected:
                bad.append((tag, flag, c.flags[flag], expected))
    return bad


@functools.lru_cache(maxsize=None)
def suite_respective_bruteforce():
    """Mismatches between is_respective and the bounded brute force."""
    bad = []
    for name, acc in all_fixtures():
        got = is_respective(acc)[0]
        want = oracle_respective_bruteforce(acc)[0]
        if got != want:
            bad.append((name, got, want))
    return bad
