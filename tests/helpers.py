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
from rightcon.congruence import closed_walk_covering, shortest_word_to
from rightcon.loops import loopable_state_sets, loopable_transition_sets

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


# ------------------------------------------------------ naive parity tree


def brute_flipped_children(acc, label):
    """Maximal proper nonempty subsets of `label` whose verdict is the
    opposite of label's, found by trying every subset.  Colors are states,
    or transitions for a transition table; naive_verdict reads the one its
    kind looks at."""
    colors = sorted(label, key=repr)
    flipped = not naive_verdict(acc, label, label)
    found = []
    for bits in range(1, (1 << len(colors)) - 1):
        s = frozenset(c for i, c in enumerate(colors) if bits >> i & 1)
        if naive_verdict(acc, s, s) == flipped:
            found.append(s)
    # a set with a flipped strict superset lies inside a maximal one, which
    # is larger and so kept first
    maximal = []
    for s in sorted(found, key=len, reverse=True):
        if not any(s < m for m in maximal):
            maximal.append(s)
    return set(maximal)


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
        if len(states) == 1 and not any(p == r for (p, _, r) in t_set):
            continue
        connected = True
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
                connected = False
                break
        if connected:
            out.append((states, t_set))
    return out


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


def oracle_IT(acceptor, quotient):
    by_trans = {}
    for _, t, v in forced_verdicts(acceptor, quotient):
        by_trans.setdefault(t, set()).add(v)
    return all(len(vs) == 1 for vs in by_trans.values())


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


def oracle_respective_bruteforce(acceptor, max_x: int = 3, max_u: int = 4):
    """Bounded search for a pair (x, u) where x.u^omega is accepted but the
    quotient orbit of [x] under u never reaches a fixed point."""
    quotient = rightcon_quotient(acceptor)
    qs = quotient.structure
    proj = quotient.projection
    structure = acceptor.structure
    for x in words_up_to(acceptor.alphabet, 0, max_x):
        for u in words_up_to(acceptor.alphabet, 1, max_u):
            if not accepts(acceptor, LassoWord(x, u)):
                continue
            cur = proj[structure.run(structure.initial, x)]
            seen = {cur}
            stabilized = False
            for _ in range(qs.state_count + 1):
                nxt = qs.run(cur, u)
                if nxt == cur:
                    stabilized = True
                    break
                if nxt in seen:
                    break
                seen.add(nxt)
                cur = nxt
            if not stabilized:
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
