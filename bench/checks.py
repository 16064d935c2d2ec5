"""Checks of every workload's answers, made apart from the program.

Each checker takes the operations of a pass with their outputs and returns
a list of problems; an empty list means every answer passed.  Answers are
checked through the simulator and searches in `oracle.py`, and against the
paper's figures.  Witness text is never compared with a stored copy: it
changes with PYTHONHASHSEED.
"""

from __future__ import annotations

import hashlib
import json

from oracle import (
    BoundedSignatures,
    Machine,
    SearchBudgetExceeded,
    Separator,
    lasso_bounds,
    orbit_pairs,
    words,
)

# The paper's figures, as the acceptance criteria state them.
EXPECTED_INDEX = {
    "fig2_B": 1, "fig2_C": 1, "fig2_M": 1, "fig2_P": 4, "fig2_T": 1,
    "fig3_M": 3, "fig3_P": 3, "fig3_B": 4, "fig3_C": 4, "fig3_Mprime": 3,
    "fig3_T": 1, "fig5_Bbad": 4, "fig5_Cbad": 5, "fig5_Dbad": 6,
    "fig6_B1": 3, "fig6_B2": 3, "fig6_BC": 4, "fig6_P": 5,
    "fig7_M1": 2, "fig7_M2": 2, "fig7_M3": 1, "fig7_P1": 2, "fig7_P2": 2,
    "fig7_C1": 2, "fig7_C2": 2, "fig7_bowtie": 6,
    "L1": 4, "L2": 1, "aab": 4, "fgaxa": 1,
}
EXPECTED_FLAGS = {
    "fig3_M": {"IM": True, "IP": True, "IB": False, "IC": False, "weak": False},
    "fig3_P": {"IM": True, "IP": True, "IB": False, "IC": False, "weak": False},
    "fig3_B": {"IB": True, "dc": False},
    "fig3_C": {"IC": True, "db": False},
    "fig3_Mprime": {"IM": True, "IP": False},
    "fig3_T": {"IT": True, "IM": False},
    "fgaxa": {"IT": False},
    "fig5_Dbad": {"IB": True, "IC": True},
}
EXPECTED_RESPECTIVE = {
    "fig3_M": False, "fig3_B": False, "fig3_C": False, "fig3_Mprime": True,
    "fig3_T": True, "fig5_Bbad": False, "fig5_Cbad": False, "fig5_Dbad": False,
    "fig6_P": True, "fig6_B2": False, "fig6_BC": False, "fig7_bowtie": False,
    "aab": True, "fgaxa": True, "L1": True, "L2": True,
}
EXPECTED_NONCOUNTING = {
    "aab": False, "fgaxa": True, "fig3_M": False, "fig3_Mprime": True,
    "fig6_P": False, "L1": True, "L2": True, "fig2_M": True,
}

CLASS_FLAGS = ("IT", "IM", "IP", "IB", "IC")


def _group(label: str) -> tuple[str, list[str]]:
    head, *rest = label.split("/")
    return head, rest


def _reachable(m: Machine) -> list[int]:
    seen, stack = {m.initial}, [m.initial]
    while stack:
        q = stack.pop()
        for t in m.delta[q]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return sorted(seen)


def _separate(sep: Separator, p: int, q: int, what: str, problems: list) -> bool:
    try:
        return sep.lasso(p, q) is not None
    except SearchBudgetExceeded as e:
        problems.append(f"{what}: separation search gave up ({e})")
        return False


# ------------------------------------------------------------------ classify


def check_classify(label: str, acceptor, c) -> list[str]:
    p = []
    m = Machine.of(acceptor)
    q = c.quotient
    qs = q.structure
    proj = q.projection
    if c.index != qs.state_count or c.trivial != (c.index == 1):
        p.append(f"{label}: index {c.index}, trivial {c.trivial}, quotient of {qs.state_count}")
    reach = _reachable(m)
    if sorted(proj) != reach or proj[m.initial] != qs.initial:
        p.append(f"{label}: projection does not cover the reachable states")
        return p
    for s in reach:
        for i in range(len(m.symbols)):
            if qs.delta[proj[s]][i] != proj[m.delta[s][i]]:
                p.append(f"{label}: projection is not a homomorphism at ({s}, {m.symbols[i]})")
                return p
    sep = Separator(m)
    first = {}
    for s in reach:
        r = first.setdefault(proj[s], s)
        if r != s and sep.bounded.of(r) != sep.bounded.of(s):
            p.append(f"{label}: states {r} and {s} are merged but differ on lasso {sep.bounded.first_difference(r, s)}")
    reps = sorted(first.values())
    for i, r in enumerate(reps):
        for s in reps[i + 1:]:
            if not _separate(sep, r, s, f"{label}: classes of {r} and {s}", p):
                p.append(f"{label}: states {r} and {s} are in different classes but equivalent")

    for flag in CLASS_FLAGS:
        if c.flags[flag] != (flag in c.certificates) or c.flags[flag] == (flag in c.counterexamples):
            p.append(f"{label}: flag {flag}={c.flags[flag]} disagrees with its evidence")
    bounds = lasso_bounds(m.symbols)
    want = BoundedSignatures(m, bounds).of(m.initial)
    for flag, cert in c.certificates.items():
        qm = Machine(qs, cert)
        if BoundedSignatures(qm, bounds).of(qm.initial) != want:
            p.append(f"{label}: {flag} certificate on the quotient differs from the input on a lasso")
    for flag, cx in c.counterexamples.items():
        if cx[0] == "conflict":
            p.extend(_check_conflict(label, flag, m, proj, cx[1], cx[2]))
        elif cx[0] == "requires" and c.flags.get(cx[1], True):
            p.append(f"{label}: {flag} requires {cx[1]}, which holds")

    group, rest = _group(label)
    if group == "catalog":
        name = rest[0]
        if name in EXPECTED_INDEX and c.index != EXPECTED_INDEX[name]:
            p.append(f"{label}: index {c.index}, the paper has {EXPECTED_INDEX[name]}")
        for flag, want_flag in EXPECTED_FLAGS.get(name, {}).items():
            if c.flags[flag] != want_flag:
                p.append(f"{label}: {flag}={c.flags[flag]}, the paper has {want_flag}")
    elif group.startswith("wagner"):
        n, k = int(rest[0]), int(rest[1])
        if c.index != (n + 1) * (k + 1) or not all(c.flags[f] for f in ("IT", "IM", "IP")):
            p.append(f"{label}: index {c.index} flags {c.flags}, want index {(n + 1) * (k + 1)} with IT, IM, IP")
    return p


def _check_conflict(label, flag, m: Machine, proj, pos, neg) -> list[str]:
    if not m.member(pos.spoke, pos.cycle) or m.member(neg.spoke, neg.cycle):
        return [f"{label}: {flag} conflict lassos {pos} and {neg} do not have opposite membership"]

    def fingerprint(w):
        states, trans = m.loop(m.run(m.initial, w.spoke), w.cycle)
        if flag == "IT":
            return frozenset((proj[a], s, proj[b]) for a, s, b in trans)
        return frozenset(proj[s] for s in states)

    if fingerprint(pos) != fingerprint(neg):
        return [f"{label}: {flag} conflict lassos {pos} and {neg} have different quotient fingerprints"]
    return []


# ------------------------------------------------------------------ profiles


def check_respective(label: str, acceptor, out) -> list[str]:
    verdict, witness = out
    m = Machine.of(acceptor)
    p = []
    if verdict:
        if witness is not None:
            p.append(f"{label}: respective, yet a witness is given")
        # bounded search for an (x, u) that refutes the verdict: x.u^omega
        # accepted while every step of the orbit of x under u changes class,
        # each change shown by a bounded lasso
        sig = BoundedSignatures(m).of
        max_x, max_u = (2, 3) if len(m.symbols) > 2 else (3, 4)
        for x in words(m.symbols, 0, max_x):
            for u in words(m.symbols, 1, max_u):
                if m.member(x, u) and all(sig(a) != sig(b) for a, b in orbit_pairs(m, x, u)):
                    p.append(f"{label}: respective, but {''.join(x)}.({''.join(u)})^w refutes it")
                    return p
    else:
        if witness is None:
            p.append(f"{label}: not respective, without a witness")
            return p
        x, u = witness
        if not m.member(x, u):
            p.append(f"{label}: witness {witness} is not accepted")
        sep = Separator(m)
        for a, b in orbit_pairs(m, x, u):
            if not _separate(sep, a, b, f"{label}: orbit step {a}->{b}", p):
                p.append(f"{label}: orbit of witness {witness} stabilises at states {a}, {b}")
                break
    group, rest = _group(label)
    want = True if group == "wagner+" else EXPECTED_RESPECTIVE.get(rest[0]) if group == "catalog" else None
    if want is not None and verdict != want:
        p.append(f"{label}: respective={verdict}, the paper has {want}")
    return p


def check_non_counting(label: str, acceptor, out) -> list[str]:
    verdict, witness = out
    p = []
    if verdict and witness is not None:
        p.append(f"{label}: non-counting, yet a witness is given")
    if not verdict and witness is not None:
        u, v, w, n = witness
        m = Machine.of(acceptor)
        if m.member(tuple(u) + tuple(v) * n + w.spoke, w.cycle) == m.member(
            tuple(u) + tuple(v) * (n + 1) + w.spoke, w.cycle
        ):
            p.append(f"{label}: pumping witness {witness} gives equal verdicts for n and n+1")
    group, rest = _group(label)
    if group == "catalog" and rest[0] in EXPECTED_NONCOUNTING and verdict != EXPECTED_NONCOUNTING[rest[0]]:
        p.append(f"{label}: non-counting={verdict}, the paper has {EXPECTED_NONCOUNTING[rest[0]]}")
    return p


# ---------------------------------------------------------------- experiment


def trial_acceptor(rc, cfg):
    """The automaton a one-size, one-trial config analyses."""
    size = cfg.sizes[0]
    return rc.random_dma(size, f"{cfg.seed}/{size}/0", cfg.alphabet_size, cfg.accepting_sets)


def check_experiment(rc, results) -> list[str]:
    """results: (op, report) pairs of one pass."""
    p = []
    iso = {}
    for op, report in results:
        (row,) = report.rows
        if row.trials != 1 or row.isomorphic + row.not_isomorphic != 1:
            p.append(f"{op.label} {op.kind}: row {row}")
            continue
        iso.setdefault(op.label, {})[op.kind] = (row.isomorphic == 1, op.input)
    for label, modes in sorted(iso.items()):
        if modes.get("sampled", (False,))[0] and not modes.get("exact", (True,))[0]:
            p.append(f"{label}: isomorphic when sampled but not when exact")
        if "exact" in modes:
            exact_iso, cfg = modes["exact"]
            p.extend(_check_trial(rc, label, exact_iso, cfg))
    return p


def _check_trial(rc, label, isomorphic: bool, cfg) -> list[str]:
    acceptor = trial_acceptor(rc, cfg)
    m = Machine.of(acceptor)
    sep = Separator(m)
    p = []
    states = _reachable(m)
    if isomorphic:
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                if not _separate(sep, a, b, f"{label}: states {a}, {b}", p):
                    p.append(f"{label}: isomorphic, but states {a} and {b} are equivalent")
                    return p
        return p
    merged = [sorted(b) for b in rc.rightcon_quotient(acceptor).classes if len(b) > 1]
    if not merged:
        p.append(f"{label}: not isomorphic, but no two states are merged")
    for block in merged:
        for s in block[1:]:
            try:
                w = sep.lasso(block[0], s)
            except SearchBudgetExceeded as e:
                p.append(f"{label}: merged states {block[0]}, {s}: separation search gave up ({e})")
                continue
            if w is not None:
                p.append(f"{label}: merged states {block[0]} and {s} differ on lasso {w}")
    return p


# ---------------------------------------------------------- pass and digest


def check_pass(rc, workload: str, results) -> list[str]:
    """Check the answers of one pass: (op, output) pairs of ops that did not fail."""
    if workload == "experiment":
        return check_experiment(rc, results)
    p = []
    for op, out in results:
        if op.kind == "classify":
            p.extend(check_classify(op.label, op.input, out))
        elif op.kind == "is_respective":
            p.extend(check_respective(op.label, op.input, out))
        else:
            p.extend(check_non_counting(op.label, op.input, out))
    return p


def answer(op, out):
    """The part of an answer that does not depend on hash order."""
    if out is None:
        return None
    if op.kind == "classify":
        return [out.index, sorted(out.flags.items())]
    if op.kind in ("exact", "sampled"):
        return out.rows[0].isomorphic
    return out[0]


def digest(workload: str, results, extra=None) -> dict:
    """Answers that must not move when only speed changes, and their hash."""
    answers = sorted([op.label, op.kind, answer(op, out)] for op, out in results)
    summary = {}
    if workload == "experiment":
        for op, out in results:
            if out is None:
                continue
            row = out.rows[0]
            cell = summary.setdefault(f"{op.kind}/size{row.size}", [0, 0])
            cell[0] += row.isomorphic
            cell[1] += 1
    elif workload == "classify":
        summary["index_total"] = sum(out.index for op, out in results if out)
        for flag in CLASS_FLAGS + ("weak", "db", "dc"):
            summary[flag] = sum(bool(out.flags[flag]) for op, out in results if out)
    else:
        for op, out in results:
            if out is not None:
                key = f"{op.kind}/{'yes' if out[0] else 'no'}"
                summary[key] = summary.get(key, 0) + 1
    if extra:
        summary.update(extra)
    blob = json.dumps([answers, summary], sort_keys=True, default=str).encode()
    return {"sha256": hashlib.sha256(blob).hexdigest()[:16], "summary": summary}
