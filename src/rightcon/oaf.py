"""OAF v1: a line-oriented text format for acceptors, plus lasso literals."""

from __future__ import annotations

from .errors import ParseError, ValidationError
from .model import (
    Acceptor,
    Alphabet,
    Buchi,
    CoBuchi,
    LassoWord,
    MullerStates,
    MullerTransitions,
    Parity,
    complete_with_sink,
    make_structure,
    validate,
)

_KINDS = ("buchi", "cobuchi", "parity", "muller", "tmuller")
# the directives a file gives at most once, as a trans line per state and
# symbol and an acc color line per state: a second one is an error at its
# line, not a silent overwrite
_ONCE = ("oaf", "type", "alphabet", "states", "initial", "complete")
# the acc form each type reads
_ACC_FORM = {
    "buchi": "states", "cobuchi": "states", "parity": "color", "muller": "set", "tmuller": "tset"
}


def parse_lasso(text: str, alphabet: Alphabet) -> LassoWord:
    """Literal `spoke:cycle`; symbols dot-separated, or concatenated when
    every symbol is a single character."""
    if ":" not in text:
        raise ValidationError(f"lasso literal needs a ':' separator: {text!r}")
    spoke_text, cycle_text = text.split(":", 1)

    def part(s: str):
        if not s:
            return ()
        tokens = tuple(s.split("."))
        if all(t in alphabet for t in tokens):
            return tokens
        return tuple(s)

    w = LassoWord(part(spoke_text), part(cycle_text))
    for sym in w.spoke + w.cycle:
        alphabet.index(sym)
    return w


def format_lasso(w: LassoWord) -> str:
    def part(syms):
        if all(len(s) == 1 for s in syms):
            return "".join(syms)
        return ".".join(syms)

    return f"{part(w.spoke)}:{part(w.cycle)}"


def parse_oaf(text: str) -> Acceptor:
    seen = set()  # the _ONCE directives given so far
    kind = None
    alphabet = None
    state_count = None
    initial = None
    delta = {}
    acc_states = []
    acc_colors = {}
    acc_sets = []
    acc_tsets = []
    acc_lines: dict[str, int] = {}  # the first line of each acc form
    want_sink = False

    def fail(no, reason):
        raise ParseError(no, reason)

    def integer(no, tok, reason):
        # plain ASCII digits, as print_oaf writes them: int() would also
        # take signs, underscores and other scripts' digits
        if not (tok.isascii() and tok.isdigit()):
            fail(no, f"{reason}, got {tok!r}")
        return int(tok)

    def state(no, tok):
        q = integer(no, tok, "expected a state id")
        if state_count is not None and not (0 <= q < state_count):
            fail(no, f"state {q} out of range")
        return q

    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        if head in _ONCE:
            if head in seen:
                fail(no, f"second {head} line")
            seen.add(head)
        if head == "oaf":
            if len(toks) != 2 or toks[1] != "1":
                fail(no, "unsupported version")
        elif head == "type":
            if len(toks) != 2 or toks[1] not in _KINDS:
                fail(no, f"type must be one of {', '.join(_KINDS)}")
            kind = toks[1]
        elif head == "alphabet":
            if len(toks) < 2:
                fail(no, "alphabet needs at least one symbol")
            alphabet = Alphabet(tuple(toks[1:]))
        elif head == "states":
            reason = "states needs one positive integer"
            if len(toks) != 2 or (state_count := integer(no, toks[1], reason)) < 1:
                fail(no, reason)
        elif head == "initial":
            if len(toks) != 2:
                fail(no, "initial needs one state id")
            initial = state(no, toks[1])
        elif head == "trans":
            if len(toks) != 4:
                fail(no, "trans needs: source symbol target")
            if alphabet is None or toks[2] not in alphabet:
                fail(no, f"unknown symbol {toks[2]!r}")
            source, target = state(no, toks[1]), state(no, toks[3])
            if (source, toks[2]) in delta:
                fail(no, f"second trans for state {source} and symbol {toks[2]!r}")
            delta[(source, toks[2])] = target
        elif head == "acc":
            if len(toks) < 2:
                fail(no, "empty acc directive")
            sub = toks[1]
            if sub == "states":
                acc_states.extend(state(no, t) for t in toks[2:])
            elif sub == "color":
                if len(toks) != 4:
                    fail(no, "acc color needs: state color")
                q = state(no, toks[2])
                if q in acc_colors:
                    fail(no, f"second acc color for state {q}")
                acc_colors[q] = integer(no, toks[3], "expected a color")
            elif sub == "set":
                if len(toks) < 3:
                    fail(no, "acc set needs at least one state")
                acc_sets.append(frozenset(state(no, t) for t in toks[2:]))
            elif sub == "tset":
                groups = " ".join(toks[2:]).split(";")
                entry = []
                for g in groups:
                    parts = g.split()
                    if len(parts) != 3:
                        fail(no, "acc tset needs: source symbol target [; ...]")
                    if alphabet is None or parts[1] not in alphabet:
                        fail(no, f"unknown symbol {parts[1]!r}")
                    entry.append((state(no, parts[0]), parts[1], state(no, parts[2])))
                acc_tsets.append(frozenset(entry))
            else:
                fail(no, f"unknown acc form {sub!r}")
            acc_lines.setdefault(sub, no)
        elif head == "complete":
            if len(toks) != 2 or toks[1] != "sink":
                fail(no, "expected: complete sink")
            want_sink = True
        else:
            fail(no, f"unknown directive {head!r}")

    if "oaf" not in seen:
        fail(0, "missing 'oaf 1' header")
    for head in ("type", "alphabet", "states", "initial"):
        if head not in seen:
            fail(0, f"missing '{head}' line")
    stray = [(no, sub) for sub, no in acc_lines.items() if sub != _ACC_FORM[kind]]
    if stray:
        no, sub = min(stray)
        fail(no, f"acc {sub} does not apply to type {kind}")

    if want_sink:
        structure = complete_with_sink(alphabet, state_count, initial, delta)
    else:
        structure = make_structure(alphabet, state_count, initial, delta)
    n = structure.state_count
    if kind == "buchi":
        acceptance = Buchi(frozenset(acc_states))
    elif kind == "cobuchi":
        acceptance = CoBuchi(frozenset(acc_states))
    elif kind == "parity":
        colors = []
        for q in range(n):
            if q not in acc_colors:
                # a sink added by completion defaults to a rejecting color
                if want_sink and q == n - 1:
                    acc_colors[q] = 0
                else:
                    fail(0, f"missing color for state {q}")
            colors.append(acc_colors[q])
        acceptance = Parity(tuple(colors))
    elif kind == "muller":
        acceptance = MullerStates(frozenset(acc_sets))
    else:
        acceptance = MullerTransitions(frozenset(acc_tsets))
    return validate(structure, acceptance)


def print_oaf(acceptor: Acceptor) -> str:
    structure = acceptor.structure
    acc = acceptor.acceptance
    lines = [
        "oaf 1",
        f"type {acc.kind}",
        "alphabet " + " ".join(structure.alphabet.symbols),
        f"states {structure.state_count}",
        f"initial {structure.initial}",
    ]
    for q in range(structure.state_count):
        for i, sym in enumerate(structure.alphabet.symbols):
            lines.append(f"trans {q} {sym} {structure.delta[q][i]}")
    if isinstance(acc, Buchi):
        lines.append("acc states" + "".join(f" {q}" for q in sorted(acc.accepting)))
    elif isinstance(acc, CoBuchi):
        lines.append("acc states" + "".join(f" {q}" for q in sorted(acc.avoided)))
    elif isinstance(acc, Parity):
        for q, c in enumerate(acc.colors):
            lines.append(f"acc color {q} {c}")
    elif isinstance(acc, MullerStates):
        for entry in sorted(acc.table, key=sorted):
            lines.append("acc set " + " ".join(str(q) for q in sorted(entry)))
    else:
        for entry in sorted(acc.table, key=sorted):
            lines.append(
                "acc tset "
                + " ; ".join(f"{p} {sym} {q}" for (p, sym, q) in sorted(entry))
            )
    return "\n".join(lines) + "\n"
