"""Print the output golden: one line per (input, call), in a fixed order.

    python3 tests/golden/make_outputs.py > tests/golden/outputs.txt

Each line is `<input> <call> <result>`.  The inputs are every fixture, the
Wagner family for n, m <= 2, seeded `random_dma` draws of 3..6 states and
seeded `helpers.random_acceptor` draws of each acceptance kind; the calls
are the public analyses and operations that read loops or languages.  Sets
are printed through their sorted members and tables through sorted
entries, never through a set's repr, so the text does not depend on
PYTHONHASHSEED.  `tests/test_golden.py` recomputes the file under two hash
seeds and reports the first line that differs.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

from helpers import ACCEPTANCE_KINDS, random_acceptor  # noqa: E402
from rightcon import (  # noqa: E402
    alternation_measure,
    classify,
    combine,
    complement,
    convert,
    equivalent,
    fixture,
    fixture_names,
    is_non_counting,
    is_respective,
    loopable_sets,
    print_oaf,
    random_dma,
    state_equivalent,
    wagner_family,
)
from rightcon.cli import _describe_acceptance  # noqa: E402
from rightcon.errors import CapacityExceeded  # noqa: E402
from rightcon.model import Acceptance, LassoWord  # noqa: E402
from rightcon.oaf import format_lasso  # noqa: E402

CLASSIFY_CAPACITY = 20_000
STATE_PAIRS_UP_TO = 6
COMBINE_PAIRS = 25


def fmt(x) -> str:
    """A hash-independent text for the values the calls return."""
    if isinstance(x, (set, frozenset)):
        return "{" + ",".join(sorted(fmt(e) for e in x)) + "}"
    if isinstance(x, LassoWord):
        return format_lasso(x)
    if isinstance(x, Acceptance):
        return _describe_acceptance(x)
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(fmt(e) for e in x) + ")"
    if isinstance(x, dict):
        return "[" + ",".join(f"{fmt(k)}:{fmt(x[k])}" for k in sorted(x, key=fmt)) + "]"
    if dataclasses.is_dataclass(x):
        return type(x).__name__ + fmt(tuple(getattr(x, f.name) for f in dataclasses.fields(x)))
    return str(x)


def oaf(acceptor) -> str:
    return print_oaf(acceptor).rstrip("\n").replace("\n", "/")


def inputs() -> list:
    out = [(f"fixture:{name}", fixture(name)) for name in fixture_names()]
    for n in range(3):
        for m in range(3):
            for p in ("+", "-", "+-"):
                out.append((f"wagner:{n}/{m}/{p}", wagner_family(n, m, p)))
    for n in range(3, 7):
        for i in range(8):
            out.append((f"random_dma:{n}/g/{i}", random_dma(n, f"g/{i}")))
    for kind in ACCEPTANCE_KINDS:
        rng = random.Random(f"golden/{kind}")
        for i in range(12):
            out.append((f"random_acceptor:{kind}/{i}", random_acceptor(rng, kinds=(kind,))))
    return out


def calls(acceptor):
    """(call, thunk) pairs for one input, in output order."""

    def classified():
        c = classify(acceptor, CLASSIFY_CAPACITY)
        certificates = {}
        for flag in c.certificates:
            try:
                certificates[flag] = _describe_acceptance(c.certificates[flag])
            except CapacityExceeded:
                certificates[flag] = "CapacityExceeded"
        q = c.quotient
        return (c.index, c.trivial, c.flags, c.counterexamples, certificates,
                q.structure.delta, q.class_representatives, q.projection)

    def complemented():
        b = complement(acceptor)
        return oaf(b), equivalent(acceptor, b)

    yield "classify", classified
    yield "is_respective", lambda: is_respective(acceptor)
    yield "is_non_counting", lambda: is_non_counting(acceptor)
    yield "alternation_measure", lambda: alternation_measure(acceptor)
    yield "loopable_sets", lambda: loopable_sets(acceptor).sorted_entries()
    yield "complement", complemented
    if acceptor.acceptance.kind == "parity":
        yield "convert_muller", lambda: oaf(convert(acceptor, "muller"))
    n = acceptor.structure.state_count
    if n <= STATE_PAIRS_UP_TO:
        yield "state_equivalent", lambda: [
            (p, q, state_equivalent(acceptor, p, q)) for p in range(n) for q in range(p + 1, n)
        ]


def run(call) -> str:
    try:
        return fmt(call())
    except CapacityExceeded as exc:
        return f"CapacityExceeded {exc}"


def main() -> None:
    listed = inputs()
    for name, acceptor in listed:
        for call, thunk in calls(acceptor):
            print(name, call, run(thunk))
    # operand pairs on one alphabet, of at most 4 states each, so that the
    # products stay small
    small = [(name, a) for name, a in listed if a.structure.state_count <= 4]
    rng = random.Random("golden/combine")
    for _ in range(COMBINE_PAIRS):
        name_a, a = rng.choice(small)
        name_b, b = rng.choice([x for x in small if x[1].alphabet == a.alphabet])
        for mode in ("union", "intersection"):
            print(f"{name_a}+{name_b}", f"combine_{mode}", run(lambda: oaf(combine(a, b, mode))))


if __name__ == "__main__":
    main()
