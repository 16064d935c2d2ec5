"""Command-line interface: one subcommand per library entry point."""

from __future__ import annotations

import argparse
import sys

from .congruence import classify
from .errors import CapacityExceeded, ParseError, RightconError
from .fixtures import fixture, fixture_names, wagner_family
from .lab import ExperimentConfig, random_dma, run_experiment
from .loops import alternation_measure
from .model import Acceptor, MullerStates
from .oaf import format_lasso, parse_lasso, parse_oaf, print_oaf
from .ops import combine, complement, equivalent
from .profiles import _is_non_counting, _is_respective
from .semantics import accepts


def _read(path: str) -> Acceptor:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
    return parse_oaf(text)


def _write(path: str, acceptor: Acceptor) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(print_oaf(acceptor))


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _cmd_validate(args):
    _read(args.file)
    print("valid=true")


def _cmd_member(args):
    acceptor = _read(args.file)
    w = parse_lasso(args.lasso, acceptor.alphabet)
    print(f"accepted={_bool(accepts(acceptor, w))}")


def _cmd_classify(args):
    acceptor = _read(args.file)
    c = classify(acceptor)
    # the IT certificate is built on its first read: read every certificate
    # now, so that a CapacityExceeded (exit 4) comes before any output
    certificates = dict(c.certificates.items())
    respective, r_witness = _is_respective(acceptor, c.quotient)
    noncounting, n_witness = _is_non_counting(acceptor, c.quotient)
    print(f"index={c.index}")
    print(f"trivial={_bool(c.trivial)}")
    for flag in ("weak", "db", "dc", "IT", "IM", "IP", "IB", "IC"):
        print(f"{flag}={_bool(c.flags[flag])}")
    print(f"respective={_bool(respective)}")
    print(f"noncounting={_bool(noncounting)}")
    for flag in ("IT", "IM", "IP", "IB", "IC"):
        ce = c.counterexamples.get(flag)
        if ce is None:
            continue
        if ce[0] == "conflict":
            print(f"witness_{flag}_accepted={format_lasso(ce[1])}")
            print(f"witness_{flag}_rejected={format_lasso(ce[2])}")
        else:
            detail = " ".join(
                ",".join(str(q) for q in sorted(part))
                if isinstance(part, frozenset)
                else str(part)
                for part in ce[1:]
            )
            print(f"witness_{flag}={ce[0]} {detail}".rstrip())
    for flag in ("IT", "IM", "IP", "IB", "IC"):
        cert = certificates.get(flag)
        if cert is not None:
            print(f"cert_{flag}={_describe_acceptance(cert)}")
    if r_witness is not None:
        x, u = r_witness
        print(f"witness_respective_x={'.'.join(x) if x else ''}")
        print(f"witness_respective_u={'.'.join(u)}")
    if n_witness is not None:
        u, v, w, n = n_witness
        print(f"witness_noncounting_u={'.'.join(u) if u else ''}")
        print(f"witness_noncounting_v={'.'.join(v)}")
        print(f"witness_noncounting_w={format_lasso(w)}")
        print(f"witness_noncounting_n={n}")


def _describe_acceptance(acc) -> str:
    from .model import Buchi, CoBuchi, MullerTransitions, Parity

    if isinstance(acc, Buchi):
        return "buchi " + " ".join(map(str, sorted(acc.accepting)))
    if isinstance(acc, CoBuchi):
        return "cobuchi " + " ".join(map(str, sorted(acc.avoided)))
    if isinstance(acc, Parity):
        return "parity " + " ".join(map(str, acc.colors))
    if isinstance(acc, MullerTransitions):
        return "tmuller " + " | ".join(
            " ; ".join(f"{p} {s} {q}" for (p, s, q) in sorted(e))
            for e in sorted(acc.table, key=sorted)
        )
    return "muller " + " | ".join(
        " ".join(map(str, sorted(e))) for e in sorted(acc.table, key=sorted)
    )


def _cmd_quotient(args):
    acceptor = _read(args.file)
    c = classify(acceptor)
    # the IT certificate is built only when IM fails
    cert = c.certificates.get("IM") or c.certificates.get("IT")
    faithful = cert is not None
    acceptance = cert if faithful else MullerStates(frozenset())
    _write(args.output, Acceptor(c.quotient.structure, acceptance))
    print(f"index={c.index}")
    print(f"faithful={_bool(faithful)}")


def _cmd_equiv(args):
    a = _read(args.file_a)
    b = _read(args.file_b)
    same, witness = equivalent(a, b)
    print(f"equivalent={_bool(same)}")
    if witness is not None:
        print(f"witness={format_lasso(witness)}")


def _cmd_op(args):
    a = _read(args.file_a)
    if args.operation == "complement":
        result = complement(a)
    else:
        if args.file_b is None:
            print("second operand required", file=sys.stderr)
            raise SystemExit(2)
        mode = "union" if args.operation == "union" else "intersection"
        result = combine(a, _read(args.file_b), mode)
    _write(args.output, result)
    print(f"states={result.structure.state_count}")


def _cmd_alternation(args):
    acceptor = _read(args.file)
    m = alternation_measure(acceptor)
    print(f"alternations={m.max_alternations}")
    print(f"polarity={m.polarity}")


def _cmd_gen(args):
    if args.kind == "wagner":
        acceptor = wagner_family(args.n, args.m, args.p)
    else:
        acceptor = random_dma(args.states, args.seed)
    _write(args.output, acceptor)
    print(f"states={acceptor.structure.state_count}")


def _cmd_fixture(args):
    _write(args.output, fixture(args.name))
    print(f"name={args.name}")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _parse_sizes(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        sizes = tuple(range(_positive_int(lo), _positive_int(hi) + 1))
    else:
        sizes = tuple(_positive_int(t) for t in text.split(","))
    if not sizes:
        raise argparse.ArgumentTypeError(f"no sizes in {text!r}")
    return sizes


def _cmd_experiment(args):
    cfg = ExperimentConfig(
        sizes=args.sizes,
        trials_per_size=args.trials,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
    )
    for line in run_experiment(cfg).lines():
        print(line)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rightcon",
        description="Analysis toolkit for deterministic omega-automata",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an acceptor file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("member", help="lasso membership")
    p.add_argument("file")
    p.add_argument("lasso", help="spoke:cycle literal")
    p.set_defaults(fn=_cmd_member)

    p = sub.add_parser("classify", help="index and class flags")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("quotient", help="write the quotient acceptor")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("equiv", help="language equality of two acceptors")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("op", help="complement / union / intersect")
    p.add_argument("operation", choices=["complement", "union", "intersect"])
    p.add_argument("file_a")
    p.add_argument("file_b", nargs="?")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_op)

    p = sub.add_parser("alternation", help="alternation measure")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_alternation)

    p = sub.add_parser("gen", help="generate an acceptor")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    w = gen_sub.add_parser("wagner")
    w.add_argument("n", type=_non_negative_int)
    w.add_argument("m", type=_non_negative_int)
    w.add_argument("p", choices=["+", "-", "+-"])
    w.add_argument("-o", "--output", required=True)
    w.set_defaults(fn=_cmd_gen)
    r = gen_sub.add_parser("random")
    r.add_argument("--states", type=_positive_int, required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("-o", "--output", required=True)
    r.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("fixture", help="write a catalog acceptor")
    p.add_argument("name", choices=fixture_names())
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_fixture)

    p = sub.add_parser("experiment", help="quotient-isomorphism experiment")
    p.add_argument("--sizes", type=_parse_sizes, required=True, help="e.g. 5..10 or 5,7,9")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    p.add_argument("--samples", type=_positive_int, default=100000)
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except CapacityExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (RightconError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
