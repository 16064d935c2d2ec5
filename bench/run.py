#!/usr/bin/env python3
"""Benchmark of rightcon: the experiment, classify and profiles paths.

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke        # every workload on a few inputs
    python3 bench/run.py --self-test    # every checker rejects planted errors

One process issues one operation at a time (a closed loop with one
caller).  A run repeats whole passes of its workload (workloads.py) and
starts another pass only while it expects to end within --seconds, so
every run attempts the same operations in the same proportions.  It then
checks the first pass's answers apart from the program (checks.py) and
that later passes repeated them.  With --trace 1 it wraps each layer's
entry points (spans.py) and reports per-layer metrics per pass instead of
the end-to-end ones.  The last line of standard output is the result as
one JSON object; bench/results/ gets the full report and the spans.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 11
REPEATS = 3
REPEAT_BELOW_S = 0.5

sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def fresh_import():
    """Import rightcon from this checkout's src/, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "rightcon" or n.startswith("rightcon.")]:
        del sys.modules[name]
    rc = importlib.import_module("rightcon")
    if not os.path.abspath(rc.__file__).startswith(os.path.join(SRC, "")):
        raise ImportError(f"rightcon came from {rc.__file__}, not from {SRC}")
    return rc


def setup(workload: str, smoke: bool):
    """Import rightcon and build the inputs SETUP_REPEATS times; the median
    is setup_s.  The last import is the one the run uses."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rc = fresh_import()
        ops = workloads.build(rc, workload, smoke)
        times.append(time.perf_counter() - t0)
    return rc, ops, statistics.median(times)


def timed_call(rc, op):
    """One run of an operation, after collecting the garbage the previous
    one left, so that its time and the peak memory do not depend on order."""
    gc.collect()
    t0 = time.perf_counter()
    result = workloads.call(rc, op)
    return result, time.perf_counter() - t0


def run_pass(rc, ops, repeat: bool):
    """Time every operation of one pass; returns [(op, out, failed, secs)].

    With `repeat`, an operation whose first run took under REPEAT_BELOW_S
    runs REPEATS times and its time is the median: single runs of short
    operations swing by a factor of two or three on a shared host.
    """
    out = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            result, secs = timed_call(rc, op)
            bad = workloads.failed(op, result)
            times = [secs]
            if repeat and not bad and secs < REPEAT_BELOW_S:
                for _ in range(REPEATS - 1):
                    again, secs = timed_call(rc, op)
                    times.append(secs)
                    if checks.answer(op, again) != checks.answer(op, result):
                        result, bad = "the answer changed between repeats", True
        except Exception as e:  # a raising operation counts as failed
            result, bad, times = repr(e), True, [time.perf_counter() - t0]
        out.append((op, result, bad, statistics.median(times)))
    return out


def answers(results):
    return [None if bad else checks.answer(op, out) for op, out, bad, _ in results]


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        with open(os.path.join(ROOT, ".git", head[5:])) as f:
            return f.read().strip()[:12]
    except OSError:
        pass
    return "unknown"


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    rc, ops, setup_s = setup(workload, smoke)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    pass_times, wall, first, problems = [], 0.0, None, []
    op_times, failed_labels = [], []
    attempted = failed = 0
    elapsed = 0.0
    while True:
        t0 = time.perf_counter()
        results = run_pass(rc, ops, repeat=not trace)
        pass_s = time.perf_counter() - t0
        elapsed += pass_s
        pass_times.append(pass_s)
        wall += sum(r[3] for r in results)
        op_times += [r[3] for r in results]
        attempted += len(results)
        failed += sum(r[2] for r in results)
        if first is None:
            first = results
            failed_labels = [f"{op.label} {op.kind}" for op, _, bad, _ in results if bad]
        elif answers(results) != answers(first):
            problems.append(f"pass {len(pass_times)} gave other answers than pass 1")
        if smoke or elapsed + pass_s > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    answered = [(op, out) for op, out, bad, _ in first if not bad]
    problems += checks.check_pass(rc, workload, answered)
    extra = None
    if workload == "profiles":
        seen = {}
        for op, _ in answered:
            if op.label not in seen:
                seen[op.label] = len(rc.profile_monoid(op.input).elements)
        extra = {"monoid_elements": seen}
    digest = checks.digest(workload, [(op, None if bad else out) for op, out, bad, _ in first], extra)

    passes = len(pass_times)
    if tracer:
        metrics = tracer.metrics(passes)
    else:
        op_times.sort()
        metrics = {
            "ops_per_s": {"value": (attempted - failed) / wall, "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * percentile(op_times, 0.50), "unit": "ms"},
            "op_p90_ms": {"value": 1000 * percentile(op_times, 0.90), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": passes,
        "ops_per_pass": len(ops),
        "timed_s": wall,
        "elapsed_s": elapsed,
        "pass_seconds": pass_times,
        "op_ms": {f"{op.label} {op.kind}": round(1000 * secs, 3) for op, _, _, secs in first},
        "attempted": attempted,
        "failed": failed,
        "failed_ops": failed_labels,
        "problems": problems,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git": git_sha(),
        "digest": digest,
        "metrics": metrics,
    }
    if not smoke:
        os.makedirs(RESULTS, exist_ok=True)
        stem = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}")
        with open(stem + ".json", "w") as f:
            json.dump(report, f, indent=1, default=str)
        if tracer:
            tracer.dump(os.path.join(RESULTS, f"trace-{workload}-seed{seed}.json"), passes)
    return report


def print_report(r: dict):
    print(f"bench: workload={r['workload']} seed={r['seed']} trace={r['trace']} "
          f"passes={r['passes']} ops/pass={r['ops_per_pass']} timed_s={r['timed_s']:.3f}")
    print(f"bench: attempted={r['attempted']} failed={r['failed']} "
          f"failed_ops(per pass)={r['failed_ops']}")
    print(f"bench: python={r['python']} nproc={r['nproc']} git={r['git']}")
    print(f"bench: digest={r['digest']['sha256']} "
          f"summary={json.dumps(r['digest']['summary'], sort_keys=True)[:600]}")
    for p in r["problems"][:20]:
        print(f"bench: PROBLEM {p}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "rightcon", "__init__.py")):
        print(f"bench: no rightcon sources under {SRC}", file=sys.stderr)
        return 2
    # Set iteration order over strings follows the hash seed, and with it
    # which loop sets and witnesses the library meets first; a fixed seed
    # makes every run do the same work, so per-layer counts repeat exactly.
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    sys.path.insert(0, SRC)

    if args.self_test:
        import selftest

        return selftest.main(fresh_import())
    if args.smoke:
        bad = 0
        for w in [args.workload] if args.workload else workloads.WORKLOADS:
            r = run(w, args.seed, 0, bool(args.trace), smoke=True)
            print_report(r)
            bad += bool(r["problems"])
        print("bench: smoke " + ("FAILED" if bad else "passed"))
        return 1 if bad else 0
    if args.workload is None:
        ap.error("--workload is required")
    r = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(r)
    print(json.dumps({
        "correct": not r["problems"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": r["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
