"""Self-test of the checkers: genuine answers pass, planted wrong ones fail.

Run through `python3 bench/run.py --self-test`; exits non-zero unless every
planted wrong answer is rejected with the problem it plants.
"""

from __future__ import annotations

import dataclasses

import checks
from workloads import Op


def _cases(rc):
    """(name, checker, genuine answer, planted answer, phrase the problem must hold)."""
    lab = rc.lab

    fig3_m = rc.fixture("fig3_M")
    c = rc.classify(fig3_m)
    flipped = dataclasses.replace(c, flags={**c.flags, "IB": not c.flags["IB"]})
    yield ("flipped flag", lambda out: checks.check_classify("catalog/fig3_M", fig3_m, out),
           c, flipped, "flag IB")

    fgaxa = rc.fixture("fgaxa")
    c = rc.classify(fgaxa)
    kind, pos, neg = c.counterexamples["IT"]
    same = dataclasses.replace(c, counterexamples={**c.counterexamples, "IT": (kind, pos, pos)})
    yield ("conflict pair with equal membership",
           lambda out: checks.check_classify("catalog/fgaxa", fgaxa, out),
           c, same, "opposite membership")

    # for fig7_bowtie, unlike aab, v^(n+1) and v^(n+2) get the same verdict
    bowtie = rc.fixture("fig7_bowtie")
    verdict, (u, v, w, n) = rc.is_non_counting(bowtie)
    yield ("non-counting witness with n off by one",
           lambda out: checks.check_non_counting("catalog/fig7_bowtie", bowtie, out),
           (verdict, (u, v, w, n)), (verdict, (u, v, w, n + 1)), "equal verdicts")

    cfg = rc.ExperimentConfig(sizes=(5,), trials_per_size=1, seed="bench/0")
    exact = rc.run_experiment(cfg)
    sampled = rc.run_experiment(dataclasses.replace(cfg, mode="sampled"))
    ops = [Op("trial/self", "exact", cfg), Op("trial/self", "sampled", dataclasses.replace(cfg, mode="sampled"))]
    row = lab.SizeResult(5, 1, 0, 1)
    planted = [(ops[0], lab.ExperimentReport("exact", cfg.seed, (row,))),
               (ops[1], lab.ExperimentReport("sampled", cfg.seed, (lab.SizeResult(5, 1, 1, 0),)))]
    yield ("sampled isomorphic count above the exact one",
           lambda out: checks.check_experiment(rc, out),
           list(zip(ops, (exact, sampled))), planted, "isomorphic when sampled")


def main(rc) -> int:
    bad = 0
    for name, check, genuine, planted, phrase in _cases(rc):
        ok = check(genuine)
        rejected = [p for p in check(planted) if phrase in p]
        status = "ok" if not ok and rejected else "FAIL"
        bad += status != "ok"
        print(f"self-test: {status} {name}: genuine answer problems={ok}, "
              f"planted answer rejected={rejected[:1]}")
    print("self-test: " + ("FAILED" if bad else "every planted wrong answer was rejected"))
    return 1 if bad else 0
