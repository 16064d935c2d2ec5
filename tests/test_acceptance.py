"""End-to-end acceptance checks.  Each test prints one pass/fail line."""

import time

from rightcon import (
    ExperimentConfig,
    classify,
    complement,
    fixture,
    is_non_counting,
    is_respective,
    random_dma,
    respective_pair_check,
    run_experiment,
    wagner_family,
)
from rightcon import alternation_measure

from helpers import (
    suite_boolean_combos,
    suite_classify_vs_exhaustive,
    suite_complement_flip,
    suite_flag_laws,
    suite_refines,
    suite_respective_bruteforce,
)


def _report(num, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {num}: {status}")
    assert not problems, f"criterion {num}: {problems}"


def _timed_classify(name, problems, budget=1.0):
    t0 = time.monotonic()
    c = classify(fixture(name))
    if time.monotonic() - t0 >= budget:
        problems.append(f"{name} classification exceeded {budget}s")
    return c


def test_criterion_1_fixture_classifications():
    problems = []

    def check(name, cond, what):
        if not cond:
            problems.append(f"{name}: {what}")

    for name in ("fig3_M", "fig3_P"):
        c = _timed_classify(name, problems)
        check(name, c.index == 3, "index != 3")
        check(name, c.flags["IM"] and c.flags["IP"], "not IM and IP")
        check(name, not c.flags["IB"] and not c.flags["IC"], "IB or IC")
        check(name, not c.flags["weak"], "weak")

    c = _timed_classify("fig3_B", problems)
    check("fig3_B", c.index == 4 and c.flags["IB"] and not c.flags["dc"], "flags")
    c = _timed_classify("fig3_C", problems)
    check("fig3_C", c.flags["IC"] and not c.flags["db"], "flags")
    c = _timed_classify("fig3_Mprime", problems)
    check("fig3_Mprime", c.flags["IM"] and not c.flags["IP"], "flags")
    c = _timed_classify("fig3_T", problems)
    check("fig3_T", c.flags["IT"] and not c.flags["IM"], "flags")
    check("fig3_T", is_respective(fixture("fig3_T"))[0], "not respective")
    for name in ("fig2_B", "fig2_M"):
        c = _timed_classify(name, problems)
        check(name, c.index == 1 and c.trivial, "not trivial")
    c = _timed_classify("L1", problems)
    check("L1", c.index == 4, "index != 4")
    c = _timed_classify("L2", problems)
    check("L2", c.index == 1, "index != 1")
    c = _timed_classify("fgaxa", problems)
    check("fgaxa", c.index == 1 and not c.flags["IT"], "flags")
    check("fgaxa", is_non_counting(fixture("fgaxa"))[0], "not noncounting")

    _report(1, problems)


def test_criterion_2_respectiveness_witnesses():
    problems = []

    def check(cond, what):
        if not cond:
            problems.append(what)

    bbad = fixture("fig5_Bbad")
    ok, witness = is_respective(bbad)
    check(not ok, "fig5_Bbad respective")
    check(
        not respective_pair_check(bbad, "", "1012"),
        "fig5_Bbad pair (eps, 1012) not flagged",
    )
    check(
        witness is not None and not respective_pair_check(bbad, *witness),
        "fig5_Bbad witness passes pair check",
    )

    check(not is_respective(fixture("fig5_Cbad"))[0], "fig5_Cbad respective")

    dbad = fixture("fig5_Dbad")
    c = classify(dbad)
    check(c.flags["IB"] and c.flags["IC"], "fig5_Dbad not IB and IC")
    check(not is_respective(dbad)[0], "fig5_Dbad respective")

    check(is_respective(fixture("fig6_P"))[0], "fig6_P not respective")
    co = complement(fixture("fig6_P"))
    ok, witness = is_respective(co)
    check(not ok, "complement(fig6_P) respective")
    check(
        witness is not None and tuple(witness[1]) == ("b",),
        f"complement(fig6_P) cycle witness is {witness}, expected b",
    )
    check(
        witness is not None and not respective_pair_check(co, *witness),
        "complement(fig6_P) witness passes pair check",
    )

    _report(2, problems)


def test_criterion_3_noncounting():
    problems = []
    aab = fixture("aab")
    if is_non_counting(aab)[0]:
        problems.append("aab noncounting")
    if not is_respective(aab)[0]:
        problems.append("aab not respective")
    if not is_non_counting(fixture("fgaxa"))[0]:
        problems.append("fgaxa not noncounting")
    for i in range(50):
        a = random_dma(4, seed=f"nc/{i}")
        if is_non_counting(a)[0] and not is_respective(a)[0]:
            problems.append(f"random {i}: noncounting but not respective")
    _report(3, problems)


def test_criterion_4_wagner_family():
    problems = []
    t0 = time.monotonic()
    for n in range(4):
        for m in range(4):
            a = wagner_family(n, m, "+")
            c = classify(a)
            meas = alternation_measure(a)
            ok = (
                c.index == (n + 1) * (m + 1)
                and c.flags["IM"] and c.flags["IP"] and c.flags["IT"]
                and is_respective(a)[0]
                and meas.max_alternations == n
                and meas.polarity == "+"
            )
            if not ok:
                problems.append(
                    f"(n={n}, m={m}): index={c.index}, flags={c.flags}, "
                    f"alt={meas.max_alternations}{meas.polarity}"
                )
    elapsed = time.monotonic() - t0
    if elapsed >= 10:
        problems.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(4, problems)


def test_criterion_5_experiment_reproduction():
    problems = []
    t0 = time.monotonic()
    sizes = tuple(range(5, 11))
    exact = run_experiment(
        ExperimentConfig(sizes=sizes, trials_per_size=100, seed=1)
    )
    for row in exact.rows:
        frac = row.isomorphic / row.trials
        if not 0.75 <= frac <= 1.00:
            problems.append(f"exact size {row.size}: fraction {frac}")
    sampled = run_experiment(
        ExperimentConfig(
            sizes=sizes, trials_per_size=100, seed=1,
            mode="sampled", samples=100000,
        )
    )
    for e_row, s_row in zip(exact.rows, sampled.rows):
        if s_row.isomorphic > e_row.isomorphic:
            problems.append(
                f"size {s_row.size}: sampled {s_row.isomorphic} "
                f"> exact {e_row.isomorphic}"
            )
    # the seeded counts themselves, so that a speed-up that moves one fails
    for report, expected in (
        (exact, (83, 92, 88, 95, 95, 94)),
        (sampled, (83, 92, 88, 94, 94, 90)),
    ):
        counts = tuple(row.isomorphic for row in report.rows)
        if counts != expected:
            problems.append(f"{report.mode} counts {counts} != {expected}")
    elapsed = time.monotonic() - t0
    if elapsed >= 300:
        problems.append(f"runtime {elapsed:.1f}s >= 300s")
    _report(5, problems)


def test_criterion_6_property_suites():
    problems = []
    for label, suite in (
        ("complement flip", suite_complement_flip),
        ("boolean combos", suite_boolean_combos),
        ("refines quotient", suite_refines),
        ("flag laws", suite_flag_laws),
        ("classify vs exhaustive", suite_classify_vs_exhaustive),
        ("respective brute force", suite_respective_bruteforce),
    ):
        bad = suite()
        if bad:
            problems.append(f"{label}: {len(bad)} violations, e.g. {bad[0]}")
    _report(6, problems)
