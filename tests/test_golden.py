"""The output golden: every line of tests/golden/outputs.txt is recomputed
by tests/golden/make_outputs.py under two hash seeds, so a change that
moves a verdict, a witness, a certificate or a table, or that lets hash
order leak into one, fails here at its first differing line."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _first_difference(expected: list[str], got: list[str]) -> str | None:
    for i, (e, g) in enumerate(zip(expected, got)):
        if e != g:
            return f"line {i + 1}:\n  expected {e[:300]}\n  got      {g[:300]}"
    if len(expected) != len(got):
        return f"{len(expected)} lines expected, {len(got)} printed"
    return None


def test_outputs_match_the_golden_under_two_hash_seeds():
    expected = (GOLDEN / "outputs.txt").read_text(encoding="utf-8").splitlines()
    runs = {
        seed: subprocess.Popen(
            [sys.executable, str(GOLDEN / "make_outputs.py")],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONIOENCODING": "utf-8"},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            encoding="utf-8",
        )
        for seed in ("0", "1")
    }
    for seed, proc in runs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"PYTHONHASHSEED={seed}: {err}"
        difference = _first_difference(expected, out.splitlines())
        assert difference is None, f"PYTHONHASHSEED={seed}, {difference}"
