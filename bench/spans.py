"""Per-layer spans and counts, installed only for the traced run.

The wrappers replace each layer's entry points in every rightcon module
that holds them, so calls between layers pass through them; nothing in
the library changes.  A span is (name, start, end, parent); a layer's self
time is its spans' durations minus the time their child spans cover.

`semantics` calls run millions of times in one pass (the witness search
alone simulates 800k lassos for fig3_B), so they get no span record each:
their count and duration are added to the enclosing span and to the totals.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# The entry points through which the other modules and the benchmark call
# into each layer.  `model` and `fixtures` only build inputs; ops, oaf, cli
# and dfa are not measured.
LAYERS = {
    "semantics": ("lasso_run", "accepts"),
    "loops": (
        "loopable_state_sets",
        "loopable_transition_sets",
        "loopable_sets",
        "is_weak",
        "is_db",
        "is_dc",
        "alternation_measure",
    ),
    "parity": ("ParityView", "find_discrepancy"),
    "congruence": ("partition_language_equivalent", "rightcon_quotient", "state_equivalent", "classify"),
    "profiles": ("profile_monoid", "is_respective", "is_non_counting", "respective_pair_check"),
    "lab": ("random_dma", "run_experiment"),
}
LEAF = "semantics"

# (name, unit) of every per-layer metric, in BENCHMARK.json's order.
METRICS = (
    ("semantics.lasso_runs", "count"),
    ("semantics.self_s", "s"),
    ("loops.enumerations", "count"),
    ("loops.sets", "count"),
    ("loops.self_s", "s"),
    ("parity.views", "count"),
    ("parity.discrepancy_calls", "count"),
    ("parity.self_s", "s"),
    ("congruence.probe_lassos", "count"),
    ("congruence.self_s", "s"),
    ("profiles.monoid_elements", "count"),
    ("profiles.witness_lassos", "count"),
    ("profiles.self_s", "s"),
    ("lab.self_s", "s"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, child_s]
        self.stack: list[int] = []
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts: Counter = Counter()
        self._in_leaf = False
        self._undo: list = []

    # ----------------------------------------------------------- wrappers

    def _span(self, layer: str, name: str, fn, on_result=None):
        spans, stack, self_s = self.spans, self.stack, self.self_s
        clock = time.perf_counter
        full = f"{layer}.{name}"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [full, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = t1 = clock()
                stack.pop()
                self_s[layer] += (t1 - t0) - rec[4]
                if parent >= 0:
                    spans[parent][4] += t1 - t0
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _leaf(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if name == "lasso_run":
                counts["semantics.lasso_runs"] += 1
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                tracer._in_leaf = False
                tracer.self_s[LEAF] += dur
                if stack:
                    parent = spans[stack[-1]]
                    parent[4] += dur
                    counts[f"lassos_under.{parent[0].split('.')[0]}"] += 1

        return wrapper

    def _hooks(self):
        c = self.counts

        def enumeration(out):
            c["loops.enumerations"] += 1
            c["loops.sets"] += len(out)

        return {
            "loopable_state_sets": enumeration,
            "loopable_transition_sets": enumeration,
            "find_discrepancy": lambda out: c.update(["parity.discrepancy_calls"]),
            "profile_monoid": lambda out: c.update({"profiles.monoid_elements": len(out.elements)}),
        }

    def install(self):
        """Wrap every layer's entry points wherever a rightcon module holds them."""
        modules = [m for n, m in sys.modules.items() if n == "rightcon" or n.startswith("rightcon.")]
        hooks = self._hooks()
        for layer, names in LAYERS.items():
            home = sys.modules[f"rightcon.{layer}"]
            for name in names:
                orig = getattr(home, name)
                if isinstance(orig, type):
                    init = orig.__init__
                    self._undo.append((orig, "__init__", init))
                    counter = lambda out, key=f"{layer}.views": self.counts.update([key])
                    setattr(orig, "__init__", self._span(layer, name, init, counter))
                    continue
                if layer == LEAF:
                    wrapped = self._leaf(name, orig)
                else:
                    wrapped = self._span(layer, name, orig, hooks.get(name))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    # ------------------------------------------------------------ results

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics for one pass (runs repeat identical passes)."""
        c = self.counts
        values = {
            "semantics.lasso_runs": c["semantics.lasso_runs"],
            "loops.enumerations": c["loops.enumerations"],
            "loops.sets": c["loops.sets"],
            "parity.views": c["parity.views"],
            "parity.discrepancy_calls": c["parity.discrepancy_calls"],
            "congruence.probe_lassos": c["lassos_under.congruence"],
            "profiles.monoid_elements": c["profiles.monoid_elements"],
            "profiles.witness_lassos": c["lassos_under.profiles"],
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self.self_s[layer]
        out = {}
        for name, unit in METRICS:
            v = values[name] / passes
            out[name] = {"value": v if unit == "s" else round(v, 6), "unit": unit}
        return out

    def dump(self, path: str, passes: int):
        with open(path, "w") as f:
            json.dump(
                {
                    "passes": passes,
                    "columns": ["name", "start", "end", "parent"],
                    "spans": [s[:4] for s in self.spans],
                    "counts": dict(self.counts),
                    "self_s": self.self_s,
                },
                f,
            )
