"""Spans around calls into nanoheat's public functions, recorded from outside.

A function is traced by rebinding its name in every ``nanoheat`` module
namespace that holds it. That matters for from-imports: ``nano`` and ``cli``
keep their own bindings of ``max_extractable_work`` and
``quasi_static_instance``, and ``second_laws`` its own ``thermal_state`` and
``logsumexp``, so patching the defining module alone would miss those calls.

Spans stay in memory (flat arrays) until the run ends; self times and the
per-solve ratios are derived from them afterwards. The tracer keeps one
parent stack, so it assumes the traced calls run on one thread, which holds
for every workload (sweeps run with the default ``--jobs 1``).
"""
from __future__ import annotations

import importlib
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

#: (module, function) pairs that get a span, grouped by layer.
TARGETS = (
    ("thermo", "thermal_state"),
    ("thermo", "logsumexp"),
    ("thermo", "renyi_divergence"),
    ("thermo", "kl_divergence_and_variance"),
    ("second_laws", "max_extractable_work"),
    ("second_laws", "work_curve_values"),
    ("second_laws", "transition_feasible"),
    ("macro", "quasi_static_instance"),
    ("nano", "classify_regime"),
    ("nano", "estimate_nu"),
    ("nano", "infimum_location"),
    ("nano", "g_function"),
    ("nano", "gamma"),
    ("cli", "run_command"),
    ("cli", "write_csv"),
)

LAYERS = ("thermo", "second_laws", "macro", "nano", "cli")


def rebind(name, original, replacement) -> int:
    """Point every nanoheat module binding ``name`` -> ``original`` at ``replacement``."""
    count = 0
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "nanoheat" and not mod_name.startswith("nanoheat."):
            continue
        if getattr(module, name, None) is original:
            setattr(module, name, replacement)
            count += 1
    return count


def _size(values) -> int:
    size = getattr(values, "size", None)
    return int(size) if size is not None else len(values)


class Tracer:
    """Records one span per traced call: name, start, end, parent span, item id."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in TARGETS]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.item_id = array("q")
        self.item = -1  # set by the workload loop before each item
        self.errors = Counter()  # name id -> calls that raised
        self.counts = Counter()  # quantities recorded at the boundaries
        self.width_max = 0.0
        self._stack = [-1]
        self._installed = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for nid, (mod, fn) in enumerate(TARGETS):
            module = importlib.import_module(f"nanoheat.{mod}")
            original = getattr(module, fn)
            wrapper = self._wrap(nid, original, getattr(self, f"_note_{fn}", None))
            if rebind(fn, original, wrapper) == 0:
                raise RuntimeError(f"nanoheat.{mod}.{fn} not found for tracing")
            self._installed.append((fn, original, wrapper))

    def uninstall(self) -> None:
        for name, original, wrapper in reversed(self._installed):
            rebind(name, wrapper, original)
        self._installed.clear()

    def _wrap(self, nid, fn, note):
        start, end, parent, name_id, item_id = (
            self.start, self.end, self.parent, self.name_id, self.item_id
        )
        stack, errors = self._stack, self.errors

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            name_id.append(nid)
            item_id.append(self.item)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[nid] += 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    # -- quantities recorded at the boundaries (kept O(1) where possible) ---

    def _note_logsumexp(self, args, kwargs, result):
        values = args[0] if args else kwargs["values"]
        self.counts["logsumexp.elements"] += _size(values)

    def _note_work_curve_values(self, args, kwargs, result):
        inst = args[0] if args else kwargs["inst"]
        orders = _size(result)
        self.counts["curve.orders"] += orders
        self.counts["curve.unbounded"] += int(np.count_nonzero(np.isinf(result)))
        # both cold states are summed over the full spectrum at every order
        self.counts["curve.order_levels"] += orders * 2 * inst.spectrum.size

    def _note_max_extractable_work(self, args, kwargs, result):
        self.width_max = max(self.width_max, result.refinement_width)

    def _note_write_csv(self, args, kwargs, result):
        path = args[2] if len(args) > 2 else kwargs["path"]
        self.counts["write_csv.bytes"] += os.path.getsize(path)

    # -- derived metrics -----------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        n = len(self.start)
        names = np.frombuffer(self.name_id, dtype=np.int64) if n else np.zeros(0, np.int64)
        parents = np.frombuffer(self.parent, dtype=np.int64) if n else np.zeros(0, np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start) if n else np.zeros(0)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child[:n]
        k = len(TARGETS)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_time, minlength=k)
        incl_s = np.bincount(names, weights=dur, minlength=k)

        ids = {name: i for i, name in enumerate(self.names)}
        inside = self._counts_inside(
            names.tolist(),
            parents.tolist(),
            {
                ids["second_laws.max_extractable_work"]: (
                    ids["second_laws.work_curve_values"],
                    ids["thermo.thermal_state"],
                ),
                ids["nano.classify_regime"]: (ids["nano.g_function"],),
                ids["nano.estimate_nu"]: (ids["nano.gamma"],),
            },
        )

        def per(name, outer):
            outer_calls = int(calls[ids[outer]])
            return inside[(ids[outer], ids[name])] / outer_calls if outer_calls else 0.0

        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.self_ms"] = (float(self_s[i]) * 1e3, "ms")
            out[f"{name}.incl_ms"] = (float(incl_s[i]) * 1e3, "ms")
        order_levels = self.counts["curve.order_levels"]
        curve_incl = float(incl_s[ids["second_laws.work_curve_values"]])
        orders = self.counts["curve.orders"]
        out.update(
            {
                "second_laws.curve_calls_per_solve": (
                    per("second_laws.work_curve_values", "second_laws.max_extractable_work"),
                    "calls/solve",
                ),
                "thermo.thermal_states_per_solve": (
                    per("thermo.thermal_state", "second_laws.max_extractable_work"),
                    "calls/solve",
                ),
                "second_laws.work_curve_values.order_levels": (order_levels, "count"),
                "second_laws.work_curve_values.ns_per_order_level": (
                    curve_incl * 1e9 / order_levels if order_levels else 0.0,
                    "ns",
                ),
                "second_laws.unbounded_order_frac": (
                    self.counts["curve.unbounded"] / orders if orders else 0.0,
                    "fraction",
                ),
                "second_laws.refinement_width_max": (self.width_max, "ln-alpha"),
                "thermo.logsumexp.elements": (self.counts["logsumexp.elements"], "count"),
                "nano.g_function_calls_per_classify": (
                    per("nano.g_function", "nano.classify_regime"),
                    "calls/classify",
                ),
                "nano.gamma_calls_per_estimate_nu": (
                    per("nano.gamma", "nano.estimate_nu"),
                    "calls/estimate",
                ),
                "cli.write_csv.bytes": (self.counts["write_csv.bytes"], "bytes"),
                "trace.spans": (n, "count"),
            }
        )
        for layer in LAYERS:
            out[f"{layer}.errors"] = (
                sum(c for nid, c in self.errors.items() if self.names[nid].startswith(layer + ".")),
                "count",
            )
        return out

    @staticmethod
    def _counts_inside(names, parents, wanted):
        """Count spans of each inner name that have an ``outer`` span as an ancestor.

        ``wanted`` maps an outer name id to the inner name ids to count. Parents
        always precede their children in the span arrays, so one forward pass
        can carry the nearest enclosing outer span down the tree.
        """
        outer_of = [-1] * len(names)
        counts = Counter()
        for i, (nid, par) in enumerate(zip(names, parents)):
            enclosing = outer_of[par] if par >= 0 else -1
            if enclosing >= 0:
                counts[(enclosing, nid)] += 1
            outer_of[i] = nid if nid in wanted else enclosing
        return {
            (outer, inner): counts[(outer, inner)]
            for outer, inners in wanted.items()
            for inner in inners
        }
