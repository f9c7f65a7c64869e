"""The benchmark's workloads: seeded inputs, one item per call, output checks.

Every workload draws its inputs from ``numpy.random.default_rng`` seeded by
the benchmark's ``--seed``; nanoheat sees only the drawn values. Ranges come
from the README and the three reference panels: gaps 1-60, cold bath 1-19.5,
hot bath 5.5-60, and the only quasi-static step they use, g = 1e-5 with the
default power family (k = 1/2, so eps = 1e-10). They neither seek out nor
avoid the small-gap, tiny-eps cancellation corner of W_ext.

A workload exposes ``rewind(rng)`` (restarts the input stream),
``warm_up(rng)`` (runs a few untimed items drawn from a stream of their own),
``next_input()`` (untimed), ``run(inp)`` (the timed call into nanoheat),
``check(inp, out)`` (untimed; returns a list of problems) and ``items(inp)``
(how many items one call completes). ``TRACE_CALLS`` is the fixed number of
calls a traced run makes; ``PROBE`` names the worker's probe loop that does
the same kind of work.
"""
from __future__ import annotations

import contextlib
import io
import math
import pathlib


import nanoheat as nh
import nanoheat.cli
from nanoheat import nano, second_laws

from tracing import rebind

HERE = pathlib.Path(__file__).resolve().parent

#: Refinement bracket every solve must reach (ln alpha), as fixed by the solver.
WIDTH_LIMIT = 1e-8

#: The README reference sweeps; their CSVs must match reference/ byte for byte.
REFERENCE_SWEEPS = {
    "energy": ["--mode", "energy", "--t-hot", "15", "--t-cold", "10",
               "--lo", "1", "--hi", "60", "--steps", "120"],
    "tcold": ["--mode", "tcold", "--t-hot", "20", "--e-min", "15",
              "--lo", "1", "--hi", "19.5", "--steps", "120"],
    "thot": ["--mode", "thot", "--t-cold", "5", "--e-min", "15",
             "--lo", "5.5", "--hi", "60", "--steps", "120"],
}


def _draw_temperatures(rng):
    t_cold = rng.uniform(1.0, 19.5)
    t_hot = rng.uniform(max(5.5, 1.05 * t_cold), 60.0)
    return t_cold, t_hot


#: The quasi-static step of the README and the reference panels; the CLI's
#: default, used with its default family eps(g) = g**2.
README_G = 1e-5


def _slack(*values) -> float:
    return 8.0 * math.ulp(max(abs(v) for v in values if math.isfinite(v)))


def check_solve(result) -> list:
    """Invariants every WorkResult must satisfy."""
    problems = []
    if not result.refinement_width <= WIDTH_LIMIT:
        problems.append(f"refinement_width {result.refinement_width!r} > {WIDTH_LIMIT}")
    finite = [v for _, v in result.curve.samples if math.isfinite(v)]
    bound = min(finite + [result.curve.w_one, result.curve.w_infinity])
    slack = _slack(result.w_ext, bound)
    if not -slack <= result.w_ext <= bound + slack:
        problems.append(f"w_ext {result.w_ext!r} outside [0, {bound!r}]")
    return problems


def check_case_label(label, indicator) -> list:
    ok = {
        nano.CASE_GT2: indicator > 2.0,
        nano.CASE_LT2: indicator < 2.0,
        nano.CASE_EQ2: abs(indicator - 2.0) <= 1e-12,
    }.get(label, False)
    return [] if ok else [f"case {label} on the wrong side of 2 (indicator {indicator!r})"]


class Workload:
    def __init__(self, rng, workdir: pathlib.Path):
        self.workdir = workdir
        self.rewind(rng)

    def rewind(self, rng):
        """Restart the input stream: the next calls get the inputs ``rng`` draws."""
        self.rng = rng
        self.position = 0


class QubitSweep(Workload):
    """README sweeps through ``cli.run_command``; an item is one CSV row.

    One pass runs the three reference sweeps (120 rows each) and
    ``SEEDED_SWEEPS`` short energy-mode sweeps with drawn temperatures and gap
    range, at the README's g and family. Every row is a 2-level solve, so per-call Python
    overhead dominates. The solver's results are captured by rebinding
    ``max_extractable_work`` so that every solve can be checked afterwards.
    """

    name = "qubit_sweep"
    PROBE = "small"
    SEEDED_SWEEPS = 24
    SEEDED_STEPS = 5
    TRACE_CALLS = 3 * (len(REFERENCE_SWEEPS) + SEEDED_SWEEPS)  # three passes

    def __init__(self, rng, workdir: pathlib.Path):
        super().__init__(rng, workdir)
        self.references = {
            mode: (HERE / "reference" / f"curve_{mode}.csv").read_bytes()
            for mode in REFERENCE_SWEEPS
        }
        self.solves = []
        solve = second_laws.max_extractable_work

        def captured(*args, **kwargs):
            result = solve(*args, **kwargs)
            self.solves.append(result)
            return result

        rebind("max_extractable_work", solve, captured)

    def warm_up(self, rng):
        self.run(self._seeded(rng))

    def next_input(self):
        slot = self.position % (len(REFERENCE_SWEEPS) + self.SEEDED_SWEEPS)
        self.position += 1
        if slot < len(REFERENCE_SWEEPS):
            mode = list(REFERENCE_SWEEPS)[slot]
            return {"reference": mode, "steps": 120, "argv": REFERENCE_SWEEPS[mode]}
        return self._seeded(self.rng)

    def _seeded(self, rng):
        t_cold, t_hot = _draw_temperatures(rng)
        lo = rng.uniform(1.0, 30.0)
        hi = rng.uniform(lo + 5.0, 60.0)
        argv = ["--mode", "energy", "--t-hot", repr(t_hot), "--t-cold", repr(t_cold),
                "--lo", repr(lo), "--hi", repr(hi), "--steps", str(self.SEEDED_STEPS),
                "--g", repr(README_G)]
        return {"reference": None, "steps": self.SEEDED_STEPS, "argv": argv}

    def items(self, inp):
        return inp["steps"]

    def run(self, inp):
        self.solves.clear()
        out = self.workdir / f"{inp['reference'] or 'seeded'}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = nanoheat.cli.run_command(["sweep", *inp["argv"], "--output", str(out)])
        return code, out

    def check(self, inp, out):
        code, path = out
        if code != 0:
            return [f"exit code {code}"]
        problems = [p for result in self.solves for p in check_solve(result)]
        data = path.read_bytes()
        if inp["reference"]:
            if data != self.references[inp["reference"]]:
                problems.append(f"curve_{inp['reference']}.csv differs from the reference")
            return problems
        lines = data.decode("utf-8").splitlines()
        if lines[0] != ",".join(nanoheat.cli.SWEEP_HEADER) or len(lines) != inp["steps"] + 1:
            return problems + ["malformed sweep CSV"]
        argv = dict(zip(inp["argv"][::2], inp["argv"][1::2]))
        beta_c, beta_h = 1.0 / float(argv["--t-cold"]), 1.0 / float(argv["--t-hot"])
        for line in lines[1:]:
            cells = line.split(",")
            e_gap, label, w_ext = float(cells[0]), cells[4], float(cells[5])
            problems += check_case_label(label, nh.tanh_indicator(e_gap, beta_c, beta_h))
            if not w_ext >= 0.0:
                problems.append(f"negative w_ext {w_ext!r} at E={e_gap!r}")
        return problems


class WideSpectrum(Workload):
    """Composed 12-qubit baths (4096 levels) as quasi-static instances.

    An item builds the instance, solves it, and checks feasibility forward
    (cold bath relaxing toward the hot one: feasible) and backward
    (infeasible). Each 400 x 4096 grid temporary is about 13 MB, above a
    core's L2 and inside a large shared L3, and log-domain arithmetic over
    the levels dominates, so per-call overhead barely matters here.
    """

    name = "wide_spectrum"
    PROBE = "large"
    QUBITS = 12
    TRACE_CALLS = 40

    def warm_up(self, rng):
        self.run(self._draw(rng))

    def next_input(self):
        return self._draw(self.rng)

    def _draw(self, rng):
        t_cold, t_hot = _draw_temperatures(rng)
        gaps = tuple(float(x) for x in rng.uniform(1.0, 60.0, self.QUBITS))
        return {"gaps": gaps, "t_cold": t_cold, "t_hot": t_hot, "g": README_G,
                "eps": nh.EpsilonFamily.power().eval(README_G)}

    def items(self, inp):
        return 1

    def run(self, inp):
        spectrum = nh.QubitBath(inp["gaps"]).spectrum()
        inst = nh.quasi_static_instance(
            spectrum, 1.0 / inp["t_cold"], 1.0 / inp["t_hot"], inp["g"], inp["eps"]
        )
        result = nh.max_extractable_work(inst)
        forward = nh.transition_feasible(inst.cold_initial, inst.cold_final, inst.beta_h)
        backward = nh.transition_feasible(inst.cold_final, inst.cold_initial, inst.beta_h)
        return result, forward, backward

    def check(self, inp, out):
        result, forward, backward = out
        problems = check_solve(result)
        if not forward.feasible:
            problems.append("forward transition reported infeasible")
        if backward.feasible:
            problems.append("backward transition reported feasible")
        return problems


class RegimeMap(Workload):
    """Rows of a regime map: cells (E, T_cold, T_hot); only ``nano`` runs.

    An item is one cell; a call computes one map row of ``CELLS_PER_ROW``
    cells that share their temperatures, with gaps drawn across the README
    range, so most rows cross Omega = 1 and indicator = 2. Cells with Omega > 1 cost about twice as much as the
    others (``estimate_nu`` bisects only there), so single-cell latencies are
    bimodal; a row's mean per-cell latency is not, which keeps its median
    steady. Each cell runs ``classify_regime`` and ``estimate_nu``, then
    ``infimum_location`` at a cutoff drawn as in acceptance test c07:
    uniform on [max(0.8, nu + 0.01), 0.999]. The draw is a fraction of that
    interval fixed in advance, so the inputs depend on the seed alone.
    """

    name = "regime_map"
    PROBE = "small"
    CELLS_PER_ROW = 8
    TRACE_CALLS = 150

    def warm_up(self, rng):
        self.run(self._draw(rng))

    def next_input(self):
        return self._draw(self.rng)

    def _draw(self, rng):
        t_cold, t_hot = _draw_temperatures(rng)
        return {"t_cold": t_cold, "t_hot": t_hot,
                "e": [float(x) for x in rng.uniform(1.0, 60.0, self.CELLS_PER_ROW)],
                "u": [float(x) for x in rng.uniform(size=self.CELLS_PER_ROW)]}

    def items(self, inp):
        return len(inp["e"])

    @staticmethod
    def _cutoff_floor(nu):
        return max(0.8, nu + 0.01)

    def run(self, inp):
        beta_c, beta_h = 1.0 / inp["t_cold"], 1.0 / inp["t_hot"]
        cells = []
        for e, u in zip(inp["e"], inp["u"]):
            cls = nh.classify_regime(e, beta_c, beta_h)
            nu = nh.estimate_nu(e, beta_c, beta_h)
            lo = min(self._cutoff_floor(nu), 0.999)
            kappa_bar = lo + u * (0.999 - lo)
            cells.append((cls, nu, kappa_bar, nh.infimum_location(e, beta_c, beta_h, kappa_bar)))
        return cells

    def check(self, inp, out):
        problems = []
        for e, (cls, nu, kappa_bar, location) in zip(inp["e"], out):
            problems += check_case_label(cls.g_case, cls.tanh_indicator)
            if cls.carnot_achievable != (cls.omega <= 1.0):
                problems.append(f"carnot_achievable={cls.carnot_achievable} at omega {cls.omega!r}")
            # the c07 identity is guaranteed only above the regime's threshold
            if kappa_bar >= self._cutoff_floor(nu) and location.is_infinity != (cls.omega > 1.0):
                problems.append(f"E={e!r}: infimum at {location!r} for kappa_bar "
                                f"{kappa_bar!r}, omega {cls.omega!r}")
        return problems


WORKLOADS = {w.name: w for w in (QubitSweep, WideSpectrum, RegimeMap)}
