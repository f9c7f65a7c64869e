"""One workload process: import, set up, warm up, then run items in a closed loop.

Started by run.py, never by hand. It prints ``READY`` on stdout as soon as
set-up is done (the parent times launch -> READY as set-up time), then, unless
``--setup-only`` is given, measures for ``--seconds`` and prints one JSON
line with the raw results. With ``--trace 1`` the workload runs twice from
the start of its seeded input stream: untraced for half of ``--seconds`` (and
at least ``TRACE_CALLS`` calls), then traced for exactly ``TRACE_CALLS``
calls, so the traced totals are fixed for a seed and code version and the
trace overhead compares the same calls.

Between untraced calls, and once after set-up, the worker times a fixed
probe loop (``machine_probe_s``) that runs no nanoheat code. The machine is
shared, and other tenants slow it by up to about 1.8x for seconds to minutes
at a time; the probe slows with it, so run.py can scale every time to a
fixed machine speed. The probe is never part of an item's time.
"""
from __future__ import annotations

import argparse
import json
import math
import pathlib
import resource
import sys
import tempfile
import traceback
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Failures listed in full; the rest are only counted.
MAX_LISTED = 20

#: Warm-up inputs are the same for every seed, so set-up time does not
#: depend on which inputs a seed draws.
WARM_UP_SEED = 20150607


#: Repetitions of a probe loop in one probe; the fastest counts.
PROBE_REPS = 3


def _log_sum_exp_rows(rows, cols, repeats):
    import numpy as np  # imported first in main(), which times the import

    x = np.linspace(-3.0, 3.0, rows * cols).reshape(rows, cols)
    for _ in range(repeats):
        y = x - x.max(axis=1, keepdims=True)
        np.exp(y, out=y)
        np.log(y.sum(axis=1))


#: Probe loops by the kind of work they stand for, both a row-wise log-sum-exp:
#: ``small`` repeats it over a 400 x 2 array, so numpy's per-call overhead and
#: the interpreter dominate, as in 2-level solves and scalar bisection;
#: ``large`` runs it once over a 200 x 4096 array (6.5 MB), bound by memory
#: and vector units, as in wide spectra. Contention from other tenants slows
#: the two kinds by different shares, so each workload is probed with its own.
PROBES = {"small": (400, 2, 20), "large": (200, 4096, 1)}


def machine_probe_s(kind) -> float:
    """Seconds the probe loop of ``kind`` takes now, fastest of ``PROBE_REPS``."""
    best = math.inf
    for _ in range(PROBE_REPS):
        t0 = perf_counter()
        _log_sum_exp_rows(*PROBES[kind])
        best = min(best, perf_counter() - t0)
    return best


def timed_loop(workload, seconds, min_calls=0, tracer=None, probe=None):
    """Closed loop: the next item starts only after the previous one returned.

    Runs for ``seconds`` and at least ``min_calls`` calls; ``head`` holds the
    items and busy time of the first ``min_calls`` calls. ``calls`` holds
    [seconds, items] per call, and with a ``probe`` kind the probe time
    taken right after it.
    """
    calls, busy_s, items, failed, failures = [], 0.0, 0, 0, []
    head = None
    deadline = perf_counter() + seconds
    while len(calls) < min_calls or perf_counter() < deadline:
        inp = workload.next_input()
        if tracer is not None:
            tracer.item += 1
        t0 = perf_counter()
        try:
            out = workload.run(inp)
            error = None
        except Exception as exc:  # a failing item is counted, never fatal
            error = f"raised {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        n = workload.items(inp)
        problems = [error] if error else workload.check(inp, out)
        items += n
        busy_s += dt
        calls.append([dt, n, machine_probe_s(probe)] if probe else [dt, n])
        if problems:
            failed += n
            if len(failures) < MAX_LISTED:
                failures.append({"inputs": inp, "problems": problems[:5]})
        if len(calls) == min_calls:
            head = {"items": items, "busy_s": busy_s}
    return {"items": items, "failed": failed, "busy_s": busy_s, "head": head,
            "calls": calls, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    import numpy as np

    t1 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import nanoheat  # noqa: F401

    t2 = perf_counter()
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](np.random.default_rng(args.seed), pathlib.Path(workdir))
        try:
            workload.warm_up(np.random.default_rng(WARM_UP_SEED))
        except Exception:  # the timed items will show the failure again
            traceback.print_exc()
        print("READY", flush=True)
        result = {"numpy_version": np.__version__, "numpy_import_s": t1 - t0,
                  "nanoheat_import_s": t2 - t1, "probe_s": machine_probe_s("small"),
                  "probe": workload.PROBE}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        if args.trace:
            from tracing import Tracer

            calls = workload.TRACE_CALLS
            workload.rewind(np.random.default_rng(args.seed))
            plain = timed_loop(workload, args.seconds / 2, calls)
            workload.rewind(np.random.default_rng(args.seed))
            tracer = Tracer()
            tracer.install()
            try:
                traced = timed_loop(workload, 0.0, calls, tracer)
            finally:
                tracer.uninstall()
            result["phases"] = [plain, traced]
            result["layers"] = tracer.metrics()
        else:
            result["phases"] = [timed_loop(workload, args.seconds, probe=workload.PROBE)]
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
