"""Run a nanoheat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload qubit_sweep --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run it from the root of a source checkout; nanoheat is imported from
``src/``, nothing is installed. Each workload runs in worker processes with
BLAS and OpenMP pinned to one thread: ``SETUP_LAUNCHES`` processes that only
set up (for the set-up time median) and then one that measures. End-to-end
times are given at a fixed reference machine speed, measured by a probe loop
the workers time between items (see ``at_reference_speed``). With
``--trace 0`` the last line of stdout is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
The lines before it give every metric with its unit and sample count, any
failed item with its inputs, and a machine record. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# the parent never imports workloads.py, which imports nanoheat
WORKLOADS = ("qubit_sweep", "wide_spectrum", "regime_map")
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Set-up-only worker launches per run; with the measuring one they give the
#: set-up time median.
SETUP_LAUNCHES = 9

#: The measuring worker's calls are grouped into windows of at least this much
#: busy time; a window's machine speed is the median of its probe times.
WINDOW_S = 2.0

#: About the lowest time of each probe loop (``worker.PROBES``) seen over a
#: few minutes on the machine the benchmark was written on (a 2-vCPU KVM guest
#: on an Intel Xeon host, Python 3.11, numpy 2.4). End-to-end times are
#: scaled to this machine speed.
REFERENCE_PROBE_S = {"small": 0.6e-3, "large": 4.5e-3}


def at_reference_speed(seconds, probe_s, kind):
    """``seconds`` measured while the ``kind`` probe took ``probe_s``, at reference speed.

    Other tenants of the shared machine slow it by up to about 1.8x for
    seconds to minutes at a time, and every timing with it; a probe loop
    doing the same kind of work, timed between items, slows alike. Scaling
    each time by ``REFERENCE_PROBE_S[kind] / probe_s`` takes that out. The
    probe runs no nanoheat code, so a change that slows nanoheat, and not the
    machine, reads slower by the same share. The raw figures are printed
    beside the scaled ones.
    """
    return seconds * REFERENCE_PROBE_S[kind] / probe_s


#: Wall-clock budget of one workload beyond ``--seconds``: the set-up
#: launches and, with ``--trace 1``, the traced calls.
WORKLOAD_ALLOWANCE_S = 90.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _launch(argv, env, deadline):
    """Start a worker; return (seconds from launch to READY, its JSON result)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        ready_line = proc.stdout.readline()
        ready_s = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready_line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} failed (exit code {proc.returncode})")
    return ready_s, json.loads(rest.strip().splitlines()[-1])


def windows(calls):
    """Consecutive calls grouped into windows of at least ``WINDOW_S`` busy time."""
    out, current, busy = [], [], 0.0
    for call in calls:
        current.append(call)
        busy += call[0]
        if busy >= WINDOW_S:
            out.append(current)
            current, busy = [], 0.0
    if current:  # a short tail joins the last window
        if out:
            out[-1].extend(current)
        else:
            out.append(current)
    return out


def _p90(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def run_workload(name, seed, seconds, trace, env):
    """Returns (the result object for the last line, report lines, numpy version)."""
    deadline = perf_counter() + seconds + WORKLOAD_ALLOWANCE_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    launches = []  # (seconds from launch to READY, the worker's result)
    for _ in range(SETUP_LAUNCHES):
        launches.append(_launch(common + ["--setup-only"], env, deadline))
    launches.append(_launch(common + ["--trace", str(trace)], env, deadline))
    result = launches[-1][1]
    workers = [w for _, w in launches]

    phases = result["phases"]
    attempted = sum(p["items"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    lines = [f"== {name}  seed={seed}  seconds={seconds}  trace={trace} =="]
    if trace:
        plain, traced = phases
        # the traced calls are the first calls of the untraced phase, rerun
        rate = [plain["head"]["items"] / plain["head"]["busy_s"], traced["items"] / traced["busy_s"]]
        metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in result["layers"].items()}
        metrics["numpy.import_s"] = {
            "value": statistics.median(w["numpy_import_s"] for w in workers), "unit": "s"}
        metrics["nanoheat.import_s"] = {
            "value": statistics.median(w["nanoheat_import_s"] for w in workers), "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": 1.0 - rate[1] / rate[0], "unit": "fraction"}
        metrics["trace.items"] = {"value": traced["items"], "unit": "count"}
        notes = {"trace.overhead_frac": f"traced {rate[1]:.4g} vs untraced {rate[0]:.4g} items/s",
                 "trace.items": f"{len(traced['calls'])} calls"}
    else:
        (phase,) = phases
        calls, scaled = phase["calls"], []  # scaled: [seconds at reference speed, items]
        for window in windows(calls):
            probe_s = statistics.median(c[2] for c in window)
            scaled += [[at_reference_speed(c[0], probe_s, result["probe"]), c[1]]
                       for c in window]
        items = phase["items"]
        lat, raw_lat = ([c[0] * 1e3 / c[1] for c in cs] for cs in (scaled, calls))
        setups = [at_reference_speed(s, w["probe_s"], "small") for s, w in launches]
        raw_setups = [s for s, _ in launches]
        probe_ms = statistics.median(c[2] for c in calls) * 1e3
        metrics = {
            "items_per_s": {"value": items / sum(c[0] for c in scaled), "unit": "1/s"},
            "item_ms_p50": {"value": statistics.median(lat), "unit": "ms"},
            "item_ms_p90": {"value": _p90(lat), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        notes = {
            "items_per_s": f"{items} items; raw {items / phase['busy_s']:.4g} "
                           f"in {phase['busy_s']:.3f} s busy, "
                           f"{result['probe']} probe median {probe_ms:.3f} ms",
            "item_ms_p50": f"{len(lat)} samples; raw {statistics.median(raw_lat):.4g}",
            "item_ms_p90": f"{len(lat)} samples, {len(lat) - int(0.9 * len(lat))} beyond; "
                           f"raw {_p90(raw_lat):.4g}",
            "setup_s": f"median of {len(setups)} launches; raw {statistics.median(raw_setups):.4g}",
        }
    for key, m in metrics.items():
        lines.append(f"  {key:<48} {m['value']:<14.6g} {m['unit']:<14} {notes.get(key, '')}")
    lines.append(
        f"  {'error_rate':<48} {failed / attempted if attempted else 0.0:<14.6g} "
        f"{'fraction':<14} {failed} of {attempted} items"
    )
    for phase in phases:
        for failure in phase["failures"]:
            lines.append("  FAIL " + json.dumps(failure))
    out = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
           "failed": failed, "metrics": metrics}
    return out, lines, result["numpy_version"]


def _cpu_record():
    record = {}
    if shutil.which("lscpu"):
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in text.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("Model name", "L1d cache", "L2 cache", "L3 cache"):
                record[key.strip()] = value.strip()
    if not record:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() in ("model name", "cache size"):
                    record.setdefault(key.strip(), value.strip())
    return record


def _git_commit():
    """HEAD of the checkout, read from .git directly; a plain export has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(seed, numpy_version):
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": _cpu_record(),
        "thread_env": THREAD_PINS,
        "seed": seed,
        "commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nanoheat" / "__init__.py").is_file():
        print(f"perfbench: no nanoheat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src" / "nanoheat", quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    env = {**os.environ, **THREAD_PINS}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], lines, numpy_version = run_workload(
                name, args.seed, args.seconds, args.trace, env
            )
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("machine " + json.dumps(machine_record(args.seed, numpy_version)))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
