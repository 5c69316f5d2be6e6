"""Benchmark of the fluxqubit calibrate -> QPT and RB/PB stack.

Run from the repository root:

    python3 perfbench/run.py --workload demux_calibrate_qpt --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each workload runs in its own single-threaded worker process (worker.py),
which imports ``fluxqubit`` from ``src/`` of this checkout.  Every time is
reported in units of a fixed reference kernel timed in the same process next
to it (reference.py), so that the shared host's speed drift cancels.
Set-up time is the median over several fresh processes of the time from
process start to the end of set-up.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A pass that fails an output check, raises, or
returns answers that differ bit for bit from the first pass counts as
failed.

See README.md for the workloads, the metrics and the seed-state numbers.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END_METRICS, PER_LAYER_METRICS
from reference import REFERENCE_UNIT_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("demux_calibrate_qpt", "demux_qpt_t1t2", "rb_pb_coherent", "rb_stability_depol")
SETUP_PROBES = 4       # set-up-only processes timed, after one discarded warm-up
RUN_TIMEOUT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result (missing sources, crashed worker)."""


def _worker_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(worker_args, deadline):
    """Run one worker; returns (seconds from spawn to READY, last stdout line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *worker_args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(worker_args)} ran past the time limit")
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(worker_args)} failed (exit code {proc.returncode})")
    lines = out.strip().splitlines()
    return ready_s, lines[-1] if lines else ""


def _median(values):
    return statistics.median(values) if values else 0.0


def _scaled(seconds, units, which=0):
    """Seconds in reference units: seconds / (median unit time) * REFERENCE_UNIT_S.

    `units` are the (wall, CPU) times of the reference units timed next to
    the measurement; `which` picks wall (0) or CPU (1) time.
    """
    return seconds / statistics.median(u[which] for u in units) * REFERENCE_UNIT_S


def _high_percentile(values):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    q = int(100 * (1 - 10 / n))
    return {"q": q, "value": statistics.quantiles(values, n=100, method="inclusive")[q - 1]}


def run_workload(name, seed, seconds, trace, scale):
    """Measure one workload; returns (result line dict, detail dict)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", name, "--seed", str(seed), "--scale", scale]
    setup_samples = []
    for probe in range(0 if trace else SETUP_PROBES + 1):  # traced runs report no setup_s
        ready_s, line = _spawn(common + ["--seconds", "0", "--setup-only"], deadline)
        if probe:
            setup_samples.append(_scaled(ready_s, json.loads(line)["reference"]))
    worker_args = common + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        worker_args += ["--spans-out", str(out_dir / f"spans-{name}-seed{seed}.json")]
    ready_s, line = _spawn(worker_args, deadline)
    report = json.loads(line)
    setup_samples.append(_scaled(ready_s, report["setup_reference"]))
    result, detail = summarize(report, setup_samples, trace)
    detail.update(workload=name, seed=seed, scale=scale)
    return result, detail


def summarize(report, setup_samples, trace):
    """Turn a worker report into the result line and the detail record.

    A pass fails when an output check failed, it raised, or its answers
    differ bit for bit from the first pass's.
    """
    passes = report["passes"]
    reference = passes[0]["fingerprint"]
    failed = [p for p in passes if p["failures"] or p["fingerprint"] != reference]
    failures = sorted({msg for p in passes for msg in p["failures"]})
    if any(p["fingerprint"] != reference for p in passes):
        failures.append("answers differ between passes of one run")
    answers = next((p["answers"] for p in passes if p["answers"] is not None), None)
    untraced = [p for p in passes if not p["traced"]]
    walls = [_scaled(p["wall_s"], p["reference"]) for p in untraced]
    reference_s = _median([u[0] for p in passes for u in p["reference"]])

    if trace:
        values = {name: _median([layer[name] for layer in report["layers"]])
                  for name in report["layers"][0]}
        values.update(report["setup"])
        values["trace.wall_s"] = _median(
            [_scaled(p["wall_s"], p["reference"]) for p in passes if p["traced"]])
        values["trace.overhead_s"] = values["trace.wall_s"] - _median(walls)
        values["host.reference_unit_s"] = reference_s
        table = PER_LAYER_METRICS
    else:
        values = {
            "setup_s": _median(setup_samples),
            "wall_s": _median(walls),
            "cpu_s": _median([_scaled(p["cpu_s"], p["reference"], 1) for p in untraced]),
            "peak_rss_mb": report["peak_rss_mb"],
            "qpt_infidelity_mean": answers["gate_infidelity_mean"] if answers else None,
        }
        table = END_TO_END_METRICS
    result = {"correct": not failed, "attempted": len(passes), "failed": len(failed),
              "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table}}
    detail = {
        "trace": trace, "env": report["env"], "answers": answers, "failures": failures,
        "wall_s": {"median": _median(walls), "max": max(walls, default=0.0),
                   "high_percentile": _high_percentile(walls), "passes": len(walls)},
        "raw_wall_s": {"median": _median([p["wall_s"] for p in untraced]),
                       "max": max((p["wall_s"] for p in untraced), default=0.0)},
        "reference_unit_s": {"median": reference_s, "nominal": REFERENCE_UNIT_S},
        "setup_samples_s": setup_samples, "setup": report["setup"],
    }
    return result, detail


def _print_metrics(name, result):
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']} {entry['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the same code on small inputs (for the self-tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fluxqubit" / "__init__.py").is_file():
        print(f"error: no fluxqubit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, detail = run_workload(name, args.seed, args.seconds, args.trace, args.scale)
            _print_metrics(name, result)
            print(json.dumps({"detail": detail}))
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": e for n, r in results.items() for m, e in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
