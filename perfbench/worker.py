"""One benchmark process: set up a workload, time passes, print one JSON line.

Started by ``run.py``; not meant to be run by hand.  It prints ``READY``
once set-up is done (the parent times process start to that line), then, unless
``--setup-only``, runs passes until ``--seconds`` have been measured and at
least two passes have run (the determinism check compares them), and
prints a JSON report as its last line.

The worker times the reference kernel of ``reference.py`` before the first
pass, after every pass, and about once a second inside untraced passes (the
in-pass time is taken off the pass's time).  So each pass carries the host's
speed while it ran.  A setup-only worker times three reference units after
``READY`` and prints them.

With ``--trace 1`` the passes alternate untraced and traced, so the report
holds the tracing overhead and the per-layer metrics of the traced passes.
"""

import os

# One thread for every BLAS / OpenMP pool; this must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import fluxqubit
    if Path(fluxqubit.__file__).resolve().parent != SRC / "fluxqubit":
        sys.exit(f"imported fluxqubit from {fluxqubit.__file__}, not from {SRC}")
    import reference
    import spans
    import workloads
    t1 = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    t2 = time.perf_counter()
    print("READY", flush=True)
    if args.setup_only:
        print(json.dumps({"reference": reference.units(3)}), flush=True)
        return

    # Sample the host's speed inside passes at calls every workload makes
    # many times per second.  A pass whose code no longer looks these names
    # up is still scaled by the units before and after it.
    from fluxqubit import benchmarking, demux
    sampler = reference.Sampler()
    for module, attr in ((demux, "run_segments"), (benchmarking, "draw_sequence")):
        if hasattr(module, attr):
            setattr(module, attr, sampler.wrap(getattr(module, attr)))

    passes = []
    layer_passes = []
    last_tracer = None
    measured = 0.0
    setup_reference = before = reference.units(2)
    while measured < args.seconds or len(passes) < 2:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = spans.Tracer() if traced else None
        if tracer is not None:
            tracer.install(workload.backend)
        if not traced:
            sampler.start()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = workload.run()
            record = {"answers": result.answers, "fingerprint": result.fingerprint,
                      "failures": result.failures}
        except Exception as exc:  # a failing pass is a failed operation, not a crash
            traceback.print_exc()
            record = {"answers": None, "fingerprint": None,
                      "failures": [f"{type(exc).__name__}: {exc}"]}
        finally:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if tracer is not None:
                tracer.restore()
        during = sampler.stop()
        wall -= sum(u[0] for u in during)
        cpu -= sum(u[1] for u in during)
        after = reference.units(1)
        record.update(wall_s=wall, cpu_s=cpu, traced=traced, reference=before + during + after)
        before = after
        passes.append(record)
        measured += wall
        if tracer is not None:
            layer_passes.append(tracer.layer_metrics(wall))
            last_tracer = tracer

    if last_tracer is not None and args.spans_out:
        last_tracer.dump(args.spans_out)
    report = {
        "passes": passes,
        "layers": layer_passes,
        "setup_reference": setup_reference,
        "setup": {"setup.import_s": t1 - t0,
                  "setup.load_device_s": workload.load_device_s,
                  "setup.inputs_s": t2 - t1},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()},
    }
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
