"""In-memory spans for the traced benchmark run, and the per-layer metrics.

A span is (name, start, end, parent id).  Spans are recorded by wrapping
public ``fluxqubit`` functions at the module attributes their callers look
up, and a workload's backend at its instance's ``run``; nothing inside the
package is changed.  ``Tracer.install`` patches, ``Tracer.restore`` puts the
originals back, so untraced passes run unwrapped code.

Self time is a span's duration minus the time its direct children cover
(the run is single-threaded, so children never overlap).  The hottest
callee, ``cliffords.decompose`` (about 190k calls per pass), is counted but
gets no span.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from statistics import mean

import numpy as np

from metrics import PER_LAYER_METRICS


class Tracer:
    """Records spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []                 # [name, start, end, parent index]
        self.counts = Counter()         # name -> count (count-only wrappers, errors)
        self.values = defaultdict(list)  # name -> observations (iterations, ...)
        self._stack = []
        self._patches = []              # (object, attribute, original or None)

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, observe=None):
        """Wrap fn so that each call records a span; observe(tracer, args, result)."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".errors"] += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, obj, attr, wrapper):
        self._patches.append((obj, attr, obj.__dict__.get(attr)))
        setattr(obj, attr, wrapper)

    def restore(self):
        for obj, attr, original in reversed(self._patches):
            if original is None:
                delattr(obj, attr)      # the wrapper shadowed a class attribute
            else:
                setattr(obj, attr, original)
        self._patches.clear()

    def install(self, backend=None):
        """Wrap every layer boundary the workloads cross."""
        from fluxqubit import analysis, benchmarking, demux, pulsesim, tomography

        def simulated(tracer, args, result):
            tracer.values["pulsesim.sim_ns"].append(float(result.times[-1]))
            drift = abs(np.trace(result.final_state) - 1.0)
            tracer.values["pulsesim.trace_drift"].append(float(drift))

        def cells(name):
            def observe(tracer, args, result):
                tracer.counts[name] += np.size(args[1]) * np.size(args[2])
            return observe

        def fitted(tracer, args, result):
            tracer.values["analysis.fit_nlls.iterations"].append(result.iterations)
            tracer.values["analysis.fit_nlls.converged"].append(bool(result.converged))

        def reconstructed(tracer, args, result):
            diagnostics = result[1]
            tracer.values["tomography.reconstruct.iterations"].append(diagnostics.iterations)
            tracer.values["tomography.reconstruct.converged"].append(bool(diagnostics.converged))

        def compiled(tracer, args, result):
            tracer.values["cliffords.pulses_per_sequence"].append(len(result.pulses))

        def ran_backend(tracer, args, result):
            tracer.counts["benchmarking.backend_run.pulses"] += len(args[0])

        run_segments = self.span("pulsesim.run_segments", pulsesim.run_segments, simulated)
        self.patch(pulsesim, "run_segments", run_segments)
        self.patch(demux, "run_segments", run_segments)
        for attr in ("rabi_chevron", "ramsey_axis_scan"):
            name = f"pulsesim.{attr}"
            self.patch(demux, attr, self.span(name, getattr(demux, attr), cells(name + ".cells")))
        for attr in ("calibrate", "calibrate_amplitude", "calibrate_duration",
                     "calibrate_timing", "compile_gate", "simulate_sequence", "qpt_pipeline"):
            self.patch(demux, attr, self.span(f"demux.{attr}", getattr(demux, attr)))
        fit_nlls = self.span("analysis.fit_nlls", analysis.fit_nlls, fitted)
        self.patch(demux, "fit_nlls", fit_nlls)
        self.patch(benchmarking, "fit_nlls", fit_nlls)
        self.patch(analysis, "coarse_spectrum_peak",
                   self.span("analysis.coarse_spectrum_peak", analysis.coarse_spectrum_peak))
        self.patch(demux, "qpt_record", self.span("tomography.qpt_record", demux.qpt_record))
        self.patch(demux, "reconstruct",
                   self.span("tomography.reconstruct", demux.reconstruct, reconstructed))
        self.patch(tomography, "project_cptp",
                   self.span("tomography.project_cptp", tomography.project_cptp))
        for attr in ("draw_sequence", "compile_sequence", "run_rb", "run_pb",
                     "temporal_stability"):
            self.patch(benchmarking, attr,
                       self.span(f"benchmarking.{attr}", getattr(benchmarking, attr)))
        for attr in ("fit_rb", "fit_pb"):
            self.patch(benchmarking, attr, self.span("benchmarking.fit", getattr(benchmarking, attr)))
        self.patch(benchmarking, "decompose",
                   self.counter("cliffords.decompose.calls", benchmarking.decompose))
        self.patch(benchmarking, "compile_virtual_z",
                   self.span("cliffords.compile_virtual_z", benchmarking.compile_virtual_z, compiled))
        if backend is not None:
            self.patch(backend, "run", self.span("benchmarking.backend_run", backend.run, ran_backend))
            self.patch(backend, "survival_probability",
                       self.counter("benchmarking.survival_shortcut.calls",
                                    backend.survival_probability))

    # -- aggregation -------------------------------------------------------

    def span_stats(self):
        """Per span name: calls, busy seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for (name, start, end, parent), children in zip(self.spans, child_time):
            entry = stats[name]
            entry["calls"] += 1
            if not self._inside_same_name(parent, name):
                entry["busy_s"] += end - start
            entry["self_s"] += end - start - children
        return stats

    def _inside_same_name(self, parent, name):
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self, pass_wall_s: float) -> dict:
        """The pass's value of every per-layer metric except setup and trace."""
        stats = self.span_stats()
        values, counts = self.values, self.counts
        out = {}
        for metric, _, _ in PER_LAYER_METRICS:
            span_name, _, field = metric.rpartition(".")
            if field in ("calls", "busy_s", "self_s"):
                out[metric] = stats[span_name][field] if span_name in stats else 0
        for name in ("cliffords.decompose.calls", "benchmarking.survival_shortcut.calls",
                     "benchmarking.backend_run.pulses", "analysis.fit_nlls.errors",
                     "pulsesim.rabi_chevron.cells", "pulsesim.ramsey_axis_scan.cells"):
            out[name] = counts[name]
        run_segments = stats.get("pulsesim.run_segments", {"busy_s": 0.0})
        backend = stats.get("benchmarking.backend_run", {"busy_s": 0.0})
        sim_ns = sum(values["pulsesim.sim_ns"])
        out["pulsesim.sim_ns"] = sim_ns
        out["pulsesim.sim_ns_per_busy_s"] = _ratio(sim_ns, run_segments["busy_s"])
        out["pulsesim.trace_drift_max"] = max(values["pulsesim.trace_drift"], default=0.0)
        out["pulsesim.run_segments.wall_share"] = run_segments["busy_s"] / pass_wall_s
        out["benchmarking.backend_run.wall_share"] = backend["busy_s"] / pass_wall_s
        out["benchmarking.backend_pulses_per_s"] = _ratio(
            counts["benchmarking.backend_run.pulses"], backend["busy_s"])
        out["analysis.fit_nlls.iterations_mean"] = _mean(values["analysis.fit_nlls.iterations"])
        out["analysis.fit_nlls.converged_ratio"] = _mean(values["analysis.fit_nlls.converged"])
        out["tomography.reconstruct.iterations_mean"] = _mean(
            values["tomography.reconstruct.iterations"])
        out["tomography.reconstruct.converged_ratio"] = _mean(
            values["tomography.reconstruct.converged"])
        out["tomography.step_accept_ratio"] = _ratio(
            sum(values["tomography.reconstruct.iterations"]),
            stats["tomography.project_cptp"]["calls"] if "tomography.project_cptp" in stats else 0)
        out["cliffords.pulses_per_sequence"] = _mean(values["cliffords.pulses_per_sequence"])
        return out

    def dump(self, path):
        """Write the recorded spans as JSON (called once, after the pass)."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "names": names,
                       "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                       "counts": dict(self.counts)}, fh)


def _mean(values):
    return float(mean(values)) if values else 0.0


def _ratio(num, den):
    return float(num / den) if den else 0.0
