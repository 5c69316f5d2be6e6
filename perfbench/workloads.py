"""The benchmark's four workloads: inputs from a seed, one timed pass, checks.

A workload object holds the inputs generated from the workload seed.  Its
``run`` method makes one pass through the public ``fluxqubit`` API and
returns a ``PassResult``: the physics answers recorded beside the metrics, a
digest of every raw output (for the determinism check) and the list of
failed output checks.

Module functions are called as module attributes (``demux.calibrate``,
``benchmarking.run_rb``) so that the tracer in ``spans.py`` can wrap them at
the names their callers look up.

Sizes: ``scale="full"`` is the benchmark; ``scale="tiny"`` is a small run of
the same code for the benchmark's own tests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from fluxqubit import InvalidChannelError, benchmarking, cliffords, datafiles, demux, qcore

DEVICE_CONFIG = "device_demux.cfg"
DRIVE_V = 0.7
RISE_NS = 1.0       # 1 ns ramps keep the known rise-time defect visible
DT_NS = 0.05
T1_US, T2_US = 20.0, 10.0
QPT_SHOTS = 2000
RB_SHOTS = 1000
RB_LENGTHS = benchmarking.log_spaced_lengths(1, 400, 12)
RB_VISIBILITY = 0.95
COHERENT_NOISE = benchmarking.GateNoiseModel(
    depolarizing_prob=2e-3, amplitude_damping_prob=1e-3,
    overrotation=0.02, axis_error=0.01,
)
DEPOLARIZING_PROB = 2e-3

# Tolerances of the output checks.  In the seed state the calibration agrees
# with the map-derived constants to 0.006 uA, 0.003 % and 1e-12.
CAL_DELTA_I_TOL_UA = 0.03
CAL_T_PI_RTOL = 5e-4
CAL_AXIS_PERIOD_RTOL = 1e-6
# The stability mean F scatters about its closed form by shot and sequence
# noise: standard deviation 3.4e-5 over 20 seeds at 200 iterations, falling
# as 1/sqrt(iterations).  The check allows five standard deviations.
STABILITY_F_TOL_200 = 5 * 3.4e-5


@dataclass
class PassResult:
    answers: dict       # physics answers, JSON-able, recorded with the metrics
    fingerprint: str    # digest of every raw output of the pass
    failures: list      # one message per failed output check


def derive_seed(seed: int, name: str) -> int:
    """Per-workload seed for RBConfig and QPT, derived from the workload seed."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a)).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Output checks: each returns a list of failure messages (empty = pass)
# ---------------------------------------------------------------------------

def check_calibration(cal, nominal) -> list:
    failures = []
    if not abs(cal.delta_i_res - nominal.delta_i_res) <= CAL_DELTA_I_TOL_UA:
        failures.append(
            f"delta_i_res {cal.delta_i_res!r} uA is not within {CAL_DELTA_I_TOL_UA} uA "
            f"of nominal {nominal.delta_i_res!r}"
        )
    for field, rtol in (("t_pi", CAL_T_PI_RTOL), ("axis_period", CAL_AXIS_PERIOD_RTOL)):
        got, want = getattr(cal, field), getattr(nominal, field)
        if not abs(got - want) <= rtol * abs(want):
            failures.append(f"{field} {got!r} is not within {rtol:g} (relative) of nominal {want!r}")
    return failures


def check_qpt(chois, fidelities, *, f_min: float, f_min_inclusive: bool) -> list:
    """Every Choi matrix is CPTP and every F lies in [f_min, 1] or (f_min, 1]."""
    failures = []
    for name, choi in chois.items():
        try:
            qcore.validate_choi(choi, f"Choi matrix of {name}")
        except InvalidChannelError as exc:
            failures.append(str(exc))
    for name, f in fidelities.items():
        low_ok = f >= f_min if f_min_inclusive else f > f_min
        if not (low_ok and f <= 1.0):
            bracket = "[" if f_min_inclusive else "("
            failures.append(f"F({name}) = {f!r} is outside {bracket}{f_min}, 1]")
    return failures


def check_rb_pb(rb_fit, pb_fit) -> list:
    failures = []
    if not rb_fit.fit.converged:
        failures.append("RB fit did not converge")
    if not pb_fit.fit.converged:
        failures.append("PB fit did not converge")
    if not 0.0 < rb_fit.p < 1.0:
        failures.append(f"RB decay p = {rb_fit.p!r} is outside (0, 1)")
    if not 0.0 < pb_fit.u <= 1.0:
        failures.append(f"PB decay u = {pb_fit.u!r} is outside (0, 1]")
    return failures


def stability_closed_form(depolarizing_prob: float) -> float:
    """Average Clifford fidelity under per-pulse depolarizing noise.

    F = 1/2 + 1/2 * mean over elements of the mean over their stored minimal
    decompositions of (1 - lambda)^pulses, matching `decompose`'s uniform
    choice among decompositions and the uniform draw of elements.
    """
    decay = np.mean([
        np.mean([(1.0 - depolarizing_prob) ** cliffords.microwave_pulse_count(kinds)
                 for kinds in options])
        for options in cliffords.DECOMPOSITIONS
    ])
    return 0.5 + 0.5 * float(decay)


def check_stability(mean_f: float, depolarizing_prob: float, iterations: int) -> list:
    expected = stability_closed_form(depolarizing_prob)
    tolerance = STABILITY_F_TOL_200 * math.sqrt(200 / iterations)
    if not abs(mean_f - expected) <= tolerance:
        return [f"stability mean F {mean_f!r} is not within {tolerance:.3g} "
                f"of the closed form {expected!r}"]
    return []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _load_device():
    start = time.perf_counter()
    device = datafiles.load_bundled_device(DEVICE_CONFIG)
    return device, time.perf_counter() - start


def _qpt_answers(results):
    chois = {r.name: r.choi for r in results}
    fidelities = {r.name: float(r.fidelity) for r in results}
    answers = {
        "gate_fidelity": fidelities,
        "reconstruct_iterations": {r.name: r.diagnostics.iterations for r in results},
        "gate_infidelity_mean": float(np.mean([1.0 - f for f in fidelities.values()])),
    }
    raw = [a for r in results for a in (r.record.entries, r.choi)]
    return chois, fidelities, answers, raw


class DemuxCalibrateQPT:
    name = "demux_calibrate_qpt"
    backend = None

    def __init__(self, seed: int, scale: str = "full"):
        self.device, self.load_device_s = _load_device()
        self.nominal = demux.nominal_calibration(self.device, DRIVE_V)
        self.gates = demux.QPT_GATES if scale == "full" else ("X90",)
        self.qpt_seed = derive_seed(seed, self.name)

    def run(self) -> PassResult:
        cal = demux.calibrate(self.device, drive_amplitude=DRIVE_V,
                              rise_time=RISE_NS, dt=DT_NS)
        results = demux.qpt_pipeline(
            self.device, cal, self.gates, shots=None, drive_amplitude=DRIVE_V,
            rise_time=RISE_NS, dt=DT_NS, seed=self.qpt_seed,
        )
        chois, fidelities, answers, raw = _qpt_answers(results)
        answers["calibration"] = dataclasses.asdict(cal)
        answers["nominal_calibration"] = dataclasses.asdict(self.nominal)
        failures = check_calibration(cal, self.nominal)
        failures += check_qpt(chois, fidelities, f_min=0.0, f_min_inclusive=True)
        cal_values = [cal.delta_i_res, cal.t_pi, cal.axis_period, cal.phase_offset]
        return PassResult(answers, digest(cal_values, *raw), failures)


class DemuxQPTT1T2:
    name = "demux_qpt_t1t2"
    backend = None

    def __init__(self, seed: int, scale: str = "full"):
        device, self.load_device_s = _load_device()
        self.device = dataclasses.replace(device, t1=T1_US, t2=T2_US)
        self.calibration = demux.nominal_calibration(self.device, DRIVE_V)
        self.gates = demux.QPT_GATES if scale == "full" else ("X90",)
        self.qpt_seed = derive_seed(seed, self.name)

    def run(self) -> PassResult:
        results = demux.qpt_pipeline(
            self.device, self.calibration, self.gates, shots=QPT_SHOTS,
            drive_amplitude=DRIVE_V, rise_time=RISE_NS, dt=DT_NS, seed=self.qpt_seed,
        )
        chois, fidelities, answers, raw = _qpt_answers(results)
        failures = check_qpt(chois, fidelities, f_min=0.5, f_min_inclusive=False)
        return PassResult(answers, digest(*raw), failures)


def _rb_config(seed: int, name: str, scale: str) -> benchmarking.RBConfig:
    lengths = RB_LENGTHS if scale == "full" else (1, 20, 100, 400)
    per_length = 25 if scale == "full" else 3
    return benchmarking.RBConfig(lengths, sequences_per_length=per_length,
                                 shots=RB_SHOTS, seed=derive_seed(seed, name))


class RBPBCoherent:
    name = "rb_pb_coherent"
    load_device_s = 0.0

    def __init__(self, seed: int, scale: str = "full"):
        self.backend = benchmarking.ChannelBackend(COHERENT_NOISE, visibility=RB_VISIBILITY)
        self.config = _rb_config(seed, self.name, scale)

    def run(self) -> PassResult:
        rb_record = benchmarking.run_rb(self.backend, self.config)
        rb_fit = benchmarking.fit_rb(rb_record)
        pb = benchmarking.run_pb(self.backend, self.config)
        pb_fit = benchmarking.fit_pb(pb.purity)
        answers = {
            "rb_p": rb_fit.p,
            "rb_average_fidelity": rb_fit.average_fidelity,
            "pb_u": pb_fit.u,
            "pb_epsilon_inc": pb_fit.epsilon_inc,
            "gate_infidelity_mean": 1.0 - rb_fit.average_fidelity,
        }
        raw = [np.concatenate(rec.values) for rec in (rb_record, pb.purity, pb.survival)]
        raw.append([rb_fit.p, rb_fit.a, rb_fit.b, pb_fit.u, pb_fit.a, pb_fit.b])
        return PassResult(answers, digest(*raw), check_rb_pb(rb_fit, pb_fit))


class RBStabilityDepol:
    name = "rb_stability_depol"
    load_device_s = 0.0

    def __init__(self, seed: int, scale: str = "full"):
        self.backend = benchmarking.ChannelBackend(
            benchmarking.GateNoiseModel(depolarizing_prob=DEPOLARIZING_PROB),
            visibility=RB_VISIBILITY,
        )
        # The closed-form check needs every length even at tiny scale.
        self.config = _rb_config(seed, self.name, "full")
        self.iterations = 200 if scale == "full" else 50
        self.window = 21

    def run(self) -> PassResult:
        series = benchmarking.temporal_stability(
            self.backend, self.config, iterations=self.iterations, window=self.window,
        )
        mean_f = float(np.mean(series.average_fidelity))
        answers = {
            "stability_mean_f": mean_f,
            "stability_closed_form_f": stability_closed_form(DEPOLARIZING_PROB),
            "stability_min_f": float(np.min(series.average_fidelity)),
            "stability_max_f": float(np.max(series.average_fidelity)),
            "gate_infidelity_mean": 1.0 - mean_f,
        }
        failures = check_stability(mean_f, DEPOLARIZING_PROB, self.iterations)
        return PassResult(answers, digest(series.average_fidelity), failures)


WORKLOADS = {
    cls.name: cls
    for cls in (DemuxCalibrateQPT, DemuxQPTT1T2, RBPBCoherent, RBStabilityDepol)
}
