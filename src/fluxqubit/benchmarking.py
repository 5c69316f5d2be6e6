"""Randomized benchmarking (RB), purity benchmarking (PB), and stability runs.

The protocol, for each sequence length m: draw m group elements at random,
compute the recovery element, decompose everything into primitives, compile
the virtual Z content away, execute the physical pulses on a backend, and
estimate the ground-state return probability P_g.  Averaged over N random
sequences, P_g(m) decays as A p^m + B and the average gate fidelity follows
from p (decompose and compile are one `cliffords.compile_cliffords` walk).
PB runs each sequence three times with an extra final analysis rotation to
estimate <sx>, <sy>, <sz> and tracks the purity decay A' u^(m-1) + B'
instead; the incoherent error is (1 - sqrt(u)) / 2.  It compiles the base
string once and each analysis rotation from the base's outgoing frame.

Backends implement `run(pulses, shots, rng) -> P_g estimate` where pulses
are (rotation amount, axis angle) pairs.  Both bundled backends turn each
distinct pulse into one memoised, read-only 4x4 Pauli transfer matrix (PTM)
and multiply a string's maps by a pairwise tree reduce; P_g is read from the
product applied to |g>.  Virtual-Z compilation emits only 12 distinct
pulses, so the cache stays small.  The channel backend's PTM is a rotation
with over-rotation and axis error, then depolarizing, then amplitude
damping; the pulse backend's is an ideal rotation, then fixed-duration T1
damping and dephasing.  Depolarizing-only noise takes a closed-form
survival shortcut instead (see ChannelBackend.supports_survival_shortcut).

The temporal-stability run refits a moving window of iterations around each
iteration.  All windows are fitted in one row-batched `fit_nlls_rows` call,
each started from the fit of the mean over all iterations (the common
start), and the per-window fits are returned with the series.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ConsistencyError, FitError, check_shots, is_count, wrap_error
from .analysis import FitResult, fit_nlls, fit_nlls_rows
from .cliffords import (
    QUARTER_TURNS,
    PhysicalPulseList,
    compile_cliffords,
    compile_virtual_z,  # unused here; perfbench's tracer wraps benchmarking.compile_virtual_z
    decompose,          # and benchmarking.decompose, so both names stay
    enumerate_cliffords,
    recovery_gate,
)
from .qcore import bloch_rotation, ptm_from_unitary, ptm_product, relaxation_ptm

_GATES = enumerate_cliffords()


@dataclass(frozen=True)
class RBConfig:
    """Lengths, repetitions, shot budget, and seed of a benchmarking run."""

    lengths: tuple
    sequences_per_length: int = 50
    shots: Optional[int] = None   # None = infinite-shot (exact) readout
    seed: int = 0

    def __post_init__(self):
        lengths = tuple(self.lengths)
        if not lengths or not all(is_count(m) and m >= 1 for m in lengths):
            raise ValueError(f"lengths must be positive integers, got {lengths!r}")
        lengths = tuple(int(m) for m in lengths)
        object.__setattr__(self, "lengths", lengths)
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("lengths must be strictly increasing")
        if not (is_count(self.sequences_per_length) and self.sequences_per_length >= 1):
            raise ValueError("sequences_per_length must be an integer of at least 1")
        check_shots(self.shots)


def log_spaced_lengths(start: int, stop: int, count: int) -> tuple:
    """Logarithmically spaced integer lengths with duplicates removed."""
    grid = np.unique(np.round(np.logspace(np.log10(start), np.log10(stop), count)))
    return tuple(int(m) for m in grid)


@dataclass(frozen=True)
class GateNoiseModel:
    """Per-pulse error channel: stochastic and coherent contributions."""

    depolarizing_prob: float = 0.0
    amplitude_damping_prob: float = 0.0
    overrotation: float = 0.0   # rad added to every rotation amount
    axis_error: float = 0.0     # rad added to every axis angle

    def __post_init__(self):
        for name in ("depolarizing_prob", "amplitude_damping_prob"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("overrotation", "axis_error"):  # NaN would defeat the PTM cache
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def is_depolarizing_only(self) -> bool:
        return (
            self.amplitude_damping_prob == 0.0
            and self.overrotation == 0.0
            and self.axis_error == 0.0
        )


@dataclass
class DecayRecord:
    """Per-length lists of per-sequence values (P_g or purity)."""

    lengths: tuple
    values: list           # one list of floats per length
    timestamps: list       # one list of seconds per length
    kind: str = "rb"

    def means(self) -> np.ndarray:
        return np.array([np.mean(v) for v in self.values])


@dataclass
class PBResult:
    purity: DecayRecord
    survival: DecayRecord


@functools.lru_cache(maxsize=1024)  # RB/PB strings use 12 distinct pulses per model
def _pulse_ptm(angle, axis_angle, depolarizing, gamma, decay) -> np.ndarray:
    """Read-only PTM of a rotation by `angle` about the in-plane axis at
    `axis_angle`, then depolarizing, then relaxation_ptm(gamma, decay)."""
    axis = (math.cos(axis_angle), math.sin(axis_angle), 0.0)
    rotation = ptm_from_unitary(bloch_rotation(axis, angle))
    ptm = relaxation_ptm(gamma, decay) @ np.diag([1.0] + 3 * [1.0 - depolarizing]) @ rotation
    ptm.setflags(write=False)
    return ptm


class _PTMBackend:
    """Composes one cached PTM per pulse (subclasses supply `pulse_ptm`)."""

    supports_survival_shortcut = False

    def __init__(self, visibility: float):
        if not (0.0 < visibility <= 1.0):
            raise ValueError("visibility must be in (0, 1]")
        self.visibility = visibility

    def run(self, pulses, shots: Optional[int], rng: np.random.Generator) -> float:
        """P_g estimate after `pulses` (amount, axis angle), starting in |g>."""
        distinct = {}  # pulse -> row of `table`; a compiled string has at most 12
        rows = [distinct.setdefault(pulse, len(distinct)) for pulse in pulses]
        table = np.array([self.pulse_ptm(*pulse) for pulse in distinct]).reshape(-1, 4, 4)
        r = ptm_product(table[rows]) @ (1.0, 0.0, 0.0, 1.0)  # Pauli vector of |g>
        return _read_out(0.5 + self.visibility * (0.5 * (r[0] + r[3]) - 0.5), shots, rng)


class ChannelBackend(_PTMBackend):
    """Over-rotated, axis-shifted rotations, then depolarizing, then damping."""

    def __init__(self, noise: GateNoiseModel = GateNoiseModel(), visibility: float = 1.0):
        super().__init__(visibility)
        self.noise = noise

    @property
    def supports_survival_shortcut(self) -> bool:
        """True when P_g depends only on the pulse count (exact identity).

        With ideal rotations the recovery returns the Bloch vector to +z
        exactly, and per-pulse depolarizing commutes with every rotation, so
        P_g = (1 + (1 - lambda)^n) / 2 for n pulses.
        """
        return self.noise.is_depolarizing_only

    def survival_probability(self, pulse_count: int) -> float:
        polarization = (1.0 - self.noise.depolarizing_prob) ** pulse_count
        return 0.5 + self.visibility * 0.5 * polarization

    def pulse_ptm(self, amount: float, axis_angle: float) -> np.ndarray:
        noise = self.noise
        return _pulse_ptm(amount + math.copysign(noise.overrotation, amount),
                          axis_angle + noise.axis_error, noise.depolarizing_prob,
                          noise.amplitude_damping_prob, 1.0)


class PulseBackend(_PTMBackend):
    """Ideal rotations, then fixed-duration T1 damping and dephasing."""

    def __init__(self, t1_us: float = math.inf, t2_us: float = math.inf,
                 gate_time_ns: float = 20.0, visibility: float = 1.0):
        super().__init__(visibility)
        if not (t1_us > 0.0 and t2_us > 0.0):
            raise ValueError("t1 and t2 must be positive (inf allowed)")
        if not (0.0 < gate_time_ns < math.inf):
            raise ValueError("gate_time_ns must be positive and finite")
        if t2_us > 2 * t1_us + 1e-9:
            raise ValueError("t2 cannot exceed 2 * t1")
        self.t1_ns, self.t2_ns, self.gate_time_ns = t1_us * 1e3, t2_us * 1e3, gate_time_ns
        self._gamma = 1.0 - math.exp(-gate_time_ns / self.t1_ns)
        rate = 1.0 / self.t2_ns - 0.5 / self.t1_ns  # pure dephasing, 1/ns
        self._dephasing = math.exp(-gate_time_ns * max(rate, 0.0))

    def pulse_ptm(self, amount: float, axis_angle: float) -> np.ndarray:
        return _pulse_ptm(amount, axis_angle, 0.0, self._gamma, self._dephasing)


# ---------------------------------------------------------------------------
# Sequence generation and execution
# ---------------------------------------------------------------------------

def draw_sequence(m: int, rng: np.random.Generator):
    """m random group elements plus their recovery, identity-checked."""
    gates = tuple(map(_GATES.__getitem__, rng.integers(24, size=m).tolist()))
    recovery = recovery_gate(gates)
    if recovery_gate(list(gates) + [recovery]).index != 0:
        raise ConsistencyError("sequence plus recovery is not the identity")
    return gates, recovery


def compile_sequence(gates, recovery, rng: np.random.Generator) -> PhysicalPulseList:
    """Decompose every element (random choices) and compile the whole string."""
    pulses, quarters = compile_cliffords([g.index for g in gates] + [recovery.index], rng)
    return PhysicalPulseList(pulses, QUARTER_TURNS[quarters])


_RNG_STREAMS = {"rb": 0, "pb": 1, "stability": 2}


def _sequence_rng(seed: int, kind: str, length_index: int, sequence_index: int):
    return np.random.default_rng(
        (seed, _RNG_STREAMS[kind], length_index, sequence_index)
    )


def _read_out(p_obs: float, shots: Optional[int], rng) -> float:
    """p_obs itself (shots=None) or its binomial estimate from `shots` shots."""
    if shots is None:
        return p_obs
    return rng.binomial(int(shots), min(max(p_obs, 0.0), 1.0)) / int(shots)


def _measure(backend, pulses, shots, rng, where: str, shortcut: bool = True) -> float:
    """P_g of one compiled string: the survival shortcut when allowed and the
    backend offers it, else backend.run; failures name `where`."""
    try:
        if shortcut and backend.supports_survival_shortcut:
            return _read_out(backend.survival_probability(len(pulses)), shots, rng)
        return backend.run(pulses, shots, rng)
    except Exception as exc:
        raise wrap_error(exc, f"backend failed at {where}: {exc}") from exc


def run_rb(backend, config: RBConfig, *, keep_sequences: bool = False,
           seconds_per_sequence: float = 0.0):
    """Standard RB: returns a DecayRecord of P_g (and sequences if asked)."""
    values = [[] for _ in config.lengths]
    stamps = [[] for _ in config.lengths]
    sequences = []
    for i_m, m in enumerate(config.lengths):
        for j in range(config.sequences_per_length):
            rng = _sequence_rng(config.seed, "rb", i_m, j)
            gates, recovery = draw_sequence(m, rng)
            compiled = compile_sequence(gates, recovery, rng)
            values[i_m].append(float(_measure(backend, compiled.pulses, config.shots, rng,
                                              f"length {m}, sequence {j}")))
            stamps[i_m].append((i_m * config.sequences_per_length + j) * seconds_per_sequence)
            if keep_sequences:
                sequences.append((gates, recovery))
    record = DecayRecord(config.lengths, values, stamps, kind="rb")
    return (record, sequences) if keep_sequences else record


_ANALYSIS_STEPS = (  # readout label, analysis rotation appended before measuring z
    ("z", ()),
    ("x", (15,)),  # R_y(-pi/2) turns <sigma_x> into <sigma_z>
    ("y", (12,)),  # R_x(pi/2) turns <sigma_y> into <sigma_z>
)


def run_pb(backend, config: RBConfig, *, seconds_per_sequence: float = 0.0,
           bias_corrected: bool = False) -> PBResult:
    """Purity benchmarking via the three-readout scheme.

    Each sequence runs three times (plain, extra R_y(-pi/2), extra
    R_x(pi/2)) to estimate <sx>, <sy>, <sz>; the purity is their sum of
    squares.  The plain readings double as an RB survival record, so the
    total error can be estimated from the same data set.  With
    `bias_corrected` the unbiased shot-noise variance 4 p_hat (1 - p_hat) /
    (n - 1) is subtracted from each squared expectation (needs n >= 2 shots).
    """
    if bias_corrected and config.shots is not None and config.shots < 2:
        raise ValueError("bias_corrected needs at least 2 shots")
    purity_values = [[] for _ in config.lengths]
    survival_values = [[] for _ in config.lengths]
    stamps = [[] for _ in config.lengths]
    for i_m, m in enumerate(config.lengths):
        for j in range(config.sequences_per_length):
            rng = _sequence_rng(config.seed, "pb", i_m, j)
            base = compile_sequence(*draw_sequence(m, rng), rng)
            quarters = QUARTER_TURNS.index(base.frame_phase)
            expectations = {}
            for label, analysis in _ANALYSIS_STEPS:
                pulses = base.pulses + compile_cliffords(analysis, rng, quarters)[0]
                p_g = _measure(backend, pulses, config.shots, rng,
                               f"length {m}, sequence {j} ({label})", shortcut=False)
                expectations[label] = 2.0 * p_g - 1.0
            purity = sum(value**2 for value in expectations.values())
            if bias_corrected and config.shots is not None:
                for value in expectations.values():
                    p_hat = 0.5 * (1.0 + value)
                    purity -= 4.0 * p_hat * (1.0 - p_hat) / (config.shots - 1)
            purity_values[i_m].append(float(purity))
            survival_values[i_m].append(0.5 * (1.0 + expectations["z"]))
            stamps[i_m].append((i_m * config.sequences_per_length + j) * seconds_per_sequence)
    return PBResult(
        purity=DecayRecord(config.lengths, purity_values, stamps, kind="pb"),
        survival=DecayRecord(config.lengths, survival_values, stamps, kind="rb"),
    )


# ---------------------------------------------------------------------------
# Fitting and error metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RBFit:
    p: float
    a: float
    b: float
    average_fidelity: float
    stderr: dict
    fit: FitResult


@dataclass(frozen=True)
class PBFit:
    u: float
    a: float
    b: float
    epsilon_inc: float
    stderr: dict
    fit: FitResult


def average_fidelity_from_p(p: float, d: int = 2) -> float:
    """F = 1/d + p (1 - 1/d)."""
    return 1.0 / d + p * (1.0 - 1.0 / d)


def incoherent_error_from_u(u: float) -> float:
    """epsilon_inc = (1 - sqrt(u)) / 2 (sign-corrected decay form)."""
    return 0.5 * (1.0 - math.sqrt(u))


def fit_rb(record: DecayRecord, p0=None) -> RBFit:
    """Least-squares fit of mean P_g(m) to A p^m + B."""
    if len(record.lengths) < 3:
        raise ValueError("need at least 3 distinct lengths to fit")
    m = np.asarray(record.lengths, dtype=float)
    fit = fit_nlls("exp_decay", m, record.means(), p0=p0)
    stderr = dict(fit.stderr) if fit.stderr else {}
    if "p" in stderr:
        stderr["average_fidelity"] = 0.5 * stderr["p"]
    return RBFit(
        p=fit["p"], a=fit["A"], b=fit["B"],
        average_fidelity=average_fidelity_from_p(fit["p"]),
        stderr=stderr, fit=fit,
    )


def fit_pb(record: DecayRecord, p0=None) -> PBFit:
    """Least-squares fit of mean purity(m) to A' u^(m-1) + B'."""
    if len(record.lengths) < 3:
        raise ValueError("need at least 3 distinct lengths to fit")
    m = np.asarray(record.lengths, dtype=float) - 1.0
    fit = fit_nlls("exp_decay", m, record.means(), p0=p0)
    u = fit["p"]
    stderr = dict(fit.stderr) if fit.stderr else {}
    if "p" in stderr:
        stderr["u"] = stderr.pop("p")
        stderr["epsilon_inc"] = stderr["u"] / (4.0 * math.sqrt(max(u, 1e-12)))
    return PBFit(
        u=u, a=fit["A"], b=fit["B"],
        epsilon_inc=incoherent_error_from_u(u),
        stderr=stderr, fit=fit,
    )


def coherent_error(epsilon: float, epsilon_inc: float) -> float:
    """epsilon_coh = epsilon - epsilon_inc; warns when fits disagree."""
    if epsilon < 0 or epsilon_inc < 0:
        raise ValueError("error rates must be non-negative")
    value = epsilon - epsilon_inc
    if value < 0:
        warnings.warn(
            f"coherent error is negative ({value:.2e}): the RB and PB fits disagree",
            stacklevel=2,
        )
    return value


# ---------------------------------------------------------------------------
# Temporal stability
# ---------------------------------------------------------------------------

@dataclass
class StabilitySeries:
    times: np.ndarray        # seconds, iteration start times
    average_fidelity: np.ndarray
    window: int
    fits: tuple = ()         # the FitResult of each iteration's window


def temporal_stability(backend, config: RBConfig, iterations: int, window: int,
                       *, seconds_per_iteration: float = 30.0) -> StabilitySeries:
    """Repeated single-sequence RB with a moving-window refit per iteration.

    Each iteration measures one random sequence per length; the fidelity at
    iteration j comes from refitting the window of `window` iterations
    centered on j (truncated symmetrically at the edges).  All windows are
    fitted in one row-batched solve, each started from the fit of the mean
    over all iterations.
    """
    if not (is_count(window) and window >= 1 and window % 2 == 1):
        raise ValueError(f"window must be an odd integer of at least 1, got {window!r}")
    if not (is_count(iterations) and iterations >= window):
        raise ValueError(f"iterations must be an integer of at least window = {window}, "
                         f"got {iterations!r}")
    lengths = config.lengths
    survival = np.empty((iterations, len(lengths)))
    for j in range(iterations):
        for i_m, m in enumerate(lengths):
            rng = _sequence_rng(config.seed, "stability", j, i_m)
            compiled = compile_sequence(*draw_sequence(m, rng), rng)
            survival[j, i_m] = _measure(backend, compiled.pulses, config.shots, rng,
                                        f"iteration {j}, length {m}")
    m_arr = np.asarray(lengths, dtype=float)
    half = window // 2
    spans = [min(half, j, iterations - 1 - j) for j in range(iterations)]
    means = np.array([survival[j - h:j + h + 1].mean(axis=0) for j, h in enumerate(spans)])
    common = fit_nlls("exp_decay", m_arr, survival.mean(axis=0))
    fits = fit_nlls_rows("exp_decay", m_arr, means, p0=common.params)
    for j, fit in enumerate(fits):
        if isinstance(fit, FitError):
            raise FitError(f"stability window {j}: {fit}") from fit
    fidelities = np.array([average_fidelity_from_p(fit["p"]) for fit in fits])
    times = np.arange(iterations) * seconds_per_iteration
    return StabilitySeries(times=times, average_fidelity=fidelities, window=window,
                           fits=tuple(fits))
