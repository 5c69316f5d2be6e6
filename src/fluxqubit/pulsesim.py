"""Time-domain simulation of a flux-tunable qubit under a fixed CW drive.

The qubit is a two-level system whose transition frequency follows the
square-root-of-cosine flux map f(i) = f_max * sqrt(|cos(pi (i - i_offset) /
i_period)|).  Dynamics are integrated in the frame rotating at the drive
frequency f_cw with

    H / h = delta(t) * sigma_z / 2 + (Omega_R / 2) * sigma_x,
    delta(t) = f_q(t) - f_cw,

where Omega_R = rabi_per_volt * drive_amplitude.  The drive phase is fixed;
rotation-axis angles arise purely from pulse timing.

A schedule is cut into segments of constant or linearly ramped flux, and
each segment becomes one memoised 4x4 Pauli transfer matrix (PTM); segments
compose by matrix product.  A step is the exact 2x2 exponential at the step
midpoint, then amplitude damping at 1/T1(f) and dephasing at 1/T2 - 1/(2 T1).
A ramp is the product of its ceil(duration / dt) steps; a constant segment
is one exact step, or with T1/T2 the n-th matrix power of its step map.  The
step size only sets the accuracy of ramps and T1/T2 and the sampling of time
series.

Units: times in ns, frequencies in GHz, currents in uA, T1/T2 in us.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ConsistencyError, check_shots
from .qcore import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Z,
    density_from_pauli_vector,
    excited_population,
    pauli_vector,
    ptm_from_unitary,
    relaxation_ptm,
    validate_density_matrix,
)

GROUND_STATE = np.array([[1, 0], [0, 0]], dtype=complex)
EXCITED_STATE = np.array([[0, 0], [0, 1]], dtype=complex)

DT_SAFETY_FACTOR = 0.05  # dt <= 0.05 / max(|detuning|, Omega_R)
TRACE_TOL_PER_US = 1e-9


@dataclass(frozen=True)
class TlsDip:
    """A Lorentzian T1 dip: two-level-system or resonator loss at one frequency."""

    center_ghz: float
    width_mhz: float
    t1_dip_us: float


@dataclass(frozen=True)
class DeviceParams:
    """Static device constants: flux map, drive, coherence, and readout."""

    f_max: float                 # GHz, maximum qubit frequency
    i_offset: float              # uA, current at which f_q is maximal
    i_period: float              # uA, current per flux quantum
    i_idle: float                # uA, quasistatic bias defining the idle frequency
    f_cw: float                  # GHz, fixed drive frequency
    rabi_per_volt: float         # MHz/V, Omega_R per volt of drive amplitude
    t1: float = math.inf         # us
    t2: float = math.inf         # us
    tls_dips: tuple = ()
    visibility: float = 1.0
    readout_f: float = 0.0       # GHz, informational

    def __post_init__(self):
        object.__setattr__(self, "tls_dips", tuple(self.tls_dips))  # hashable memo key
        if any(isinstance(v, float) and math.isnan(v) for v in vars(self).values()):
            raise ValueError("device parameters must not be NaN")
        for name in ("f_max", "i_period", "f_cw", "t1", "t2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.rabi_per_volt < 0:
            raise ValueError("rabi_per_volt must be non-negative")
        if not (0.0 < self.visibility <= 1.0):
            raise ValueError("visibility must be in (0, 1]")
        if self.t2 > 2 * self.t1 + 1e-9:
            raise ValueError("t2 cannot exceed 2 * t1")

    @property
    def idle_frequency(self) -> float:
        return freq_from_current(self, self.i_idle)

    def rabi_frequency(self, drive_amplitude: float) -> float:
        """Omega_R in GHz for a drive amplitude in volts."""
        return self.rabi_per_volt * drive_amplitude * 1e-3


@dataclass(frozen=True)
class FluxPulse:
    """A rectangular flux pulse with symmetric linear ramps.

    The flat top of length `duration` at amplitude `delta_i` is preceded and
    followed by ramps of length `rise_time`; the full footprint is
    [start, start + duration + 2 * rise_time].
    """

    delta_i: float   # uA
    start: float     # ns
    duration: float  # ns, flat-top length
    rise_time: float = 0.0  # ns

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        if self.rise_time < 0:
            raise ValueError("rise_time must be non-negative")

    @property
    def end(self) -> float:
        return self.start + self.duration + 2 * self.rise_time


@dataclass(frozen=True)
class PulseSchedule:
    """Time-ordered, non-overlapping flux pulses plus the drive setting."""

    pulses: tuple
    total_duration: float
    drive_amplitude: float = 0.0
    drive_on: bool = False

    def __post_init__(self):
        pulses = tuple(sorted(self.pulses, key=lambda p: p.start))
        object.__setattr__(self, "pulses", pulses)
        for a, b in zip(pulses, pulses[1:]):
            if b.start < a.end - 1e-12:
                raise ValueError("flux pulses overlap (ramps included)")
        if pulses and pulses[-1].end > self.total_duration + 1e-12:
            raise ValueError("total_duration does not cover all pulses")
        if pulses and pulses[0].start < -1e-12:
            raise ValueError("pulses cannot start before t = 0")


@dataclass
class SimResult:
    """Sampled excited-state population and the final density matrix."""

    times: np.ndarray
    pe: np.ndarray
    final_state: np.ndarray


# ---------------------------------------------------------------------------
# Flux-to-frequency map
# ---------------------------------------------------------------------------

def freq_from_current(p: DeviceParams, i_net) -> np.ndarray | float:
    """Qubit frequency f_max * sqrt(|cos(pi (i - i_offset) / i_period)|)."""
    phase = np.pi * (np.asarray(i_net, dtype=float) - p.i_offset) / p.i_period
    f = p.f_max * np.sqrt(np.abs(np.cos(phase)))
    return float(f) if np.isscalar(i_net) else f


def current_from_freq(p: DeviceParams, f: float, reference: Optional[float] = None) -> float:
    """Inverse of freq_from_current on the monotonic branch nearest `reference`.

    The reference current (default the idle bias) selects which side of the
    flux sweet spot the solution lies on.
    """
    if not (0.0 < f <= p.f_max):
        raise ValueError(f"frequency {f} GHz is outside (0, f_max]")
    if reference is None:
        reference = p.i_idle
    offset = (p.i_period / np.pi) * np.arccos((f / p.f_max) ** 2)
    side = 1.0 if reference >= p.i_offset else -1.0
    return p.i_offset + side * float(offset)


def t1_at_frequency(p: DeviceParams, f):
    """T1 in us including Lorentzian dip contributions at frequency f (scalar or array)."""
    rate = np.full(np.shape(f), 0.0 if math.isinf(p.t1) else 1.0 / p.t1)
    for dip in p.tls_dips:
        half_width = 0.5 * dip.width_mhz * 1e-3  # GHz
        lorentz = half_width**2 / ((f - dip.center_ghz) ** 2 + half_width**2)
        rate = rate + lorentz / dip.t1_dip_us
    with np.errstate(divide="ignore"):
        return 1.0 / rate


# ---------------------------------------------------------------------------
# Propagation engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """A span of the schedule with linearly varying flux and a drive flag."""

    duration: float   # ns
    di_start: float   # uA
    di_end: float     # uA
    drive: bool


def pulse_segments(delta_i: float, duration: float, rise_time: float, drive: bool):
    """Rise ramp, flat top and fall ramp of one flux pulse; empty parts are left out."""
    parts = ((rise_time, 0.0, delta_i), (duration, delta_i, delta_i), (rise_time, delta_i, 0.0))
    return [Segment(length, start, end, drive) for length, start, end in parts if length > 0]


def segments_from_schedule(p: DeviceParams, s: PulseSchedule):
    """Break a schedule into constant and ramp segments covering [0, T]."""
    segments = []
    cursor = 0.0

    def idle_until(t):
        nonlocal cursor
        if t > cursor + 1e-12:
            segments.append(Segment(t - cursor, 0.0, 0.0, s.drive_on))
            cursor = t

    for pulse in s.pulses:
        idle_until(pulse.start)
        segments += pulse_segments(pulse.delta_i, pulse.duration, pulse.rise_time, s.drive_on)
        cursor = pulse.end
    idle_until(s.total_duration)
    return segments


def _step_unitary(delta, omega, tau) -> np.ndarray:
    """Exact exponential of H/h = delta sz/2 + (omega/2) sx over tau ns.

    Arguments broadcast; array arguments give a stack of 2x2 unitaries.
    """
    a = np.pi * np.multiply(tau, omega)[..., None, None]  # sigma_x coefficient
    c = np.pi * np.multiply(tau, delta)[..., None, None]  # sigma_z coefficient
    theta = np.hypot(a, c)
    return np.cos(theta) * IDENTITY - 1j * np.sinc(theta / np.pi) * (a * SIGMA_X + c * SIGMA_Z)


def _decoherence_ptm(p: DeviceParams, f_mid: np.ndarray, tau: float) -> np.ndarray:
    """Amplitude damping with T1(f) then pure dephasing over tau ns, per f_mid."""
    gamma = 1.0 - np.exp(-tau / (t1_at_frequency(p, f_mid) * 1e3))
    dephasing_rate = 1.0 / (p.t2 * 1e3) - 0.5 / (p.t1 * 1e3)  # 1/T_phi in 1/ns
    return relaxation_ptm(gamma, math.exp(-tau * max(dephasing_rate, 0.0)))


def _has_decoherence(p: DeviceParams) -> bool:
    return not math.isinf(p.t1) or not math.isinf(p.t2) or bool(p.tls_dips)


def _step_count(seg: Segment, dt: float) -> int:
    return max(1, int(math.ceil(seg.duration / dt)))


def _segment_steps(p: DeviceParams, seg: Segment, n: int, drive_amplitude: float):
    """Step unitaries, midpoint frequencies and fastest rate of seg cut into n steps.

    The rate is max(|detuning|, Omega_R) in GHz over the step midpoints.  A
    constant segment has one distinct step, returned once.
    """
    omega = p.rabi_frequency(drive_amplitude) if seg.drive else 0.0
    k = np.arange(n if seg.di_start != seg.di_end else 1)
    di_mid = seg.di_start + (seg.di_end - seg.di_start) * ((k + 0.5) / n)
    f_mid = freq_from_current(p, p.i_idle + di_mid)
    delta = f_mid - p.f_cw
    fastest = max(np.max(np.abs(delta)), omega)
    return _step_unitary(delta, omega, seg.duration / n), f_mid, fastest


def _step_maps(p: DeviceParams, seg: Segment, n: int, drive_amplitude: float):
    """PTMs of the distinct steps (see _segment_steps) and the fastest rate."""
    u, f_mid, fastest = _segment_steps(p, seg, n, drive_amplitude)
    maps = ptm_from_unitary(u)
    if _has_decoherence(p):
        maps = _decoherence_ptm(p, f_mid, seg.duration / n) @ maps
    return maps, fastest


def _prefix_products(maps: np.ndarray) -> np.ndarray:
    """[S_0, S_1 S_0, ..., S_n-1 ... S_0] in log2(n) rounds of stacked matmul."""
    out, shift = np.array(maps), 1
    while shift < len(out):
        out[shift:] = out[shift:] @ out[:-shift]
        shift *= 2
    return out


def segment_propagator(p: DeviceParams, seg: Segment, dt: float, drive_amplitude: float):
    """Noiseless 2x2 propagator of one segment, stepped as segment_channel steps it."""
    n = _step_count(seg, dt) if seg.di_start != seg.di_end else 1
    return _prefix_products(_segment_steps(p, seg, n, drive_amplitude)[0])[-1]


@functools.lru_cache(maxsize=1024)  # a QPT set has ~150 distinct segments
def segment_channel(p: DeviceParams, seg: Segment, dt: float, drive_amplitude: float):
    """Read-only PTM of one segment and its fastest rate in GHz (see module doc)."""
    ramp = seg.di_start != seg.di_end
    n = _step_count(seg, dt) if ramp or _has_decoherence(p) else 1
    maps, fastest = _step_maps(p, seg, n, drive_amplitude)
    ptm = _prefix_products(maps)[-1] if ramp else np.linalg.matrix_power(maps[0], n)
    ptm.setflags(write=False)
    return ptm, float(fastest)


def run_segments(p: DeviceParams, segments, dt: float, rho0: np.ndarray,
                 drive_amplitude: float, collect_series: bool = True,
                 check_dt: bool = True) -> SimResult:
    """Propagate rho0 through a segment list; the engine behind evolve().

    Without a series each segment applies its segment_channel.  With one,
    every segment is cut into ceil(duration / dt) steps and the state after
    each step comes from one stacked prefix product.
    """
    r = pauli_vector(validate_density_matrix(rho0))
    times, vectors = [np.zeros(1)], [r[None, :]]
    fastest = t = 0.0
    for seg in segments:
        if seg.duration <= 1e-15:
            continue
        if collect_series:
            n = _step_count(seg, dt)
            maps, rate = _step_maps(p, seg, n, drive_amplitude)
            vectors.append(_prefix_products(np.broadcast_to(maps, (n, 4, 4))) @ r)
            times.append(t + seg.duration * np.arange(1, n + 1) / n)
            r = vectors[-1][-1]
        else:
            ptm, rate = segment_channel(p, seg, dt, drive_amplitude)
            r = ptm @ r
        fastest = max(fastest, rate)
        t += seg.duration
    if check_dt and fastest > 0 and dt > DT_SAFETY_FACTOR / fastest:
        raise ValueError(
            f"dt = {dt} ns is too coarse: need dt <= "
            f"{DT_SAFETY_FACTOR / fastest:.4g} ns to resolve {fastest:.4g} GHz"
        )
    trace_error = abs(r[0] - 1.0)
    if trace_error > TRACE_TOL_PER_US * max(1.0, t / 1e3):
        raise ConsistencyError(f"state trace drifted by {trace_error:.3e}")
    vectors = np.concatenate(vectors) if collect_series else r[None, :]
    times = np.concatenate(times) if collect_series else np.array([t])
    pe = np.clip(0.5 * (vectors[:, 0] - vectors[:, 3]), 0.0, 1.0)
    return SimResult(times=times, pe=pe, final_state=density_from_pauli_vector(r))


def evolve(p: DeviceParams, s: PulseSchedule, dt: float, rho0: np.ndarray) -> SimResult:
    """Simulate a schedule from rho0, sampling P_e roughly every dt ns."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return run_segments(
        p, segments_from_schedule(p, s), dt, rho0, s.drive_amplitude,
        collect_series=True,
    )


# ---------------------------------------------------------------------------
# Readout
# ---------------------------------------------------------------------------

def observed_probability(p: DeviceParams, pe: float) -> float:
    """Visibility-compressed probability 1/2 + visibility * (P_e - 1/2)."""
    return 0.5 + p.visibility * (pe - 0.5)


def measure(rho: np.ndarray, p: DeviceParams, shots: Optional[int] = None,
            rng: Optional[np.random.Generator] = None) -> float:
    """Estimate P_e with finite binomial sampling; shots=None is exact."""
    pe = min(max(excited_population(rho), 0.0), 1.0)
    p_obs = observed_probability(p, pe)
    if shots is None:
        return p_obs
    check_shots(shots)
    if rng is None:
        raise ValueError("finite-shot measurement needs a random generator")
    return rng.binomial(int(shots), p_obs) / int(shots)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def single_pulse_schedule(delta_i: float, duration: float, rise_time: float,
                          drive_amplitude: float) -> PulseSchedule:
    pulse = FluxPulse(delta_i=delta_i, start=0.0, duration=duration, rise_time=rise_time)
    return PulseSchedule(
        pulses=(pulse,), total_duration=pulse.end,
        drive_amplitude=drive_amplitude, drive_on=True,
    )


def rabi_chevron(p: DeviceParams, delta_i_grid, t_grid, *, drive_amplitude: float,
                 rise_time: float = 0.0, dt: float = 0.05,
                 shots: Optional[int] = None, seed: int = 0) -> np.ndarray:
    """P_e map over flux-pulse amplitude (columns) and duration (rows).

    Without decoherence, each column reuses the cached rise and fall segment
    maps and a closed-form flat-top exponential for all durations at once.
    """
    delta_i_grid = np.asarray(delta_i_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if delta_i_grid.size == 0 or t_grid.size == 0:
        raise ValueError("scan grids must be non-empty")
    out = np.empty((t_grid.size, delta_i_grid.size))
    decohere = _has_decoherence(p)
    omega = p.rabi_frequency(drive_amplitude)
    for di in delta_i_grid:
        _check_chevron_dt(p, di, omega, dt)
    for j, di in enumerate(delta_i_grid):
        if decohere:
            for i, duration in enumerate(t_grid):
                schedule = single_pulse_schedule(di, duration, rise_time, drive_amplitude)
                res = run_segments(
                    p, segments_from_schedule(p, schedule), dt,
                    GROUND_STATE, drive_amplitude, collect_series=False,
                )
                out[i, j] = res.pe[-1]
        else:
            rise, _ = segment_channel(p, Segment(rise_time, 0.0, di, True), dt, drive_amplitude)
            fall, _ = segment_channel(p, Segment(rise_time, di, 0.0, True), dt, drive_amplitude)
            delta_flat = freq_from_current(p, p.i_idle + di) - p.f_cw
            flat = ptm_from_unitary(_step_unitary(delta_flat, omega, t_grid))
            final = fall @ flat @ rise @ pauli_vector(GROUND_STATE)
            out[:, j] = 0.5 * (final[:, 0] - final[:, 3])
    if shots is not None:
        out = _sample_map(p, out, shots, seed)
    else:
        out = observed_probability(p, out)
    return out


def _check_chevron_dt(p: DeviceParams, di: float, omega: float, dt: float):
    delta = abs(freq_from_current(p, p.i_idle + di) - p.f_cw)
    delta_idle = abs(p.idle_frequency - p.f_cw)
    fastest = max(delta, delta_idle, omega)
    if fastest > 0 and dt > DT_SAFETY_FACTOR / fastest:
        raise ValueError(
            f"dt = {dt} ns too coarse for detuning/Rabi of {fastest:.4g} GHz"
        )


def _sample_map(p: DeviceParams, pe_map: np.ndarray, shots: int, seed: int) -> np.ndarray:
    check_shots(shots)
    out = np.empty_like(pe_map)
    for idx in np.ndindex(pe_map.shape):
        rng = np.random.default_rng((seed, *idx))
        out[idx] = rng.binomial(shots, observed_probability(p, pe_map[idx])) / shots
    return out


def ramsey_axis_scan(p: DeviceParams, delta_i_mid_grid, delta_t_mid_grid, *,
                     delta_i_res: float, t_half: float, drive_amplitude: float,
                     rise_time: float = 0.0, dt: float = 0.05,
                     shots: Optional[int] = None, seed: int = 0) -> np.ndarray:
    """Two resonant half-pulses separated by a variable detuned middle step.

    The drive is active during the half-pulses only; during the middle step
    the qubit precesses freely, so at delta_i_mid = 0 the fringe period along
    delta_t_mid is 1 / (f_cw - idle frequency).  Rows index delta_t_mid,
    columns delta_i_mid.
    """
    delta_i_mid_grid = np.asarray(delta_i_mid_grid, dtype=float)
    delta_t_mid_grid = np.asarray(delta_t_mid_grid, dtype=float)
    if delta_i_mid_grid.size == 0 or delta_t_mid_grid.size == 0:
        raise ValueError("scan grids must be non-empty")
    out = np.empty((delta_t_mid_grid.size, delta_i_mid_grid.size))
    for j, di_mid in enumerate(delta_i_mid_grid):
        for i, t_mid in enumerate(delta_t_mid_grid):
            segments = ramsey_segments(
                delta_i_res=delta_i_res, t_half=t_half, di_mid=di_mid,
                t_mid=t_mid, rise_time=rise_time,
            )
            res = run_segments(
                p, segments, dt, GROUND_STATE, drive_amplitude,
                collect_series=False,
            )
            out[i, j] = res.pe[-1]
    if shots is not None:
        out = _sample_map(p, out, shots, seed)
    else:
        out = observed_probability(p, out)
    return out


def ramsey_segments(*, delta_i_res: float, t_half: float, di_mid: float,
                    t_mid: float, rise_time: float = 0.0):
    """Segment list for a half-pulse / free middle step / half-pulse sequence."""
    half_pulse = pulse_segments(delta_i_res, t_half, rise_time, True)
    middle = [Segment(t_mid, di_mid, di_mid, False)] if t_mid > 0 else []
    return half_pulse + middle + half_pulse


def swap_spectroscopy(p: DeviceParams, prepared: str, f_grid, t_grid, *,
                      apply_visibility: bool = True) -> np.ndarray:
    """P_e map for relaxation at each target frequency (drive off).

    With the drive off the populations obey the exact amplitude-damping
    solution, so each cell is closed-form: exp(-t / T1(f)) for an excited
    preparation and 0 for a ground preparation (no thermal excitation is
    modeled).  Rows index time, columns frequency.
    """
    if prepared not in ("g", "e"):
        raise ValueError("prepared must be 'g' or 'e'")
    f_grid = np.asarray(f_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if f_grid.size == 0 or t_grid.size == 0:
        raise ValueError("scan grids must be non-empty")
    if np.any(f_grid <= 0) or np.any(f_grid > p.f_max):
        raise ValueError("f_grid must lie within (0, f_max]")
    t1_ns = t1_at_frequency(p, f_grid) * 1e3
    with np.errstate(over="ignore"):
        decay = np.exp(-np.outer(t_grid, 1.0 / t1_ns))
    pe = decay if prepared == "e" else np.zeros((t_grid.size, f_grid.size))
    return observed_probability(p, pe) if apply_visibility else pe


def on_off_stats(maps, *, min_rows: int = 10):
    """Per-column contrast <Delta P_e>_5 and the on-off ratio of a scan set.

    `maps` is one P_e map (rows = durations) or a sequence of maps, one per
    drive amplitude.  For every column the five highest and five lowest
    values are averaged and differenced; the ratio is the max over the
    resulting map divided by its min, floored at one ulp to avoid division
    by zero.  Returns (dp5, ratio) where dp5 has one row per input map.
    """
    maps = np.asarray(maps, dtype=float)
    if maps.ndim == 2:
        maps = maps[None, :, :]
    if maps.ndim != 3:
        raise ValueError("expected one 2-d map or a sequence of 2-d maps")
    if maps.shape[1] < min_rows:
        raise ValueError(f"each column needs at least {min_rows} rows")
    ordered = np.sort(maps, axis=1)
    dp5 = ordered[:, -5:, :].mean(axis=1) - ordered[:, :5, :].mean(axis=1)
    floor = np.finfo(float).eps
    if dp5.max() == dp5.min():
        ratio = 1.0
    else:
        ratio = float(dp5.max() / max(dp5.min(), floor))
    return dp5, ratio


def asymmetry_about(profile, coords, center: float) -> float:
    """Normalized antisymmetric content of profile(coords) about `center`.

    Interpolates the profile at center +/- x over the largest symmetric
    window and returns ||odd part|| / ||even part||; 0 for a symmetric
    profile.
    """
    profile = np.asarray(profile, dtype=float)
    coords = np.asarray(coords, dtype=float)
    half_span = min(center - coords.min(), coords.max() - center)
    if half_span <= 0:
        raise ValueError("center must lie strictly inside the coordinate range")
    x = np.linspace(0, half_span, 101)[1:]
    upper = np.interp(center + x, coords, profile)
    lower = np.interp(center - x, coords, profile)
    odd = np.linalg.norm(upper - lower)
    even = np.linalg.norm(upper + lower)
    return float(odd / even) if even > 0 else 0.0
