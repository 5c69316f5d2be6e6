"""Time-domain simulation of a flux-tunable qubit under a fixed CW drive.

The qubit is a two-level system whose transition frequency follows the
square-root-of-cosine flux map f(i) = f_max * sqrt(|cos(pi (i - i_offset) /
i_period)|).  Dynamics are integrated in the frame rotating at the drive
frequency f_cw with

    H / h = delta(t) * sigma_z / 2 + (Omega_R / 2) * sigma_x,
    delta(t) = f_q(t) - f_cw,

where Omega_R = rabi_per_volt * drive_amplitude.  The drive phase is fixed;
rotation-axis angles arise purely from pulse timing.

A flux program (PulseSchedule) becomes segments of constant or linearly
ramped flux in one place, segments_from_schedule: the drive is on within
pulses and off in the gaps, and a FluxDistortion adds gain error, edge
jitter and settling tails.  Each segment becomes one memoised 4x4 Pauli
transfer matrix (PTM); segments compose by matrix product.  A step is the
exact 2x2 exponential at the step midpoint, then amplitude damping at
1/T1(f) and dephasing at 1/T2 - 1/(2 T1).
A ramp is the product of its ceil(duration / dt) steps; a constant segment
is one exact step, or with T1/T2 the n-th matrix power of its step map.  The
step size only sets the accuracy of ramps and T1/T2.  run_segments applies
one cached map per segment and returns the final state only.  The chevron
and Ramsey scans propagate every (column, duration) cell at once: the cached
maps of the fixed segments, stacked over the columns position by position,
around a swept segment built for the whole grid in one call.
Every measured P_e goes through qcore.read_out.

Units: times in ns, frequencies in GHz, currents in uA, T1/T2 in us.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ConsistencyError
from .qcore import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Z,
    check_coherence_times,
    density_from_pauli_vector,
    excited_population,
    pauli_vector,
    ptm_from_unitary,
    read_out,
    relaxation_factors,
    relaxation_ptm,
    validate_density_matrix,
)

_log = logging.getLogger(__name__)

GROUND_STATE = np.array([[1, 0], [0, 0]], dtype=complex)
EXCITED_STATE = np.array([[0, 0], [0, 1]], dtype=complex)

DT_SAFETY_FACTOR = 0.05  # dt <= 0.05 / max(|detuning|, Omega_R)
TRACE_TOL_PER_US = 1e-9
ON_OFF_MIN_ROWS = 10  # on_off_stats averages the five highest and five lowest rows


@dataclass(frozen=True)
class TlsDip:
    """A Lorentzian T1 dip: two-level-system or resonator loss at one frequency."""

    center_ghz: float
    width_mhz: float
    t1_dip_us: float

    def __post_init__(self):
        if not math.isfinite(self.center_ghz):
            raise ValueError("center_ghz must be finite")
        if not (0.0 < self.width_mhz < math.inf):
            raise ValueError("width_mhz must be positive and finite")
        if not self.t1_dip_us > 0.0:
            raise ValueError("t1_dip_us must be positive (inf allowed)")


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

    def __post_init__(self):
        object.__setattr__(self, "tls_dips", tuple(self.tls_dips))  # hashable memo key
        if any(isinstance(v, float) and math.isnan(v) for v in vars(self).values()):
            raise ValueError("device parameters must not be NaN")
        for name in ("f_max", "i_period", "f_cw"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.rabi_per_volt < 0:
            raise ValueError("rabi_per_volt must be non-negative")
        if not (0.0 < self.visibility <= 1.0):
            raise ValueError("visibility must be in (0, 1]")
        check_coherence_times(self.t1, self.t2)

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
        if not all(map(math.isfinite, (self.delta_i, self.start, self.duration, self.rise_time))):
            raise ValueError("flux pulse amplitude and times must be finite")
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        if self.rise_time < 0:
            raise ValueError("rise_time must be non-negative")

    @property
    def end(self) -> float:
        return self.start + self.duration + 2 * self.rise_time


@dataclass(frozen=True)
class PulseSchedule:
    """Time-ordered, non-overlapping flux pulses in the window [0, total_duration]."""

    pulses: tuple            # FluxPulse entries
    total_duration: float    # ns, window end including the trailing gap

    def __post_init__(self):
        if not (math.isfinite(self.total_duration) and self.total_duration >= 0):
            raise ValueError("total_duration must be finite and non-negative")
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
    """The end of a run: its duration, final P_e and final density matrix.

    `times` and `pe` are one-element arrays; the engine keeps no time series.
    """

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


@dataclass(frozen=True)
class FluxDistortion:
    """Pulse imperfections: gain error, edge jitter, settling tail."""

    amplitude_error: float = 0.0    # multiplicative delta_i error
    timing_jitter_ns: float = 0.0   # std of random leading-edge shifts
    settle_amplitude: float = 0.0   # tail height as a fraction of delta_i
    settle_tau_ns: float = 0.0      # tail time constant

    def __post_init__(self):
        if not all(math.isfinite(value) for value in vars(self).values()):
            raise ValueError("distortion parameters must be finite")
        if self.timing_jitter_ns < 0:
            raise ValueError("timing_jitter_ns must be non-negative")
        if self.settle_amplitude != 0 and not self.settle_tau_ns > 0:
            raise ValueError("a settling tail needs a positive settle_tau_ns")


def segments_from_schedule(s: PulseSchedule, distortion: Optional[FluxDistortion] = None,
                           rng: Optional[np.random.Generator] = None):
    """Engine segments for a flux program: drive on within pulses, off in gaps.

    Without a distortion the segments tile [0, total_duration].  A distortion
    scales each pulse amplitude by 1 + amplitude_error, moves each leading
    edge by Gaussian jitter (never before the previous pulse ends; needs
    `rng`), and appends a 4-tau settling tail after each pulse (an overshoot
    for a positive settle_amplitude, an undershoot for a negative one).
    """
    if distortion is not None and distortion.timing_jitter_ns > 0 and rng is None:
        raise ValueError("timing jitter needs a random generator")
    segments = []
    cursor = 0.0
    for pulse in s.pulses:
        start, delta_i = pulse.start, pulse.delta_i
        if distortion is not None:
            delta_i = delta_i * (1.0 + distortion.amplitude_error)
            if distortion.timing_jitter_ns > 0:
                start = max(cursor, start + rng.normal(0.0, distortion.timing_jitter_ns))
        if start > cursor + 1e-12:
            segments.append(Segment(start - cursor, 0.0, 0.0, False))
        segments += pulse_segments(delta_i, pulse.duration, pulse.rise_time, True)
        cursor = start + pulse.duration + 2 * pulse.rise_time
        if distortion is not None and distortion.settle_amplitude != 0:
            tau = distortion.settle_tau_ns
            chunks = 6
            chunk = 4.0 * tau / chunks
            for k in range(chunks):
                level = distortion.settle_amplitude * delta_i * math.exp(
                    -(k + 0.5) * chunk / tau
                )
                segments.append(Segment(chunk, level, level, False))
            cursor += 4.0 * tau
    if s.total_duration > cursor + 1e-12:
        segments.append(Segment(s.total_duration - cursor, 0.0, 0.0, False))
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
    return relaxation_ptm(*relaxation_factors(tau, p.t1, p.t2, t1_at_frequency(p, f_mid)))


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


def _segment_map(p: DeviceParams, seg: Segment, dt: float, drive_amplitude: float):
    """Read-only PTM of one segment and its fastest rate in GHz (see module doc)."""
    ramp, decohere = seg.di_start != seg.di_end, _has_decoherence(p)
    n = _step_count(seg, dt) if ramp or decohere else 1
    u, f_mid, fastest = _segment_steps(p, seg, n, drive_amplitude)
    maps = ptm_from_unitary(u)
    if decohere:
        maps = _decoherence_ptm(p, f_mid, seg.duration / n) @ maps
    ptm = _prefix_products(maps)[-1] if ramp else np.linalg.matrix_power(maps[0], n)
    ptm.setflags(write=False)
    return ptm, float(fastest)


# The memoised segment map; a QPT set has ~150 distinct segments.
segment_channel = functools.lru_cache(maxsize=1024)(_segment_map)


def check_dt(dt: float) -> None:
    """Raise ValueError unless the step dt (ns) is positive and finite."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")


def _check_resolution(dt: float, fastest: float) -> None:
    """Reject a step coarser than DT_SAFETY_FACTOR / fastest rate (GHz)."""
    if fastest > 0 and dt > DT_SAFETY_FACTOR / fastest:
        raise ValueError(
            f"dt = {dt} ns is too coarse: need dt <= "
            f"{DT_SAFETY_FACTOR / fastest:.4g} ns to resolve {fastest:.4g} GHz"
        )


def _check_trace(trace_error: float, duration_ns: float) -> None:
    """Raise ConsistencyError when a state's trace drifted past tolerance (or is NaN)."""
    if not trace_error <= TRACE_TOL_PER_US * max(1.0, duration_ns / 1e3):
        raise ConsistencyError(f"state trace drifted by {trace_error:.3e}")


def run_segments(p: DeviceParams, segments, dt: float, rho0: np.ndarray,
                 drive_amplitude: float) -> SimResult:
    """Propagate rho0 through a segment list, one segment_channel map per segment."""
    check_dt(dt)
    r = pauli_vector(validate_density_matrix(rho0))
    fastest = t = 0.0
    for seg in segments:
        if seg.duration <= 1e-15:
            continue
        ptm, rate = segment_channel(p, seg, dt, drive_amplitude)
        r = ptm @ r
        fastest = max(fastest, rate)
        t += seg.duration
    _check_resolution(dt, fastest)
    _check_trace(abs(r[0] - 1.0), t)
    pe = np.clip([0.5 * (r[0] - r[3])], 0.0, 1.0)
    return SimResult(times=np.array([t]), pe=pe, final_state=density_from_pauli_vector(r))


# ---------------------------------------------------------------------------
# Readout and experiments
# ---------------------------------------------------------------------------

def measure(rho: np.ndarray, p: DeviceParams, shots: Optional[int] = None,
            rng: Optional[np.random.Generator] = None) -> float:
    """P_e of rho through qcore.read_out with the device visibility."""
    return read_out(excited_population(rho), p.visibility, shots, rng)


def single_pulse_schedule(delta_i: float, duration: float, rise_time: float) -> PulseSchedule:
    pulse = FluxPulse(delta_i=delta_i, start=0.0, duration=duration, rise_time=rise_time)
    return PulseSchedule(pulses=(pulse,), total_duration=pulse.end)


def _scan(p: DeviceParams, columns, durations, *, drive_amplitude: float, dt: float,
          shots: Optional[int], seed: int) -> np.ndarray:
    """Read-out P_e map from |g>; rows index `durations`, one column per entry.

    A column (before, delta_i, drive, after) runs the fixed segments `before`,
    a constant segment at delta_i with the drive flag `drive`, then `after`;
    columns have equally many fixed segments.  Every cell propagates at once:
    the cached maps at each fixed position are stacked over the columns, and
    the swept segment is one closed-form step per cell (with T1/T2 each
    cell's uncached step-map power, keeping one-off maps out of the cache).
    Cells share one dt check and keep each column's trace check; each scan
    logs one DEBUG record of the grid, dt against its limit and worst drift.
    """
    check_dt(dt)
    durations = np.asarray(durations, dtype=float)
    if durations.size == 0 or not columns:
        raise ValueError("scan grids must be non-empty")
    if np.any(durations < 0):
        raise ValueError("scan durations must be non-negative")
    segments_before, delta_i, drive, segments_after = zip(*columns)
    fixed = [[[segment_channel(p, seg, dt, drive_amplitude) for seg in segments
               if seg.duration > 1e-15] for segments in part]
             for part in (segments_before, segments_after)]
    omega = np.where(drive, p.rabi_frequency(drive_amplitude), 0.0)
    delta = freq_from_current(p, p.i_idle + np.array(delta_i)) - p.f_cw
    fastest = max(abs(p.idle_frequency - p.f_cw), np.max(np.abs(delta)), np.max(omega),
                  *(rate for part in fixed for maps in part for _, rate in maps))
    if _has_decoherence(p):
        swept = np.array([[_segment_map(p, Segment(t, di, di, on), dt, drive_amplitude)[0]
                           for di, on in zip(delta_i, drive)] for t in durations])
    else:
        swept = ptm_from_unitary(_step_unitary(delta, omega, durations[:, None]))
    # one (columns, 4, 4) stack of cached maps per fixed-segment position
    before, after = (np.array([[ptm for ptm, _ in maps] for maps in part])
                     .reshape(len(columns), -1, 4, 4).swapaxes(0, 1) for part in fixed)
    r = pauli_vector(GROUND_STATE)
    for ptm in [*before, swept, *after]:
        r = (ptm @ r[..., None])[..., 0]  # map by map, as run_segments applies them
    drift = np.max(np.abs(r[..., 0] - 1.0), axis=0)  # each column's worst cell
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("scan %d columns x %d durations: dt %.4g ns, limit %.4g ns, "
                   "worst trace drift %.3e", len(columns), durations.size, dt,
                   DT_SAFETY_FACTOR / fastest if fastest > 0 else math.inf, np.max(drift))
    # each column against its shortest cell's (tightest) tolerance
    for error, head, tail in zip(drift.tolist(), segments_before, segments_after):
        _check_trace(error, sum(seg.duration for seg in head + tail) + durations.min())
    _check_resolution(dt, fastest)
    return read_out(0.5 * (r[..., 0] - r[..., 3]), p.visibility, shots,
                    np.random.default_rng(seed))


def rabi_chevron(p: DeviceParams, delta_i_grid, t_grid, *, drive_amplitude: float,
                 rise_time: float = 0.0, dt: float = 0.05,
                 shots: Optional[int] = None, seed: int = 0) -> np.ndarray:
    """P_e map over flux-pulse amplitude (columns) and flat-top duration (rows)."""
    columns = [([Segment(rise_time, 0.0, di, True)], di, True, [Segment(rise_time, di, 0.0, True)])
               for di in np.asarray(delta_i_grid, dtype=float)]
    return _scan(p, columns, t_grid, drive_amplitude=drive_amplitude, dt=dt,
                 shots=shots, seed=seed)


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
    half_pulse = pulse_segments(delta_i_res, t_half, rise_time, True)
    columns = [(half_pulse, di_mid, False, half_pulse)
               for di_mid in np.asarray(delta_i_mid_grid, dtype=float)]
    return _scan(p, columns, delta_t_mid_grid, drive_amplitude=drive_amplitude, dt=dt,
                 shots=shots, seed=seed)


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
    return read_out(pe, p.visibility) if apply_visibility else pe


def on_off_stats(maps):
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
    if maps.shape[1] < ON_OFF_MIN_ROWS:
        raise ValueError(f"each column needs at least {ON_OFF_MIN_ROWS} rows")
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
