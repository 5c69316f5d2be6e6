"""Calibration and compilation of demultiplexed flux-pulse gates.

A gate is a train of rectangular flux pulses that bring the qubit onto
resonance with the fixed CW drive.  Pulse length sets the rotation amount;
pulse timing sets the rotation axis, because the qubit precesses relative
to the drive frame during the drive-off gaps between pulses.  Writing the
gap phases as virtual Z rotations, the realized unitary over a sequence
window is

    Z(chi_n) X_n ... X_1 Z(chi_0) = Z(chi_total) * prod_k R(axis_k, amount_k)

with chi(g) = -2 pi (g + latency) / axis_period per gap.  The compiler
solves the gaps so each pulse lands on its target axis angle and pads the
trailing gap until the net frame phase vanishes, so the simulated window
equals the target gate up to a global phase (within the delay resolution).

Calibration follows three steps: (1) flux-pulse amplitude from the maximum
Rabi contrast in a chevron scan, (2) pi-pulse duration from a resonant Rabi
fit, and (3) axis-angle timing from the fringe of a two-half-pulse scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import CalibrationError
from .analysis import FitResult, fit_nlls, fit_nlls_rows
from .pulsesim import (
    GROUND_STATE,
    DeviceParams,
    FluxPulse,
    Segment,
    current_from_freq,
    measure,
    pulse_segments,
    rabi_chevron,
    ramsey_axis_scan,
    run_segments,
    segment_propagator,
)
from .qcore import bloch_rotation, phase_aligned_distance
from .tomography import (
    AXIS_LABELS,
    IDEAL_GATES,
    MeasurementRecord,
    ReconstructionOptions,
    qpt_record,
    reconstruct,
    report_fidelities,
)

_PI = math.pi

# In-plane Euler decompositions: (rotation amount, axis angle) applied in
# order.  T and S avoid virtual-Z segments on purpose; the identities
# R(0,90) R(th/2,180) R(th,90) = Z_th and the stepping-axis form for S are
# exact (verified by the unit tests).
GATE_PULSE_TABLE = {
    "I": (),
    "X90": ((_PI / 2, 0.0),),
    "X180": ((_PI, 0.0),),
    "Y-90": ((_PI / 2, -_PI / 2),),
    "T": ((_PI / 2, 0.0), (_PI, _PI / 8), (_PI / 2, _PI / 4)),
    "S": ((_PI / 2, 0.0), (_PI / 2, -_PI / 2), (_PI / 2, -_PI)),
    "H": ((_PI, 0.0), (_PI / 2, -_PI / 2)),
}

QPT_GATES = ("X90", "Y-90", "T", "S", "H")

# Preparation pulses mapping |g> (Bloch +z) to each axial state, and basis
# pulses mapping each signed axis onto +z before readout.
_PREP_GATES = {
    "+z": None,
    "-z": "X180",
    "+x": ("XY", _PI / 2, _PI / 2),
    "-x": ("XY", _PI / 2, -_PI / 2),
    "+y": ("XY", _PI / 2, _PI),
    "-y": ("XY", _PI / 2, 0.0),
}
_BASIS_GATES = {
    "+z": None,
    "-z": "X180",
    "+x": ("XY", _PI / 2, -_PI / 2),
    "-x": ("XY", _PI / 2, _PI / 2),
    "+y": ("XY", _PI / 2, 0.0),
    "-y": ("XY", _PI / 2, _PI),
}

DELAY_SEARCH_HORIZON_PERIODS = 10


@dataclass(frozen=True)
class Calibration:
    """The three calibrated constants plus the fitted fringe phase."""

    delta_i_res: float    # uA, flux-pulse amplitude reaching the drive
    t_pi: float           # ns, pi-pulse flat-top duration
    axis_period: float    # ns, delay per full turn of the rotation axis
    phase_offset: float = 0.0  # rad, fitted fringe phase (latency per gap)

    def __post_init__(self):
        if self.t_pi <= 0 or self.axis_period <= 0:
            raise ValueError("t_pi and axis_period must be positive")


@dataclass(frozen=True)
class DemuxSequence:
    """Compiled pulses (identical amplitude) plus intended axis angles."""

    name: str
    pulses: tuple            # FluxPulse entries, time ordered
    axis_angles: tuple       # rad, one per pulse
    total_duration: float    # ns, window end including the trailing gap
    rotation_amounts: tuple  # rad, one per pulse


@dataclass(frozen=True)
class FluxDistortion:
    """Pulse imperfections: gain error, edge jitter, settling tail."""

    amplitude_error: float = 0.0    # multiplicative delta_i error
    timing_jitter_ns: float = 0.0   # std of random leading-edge shifts
    settle_amplitude: float = 0.0   # tail height as a fraction of delta_i
    settle_tau_ns: float = 0.0      # tail time constant


def nominal_calibration(p: DeviceParams, drive_amplitude: float) -> Calibration:
    """Map-derived calibration (no scans): exact for zero rise time."""
    delta_i_res = current_from_freq(p, p.f_cw) - p.i_idle
    omega = p.rabi_frequency(drive_amplitude)
    detuning = p.f_cw - p.idle_frequency
    if detuning <= 0:
        raise CalibrationError("device must idle below the drive frequency")
    return Calibration(
        delta_i_res=delta_i_res,
        t_pi=1.0 / (2.0 * omega),
        axis_period=1.0 / detuning,
        phase_offset=0.0,
    )


# ---------------------------------------------------------------------------
# Calibration scans
# ---------------------------------------------------------------------------

def calibrate_amplitude(p: DeviceParams, *, delta_i_grid, t_grid,
                        drive_amplitude: float, rise_time: float = 0.0,
                        dt: float = 0.05, min_contrast: float = 0.2,
                        refinements: int = 2) -> float:
    """Step 1: flux-pulse amplitude maximizing the Rabi oscillation contrast."""
    delta_i_grid = np.asarray(delta_i_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    best_di = None
    best_contrast = 0.0
    grid = delta_i_grid
    for stage in range(refinements + 1):
        scan = rabi_chevron(
            p, grid, t_grid, drive_amplitude=drive_amplitude,
            rise_time=rise_time, dt=dt,
        )
        # a column whose fit fails or does not converge has no contrast
        contrasts = np.array([
            2.0 * abs(fit["A"]) if isinstance(fit, FitResult) and fit.converged else 0.0
            for fit in fit_nlls_rows("cosine_fringe", t_grid, scan.T)
        ])
        peak = int(np.argmax(contrasts))
        if stage == 0 and contrasts[peak] < min_contrast:
            raise CalibrationError(
                f"no Rabi contrast above {min_contrast} in the scanned range"
            )
        best_di, best_contrast = float(grid[peak]), float(contrasts[peak])
        if stage < refinements:
            step = (grid[-1] - grid[0]) / max(grid.size - 1, 1)
            grid = np.linspace(best_di - step, best_di + step, 21)
    # parabolic vertex through the best three refined columns
    if 0 < peak < grid.size - 1:
        y0, y1, y2 = contrasts[peak - 1:peak + 2]
        curvature = y0 - 2 * y1 + y2
        if curvature < -1e-12:
            step = grid[peak] - grid[peak - 1]
            best_di = float(grid[peak] + 0.5 * step * (y0 - y2) / curvature)
    if best_contrast < min_contrast:
        raise CalibrationError("refined scan lost the resonance feature")
    return best_di


def calibrate_duration(p: DeviceParams, delta_i_res: float, *, t_grid,
                       drive_amplitude: float, rise_time: float = 0.0,
                       dt: float = 0.05) -> float:
    """Step 2: pi-pulse duration from a resonant Rabi fit at the step-1 amplitude."""
    t_grid = np.asarray(t_grid, dtype=float)
    scan = rabi_chevron(
        p, [delta_i_res], t_grid, drive_amplitude=drive_amplitude,
        rise_time=rise_time, dt=dt,
    )
    fit = fit_nlls("cosine_fringe", t_grid, scan[:, 0])
    if not fit.converged or abs(fit["f"]) <= 0:
        raise CalibrationError("Rabi fit did not converge at the resonant amplitude")
    return 1.0 / (2.0 * abs(fit["f"]))


def calibrate_timing(p: DeviceParams, delta_i_res: float, t_pi: float, *,
                     delta_t_grid, drive_amplitude: float,
                     rise_time: float = 0.0, dt: float = 0.05):
    """Step 3: axis-angle period and phase from the two-half-pulse fringe.

    P_e = 1 means both pulse axes coincide, 0 means they are opposite, and
    1/2 means they are normal to each other; the fringe period in the
    middle delay is the delay per full axis turn.
    """
    delta_t_grid = np.asarray(delta_t_grid, dtype=float)
    fringe = ramsey_axis_scan(
        p, [0.0], delta_t_grid, delta_i_res=delta_i_res, t_half=t_pi / 2.0,
        drive_amplitude=drive_amplitude, rise_time=rise_time, dt=dt,
    )[:, 0]
    fit = fit_nlls("cosine_fringe", delta_t_grid, fringe)
    if not fit.converged or abs(fit["f"]) <= 0:
        raise CalibrationError("axis-angle fringe fit did not converge")
    amplitude, phase = fit["A"], fit["phi"]
    if amplitude < 0:
        phase += _PI
    phase = math.remainder(phase, 2 * _PI)
    return 1.0 / abs(fit["f"]), phase


def calibrate(p: DeviceParams, *, drive_amplitude: float, rise_time: float = 0.0,
              dt: float = 0.05, delta_i_grid=None, rabi_t_grid=None,
              ramsey_t_grid=None) -> Calibration:
    """Run the three calibration steps with map-seeded default scan ranges."""
    nominal = nominal_calibration(p, drive_amplitude)
    if delta_i_grid is None:
        delta_i_grid = nominal.delta_i_res + np.linspace(-3.0, 3.0, 25)
    if rabi_t_grid is None:
        rabi_t_grid = np.linspace(0.0, 4.0 * nominal.t_pi, 81)
    if ramsey_t_grid is None:
        ramsey_t_grid = np.linspace(0.0, 3.5 * nominal.axis_period, 71)
    delta_i_res = calibrate_amplitude(
        p, delta_i_grid=delta_i_grid, t_grid=rabi_t_grid,
        drive_amplitude=drive_amplitude, rise_time=rise_time, dt=dt,
    )
    t_pi = calibrate_duration(
        p, delta_i_res, t_grid=rabi_t_grid,
        drive_amplitude=drive_amplitude, rise_time=rise_time, dt=dt,
    )
    axis_period, phase_offset = calibrate_timing(
        p, delta_i_res, t_pi, delta_t_grid=ramsey_t_grid,
        drive_amplitude=drive_amplitude, rise_time=rise_time, dt=dt,
    )
    return Calibration(
        delta_i_res=delta_i_res, t_pi=t_pi,
        axis_period=axis_period, phase_offset=phase_offset,
    )


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def _pulse_plan(gate):
    """Target (amount, axis) list with amounts normalized to positive."""
    if isinstance(gate, str):
        if gate not in GATE_PULSE_TABLE:
            raise ValueError(f"unknown gate {gate!r}; known: {sorted(GATE_PULSE_TABLE)}")
        return list(GATE_PULSE_TABLE[gate]), None
    kind = gate[0].upper()
    if kind == "XY":
        _, amount, axis = gate
        if amount < 0:
            amount, axis = -amount, axis + _PI
        return [(amount, axis)], None
    if kind == "Z":
        _, theta = gate
        return [], float(theta)
    raise ValueError(f"unknown gate specification {gate!r}")


def _solve_gap(chi_target: float, cal: Calibration, resolution: float) -> float:
    """Smallest non-negative quantized gap with frame phase chi_target.

    chi(g) = -2 pi (g + latency) / axis_period, latency from the calibrated
    fringe phase; the first solution that keeps the gap non-negative is
    taken, searching at most DELAY_SEARCH_HORIZON_PERIODS periods out.
    """
    period = cal.axis_period
    latency = cal.phase_offset * period / (2 * _PI)
    g = (-chi_target / (2 * _PI)) % 1.0 * period - latency
    for _ in range(DELAY_SEARCH_HORIZON_PERIODS):
        quantized = round(g / resolution) * resolution
        if quantized >= -1e-12:
            return max(quantized, 0.0)
        g += period
    raise ValueError(
        f"no non-negative delay within {DELAY_SEARCH_HORIZON_PERIODS} axis periods"
    )


def compile_gate(gate, cal: Calibration, *, resolution: float = 0.002,
                 rise_time: float = 0.0, start: float = 0.0) -> DemuxSequence:
    """Compile a named gate, ("XY", amount, axis), or ("Z", theta).

    Pulse flat-top durations are amount / pi times the calibrated pi time;
    gaps are chosen by the first-available-delay rule so every pulse lands
    on its target axis and the window's net frame phase is zero.  All times
    are quantized to `resolution`.
    """
    plan, z_angle = _pulse_plan(gate)
    name = gate if isinstance(gate, str) else f"{gate[0]}{tuple(gate[1:])}"
    pulses = []
    axis_angles = []
    amounts = []
    cursor = start
    accumulated_chi = 0.0
    for k, (amount, axis) in enumerate(plan):
        # gap phase so that this pulse's axis angle equals `axis`
        chi_target = -axis - accumulated_chi
        gap = _solve_gap(chi_target, cal, resolution)
        accumulated_chi += _gap_phase(gap, cal)
        cursor += gap
        duration = round((amount / _PI) * cal.t_pi / resolution) * resolution
        pulses.append(
            FluxPulse(delta_i=cal.delta_i_res, start=cursor,
                      duration=duration, rise_time=rise_time)
        )
        axis_angles.append(axis)
        amounts.append(amount)
        cursor = pulses[-1].end
    target_total = 0.0 if z_angle is None else z_angle
    trailing = _solve_gap(target_total - accumulated_chi, cal, resolution)
    cursor += trailing
    return DemuxSequence(
        name=name, pulses=tuple(pulses), axis_angles=tuple(axis_angles),
        total_duration=cursor, rotation_amounts=tuple(amounts),
    )


def _gap_phase(gap: float, cal: Calibration) -> float:
    latency = cal.phase_offset * cal.axis_period / (2 * _PI)
    return -2 * _PI * (gap + latency) / cal.axis_period


def concatenate(sequences) -> DemuxSequence:
    """Tile compiled sequences back to back into one program."""
    pulses = []
    axis_angles = []
    amounts = []
    cursor = 0.0
    names = []
    for seq in sequences:
        for pulse in seq.pulses:
            pulses.append(replace(pulse, start=pulse.start + cursor))
        axis_angles.extend(seq.axis_angles)
        amounts.extend(seq.rotation_amounts)
        cursor += seq.total_duration
        names.append(seq.name)
    return DemuxSequence(
        name="+".join(names), pulses=tuple(pulses), axis_angles=tuple(axis_angles),
        total_duration=cursor, rotation_amounts=tuple(amounts),
    )


def sequence_segments(seq: DemuxSequence, *, distortion: Optional[FluxDistortion] = None,
                      rng: Optional[np.random.Generator] = None):
    """Engine segments for a compiled program: drive on only within pulses."""
    segments = []
    cursor = 0.0
    pulses = seq.pulses
    if distortion is not None and distortion.timing_jitter_ns > 0 and rng is None:
        raise ValueError("timing jitter needs a random generator")
    for pulse in pulses:
        start, delta_i = pulse.start, pulse.delta_i
        if distortion is not None:
            delta_i = delta_i * (1.0 + distortion.amplitude_error)
            if distortion.timing_jitter_ns > 0:
                start = max(cursor, start + rng.normal(0.0, distortion.timing_jitter_ns))
        if start > cursor + 1e-12:
            segments.append(Segment(start - cursor, 0.0, 0.0, False))
        segments += pulse_segments(delta_i, pulse.duration, pulse.rise_time, True)
        cursor = start + pulse.duration + 2 * pulse.rise_time
        if distortion is not None and distortion.settle_amplitude > 0:
            tau = distortion.settle_tau_ns
            chunks = 6
            chunk = 4.0 * tau / chunks
            for k in range(chunks):
                level = distortion.settle_amplitude * delta_i * math.exp(
                    -(k + 0.5) * chunk / tau
                )
                segments.append(Segment(chunk, level, level, False))
            cursor += 4.0 * tau
    if seq.total_duration > cursor + 1e-12:
        segments.append(Segment(seq.total_duration - cursor, 0.0, 0.0, False))
    return segments


def sequence_unitary(p: DeviceParams, seq: DemuxSequence, *,
                     drive_amplitude: float, dt: float = 0.05) -> np.ndarray:
    """Noiseless drive-frame unitary realized by a compiled program."""
    u = np.eye(2, dtype=complex)
    for seg in sequence_segments(seq):
        u = segment_propagator(p, seg, dt, drive_amplitude) @ u
    return u


def simulate_sequence(p: DeviceParams, seq: DemuxSequence, *, drive_amplitude: float,
                      dt: float = 0.05, rho0=None,
                      distortion: Optional[FluxDistortion] = None,
                      rng: Optional[np.random.Generator] = None):
    """Propagate a compiled program; returns the engine SimResult."""
    segments = sequence_segments(seq, distortion=distortion, rng=rng)
    state = GROUND_STATE if rho0 is None else rho0
    return run_segments(p, segments, dt, state, drive_amplitude, collect_series=False)


def compiled_unitary_error(p: DeviceParams, gate, cal: Calibration, *,
                           drive_amplitude: float, resolution: float = 0.002,
                           dt: float = 0.05) -> float:
    """Phase-aligned distance between a compiled gate and its ideal unitary."""
    seq = compile_gate(gate, cal, resolution=resolution)
    u = sequence_unitary(p, seq, drive_amplitude=drive_amplitude, dt=dt)
    if isinstance(gate, str):
        target = IDEAL_GATES[gate]
    elif gate[0].upper() == "XY":
        _, amount, axis = gate
        target = bloch_rotation((math.cos(axis), math.sin(axis), 0.0), amount)
    else:
        target = bloch_rotation((0.0, 0.0, 1.0), gate[1])
    return phase_aligned_distance(u, target)


# ---------------------------------------------------------------------------
# End-to-end process tomography with flux pulses for every operation
# ---------------------------------------------------------------------------

@dataclass
class GateQPTResult:
    name: str
    record: MeasurementRecord
    choi: np.ndarray
    fidelity: float
    diagnostics: object


def make_pulse_executor(p: DeviceParams, cal: Calibration, gate, *,
                        drive_amplitude: float, resolution: float = 0.002,
                        rise_time: float = 0.0, dt: float = 0.05,
                        distortion: Optional[FluxDistortion] = None,
                        seed: int = 0, gate_index: int = 0):
    """Executor for qpt_record: preparation, gate, and basis setting are all
    compiled flux-pulse programs tiled into one schedule."""
    gate_seq = compile_gate(gate, cal, resolution=resolution, rise_time=rise_time)
    # the 36 record entries share 5 distinct preparation and basis programs
    specs = {*_PREP_GATES.values(), *_BASIS_GATES.values()} - {None}
    compiled = {
        spec: compile_gate(spec, cal, resolution=resolution, rise_time=rise_time)
        for spec in specs
    }

    def executor(prep_label, basis_label, shots, _rng):
        programs = []
        if _PREP_GATES[prep_label] is not None:
            programs.append(compiled[_PREP_GATES[prep_label]])
        programs.append(gate_seq)
        if _BASIS_GATES[basis_label] is not None:
            programs.append(compiled[_BASIS_GATES[basis_label]])
        program = concatenate(programs)
        entry = AXIS_LABELS.index(prep_label) * 6 + AXIS_LABELS.index(basis_label)
        rng = np.random.default_rng((seed, gate_index, entry))
        result = simulate_sequence(
            p, program, drive_amplitude=drive_amplitude, dt=dt,
            distortion=distortion, rng=rng,
        )
        excited = measure(result.final_state, p, shots=shots, rng=rng)
        return 1.0 - excited

    return executor


def qpt_pipeline(p: DeviceParams, cal: Calibration, gates=QPT_GATES,
                 shots: Optional[int] = None,
                 opts: ReconstructionOptions = ReconstructionOptions(), *,
                 drive_amplitude: float, resolution: float = 0.002,
                 rise_time: float = 0.0, dt: float = 0.05,
                 distortion: Optional[FluxDistortion] = None,
                 seed: int = 0) -> list:
    """Tomograph each gate with flux-pulse preparation and basis setting."""
    results = []
    for gate_index, gate in enumerate(gates):
        executor = make_pulse_executor(
            p, cal, gate, drive_amplitude=drive_amplitude, resolution=resolution,
            rise_time=rise_time, dt=dt, distortion=distortion,
            seed=seed, gate_index=gate_index,
        )
        record = qpt_record(executor, shots, gate_name=str(gate))
        choi, diagnostics = reconstruct(record, opts)
        fidelity = report_fidelities([gate], [choi])[0][1]
        results.append(GateQPTResult(
            name=gate, record=record, choi=choi,
            fidelity=fidelity, diagnostics=diagnostics,
        ))
    return results
