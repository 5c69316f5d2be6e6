import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxqubit import ConsistencyError
from fluxqubit import analysis as an
from fluxqubit import pulsesim as ps
from fluxqubit import qcore as qc
from fluxqubit.qcore import purity

# Device constants fitted to the published frequency-current anchor points
SWAP_DEVICE = dict(
    f_max=4.82572, i_offset=87.4813, i_period=450.5737, i_idle=32.0,
    f_cw=4.644, rabi_per_volt=17.571428571428573,
)


def swap_device(**overrides):
    return ps.DeviceParams(**{**SWAP_DEVICE, **overrides})


def demux_device(detuning_mhz=101.0, visibility=1.0, **overrides):
    f_max, i_offset, i_period, f_cw = 5.2, 40.0, 120.0, 5.147
    f_idle = f_cw - detuning_mhz * 1e-3
    i_idle = i_offset - (i_period / np.pi) * np.arccos((f_idle / f_max) ** 2)
    params = dict(
        f_max=f_max, i_offset=i_offset, i_period=i_period, i_idle=i_idle,
        f_cw=f_cw, rabi_per_volt=17.571428571428573, visibility=visibility,
    )
    params.update(overrides)
    return ps.DeviceParams(**params)


def resonant_delta_i(p):
    return ps.current_from_freq(p, p.f_cw) - p.i_idle


def test_device_validation():
    with pytest.raises(ValueError):
        swap_device(visibility=0.0)
    with pytest.raises(ValueError):
        swap_device(t1=10.0, t2=25.0)
    with pytest.raises(ValueError):
        swap_device(i_period=-1.0)


def test_freq_from_current_anchor_points():
    p = swap_device()
    assert abs(ps.freq_from_current(p, 0.0) - 4.369) < 1e-3
    assert abs(ps.freq_from_current(p, 32.0) - 4.644) < 1e-3
    assert abs(ps.freq_from_current(p, p.i_offset) - p.f_max) < 1e-12


def test_freq_from_current_even_periodic_with_unique_maximum():
    p = swap_device()
    offsets = np.linspace(0.1, p.i_period / 2 - 0.1, 40)
    left = ps.freq_from_current(p, p.i_offset - offsets)
    right = ps.freq_from_current(p, p.i_offset + offsets)
    assert np.allclose(left, right, atol=1e-12)
    assert np.all(left < p.f_max)
    shifted = ps.freq_from_current(p, p.i_offset + offsets + p.i_period)
    assert np.allclose(shifted, right, atol=1e-9)


def test_current_freq_round_trip():
    p = swap_device()
    for i in np.linspace(p.i_offset - p.i_period / 2 + 1.0, p.i_offset - 0.5, 25):
        f = ps.freq_from_current(p, i)
        assert abs(ps.current_from_freq(p, f, reference=i) - i) < 1e-6
    with pytest.raises(ValueError):
        ps.current_from_freq(p, p.f_max * 1.01)


def test_resonant_rabi_matches_sine_squared():
    p = demux_device()
    di = resonant_delta_i(p)
    omega = p.rabi_frequency(0.7)
    t = np.linspace(0.0, 120.0, 2401)
    pe = ps.rabi_chevron(p, [di], t, drive_amplitude=0.7, dt=0.05)[:, 0]
    expected = np.sin(np.pi * omega * t) ** 2
    assert np.max(np.abs(pe - expected)) < 1e-9


def test_pi_pulse_time_anchor():
    # Omega_R = 12.30 MHz -> t_pi = 40.65 ns
    p = demux_device()
    di = resonant_delta_i(p)
    t = np.linspace(0.0, 160.0, 321)
    trace = ps.rabi_chevron(p, [di], t, drive_amplitude=0.7, dt=0.05)[:, 0]
    fit = an.fit_nlls("cosine_fringe", t, trace)
    t_pi = 1.0 / (2.0 * fit["f"])
    assert abs(t_pi - 40.65) < 0.2


def test_detuned_rabi_matches_generalized_formula():
    p = demux_device()
    omega = p.rabi_frequency(0.7)
    delta = 0.010  # GHz
    f_target = p.f_cw + delta
    di = ps.current_from_freq(p, f_target) - p.i_idle
    t = np.linspace(0.0, 200.0, 401)
    pe = ps.rabi_chevron(p, [di], t, drive_amplitude=0.7, dt=0.04)[:, 0]
    generalized = np.hypot(delta, omega)
    amplitude = omega**2 / generalized**2
    expected = amplitude * np.sin(np.pi * generalized * t) ** 2
    assert np.max(np.abs(pe - expected)) < 0.01 * amplitude


def test_free_precession_fringe_period():
    # detuning 105 MHz -> fringe period 1/0.105 = 9.524 ns
    p = demux_device(detuning_mhz=105.0)
    di = resonant_delta_i(p)
    omega = p.rabi_frequency(0.7)
    t_half = 1.0 / (4.0 * omega)
    delta_t = np.linspace(0.0, 40.0, 401)
    fringe = ps.ramsey_axis_scan(
        p, [0.0], delta_t, delta_i_res=di, t_half=t_half,
        drive_amplitude=0.7, dt=0.05,
    )[:, 0]
    fit = an.fit_nlls("cosine_fringe", delta_t, fringe)
    assert abs(1.0 / fit["f"] - 9.52) < 0.05


def test_ramsey_axis_extremes():
    p = demux_device(detuning_mhz=105.0)
    di = resonant_delta_i(p)
    omega = p.rabi_frequency(0.7)
    t_half = 1.0 / (4.0 * omega)
    period = 1.0 / 0.105
    same_axis = ps.ramsey_axis_scan(
        p, [0.0], [period], delta_i_res=di, t_half=t_half,
        drive_amplitude=0.7, dt=0.05,
    )[0, 0]
    opposite = ps.ramsey_axis_scan(
        p, [0.0], [period / 2], delta_i_res=di, t_half=t_half,
        drive_amplitude=0.7, dt=0.05,
    )[0, 0]
    assert same_axis > 0.999
    assert opposite < 0.001


def test_trace_and_purity_preserved_without_decoherence():
    p = demux_device()
    di = resonant_delta_i(p)
    segments = ps.segments_from_schedule(ps.single_pulse_schedule(di, 50.0, 2.0))
    result = ps.run_segments(p, segments, 0.02, ps.GROUND_STATE, 0.7)
    assert abs(np.trace(result.final_state).real - 1.0) < 1e-9
    assert abs(purity(result.final_state) - 1.0) < 1e-9


def test_trace_preserved_with_decoherence():
    p = demux_device(t1=20.0, t2=10.0)
    di = resonant_delta_i(p)
    segments = ps.segments_from_schedule(ps.single_pulse_schedule(di, 200.0, 2.0))
    result = ps.run_segments(p, segments, 0.05, ps.GROUND_STATE, 0.7)
    assert abs(np.trace(result.final_state).real - 1.0) < 1e-9
    assert purity(result.final_state) < 1.0


def test_run_reports_its_trace_drift_and_step_limit():
    p = demux_device(t1=20.0, t2=10.0)
    di = resonant_delta_i(p)
    segments = ps.segments_from_schedule(ps.single_pulse_schedule(di, 50.0, 2.0))
    result = ps.run_segments(p, segments, 0.05, ps.GROUND_STATE, 0.7)
    assert result.trace_drift == abs(np.trace(result.final_state).real - 1.0)
    assert result.trace_drift < 1e-13
    # the fastest rate is the detuning at the first of the 40 rise-ramp steps
    first_step = ps.freq_from_current(p, p.i_idle + di * 0.5 / 40) - p.f_cw
    assert result.dt_limit_ns == pytest.approx(ps.DT_SAFETY_FACTOR / abs(first_step), rel=1e-12)
    idle = ps.run_segments(p, [], 0.05, ps.GROUND_STATE, 0.7)
    assert idle.trace_drift == 0.0 and idle.dt_limit_ns == math.inf


def test_step_size_convergence_through_ramps():
    p = demux_device()
    di = resonant_delta_i(p) + 2.0
    segments = ps.segments_from_schedule(ps.single_pulse_schedule(di, 30.0, 2.0))
    coarse = ps.run_segments(p, segments, 0.01, ps.GROUND_STATE, 0.7).pe[-1]
    fine = ps.run_segments(p, segments, 0.005, ps.GROUND_STATE, 0.7).pe[-1]
    assert abs(coarse - fine) < 1e-6


def test_run_segments_rejects_coarse_dt():
    p = demux_device()
    segments = ps.segments_from_schedule(ps.single_pulse_schedule(resonant_delta_i(p), 30.0, 0.0))
    with pytest.raises(ValueError):
        ps.run_segments(p, segments, 5.0, ps.GROUND_STATE, 0.7)


@pytest.mark.parametrize("rho0", [np.eye(4) / 4, np.eye(3) / 3, np.array([1.0, 0.0])])
def test_a_state_that_is_not_2x2_is_rejected_by_shape(rho0):
    p = demux_device()
    with pytest.raises(ValueError, match=r"2x2 qubit density matrix, got shape"):
        ps.run_segments(p, [ps.Segment(5.0, 0.0, 0.0, True)], 0.05, rho0, 0.7)
    with pytest.raises(ValueError, match=r"2x2 qubit density matrix, got shape"):
        purity(rho0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ps.PulseSchedule(
            pulses=(ps.FluxPulse(1.0, 0.0, 10.0, 1.0), ps.FluxPulse(1.0, 5.0, 10.0, 1.0)),
            total_duration=50.0,
        )
    with pytest.raises(ValueError):
        ps.PulseSchedule(pulses=(ps.FluxPulse(1.0, 0.0, 10.0, 1.0),), total_duration=5.0)
    with pytest.raises(ValueError):
        ps.FluxPulse(1.0, 0.0, -1.0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(settle_amplitude=0.01, settle_tau_ns=0.0), "settle_tau_ns"),
    (dict(settle_amplitude=-0.01, settle_tau_ns=-5.0), "settle_tau_ns"),
    (dict(timing_jitter_ns=-0.1), "timing_jitter_ns"),
    (dict(amplitude_error=float("nan")), "finite"),
    (dict(settle_amplitude=0.01, settle_tau_ns=float("inf")), "finite"),
    (dict(timing_jitter_ns=float("inf")), "finite"),
])
def test_flux_distortion_rejects_invalid_parameters(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ps.FluxDistortion(**kwargs)


@pytest.mark.parametrize("values", [
    (math.nan, 0.0, 10.0, 0.0), (1.0, math.nan, 10.0, 0.0), (1.0, -math.inf, 10.0, 0.0),
    (1.0, 0.0, math.inf, 0.0), (1.0, 0.0, 10.0, math.nan), (1.0, 0.0, 10.0, math.inf),
])
def test_flux_pulse_rejects_values_that_are_not_finite(values):
    with pytest.raises(ValueError, match="finite"):
        ps.FluxPulse(*values)


@pytest.mark.parametrize("total_duration", [-5.0, math.nan, math.inf])
def test_schedule_rejects_a_window_that_is_not_finite_and_non_negative(total_duration):
    with pytest.raises(ValueError, match="total_duration"):
        ps.PulseSchedule((), total_duration)


def test_undershoot_tail_mirrors_the_overshoot():
    schedule = ps.PulseSchedule((ps.FluxPulse(2.0, 5.0, 10.0),), 60.0)

    def segments(settle_amplitude):
        distortion = ps.FluxDistortion(settle_amplitude=settle_amplitude, settle_tau_ns=5.0)
        return ps.segments_from_schedule(schedule, distortion)

    over, under = segments(0.02), segments(-0.02)
    assert len(over) == 9  # gap, flat top, six tail chunks, trailing gap
    assert [s.duration for s in under] == [s.duration for s in over]
    assert [(s.di_start, s.di_end, s.drive) for s in under[2:8]] == [
        (-s.di_start, -s.di_end, s.drive) for s in over[2:8]]
    assert all(s.di_start < 0 for s in under[2:8])


def test_measure_formula_and_fixed_point():
    p = demux_device(visibility=0.9)
    excited = ps.EXCITED_STATE
    assert abs(ps.measure(excited, p) - 0.95) < 1e-12
    mixed = np.eye(2, dtype=complex) / 2
    assert abs(ps.measure(mixed, p) - 0.5) < 1e-12
    full_vis = demux_device(visibility=1.0)
    assert ps.measure(excited, full_vis) == 1.0


def test_measure_binomial_statistics():
    p = demux_device(visibility=0.6)
    rho = ps.EXCITED_STATE * 0.5 + ps.GROUND_STATE * 0.5
    p_obs = 0.5
    shots = 100_000
    sigma = np.sqrt(p_obs * (1 - p_obs) / shots)
    misses = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        est = ps.measure(rho, p, shots=shots, rng=rng)
        if abs(est - p_obs) > 3 * sigma:
            misses += 1
    assert misses <= 4  # 99% within 3 sigma allows a couple of outliers


def test_measure_rejects_zero_shots():
    p = demux_device()
    with pytest.raises(ValueError):
        ps.measure(ps.GROUND_STATE, p, shots=0, rng=np.random.default_rng(0))


def test_swap_spectroscopy_ground_and_excited():
    p = swap_device(t1=15.0, t2=30.0, visibility=1.0)
    f_grid = np.linspace(4.1, 4.8, 36)
    t_grid = np.linspace(0.0, 40_000.0, 60)
    ground = ps.swap_spectroscopy(p, "g", f_grid, t_grid)
    assert np.all(ground == 0.0)
    excited = ps.swap_spectroscopy(p, "e", f_grid, t_grid, apply_visibility=False)
    expected = np.exp(-np.outer(t_grid, np.full(36, 1.0 / 15000.0)))
    assert np.max(np.abs(excited - expected)) < 1e-6


def test_swap_spectroscopy_tls_dip_stripe():
    dip = ps.TlsDip(center_ghz=4.250, width_mhz=10.0, t1_dip_us=1.0)
    p = swap_device(t1=15.0, t2=30.0, tls_dips=(dip,), visibility=1.0)
    f_grid = np.linspace(4.2, 4.3, 41)
    t_grid = np.array([0.0, 5_000.0])
    survival = ps.swap_spectroscopy(p, "e", f_grid, t_grid, apply_visibility=False)[1]
    dip_column = np.argmin(np.abs(f_grid - 4.250))
    assert survival[dip_column] < 0.1 * np.median(survival)


def test_chevron_center_column_has_slowest_full_contrast():
    p = demux_device()
    di_res = resonant_delta_i(p)
    di_grid = di_res + np.linspace(-1.5, 1.5, 7)
    t_grid = np.linspace(0.0, 120.0, 61)
    chevron = ps.rabi_chevron(p, di_grid, t_grid, drive_amplitude=0.7, dt=0.05)
    center = 3
    assert chevron[:, center].max() > 0.999
    # the first maximum along time arrives latest on the resonant column
    first_peak = [np.argmax(chevron[:, j] > 0.9 * chevron[:, j].max()) for j in range(7)]
    assert first_peak[center] == max(first_peak)


def test_chevron_ramp_asymmetry_shrinks_with_rise_time():
    # scan on a grid symmetric in detuning so the flux-map curvature cancels
    # and only the ramp-crossing physics contributes
    p = demux_device()
    detunings = np.linspace(-0.040, 0.040, 41)
    di_grid = np.array(
        [ps.current_from_freq(p, p.f_cw + d) - p.i_idle for d in detunings]
    )
    t_grid = np.linspace(1.0, 150.0, 50)

    def asymmetry(rise):
        chevron = ps.rabi_chevron(
            p, di_grid, t_grid, drive_amplitude=0.7, rise_time=rise, dt=0.01,
        )
        dp5, _ = ps.on_off_stats(chevron)
        return ps.asymmetry_about(dp5[0], detunings, 0.0)

    sharp = asymmetry(0.001)
    ramped = asymmetry(2.0)
    assert ramped > 0.01  # ramps produce a visible one-sided crossing effect
    assert sharp < 0.1 * ramped


def test_on_off_stats_basic_cases():
    constant = np.full((12, 4), 0.3)
    dp5, ratio = ps.on_off_stats(constant)
    assert np.allclose(dp5, 0.0)
    assert ratio == 1.0 or np.isfinite(ratio)
    alternating = np.tile([[0.0], [1.0]], (6, 4))
    dp5, _ = ps.on_off_stats(alternating)
    assert np.allclose(dp5, 1.0)
    with pytest.raises(ValueError):
        ps.on_off_stats(np.zeros((6, 4)))


def test_on_off_ratio_constant_map_is_one():
    # max == min: the ratio collapses to 1 once both sit at the floor
    constant = np.full((12, 4), 0.25)
    _, ratio = ps.on_off_stats(constant)
    assert ratio == 1.0


def test_t1_at_frequency_dips_add_rates():
    dip = ps.TlsDip(center_ghz=4.5, width_mhz=20.0, t1_dip_us=2.0)
    p = swap_device(t1=20.0, t2=40.0, tls_dips=(dip,))
    at_center = ps.t1_at_frequency(p, 4.5)
    assert abs(1.0 / at_center - (1.0 / 20.0 + 1.0 / 2.0)) < 1e-12
    far_away = ps.t1_at_frequency(p, 4.0)
    assert abs(far_away - 20.0) < 0.1


def test_device_rejects_nonpositive_or_nan_coherence_times():
    for t1, t2 in ((-5.0, -20.0), (0.0, np.inf), (np.nan, 10.0), (20.0, np.nan),
                   (np.inf, 0.0)):
        with pytest.raises(ValueError):
            swap_device(t1=t1, t2=t2)
    assert swap_device(t1=np.inf, t2=np.inf).t1 == np.inf


def test_device_rejects_negative_rabi_rate():
    with pytest.raises(ValueError):
        swap_device(rabi_per_volt=-1.0)
    assert swap_device(rabi_per_volt=0.0).rabi_frequency(0.7) == 0.0


def test_device_rejects_nonpositive_drive_frequency():
    for f_cw in (0.0, -4.644):
        with pytest.raises(ValueError):
            swap_device(f_cw=f_cw)


def test_device_rejects_nan_in_any_field():
    # NaN never compares equal, so it would also defeat the segment-map memo;
    # inf is allowed only as t1 or t2, where it means no decay
    for field in (*SWAP_DEVICE, "t1", "t2", "visibility"):
        for value in (np.nan, np.inf, -np.inf):
            if field in ("t1", "t2") and value == np.inf:
                assert getattr(swap_device(**{field: value}), field) == np.inf
                continue
            with pytest.raises(ValueError, match="must be finite"):
                swap_device(**{field: value})


def test_device_is_hashable_with_a_list_of_dips():
    dip = ps.TlsDip(center_ghz=5.10, width_mhz=40.0, t1_dip_us=0.5)
    p = demux_device(tls_dips=[dip])
    assert p.tls_dips == (dip,) and hash(p) == hash(demux_device(tls_dips=(dip,)))
    segments = [ps.Segment(5.0, 0.0, 0.0, True)]
    result = ps.run_segments(p, segments, 0.05, ps.GROUND_STATE, 0.7)
    assert result.pe[-1] > 0.0


# ---------------------------------------------------------------------------
# Engine equivalence: the segment-map engine against the step-by-step loop
# ---------------------------------------------------------------------------

def _oracle_step_unitary(delta, omega, tau):
    a = np.pi * tau * omega
    c = np.pi * tau * delta
    theta = np.hypot(a, c)
    if theta == 0.0:
        return np.eye(2, dtype=complex)
    sin_t = np.sin(theta) / theta
    return np.array([[np.cos(theta) - 1j * sin_t * c, -1j * sin_t * a],
                     [-1j * sin_t * a, np.cos(theta) + 1j * sin_t * c]])


def _oracle_decoherence(rho, p, f_mid, tau):
    t1 = ps.t1_at_frequency(p, f_mid) * 1e3
    if not np.isinf(t1):
        gamma = 1.0 - np.exp(-tau / t1)
        rho = np.array(
            [[rho[0, 0] + gamma * rho[1, 1], np.sqrt(1 - gamma) * rho[0, 1]],
             [np.sqrt(1 - gamma) * rho[1, 0], (1 - gamma) * rho[1, 1]]])
    rate = 0.0
    if not np.isinf(p.t2):
        rate = 1.0 / (p.t2 * 1e3) - (0.0 if np.isinf(p.t1) else 0.5 / (p.t1 * 1e3))
    if rate > 0.0:
        decay = np.exp(-tau * rate)
        rho = np.array([[rho[0, 0], decay * rho[0, 1]], [decay * rho[1, 0], rho[1, 1]]])
    return rho


def _oracle_run(p, segments, dt, rho, drive_amplitude):
    """One Trotter step per dt: midpoint exponential, then the Kraus updates."""
    decohere = not np.isinf(p.t1) or not np.isinf(p.t2) or bool(p.tls_dips)
    times, pes, t, fastest = [0.0], [rho[1, 1].real], 0.0, 0.0
    for seg in segments:
        if seg.duration <= 1e-15:
            continue
        ramp = seg.di_start != seg.di_end
        n = max(1, int(np.ceil(seg.duration / dt))) if ramp or decohere else 1
        tau = seg.duration / n
        omega = p.rabi_frequency(drive_amplitude) if seg.drive else 0.0
        for k in range(n):
            di_mid = seg.di_start + (seg.di_end - seg.di_start) * ((k + 0.5) / n)
            f_mid = ps.freq_from_current(p, p.i_idle + di_mid)
            fastest = max(fastest, abs(f_mid - p.f_cw), omega)
            u = _oracle_step_unitary(f_mid - p.f_cw, omega, tau)
            rho = u @ rho @ u.conj().T
            if decohere:
                rho = _oracle_decoherence(rho, p, f_mid, tau)
            t += tau
            times.append(t)
            pes.append(rho[1, 1].real)
    return np.asarray(times), np.asarray(pes), rho, fastest


_segment = st.builds(
    lambda duration, di_start, di_end, ramp, drive: ps.Segment(
        duration, di_start, di_end if ramp else di_start, drive),
    st.sampled_from([0.0, 0.5]) | st.floats(0.0, 8.0),
    st.floats(-3.0, 12.0), st.floats(-3.0, 12.0), st.booleans(), st.booleans(),
)
_coherence = st.sampled_from([(np.inf, np.inf), (20.0, 10.0), (3.0, 5.0), (np.inf, 2.0)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    segments=st.lists(_segment, min_size=1, max_size=4),
    coherence=_coherence,
    dip=st.booleans(),
    dt=st.sampled_from([0.02, 0.05, 0.1, 0.5]),
    drive_amplitude=st.sampled_from([0.0, 0.7, 1.3]),
    bloch=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)),
)
def test_run_segments_matches_step_loop(segments, coherence, dip, dt, drive_amplitude, bloch):
    t1, t2 = coherence
    dips = (ps.TlsDip(center_ghz=5.10, width_mhz=40.0, t1_dip_us=0.5),) if dip else ()
    p = demux_device(t1=t1, t2=t2, tls_dips=dips)
    v = np.asarray(bloch) / max(1.0, np.linalg.norm(bloch))
    rho0 = 0.5 * (np.eye(2) + v[0] * qc.SIGMA_X + v[1] * qc.SIGMA_Y + v[2] * qc.SIGMA_Z)
    times, pes, rho, fastest = _oracle_run(p, segments, dt, rho0, drive_amplitude)
    if fastest > 0 and dt > ps.DT_SAFETY_FACTOR / fastest:
        with pytest.raises(ValueError, match=f"need dt <= {ps.DT_SAFETY_FACTOR / fastest:.4g} ns"):
            ps.run_segments(p, segments, dt, rho0, drive_amplitude)
        return
    result = ps.run_segments(p, segments, dt, rho0, drive_amplitude)
    assert np.max(np.abs(result.final_state - rho)) <= 1e-10
    assert result.times.shape == result.pe.shape == (1,)
    assert abs(result.times[-1] - times[-1]) <= 1e-10
    assert abs(result.pe[-1] - np.clip(pes[-1], 0.0, 1.0)) <= 1e-10


def test_segment_channel_is_memoised_and_read_only():
    p = demux_device(t1=20.0, t2=10.0)
    seg = ps.Segment(12.0, 0.0, 0.0, True)
    ptm, fastest = ps.segment_channel(p, seg, 0.05, 0.7)
    assert ps.segment_channel(p, seg, 0.05, 0.7)[0] is ptm
    assert not ptm.flags.writeable
    assert fastest == pytest.approx(max(abs(p.idle_frequency - p.f_cw), p.rabi_frequency(0.7)))


@pytest.mark.parametrize("shots", [2.5, True, 0, 1.0])
def test_fractional_bool_and_zero_shots_are_rejected(shots):
    p = demux_device()
    with pytest.raises(ValueError, match="whole number"):
        ps.measure(ps.GROUND_STATE, p, shots=shots, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="whole number"):
        ps.rabi_chevron(p, [resonant_delta_i(p)], [0.0, 20.0], drive_amplitude=0.7,
                        shots=shots)


@pytest.mark.parametrize("shots", [np.int64(5), 5, None])
def test_integer_and_exact_shots_still_pass(shots):
    p = demux_device()
    pe = ps.measure(ps.EXCITED_STATE, p, shots=shots, rng=np.random.default_rng(0))
    assert pe == 1.0
    chevron = ps.rabi_chevron(p, [resonant_delta_i(p)], [0.0, 20.0], drive_amplitude=0.7,
                              shots=shots)
    assert chevron[0, 0] == 0.0
    if shots is not None:
        assert np.all(chevron * shots == np.round(chevron * shots))


# ---------------------------------------------------------------------------
# Scans: one composed path, checked cell by cell against the engine
# ---------------------------------------------------------------------------

_SCAN_DEVICES = {
    "noiseless": dict(visibility=0.9),
    "t1_t2_dip": dict(visibility=0.9, t1=20.0, t2=10.0,
                      tls_dips=(ps.TlsDip(center_ghz=5.10, width_mhz=40.0, t1_dip_us=0.5),)),
}


def _cell_reference(p, segments, dt, drive_amplitude):
    """Read-out P_e of one scan cell from its own run_segments call."""
    result = ps.run_segments(p, segments, dt, ps.GROUND_STATE, drive_amplitude)
    return 0.5 + p.visibility * (result.pe[-1] - 0.5)


@pytest.mark.parametrize("device", sorted(_SCAN_DEVICES))
@pytest.mark.parametrize("rise_time", [0.0, 1.0])
def test_chevron_matches_per_cell_engine_runs(device, rise_time):
    p = demux_device(**_SCAN_DEVICES[device])
    di_grid = resonant_delta_i(p) + np.array([-1.0, 0.0, 1.5])
    t_grid = np.array([0.0, 3.3, 10.0, 25.05])
    chevron = ps.rabi_chevron(p, di_grid, t_grid, drive_amplitude=0.7, rise_time=rise_time)
    expected = [[_cell_reference(p, ps.pulse_segments(di, t, rise_time, True), 0.05, 0.7)
                 for di in di_grid] for t in t_grid]
    assert np.max(np.abs(chevron - expected)) <= 1e-12


@pytest.mark.parametrize("device", sorted(_SCAN_DEVICES))
@pytest.mark.parametrize("rise_time", [0.0, 1.0])
def test_ramsey_scan_matches_per_cell_engine_runs(device, rise_time):
    p = demux_device(**_SCAN_DEVICES[device])
    di_res, t_half = resonant_delta_i(p), 0.25 / p.rabi_frequency(0.7)
    di_grid, t_grid = np.array([0.0, 2.0]), np.array([0.0, 1.7, 9.9, 20.0])
    scan = ps.ramsey_axis_scan(p, di_grid, t_grid, delta_i_res=di_res, t_half=t_half,
                               drive_amplitude=0.7, rise_time=rise_time)
    half = ps.pulse_segments(di_res, t_half, rise_time, True)
    expected = [[_cell_reference(p, half + [ps.Segment(t, di, di, False)] + half, 0.05, 0.7)
                 for di in di_grid] for t in t_grid]
    assert np.max(np.abs(scan - expected)) <= 1e-12


def test_scans_do_not_call_the_engine(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a scan called run_segments")

    monkeypatch.setattr(ps, "run_segments", fail)
    p = demux_device(**_SCAN_DEVICES["t1_t2_dip"])
    ps.rabi_chevron(p, [resonant_delta_i(p)], [0.0, 5.0], drive_amplitude=0.7, rise_time=1.0)
    ps.ramsey_axis_scan(p, [0.0], [0.0, 5.0], delta_i_res=resonant_delta_i(p), t_half=10.0,
                        drive_amplitude=0.7, rise_time=1.0)


def test_decoherent_scan_keeps_one_off_maps_out_of_the_segment_cache():
    p = demux_device(t1=17.0, t2=9.0)  # a device no other test uses
    before = ps.segment_channel.cache_info()
    ps.rabi_chevron(p, resonant_delta_i(p) + np.array([-1.0, 0.0]), np.linspace(0.0, 30.0, 40),
                    drive_amplitude=0.7, rise_time=1.0)
    after = ps.segment_channel.cache_info()
    assert after.misses - before.misses == 4  # the rise and fall ramp of each column


def test_scan_dt_check_covers_idle_detuning_and_the_swept_rate():
    p = demux_device()
    resonant = resonant_delta_i(p)
    idle_limit = ps.DT_SAFETY_FACTOR / abs(p.idle_frequency - p.f_cw)
    # on resonance the flat top alone only needs dt <= 0.05 / Omega_R, but the
    # ramps start from the idle point, so the idle detuning sets the limit
    assert ps.DT_SAFETY_FACTOR / p.rabi_frequency(0.7) > 2 * idle_limit
    with pytest.raises(ValueError, match=f"need dt <= {idle_limit:.4g} ns"):
        ps.rabi_chevron(p, [resonant], [1.0, 2.0], drive_amplitude=0.7, dt=1.01 * idle_limit)
    ps.rabi_chevron(p, [resonant], [1.0, 2.0], drive_amplitude=0.7, dt=0.99 * idle_limit)
    far = resonant - 30.0
    swept_rate = abs(ps.freq_from_current(p, p.i_idle + far) - p.f_cw)
    swept_limit = ps.DT_SAFETY_FACTOR / swept_rate
    assert swept_limit < idle_limit
    with pytest.raises(ValueError, match=f"need dt <= {swept_limit:.4g} ns"):
        ps.rabi_chevron(p, [resonant, far], [1.0], drive_amplitude=0.7, dt=1.01 * swept_limit)


def test_each_scan_logs_one_debug_record(caplog):
    p = demux_device()
    idle_limit = ps.DT_SAFETY_FACTOR / abs(p.idle_frequency - p.f_cw)
    with caplog.at_level("DEBUG", logger="fluxqubit.pulsesim"):
        ps.rabi_chevron(p, [resonant_delta_i(p)] * 3, [0.0, 7.0], drive_amplitude=0.7,
                        rise_time=1.0)
    records = [r for r in caplog.records if r.name == "fluxqubit.pulsesim"]
    assert len(records) == 1
    message = records[0].getMessage()
    prefix = f"scan 3 columns x 2 durations: dt 0.05 ns, limit {idle_limit:.4g} ns, "
    assert message.startswith(prefix + "worst trace drift ")
    assert 0.0 <= float(message[len(prefix + "worst trace drift "):]) <= ps.TRACE_TOL_PER_US


def test_scan_rejects_negative_durations():
    p = demux_device()
    with pytest.raises(ValueError, match="non-negative"):
        ps.rabi_chevron(p, [resonant_delta_i(p)], [-1.0, 2.0], drive_amplitude=0.7)


def _small_scan(p, scan, **kwargs):
    resonant = resonant_delta_i(p)
    if scan == "chevron":
        return ps.rabi_chevron(p, resonant + np.array([-0.5, 0.0]), [0.0, 7.0, 19.0],
                               drive_amplitude=0.7, **kwargs)
    return ps.ramsey_axis_scan(p, [0.0, 1.0], [0.0, 3.0, 6.5], delta_i_res=resonant,
                               t_half=10.0, drive_amplitude=0.7, **kwargs)


@pytest.mark.parametrize("scan", ["chevron", "ramsey"])
def test_sampled_scans_draw_the_whole_map_from_one_generator(scan):
    p = demux_device(visibility=0.9)
    expected = np.random.default_rng(11).binomial(40, _small_scan(p, scan)) / 40
    assert np.array_equal(_small_scan(p, scan, shots=40, seed=11), expected)


def test_a_nan_state_fails_the_trace_check(monkeypatch):
    p = demux_device()
    nan_map = (np.full((4, 4), np.nan), 0.1)
    monkeypatch.setattr(ps, "segment_channel", lambda *args: nan_map)
    with pytest.raises(ConsistencyError, match="trace drifted by nan"):
        ps.run_segments(p, [ps.Segment(5.0, 0.0, 0.0, True)], 0.05, ps.GROUND_STATE, 0.7)
    with pytest.raises(ConsistencyError, match="trace drifted by nan"):
        ps.rabi_chevron(p, [resonant_delta_i(p)], [0.0, 5.0], drive_amplitude=0.7,
                        rise_time=1.0)


@pytest.mark.parametrize("center, width, t1_dip", [
    (5.0, 5.0, -1.0), (5.0, 5.0, 0.0), (5.0, 5.0, np.nan),
    (5.0, 0.0, 1.0), (5.0, -2.0, 1.0), (5.0, np.inf, 1.0), (5.0, np.nan, 1.0),
    (np.nan, 5.0, 1.0), (np.inf, 5.0, 1.0),
])
def test_tls_dip_rejects_invalid_parameters(center, width, t1_dip):
    with pytest.raises(ValueError):
        ps.TlsDip(center_ghz=center, width_mhz=width, t1_dip_us=t1_dip)


def test_valid_tls_dips_still_give_physical_survival():
    no_loss = ps.TlsDip(center_ghz=4.7, width_mhz=5.0, t1_dip_us=np.inf)
    dip = ps.TlsDip(center_ghz=4.7, width_mhz=5.0, t1_dip_us=1.0)
    p = swap_device(t1=15.0, t2=30.0, tls_dips=(dip, no_loss))
    survival = ps.swap_spectroscopy(p, "e", [4.6, 4.7, 4.8], [0.0, 100.0],
                                    apply_visibility=False)
    assert np.all(np.isfinite(survival)) and np.all((survival >= 0) & (survival <= 1))
    assert survival[1, 1] < survival[1, 0]  # the dip shortens T1 at its centre
