import dataclasses

import numpy as np
import pytest

from fluxqubit import CalibrationError
from fluxqubit import datafiles as df
from fluxqubit import demux as dx
from fluxqubit import pulsesim as ps
from fluxqubit import qcore as qc
from fluxqubit import tomography as tm

DRIVE = 0.7


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


def test_nominal_calibration_anchors():
    cal = dx.nominal_calibration(demux_device(), DRIVE)
    assert abs(cal.t_pi - 40.65) < 0.2          # 12.30 MHz Rabi rate
    assert abs(cal.axis_period - 9.90) < 0.05   # 101.0 MHz detuning
    cal_105 = dx.nominal_calibration(demux_device(detuning_mhz=105.0), DRIVE)
    assert abs(cal_105.axis_period - 9.52) < 0.05


def test_calibrate_amplitude_finds_resonance():
    p = demux_device()
    nominal = dx.nominal_calibration(p, DRIVE)
    di = dx.calibrate_amplitude(
        p, delta_i_grid=nominal.delta_i_res + np.linspace(-3, 3, 25),
        t_grid=np.linspace(0, 160, 81), drive_amplitude=DRIVE, dt=0.05,
    )
    f_reached = ps.freq_from_current(p, p.i_idle + di)
    assert abs(f_reached - p.f_cw) < 5e-4  # within 0.5 MHz


def test_calibrate_amplitude_ramp_bias_shrinks():
    p = demux_device()
    nominal = dx.nominal_calibration(p, DRIVE)
    grid = nominal.delta_i_res + np.linspace(-3, 3, 25)
    t_grid = np.linspace(0, 160, 61)

    def bias(rise):
        di = dx.calibrate_amplitude(
            p, delta_i_grid=grid, t_grid=t_grid, drive_amplitude=DRIVE,
            rise_time=rise, dt=0.02,
        )
        return abs(di - nominal.delta_i_res)

    assert bias(0.1) < bias(2.0) / 5.0


def test_calibrate_amplitude_fails_off_resonance():
    p = demux_device()
    nominal = dx.nominal_calibration(p, DRIVE)
    with pytest.raises(CalibrationError):
        dx.calibrate_amplitude(
            p, delta_i_grid=nominal.delta_i_res + np.linspace(5.0, 9.0, 9),
            t_grid=np.linspace(0, 120, 41), drive_amplitude=DRIVE, dt=0.02,
        )


def test_calibrate_duration_pi_time():
    p = demux_device()
    nominal = dx.nominal_calibration(p, DRIVE)
    t_pi = dx.calibrate_duration(
        p, nominal.delta_i_res, t_grid=np.linspace(0, 160, 81),
        drive_amplitude=DRIVE, dt=0.05,
    )
    assert abs(t_pi - 40.65) < 0.2
    t_pi_double = dx.calibrate_duration(
        p, nominal.delta_i_res, t_grid=np.linspace(0, 80, 81),
        drive_amplitude=2 * DRIVE, dt=0.05,
    )
    assert abs(t_pi_double - t_pi / 2) < 0.01 * t_pi


def test_calibrate_timing_axis_period():
    p = demux_device()
    nominal = dx.nominal_calibration(p, DRIVE)
    period, phase = dx.calibrate_timing(
        p, nominal.delta_i_res, nominal.t_pi,
        delta_t_grid=np.linspace(0, 35, 141), drive_amplitude=DRIVE, dt=0.05,
    )
    assert abs(period - 9.90) < 0.05
    assert abs(phase) < 0.02
    p2 = demux_device(detuning_mhz=105.0)
    nominal2 = dx.nominal_calibration(p2, DRIVE)
    period2, _ = dx.calibrate_timing(
        p2, nominal2.delta_i_res, nominal2.t_pi,
        delta_t_grid=np.linspace(0, 35, 141), drive_amplitude=DRIVE, dt=0.05,
    )
    assert abs(period2 - 9.52) < 0.05
    p3 = demux_device(detuning_mhz=202.0)
    nominal3 = dx.nominal_calibration(p3, DRIVE)
    period3, _ = dx.calibrate_timing(
        p3, nominal3.delta_i_res, nominal3.t_pi,
        delta_t_grid=np.linspace(0, 18, 141), drive_amplitude=DRIVE, dt=0.04,
    )
    assert abs(period3 - period / 2) < 0.01 * period3  # doubled detuning


def test_full_calibration_is_idempotent():
    p = demux_device()
    first = dx.calibrate(p, drive_amplitude=DRIVE, dt=0.05)
    again = dx.calibrate(p, drive_amplitude=DRIVE, dt=0.05)
    assert abs(again.delta_i_res - first.delta_i_res) < 1e-3 * abs(first.delta_i_res)
    assert abs(again.t_pi - first.t_pi) < 1e-3 * first.t_pi
    assert abs(again.axis_period - first.axis_period) < 1e-3 * first.axis_period


def test_compile_pulse_counts_and_durations():
    cal = dx.nominal_calibration(demux_device(), DRIVE)
    x90 = dx.compile_gate("X90", cal)
    assert len(x90.pulses) == 1
    assert abs(x90.pulses[0].duration - cal.t_pi / 2) < 0.01
    assert len(dx.compile_gate("Y-90", cal).pulses) == 1
    assert len(dx.compile_gate("T", cal).pulses) == 3
    assert len(dx.compile_gate("S", cal).pulses) == 3
    assert len(dx.compile_gate("H", cal).pulses) == 2
    assert len(dx.compile_gate("I", cal).pulses) == 0
    assert len(dx.compile_gate(("Z", 0.7), cal).pulses) == 0
    with pytest.raises(ValueError):
        dx.compile_gate("NOPE", cal)


def test_compiled_sequences_do_not_overlap():
    cal = dx.nominal_calibration(demux_device(), DRIVE)
    for gate in dx.QPT_GATES:
        seq = dx.compile_gate(gate, cal, rise_time=1.0)
        for a, b in zip(seq.pulses, seq.pulses[1:]):
            assert b.start >= a.end - 1e-12
        assert seq.total_duration >= (seq.pulses[-1].end if seq.pulses else 0.0)


def test_compiled_gates_match_ideal_unitaries():
    p = demux_device()
    cal = dx.nominal_calibration(p, DRIVE)
    for gate in ("X90", "X180", "Y-90", "T", "S", "H"):
        err = dx.compiled_unitary_error(
            p, gate, cal, drive_amplitude=DRIVE, resolution=0.0005, dt=0.05,
        )
        assert err < 1e-3, (gate, err)
    for gate in (("Z", 0.7), ("Z", -1.2), ("XY", np.pi / 2, 1.1),
                 ("XY", -np.pi / 2, 0.3)):
        err = dx.compiled_unitary_error(
            p, gate, cal, drive_amplitude=DRIVE, resolution=0.0005, dt=0.05,
        )
        assert err < 1e-3, (gate, err)


def test_first_available_delay_for_90_degree_axis():
    # axis period 9.52 ns and a fitted fringe phase put the +90-degree
    # delays at {1, 10.5, 20, ...} ns
    period = 1.0 / 0.105
    latency_phase = np.pi / 2 - 2 * np.pi * 1.0 / period
    cal = dx.Calibration(
        delta_i_res=5.4, t_pi=40.65, axis_period=period, phase_offset=latency_phase,
    )
    delays = []
    chi_target = -np.pi / 2  # second pulse axis rotated by +90 degrees
    gap = dx._solve_gap(chi_target, cal, resolution=0.002)
    for k in range(3):
        delays.append(gap + k * period)
    assert abs(delays[0] - 1.0) < 0.1
    assert abs(delays[1] - 10.5) < 0.1
    assert abs(delays[2] - 20.0) < 0.1


def test_pipeline_identity_gate_noiseless():
    p = demux_device()
    cal = dx.nominal_calibration(p, DRIVE)
    results = dx.qpt_pipeline(
        p, cal, gates=("I",), shots=None, drive_amplitude=DRIVE,
        resolution=0.002, dt=0.05,
    )
    assert results[0].fidelity >= 0.999


def test_pipeline_all_gates_noiseless():
    p = demux_device()
    cal = dx.nominal_calibration(p, DRIVE)
    results = dx.qpt_pipeline(
        p, cal, shots=None, drive_amplitude=DRIVE, resolution=0.002, dt=0.05,
    )
    for result in results:
        assert result.fidelity >= 0.99, (result.name, result.fidelity)


def test_pipeline_with_distortion_and_visibility():
    p = demux_device(visibility=0.9)
    cal = dx.nominal_calibration(p, DRIVE)
    distortion = dx.FluxDistortion(amplitude_error=0.01, timing_jitter_ns=0.1)
    results = dx.qpt_pipeline(
        p, cal, gates=("X90", "S"), shots=2000, drive_amplitude=DRIVE,
        resolution=0.002, dt=0.05, distortion=distortion, seed=3,
    )
    for result in results:
        assert 0.75 <= result.fidelity <= 0.99, (result.name, result.fidelity)


def test_executor_preparation_uses_flux_pulses():
    p = demux_device()
    cal = dx.nominal_calibration(p, DRIVE)
    prep = dx._PREP_GATES["+x"]
    seq = dx.compile_gate(prep, cal)
    assert len(seq.pulses) == 1  # a single half pulse prepares +x
    u = dx.sequence_unitary(p, seq, drive_amplitude=DRIVE, dt=0.05)
    rho = u @ dx.GROUND_STATE @ u.conj().T
    assert abs(np.trace(rho @ qc.SIGMA_X).real - 1.0) < 5e-3


def test_calibration_file_round_trip(tmp_path):
    from fluxqubit import datafiles as df

    cal = dx.Calibration(delta_i_res=5.407, t_pi=40.653, axis_period=9.901,
                         phase_offset=0.0123)
    path = tmp_path / "calibration.txt"
    path.write_text(df.format_calibration(cal), encoding="utf-8")
    loaded = df.parse_calibration(path.read_text(encoding="utf-8"))
    assert loaded["delta_i_res_uA"] == cal.delta_i_res
    assert loaded["t_pi_ns"] == cal.t_pi
    assert loaded["axis_period_ns"] == cal.axis_period
    assert loaded["phase_offset_rad"] == cal.phase_offset


def test_calibrate_amplitude_treats_fit_errors_as_zero_contrast(monkeypatch):
    from fluxqubit import FitError

    def singular(model, x, Y, p0=None):
        return [FitError("singular Jacobian")] * len(Y)

    monkeypatch.setattr(dx, "fit_nlls_rows", singular)
    p = demux_device()
    grid = dx.nominal_calibration(p, DRIVE).delta_i_res + np.linspace(-1.0, 1.0, 3)
    with pytest.raises(CalibrationError, match="no Rabi contrast"):
        dx.calibrate_amplitude(p, delta_i_grid=grid, t_grid=np.linspace(0.0, 160.0, 41),
                               drive_amplitude=DRIVE)


def test_calibrate_amplitude_propagates_other_fit_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("bug in the fit model")

    monkeypatch.setattr(dx, "fit_nlls_rows", broken)
    p = demux_device()
    grid = dx.nominal_calibration(p, DRIVE).delta_i_res + np.linspace(-1.0, 1.0, 3)
    with pytest.raises(ZeroDivisionError):
        dx.calibrate_amplitude(p, delta_i_grid=grid, t_grid=np.linspace(0.0, 160.0, 41),
                               drive_amplitude=DRIVE)


@pytest.mark.parametrize("failure", ["error", "unconverged"])
def test_calibrate_amplitude_zeroes_only_the_failing_column(monkeypatch, failure):
    from fluxqubit import FitError

    p = demux_device()
    grid = dx.nominal_calibration(p, DRIVE).delta_i_res + np.linspace(-2.0, 2.0, 9)
    kwargs = dict(delta_i_grid=grid, t_grid=np.linspace(0.0, 160.0, 41),
                  drive_amplitude=DRIVE, refinements=0)
    real = dx.fit_nlls_rows
    fitted = []

    def failing(column):
        def fit_rows(model, x, Y, p0=None):
            results = real(model, x, Y, p0)
            fitted.append(list(results))
            results[column] = (FitError("singular Jacobian") if failure == "error"
                                else dataclasses.replace(results[column], converged=False))
            return results
        return fit_rows

    baseline = dx.calibrate_amplitude(p, **kwargs)
    monkeypatch.setattr(dx, "fit_nlls_rows", failing(0))
    # a far-off column fails: the peak and its neighbours keep their contrasts
    assert dx.calibrate_amplitude(p, **kwargs) == baseline
    contrasts = [2.0 * abs(fit["A"]) for fit in fitted[0]]
    peak = int(np.argmax(contrasts))
    assert peak >= 2
    runner_up = int(np.argsort(contrasts)[-2])
    monkeypatch.setattr(dx, "fit_nlls_rows", failing(peak))
    moved = dx.calibrate_amplitude(p, **kwargs)
    # the failed or unconverged peak column has no contrast: the runner-up wins
    step = grid[1] - grid[0]
    assert moved != baseline
    assert abs(moved - grid[runner_up]) <= 0.5 * step + 1e-12


def test_pipeline_projections_take_few_eigendecompositions(monkeypatch):
    # the bundled device with T1/T2, 1 ns ramps and 2000 shots per entry
    p = dataclasses.replace(df.load_bundled_device("device_demux.cfg"), t1=20.0, t2=10.0)
    calls = []
    project = tm.project_cptp

    def counted(*args, **kwargs):
        calls.append(1)
        return project(*args, **kwargs)

    monkeypatch.setattr(tm, "project_cptp", counted)
    results = dx.qpt_pipeline(
        p, dx.nominal_calibration(p, DRIVE), gates=("X90", "H"), shots=2000,
        drive_amplitude=DRIVE, rise_time=1.0, dt=0.05, seed=5,
    )
    assert sum(r.diagnostics.projections for r in results) == len(calls)
    for result in results:
        diagnostics = result.diagnostics
        assert diagnostics.converged
        assert diagnostics.iterations <= diagnostics.projections
        assert diagnostics.projection_eighs <= 8 * diagnostics.projections


def per_entry_executor(p, cal, gate, *, seed, gate_index, rise_time):
    """make_pulse_executor as it compiled every program for every entry."""
    gate_seq = dx.compile_gate(gate, cal, rise_time=rise_time)

    def executor(prep_label, basis_label, shots, _rng):
        programs = []
        if dx._PREP_GATES[prep_label] is not None:
            programs.append(dx.compile_gate(dx._PREP_GATES[prep_label], cal,
                                            rise_time=rise_time))
        programs.append(gate_seq)
        if dx._BASIS_GATES[basis_label] is not None:
            programs.append(dx.compile_gate(dx._BASIS_GATES[basis_label], cal,
                                            rise_time=rise_time))
        entry = tm.AXIS_LABELS.index(prep_label) * 6 + tm.AXIS_LABELS.index(basis_label)
        rng = np.random.default_rng((seed, gate_index, entry))
        result = dx.simulate_sequence(p, dx.concatenate(programs), drive_amplitude=DRIVE,
                                      rng=rng)
        return 1.0 - ps.measure(result.final_state, p, shots=shots, rng=rng)

    return executor


def test_pipeline_compiles_each_program_once_per_gate(monkeypatch):
    p = df.load_bundled_device("device_demux.cfg")
    cal = dx.nominal_calibration(p, DRIVE)
    expected = [
        tm.qpt_record(per_entry_executor(p, cal, gate, seed=7, gate_index=k, rise_time=1.0),
                      2000).entries
        for k, gate in enumerate(dx.QPT_GATES)
    ]
    calls = []
    compile_gate = dx.compile_gate

    def counted(*args, **kwargs):
        calls.append(args[0])
        return compile_gate(*args, **kwargs)

    monkeypatch.setattr(dx, "compile_gate", counted)
    results = dx.qpt_pipeline(p, cal, shots=2000, drive_amplitude=DRIVE, rise_time=1.0,
                              seed=7)
    assert len(calls) <= 30  # a gate and 5 preparation/basis programs per executor
    for result, entries in zip(results, expected):
        assert np.array_equal(result.record.entries, entries)
