import numpy as np
import pytest

from fluxqubit import InvalidChannelError
from fluxqubit import datafiles as df
from fluxqubit import qcore as qc
from fluxqubit import tomography as tm


def rotation_matrix(axis, angle):
    """Independent 3x3 Bloch rotation via the Rodrigues formula."""
    axis = np.asarray(axis, dtype=float)
    n = axis / np.linalg.norm(axis)
    k = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def random_unitary(rng):
    return qc.bloch_rotation(rng.normal(size=3), rng.uniform(0, 2 * np.pi))


def test_qpt_record_identity_and_x180():
    record = tm.qpt_record(tm.unitary_executor(qc.IDENTITY), shots=None)
    assert record.value("+z", "+z") == 1.0
    assert record.value("+z", "-z") == 0.0
    x180 = tm.IDEAL_GATES["X180"]
    record = tm.qpt_record(tm.unitary_executor(x180), shots=None)
    assert abs(record.value("+z", "+z") - 0.0) < 1e-12
    assert abs(record.value("+x", "+x") - 1.0) < 1e-12


def test_qpt_record_x90_against_bloch_rotation_oracle():
    record = tm.qpt_record(tm.unitary_executor(tm.IDEAL_GATES["X90"]), shots=None)
    rot = rotation_matrix((1, 0, 0), np.pi / 2)
    for prep in tm.AXIS_LABELS:
        v_in = np.array(tm._LABEL_VECTORS[prep])
        v_out = rot @ v_in
        for basis in tm.AXIS_LABELS:
            b = np.array(tm._LABEL_VECTORS[basis])
            expected = 0.5 * (1.0 + v_out @ b)
            assert abs(record.value(prep, basis) - expected) < 1e-12


def test_predict_identity_and_depolarizing():
    c_id = qc.choi_from_unitary(qc.IDENTITY)
    assert abs(tm.predict(c_id, "+x", "+x") - 1.0) < 1e-12
    depol = np.eye(4, dtype=complex) / 2
    assert np.allclose(tm.predict_all(depol), 0.5, atol=1e-12)


def test_predict_matches_direct_conjugation():
    rng = np.random.default_rng(41)
    for _ in range(20):
        u = random_unitary(rng)
        choi = qc.choi_from_unitary(u)
        record = tm.qpt_record(tm.unitary_executor(u), shots=None)
        assert np.max(np.abs(tm.predict_all(choi) - record.entries)) < 1e-10


def test_predict_is_linear():
    rng = np.random.default_rng(42)
    c1 = qc.choi_from_unitary(random_unitary(rng))
    c2 = qc.choi_from_unitary(random_unitary(rng))
    alpha = 0.37
    blend = alpha * c1 + (1 - alpha) * c2
    expected = alpha * tm.predict_all(c1) + (1 - alpha) * tm.predict_all(c2)
    assert np.max(np.abs(tm.predict_all(blend) - expected)) < 1e-12


def test_reconstruct_identity_from_exact_record():
    record = tm.qpt_record(tm.unitary_executor(qc.IDENTITY), shots=None)
    choi, diag = tm.reconstruct(record)
    assert diag.converged
    assert np.linalg.norm(choi - qc.choi_from_unitary(qc.IDENTITY)) < 1e-6


def test_reconstruct_round_trip_of_bundled_t_matrix():
    reference = df.load_reference_choi("T")
    record = tm.MeasurementRecord(entries=tm.predict_all(reference), shots=None)
    choi, diag = tm.reconstruct(record)
    assert diag.converged
    assert np.linalg.norm(choi - reference) < 1e-3


def test_reconstruct_from_finite_shots():
    rng = np.random.default_rng(43)
    executor = tm.unitary_executor(tm.IDEAL_GATES["X90"])
    record = tm.qpt_record(executor, shots=10_000, rng=rng)
    choi, _ = tm.reconstruct(record)
    fidelity = qc.average_gate_fidelity(choi, tm.IDEAL_GATES["X90"])
    assert fidelity >= 0.995


def test_reconstruct_output_is_always_cptp():
    rng = np.random.default_rng(44)
    for _ in range(5):
        record = tm.MeasurementRecord(entries=rng.uniform(0, 1, size=36), shots=None)
        choi, _ = tm.reconstruct(record)
        qc.validate_choi(choi)  # raises on violation


def test_cost_monotone_and_beats_projected_linear_solution():
    rng = np.random.default_rng(45)
    executor = tm.unitary_executor(tm.IDEAL_GATES["H"])
    record = tm.qpt_record(executor, shots=400, rng=rng)
    choi, diag = tm.reconstruct(record)
    assert all(b <= a + 1e-15 for a, b in zip(diag.cost_history, diag.cost_history[1:]))
    projected_linear = tm.project_cptp(tm.linear_lsq_choi(record))
    residual = tm.predict_all(projected_linear) - record.entries
    assert diag.final_cost <= float(residual @ residual) + 1e-12


def test_reconstruction_is_unitarily_covariant():
    rng = np.random.default_rng(46)
    u = tm.IDEAL_GATES["T"]
    base_record = tm.MeasurementRecord(
        entries=tm.predict_all(qc.choi_from_unitary(u)), shots=None
    )
    base_choi, _ = tm.reconstruct(base_record)
    for _ in range(10):
        r = random_unitary(rng)
        conjugated = r @ u @ qc.dagger(r)
        record = tm.MeasurementRecord(
            entries=tm.predict_all(qc.choi_from_unitary(conjugated)), shots=None
        )
        choi, _ = tm.reconstruct(record)
        transform = np.kron(r.conj(), r)
        expected = transform @ base_choi @ qc.dagger(transform)
        assert np.linalg.norm(choi - expected) < 1e-4


def test_report_fidelities_for_bundled_matrices():
    chois = [df.load_reference_choi(g) for g in df.REFERENCE_GATES]
    rows = tm.report_fidelities(df.REFERENCE_GATES, chois)
    for (name, fidelity), expected in zip(rows, df.REFERENCE_FIDELITIES.values()):
        assert abs(fidelity - expected) < 1e-3  # within 0.1 percentage point


def test_report_fidelities_ideal_and_depolarizing():
    names = list(df.REFERENCE_GATES)
    ideal = [qc.choi_from_unitary(tm.IDEAL_GATES[n]) for n in names]
    for name, fidelity in tm.report_fidelities(names, ideal):
        assert abs(fidelity - 1.0) < 1e-9
    depol = [np.eye(4, dtype=complex) / 2] * len(names)
    for name, fidelity in tm.report_fidelities(names, depol):
        assert abs(fidelity - 0.5) < 1e-12
    with pytest.raises(ValueError):
        tm.report_fidelities(["NOPE"], [ideal[0]])


def test_measurement_record_validation():
    with pytest.raises(ValueError):
        tm.MeasurementRecord(entries=np.zeros(35))
    with pytest.raises(ValueError):
        tm.MeasurementRecord(entries=np.full(36, 1.5))
    with pytest.raises(ValueError):
        tm.ReconstructionOptions(step_size=0.0)


def test_record_file_round_trip():
    rng = np.random.default_rng(47)
    record = tm.MeasurementRecord(entries=rng.uniform(0, 1, 36), shots=5000)
    text = df.format_measurement_record(record, header_lines=["demo"])
    loaded = df.parse_measurement_record(text)
    assert np.array_equal(loaded.entries, record.entries)
    assert loaded.shots == 5000
    exact = tm.MeasurementRecord(entries=rng.uniform(0, 1, 36), shots=None)
    loaded = df.parse_measurement_record(df.format_measurement_record(exact))
    assert loaded.shots is None


def test_apply_choi_rejects_unphysical_reconstruction_input():
    bad = np.diag([2.0, 0.5, 0.5, -1.0]).astype(complex)
    with pytest.raises(InvalidChannelError):
        qc.validate_choi(bad)


def test_qpt_record_wraps_exceptions_that_need_extra_arguments():
    class TwoArgError(Exception):
        def __init__(self, code, detail):
            super().__init__(f"{code}: {detail}")

    def executor(prep_label, basis_label, shots, rng):
        raise TwoArgError(7, "readout lost")

    with pytest.raises(RuntimeError, match="entry 0 .* for X90: 7: readout lost") as info:
        tm.qpt_record(executor, shots=None, gate_name="X90")
    assert isinstance(info.value.__cause__, TwoArgError)

    def failing(prep_label, basis_label, shots, rng):
        raise KeyError("missing")

    with pytest.raises(KeyError) as info:
        tm.qpt_record(failing, shots=None)
    assert isinstance(info.value.__cause__, KeyError)
