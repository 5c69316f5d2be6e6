import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxqubit import ConsistencyError, InvalidChannelError
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
    assert abs(tm.predict_all(c_id)[tm.entry_index("+x", "+x")] - 1.0) < 1e-12
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
    # reference: the unconstrained least-squares Choi estimate, then projected
    basis = [np.kron(a, b) / 2.0 for a in qc.PAULI_BASIS for b in qc.PAULI_BASIS]
    design = np.column_stack([tm.predict_all(b) for b in basis])
    weights, *_ = np.linalg.lstsq(design, record.entries, rcond=None)
    projected_linear = tm.project_cptp(sum(w * b for w, b in zip(weights, basis)))
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_measurement_record_rejects_non_finite_entries(value):
    entries = np.full(36, 0.5)
    entries[7] = value
    with pytest.raises(ValueError, match="finite"):
        tm.MeasurementRecord(entries=entries)


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


def dykstra_projection(c, rounds):
    """Reference for a stack of inputs: alternating PSD and TP projections
    with Dykstra's correction."""
    x = 0.5 * (c + np.swapaxes(c, -1, -2).conj())
    correction = np.zeros_like(x)
    for _ in range(rounds):
        eigenvalues, vectors = np.linalg.eigh(x + correction)
        clipped = np.clip(eigenvalues, 0.0, None)[..., None, :]
        y = (vectors * clipped) @ np.swapaxes(vectors, -1, -2).conj()
        correction = x + correction - y
        defect = qc.IDENTITY - np.einsum("...iaja->...ij", y.reshape(-1, 2, 2, 2, 2))
        x = y + np.einsum("...ij,ab->...iajb", defect, qc.IDENTITY).reshape(-1, 4, 4) / 2.0
    return x


def random_hermitian(rng, scale):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return scale * (a + qc.dagger(a)) / 2.0


def random_channel_choi(rng, rank):
    """Choi matrix of `rank` random Kraus operators, normalised to be TP."""
    kraus = rng.normal(size=(rank, 2, 2)) + 1j * rng.normal(size=(rank, 2, 2))
    weights, vectors = np.linalg.eigh(np.einsum("kji,kjl->il", kraus.conj(), kraus))
    kraus = kraus @ (vectors * weights ** -0.5) @ qc.dagger(vectors)
    return qc.choi_from_kraus(list(kraus))


def projection_input(seed, kind, log_scale):
    rng = np.random.default_rng(seed)
    if kind == "hermitian":
        return random_hermitian(rng, 10.0 ** log_scale), rng
    rank = 1 + seed % 3  # boundary: a channel of rank 1-3, slightly perturbed
    return random_channel_choi(rng, rank) + random_hermitian(rng, 10.0 ** log_scale), rng


projection_inputs = dict(seed=st.integers(0, 2**32 - 1),
                         kind=st.sampled_from(("hermitian", "boundary")),
                         log_scale=st.floats(-9.0, 0.7))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(**projection_inputs)
def test_projection_is_cptp_and_satisfies_the_optimality_certificate(seed, kind, log_scale):
    c, rng = projection_input(seed, kind, log_scale)
    counts = []
    x = tm.project_cptp(c, counts=counts)
    qc.validate_choi(x)
    assert 1 <= counts[0] <= 12
    # X is the nearest CPTP point iff Re tr[(C - X)(Y - X)] <= 0 for all CPTP Y
    for rank in (1, 2, 4):
        y = random_channel_choi(rng, rank)
        assert np.trace((c - x) @ (y - x)).real <= 1e-10


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(batch=st.lists(st.tuples(*projection_inputs.values()), min_size=8, max_size=25))
def test_projection_agrees_with_dykstra_alternation(batch):
    inputs = np.array([projection_input(*args)[0] for args in batch])
    reference = dykstra_projection(inputs, 2000)
    for c, expected in zip(inputs, reference):
        assert np.linalg.norm(tm.project_cptp(c) - expected) <= 1e-10


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(("unitary", "damped", "depolarised")),
       strength=st.floats(0.0, 1.0))
def test_projection_is_idempotent_on_cptp_inputs(seed, kind, strength):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng)
    if kind == "unitary":
        choi = qc.choi_from_unitary(u)
    elif kind == "damped":
        damping = [np.diag([1.0, math.sqrt(1.0 - strength)]),
                   math.sqrt(strength) * np.array([[0.0, 1.0], [0.0, 0.0]])]
        choi = qc.choi_from_kraus([k @ u for k in damping])
    else:
        choi = (1.0 - strength) * qc.choi_from_unitary(u) + strength * np.eye(4) / 2.0
    assert np.linalg.norm(tm.project_cptp(choi) - choi) <= 1e-12


def test_newton_overshoot_is_halved_not_abandoned():
    # full Newton steps overshoot on this input; halving them keeps the solve
    # at 10 eigendecompositions, where falling back to fixed-point steps at
    # once would take 58, past the default cap of 50
    c, _ = projection_input(333, "hermitian", 0.7)
    counts = []
    x = tm.project_cptp(c, counts=counts)
    assert counts[0] <= 12
    assert np.linalg.norm(x - dykstra_projection(c[None], 2000)[0]) <= 1e-10


@pytest.mark.parametrize("fake_step", [
    lambda *_: None,               # as if the Jacobian were singular
    lambda *args: -args[-1],       # a step that never reduces the residual
], ids=["singular", "no-descent"])
@pytest.mark.parametrize("args", [(1, "hermitian", 0.7), (3, "boundary", -3.0),
                                  (4, "hermitian", 0.0)])
def test_fixed_point_steps_alone_reach_the_same_projection(monkeypatch, args, fake_step):
    c, _ = projection_input(*args)
    expected = tm.project_cptp(c)
    monkeypatch.setattr(tm, "_newton_step", fake_step)
    monkeypatch.setattr(tm, "PROJECTION_ROUNDS", 2000)
    assert np.linalg.norm(tm.project_cptp(c) - expected) <= 1e-10


def test_projection_that_does_not_converge_raises(monkeypatch):
    c = random_hermitian(np.random.default_rng(48), 3.0)
    with monkeypatch.context() as patch:
        patch.setattr(tm, "PROJECTION_ROUNDS", 1)  # read at call time
        with pytest.raises(ConsistencyError, match="in 1 eigendecompositions: "
                                                   "trace-preservation residual"):
            tm.project_cptp(c)
    counts = []
    tm.project_cptp(c, counts=counts)
    assert counts[0] > 1


@pytest.mark.parametrize("gate", df.REFERENCE_GATES)
def test_reconstruct_round_trip_of_every_bundled_matrix(gate):
    reference = df.load_reference_choi(gate)
    assert np.linalg.norm(tm.project_cptp(reference) - reference) <= 1e-12
    record = tm.MeasurementRecord(entries=tm.predict_all(reference), shots=None)
    choi, diag = tm.reconstruct(record)
    assert diag.converged
    assert np.linalg.norm(choi - reference) < 1e-5
    assert diag.iterations <= diag.projections <= diag.projection_eighs


@pytest.mark.parametrize("shots", [2.5, True, 0, -3])
def test_fractional_bool_and_non_positive_shots_are_rejected(shots):
    with pytest.raises(ValueError, match="whole number"):
        tm.qpt_record(tm.unitary_executor(qc.IDENTITY), shots=shots,
                      rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="whole number"):
        tm.MeasurementRecord(entries=np.full(36, 0.5), shots=shots)


@pytest.mark.parametrize("shots", [np.int64(5), None])
def test_integer_and_exact_shots_pass(shots):
    record = tm.qpt_record(tm.unitary_executor(tm.IDEAL_GATES["X90"]), shots=shots,
                           rng=np.random.default_rng(0))
    assert record.shots is shots
    if shots is not None:
        assert np.all(record.entries * shots == np.round(record.entries * shots))


def test_unitary_executor_reads_out_through_the_shared_readout():
    executor = tm.unitary_executor(tm.IDEAL_GATES["X90"], visibility=0.8)
    for index in range(36):
        prep, basis = tm.entry_labels(index)
        exact = executor(prep, basis, None, None)
        ideal = tm.predict_all(qc.choi_from_unitary(tm.IDEAL_GATES["X90"]))[index]
        assert abs(exact - qc.read_out(ideal, 0.8)) <= 1e-12
        sampled = executor(prep, basis, 25, np.random.default_rng(index))
        assert sampled == np.random.default_rng(index).binomial(25, exact) / 25
    with pytest.raises(ValueError, match="random generator"):
        executor("+z", "+z", 25, None)
