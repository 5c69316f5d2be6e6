import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxqubit import InvalidChannelError
from fluxqubit import qcore as qc
from fluxqubit.tomography import IDEAL_GATES


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng):
    axis = rng.normal(size=3)
    return qc.bloch_rotation(axis, rng.uniform(0, 2 * np.pi))


def test_bloch_rotation_x_pi_is_pauli_x_up_to_phase():
    u = qc.bloch_rotation((1, 0, 0), np.pi)
    assert np.allclose(u, -1j * qc.SIGMA_X, atol=1e-12)


def test_bloch_rotation_z_half_is_phase_diag():
    u = qc.bloch_rotation((0, 0, 1), np.pi / 2)
    expected = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    assert np.allclose(u, expected, atol=1e-12)


def test_phase_aligned_distance_broadcasts_over_stacks():
    rng = np.random.default_rng(31)
    us = np.stack([random_unitary(rng) for _ in range(6)])
    vs = np.stack([random_unitary(rng) for _ in range(4)])
    vs[1] = np.exp(0.7j) * us[2]  # equal up to phase
    vs[2] = qc.SIGMA_X @ us[3]  # tr(v^dag u) = 0: every phase is optimal
    table = qc.phase_aligned_distance(us[:, None], vs)
    assert table.shape == (6, 4)
    for i in range(6):
        for j in range(4):
            pair = qc.phase_aligned_distance(us[i], vs[j])
            assert type(pair) is float
            assert table[i, j] == pair
    assert table[2, 1] < 1e-12
    assert abs(table[3, 2] - 2.0) < 1e-12
    assert np.array_equal(qc.phase_aligned_distance(us[:4], vs), np.diagonal(table[:4]))


def test_bloch_rotation_tilted_axis_gives_hadamard():
    u = qc.bloch_rotation((1, 0, 1), np.pi)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert qc.unitaries_equal(u, hadamard)
    # matches the three-primitive product X90 . Z90 . X90 up to phase
    x90 = qc.bloch_rotation((1, 0, 0), np.pi / 2)
    z90 = qc.bloch_rotation((0, 0, 1), np.pi / 2)
    assert qc.unitaries_equal(u, x90 @ z90 @ x90)


def test_bloch_rotation_rejects_zero_axis():
    with pytest.raises(ValueError):
        qc.bloch_rotation((0, 0, 0), 1.0)


def test_bloch_rotation_is_special_unitary():
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = random_unitary(rng)
        assert abs(np.linalg.det(u) - 1.0) < 1e-10
        assert qc.is_unitary(u)


def test_rotation_angles_add_up_to_phase():
    rng = np.random.default_rng(2)
    for _ in range(50):
        axis = rng.normal(size=3)
        a, b = rng.uniform(-np.pi, np.pi, size=2)
        lhs = qc.bloch_rotation(axis, a) @ qc.bloch_rotation(axis, b)
        rhs = qc.bloch_rotation(axis, a + b)
        assert qc.phase_aligned_distance(lhs, rhs) < 1e-9


def test_bloch_density_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rho = random_density(rng)
        v = qc.bloch_from_density(rho)
        assert np.allclose(qc.density_from_bloch(v), rho, atol=1e-12)


def test_bloch_conventions():
    ground = np.outer(qc.KET_G, qc.KET_G.conj())
    assert np.allclose(qc.bloch_from_density(ground), [0, 0, 1], atol=1e-12)
    assert np.allclose(qc.bloch_from_density(qc.IDENTITY / 2), [0, 0, 0], atol=1e-12)
    rho = qc.density_from_bloch([1, 0, 0])
    assert np.allclose(rho, (qc.IDENTITY + qc.SIGMA_X) / 2, atol=1e-12)


def test_density_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        qc.validate_density_matrix(np.array([[0.5, 0.5], [0.2, 0.5]]))
    with pytest.raises(ValueError):
        qc.validate_density_matrix(np.diag([0.8, 0.4]))
    with pytest.raises(ValueError):
        qc.validate_density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        qc.density_from_bloch([1.1, 0, 0])


def test_purity_values():
    ground = np.outer(qc.KET_G, qc.KET_G.conj())
    assert abs(qc.purity(ground) - 1.0) < 1e-12
    assert abs(qc.purity(qc.IDENTITY / 2)) < 1e-12
    rho = qc.density_from_bloch([0.6, 0, 0])
    assert abs(qc.purity(rho) - 0.36) < 1e-12


def test_purity_matches_trace_formula_and_unitary_invariance():
    rng = np.random.default_rng(4)
    for _ in range(30):
        rho = random_density(rng)
        p = qc.purity(rho)
        assert abs(p - (2 * np.trace(rho @ rho).real - 1)) < 1e-10
        u = random_unitary(rng)
        assert abs(qc.purity(u @ rho @ u.conj().T) - p) < 1e-10


def test_apply_choi_identity_and_x_pi():
    rho = qc.density_from_bloch([0.3, -0.2, 0.4])
    c_id = qc.choi_from_unitary(qc.IDENTITY)
    assert np.allclose(qc.apply_choi(c_id, rho), rho, atol=1e-10)
    c_x = qc.choi_from_unitary(qc.bloch_rotation((1, 0, 0), np.pi))
    ground = np.outer(qc.KET_G, qc.KET_G.conj())
    excited = np.outer(qc.KET_E, qc.KET_E.conj())
    assert np.allclose(qc.apply_choi(c_x, ground), excited, atol=1e-10)


def test_apply_choi_depolarizing():
    c = np.eye(4, dtype=complex) / 2
    ground = np.outer(qc.KET_G, qc.KET_G.conj())
    assert np.allclose(qc.apply_choi(c, ground), qc.IDENTITY / 2, atol=1e-12)


def test_apply_choi_agrees_with_direct_conjugation():
    rng = np.random.default_rng(5)
    for _ in range(100):
        u = random_unitary(rng)
        rho = random_density(rng)
        out = qc.apply_choi(qc.choi_from_unitary(u), rho)
        assert np.allclose(out, u @ rho @ u.conj().T, atol=1e-9)


def test_apply_choi_rejects_non_cptp():
    c = np.diag([1.5, 0.5, 0.5, -0.5]).astype(complex)
    with pytest.raises(InvalidChannelError):
        qc.apply_choi(c, qc.IDENTITY / 2)


def test_choi_trace_convention():
    u = qc.bloch_rotation((0, 1, 0), 0.7)
    c = qc.choi_from_unitary(u)
    assert abs(np.trace(c).real - 2.0) < 1e-12
    assert np.allclose(qc.partial_trace_output(c), qc.IDENTITY, atol=1e-12)


def test_average_gate_fidelity_anchors():
    u = qc.bloch_rotation((1, 0, 0), np.pi / 2)
    assert abs(qc.average_gate_fidelity(qc.choi_from_unitary(u), u) - 1.0) < 1e-9
    depol = np.eye(4, dtype=complex) / 2
    assert abs(qc.average_gate_fidelity(depol, u) - 0.5) < 1e-12


def test_average_gate_fidelity_global_phase_invariant():
    rng = np.random.default_rng(6)
    u = random_unitary(rng)
    c = qc.choi_from_unitary(random_unitary(rng))
    f1 = qc.average_gate_fidelity(c, u)
    f2 = qc.average_gate_fidelity(c, np.exp(1j * 0.83) * u)
    assert abs(f1 - f2) < 1e-12


def test_average_gate_fidelity_rejects_bad_args():
    c = qc.choi_from_unitary(qc.IDENTITY)
    with pytest.raises(ValueError):
        qc.average_gate_fidelity(c, np.eye(4))
    with pytest.raises(ValueError):
        qc.average_gate_fidelity(c, np.array([[1, 1], [0, 1]], dtype=complex))


def test_ptm_product_matches_a_left_fold():
    rng = np.random.default_rng(8)
    for n in range(10):
        maps = rng.normal(size=(n, 4, 4))
        expected = np.eye(4)
        for m in maps:  # applied first to last
            expected = m @ expected
        assert np.allclose(qc.ptm_product(maps), expected, rtol=1e-12, atol=1e-12)
        assert np.allclose(qc.ptm_product(list(maps)), expected, rtol=1e-12, atol=1e-12)


def test_relaxation_ptm_acts_on_the_bloch_vector():
    gamma, decay = 0.3, 0.6
    r = qc.relaxation_ptm(gamma, decay) @ np.array([1.0, 0.2, -0.4, -0.5])
    damped = np.sqrt(1 - gamma) * decay
    assert np.allclose(r, [1.0, 0.2 * damped, -0.4 * damped, gamma + (1 - gamma) * -0.5],
                       atol=1e-15)
    stack = qc.relaxation_ptm(np.array([0.0, 1.0]))
    assert np.allclose(stack[0], np.eye(4), atol=1e-15)
    assert np.allclose(stack[1] @ [1.0, 0.0, 0.0, -1.0], [1.0, 0.0, 0.0, 1.0], atol=1e-15)


# ---------------------------------------------------------------------------
# Channel kernels against independent references
# ---------------------------------------------------------------------------

def trace_ptm(kraus_ops):
    """R_ij = 1/2 sum_k tr(P_i K_k P_j K_k^dag), one stack entry at a time."""
    kraus_ops = np.broadcast_arrays(*[np.asarray(k, dtype=complex) for k in kraus_ops])
    ptm = np.empty(kraus_ops[0].shape[:-2] + (4, 4))
    for index in np.ndindex(ptm.shape[:-2]):
        for i, p_i in enumerate(qc.PAULI_BASIS):
            for j, p_j in enumerate(qc.PAULI_BASIS):
                ptm[index + (i, j)] = 0.5 * sum(
                    np.trace(p_i @ k[index] @ p_j @ k[index].conj().T) for k in kraus_ops).real
    return ptm


def einsum_ptm(kraus_ops):
    """Conjugate the Paulis by every Kraus operator, then project them by einsum."""
    ptm = 0.0
    for k in kraus_ops:
        k = np.asarray(k, dtype=complex)[..., None, :, :]
        images = k @ qc.PAULI_BASIS @ np.swapaxes(k, -1, -2).conj()
        ptm = ptm + 0.5 * np.einsum("iab,...jba->...ij", qc.PAULI_BASIS, images).real
    return ptm


def loop_choi(kraus_ops):
    """Choi matrix as sum_ij e_ij (x) E(e_ij), one matrix unit at a time."""
    c = np.zeros((4, 4), dtype=complex)
    basis = np.eye(2, dtype=complex)
    for i in range(2):
        for j in range(2):
            e_ij = np.outer(basis[i], basis[j])
            out = sum(k @ e_ij @ qc.dagger(k) for k in kraus_ops)
            c += np.kron(e_ij, out)
    return c


def isometry_kraus(rng, count, shape=()):
    """count Kraus operators of a CPTP map: the 2x2 blocks of a random isometry."""
    a = rng.normal(size=shape + (2 * count, 2)) + 1j * rng.normal(size=shape + (2 * count, 2))
    q = np.linalg.qr(a)[0]
    return [q[..., 2 * m:2 * m + 2, :] for m in range(count)]


def damping_and_dephasing_kraus(rng, shape):
    gamma = rng.uniform(size=shape)[..., None, None]
    decay = rng.uniform(size=shape)[..., None, None]
    return [[np.diag([1.0, 0.0]) + np.sqrt(1.0 - gamma) * np.diag([0.0, 1.0]),
             np.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]])],
            [np.sqrt(0.5 * (1.0 + decay)) * qc.IDENTITY,
             np.sqrt(0.5 * (1.0 - decay)) * qc.SIGMA_Z]]


def assert_ptm_matches_references(kraus_ops):
    ptm = qc.ptm_from_kraus(kraus_ops)
    for reference in (trace_ptm(kraus_ops), einsum_ptm(kraus_ops)):
        assert ptm.shape == reference.shape
        assert np.max(np.abs(ptm - reference), initial=0.0) <= 1e-15


_stack_shapes = st.lists(st.integers(1, 3), max_size=2).map(tuple)
_seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(shape=_stack_shapes, seed=_seeds)
def test_ptm_of_unitary_stacks_matches_the_references(shape, seed):
    (u,) = isometry_kraus(np.random.default_rng(seed), 1, shape)
    assert_ptm_matches_references([u])
    assert np.array_equal(qc.ptm_from_unitary(u), qc.ptm_from_kraus([u]))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(shape=_stack_shapes, seed=_seeds)
def test_ptm_of_damping_and_dephasing_stacks_matches_the_references(shape, seed):
    for kraus_ops in damping_and_dephasing_kraus(np.random.default_rng(seed), shape):
        assert_ptm_matches_references(kraus_ops)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(count=st.integers(1, 3), seed=_seeds, scale=st.floats(0.1, 1.0))
def test_ptm_and_choi_of_kraus_sets_match_the_references(count, seed, scale):
    """CPTP sets, and the same sets scaled below trace preservation."""
    for kraus_ops in (isometry_kraus(np.random.default_rng(seed), count),
                      [scale * k for k in isometry_kraus(np.random.default_rng(seed), count)]):
        assert_ptm_matches_references(kraus_ops)
        assert np.array_equal(qc.choi_from_kraus(kraus_ops), loop_choi(kraus_ops))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(shape=st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple), seed=_seeds)
def test_ptm_broadcasts_kraus_operators_of_different_stack_shapes(shape, seed):
    rng = np.random.default_rng(seed)
    damping = damping_and_dephasing_kraus(rng, shape)[0]
    kraus_ops = [damping[0], damping[1][(0,) * len(shape)]]  # a stack and one 2x2
    assert_ptm_matches_references(kraus_ops)


def test_ptm_row_zero_is_computed_for_a_trace_decreasing_set():
    ptm = qc.ptm_from_kraus([np.diag([1.0, 0.0])])  # keep |g>, lose |e>
    assert np.allclose(ptm[0], [0.5, 0.0, 0.0, 0.5], atol=1e-15)
    assert np.allclose(ptm[3], [0.5, 0.0, 0.0, 0.5], atol=1e-15)


def test_choi_of_the_ideal_gates_equals_the_matrix_unit_loop():
    for u in list(IDEAL_GATES.values()) + [qc.IDENTITY, qc.SIGMA_Y]:
        assert qc.choi_from_unitary(u).tobytes() == loop_choi([u]).tobytes()


@pytest.mark.parametrize("kraus_ops", [[], [np.eye(3)], [qc.IDENTITY, np.eye(3)],
                                       [np.ones(2)], [np.ones((2, 2, 3))]],
                         ids=["empty", "3x3", "one-3x3", "vector", "2x3-stack"])
def test_channel_kernels_reject_malformed_kraus_operators(kraus_ops):
    for kernel in (qc.ptm_from_kraus, qc.choi_from_kraus):
        with pytest.raises(ValueError, match="Kraus operators"):
            kernel(kraus_ops)


# ---------------------------------------------------------------------------
# Readout
# ---------------------------------------------------------------------------

_probabilities = st.floats(-0.5, 1.5)
_visibilities = st.floats(1e-3, 1.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=_probabilities, visibility=_visibilities)
def test_read_out_is_the_clipped_visibility_formula(p, visibility):
    assert qc.read_out(p, visibility) == 0.5 + visibility * (min(max(p, 0.0), 1.0) - 0.5)
    assert qc.read_out(p) == 0.5 + (min(max(p, 0.0), 1.0) - 0.5)  # visibility 1 by default


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ps=st.lists(_probabilities, min_size=1, max_size=12), visibility=_visibilities)
def test_read_out_of_a_float_equals_its_array_element(ps, visibility):
    values = qc.read_out(np.array(ps), visibility)
    assert values.shape == (len(ps),)
    for p, value in zip(ps, values):
        assert qc.read_out(p, visibility) == value
        assert qc.read_out(np.float64(p), visibility) == value


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ps=st.lists(_probabilities, min_size=1, max_size=12), visibility=_visibilities,
       shots=st.integers(1, 500), seed=st.integers(0, 2**32 - 1))
def test_sampled_read_out_is_a_shot_fraction_in_the_unit_interval(ps, visibility, shots, seed):
    sampled = [qc.read_out(np.array(ps), visibility, shots, np.random.default_rng(seed)),
               np.array([qc.read_out(p, visibility, np.int64(shots), np.random.default_rng(seed))
                         for p in ps])]
    for values in sampled:
        counts = values * shots
        assert np.all(np.abs(counts - np.round(counts)) <= 1e-9)
        assert np.all((values >= 0.0) & (values <= 1.0))


@pytest.mark.parametrize("shots", [0, -3, 2.5, 1.0, True])
def test_read_out_rejects_bad_shots(shots):
    with pytest.raises(ValueError, match="whole number"):
        qc.read_out(0.5, 0.9, shots, np.random.default_rng(0))


def test_sampled_read_out_needs_a_generator():
    with pytest.raises(ValueError, match="random generator"):
        qc.read_out(0.5, 0.9, 10)
    with pytest.raises(ValueError, match="random generator"):
        qc.read_out(np.array([0.5]), 0.9, 10)
