"""Complex linear algebra for a single qubit: states, rotations, channels.

Conventions used throughout the package:

* The ground state |g> is the basis vector (1, 0) and sits at the north pole
  of the Bloch sphere, z = +1, so that P_g = (1 + <sigma_z>)/2.
* Rotations are R_n(theta) = exp(-i * theta * (n . sigma) / 2).
* Choi matrices are 4x4, ordered input (x) output, and normalized to trace
  d = 2.  The Choi matrix of the identity channel is 2 |Omega><Omega| with
  |Omega> the maximally entangled state.
* Two unitaries are considered equal when they agree up to a global phase.
* Pauli transfer matrices (PTMs) are real 4x4 matrices acting on the Pauli
  vector (tr rho, <sx>, <sy>, <sz>), so channels compose by matrix product
  (Greenbaum, arXiv:1509.02921).
* Both are read from one superoperator s = sum_k |K_k>><<K_k| (row-major
  vec): the Choi matrix swaps its factors, the PTM is one real product on it.
"""

from __future__ import annotations

import math

import numpy as np

from . import InvalidChannelError, check_shots

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
PAULI_BASIS = np.stack((IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z))

KET_G = np.array([1, 0], dtype=complex)
KET_E = np.array([0, 1], dtype=complex)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
PHASE_EQUAL_TOL = 1e-8

CHOI_TRACE = 2.0
CHOI_HERMITICITY_TOL = 1e-10
CHOI_TRACE_TOL = 1e-8
CHOI_EIGENVALUE_FLOOR = -1e-8
CHOI_TP_TOL = 1e-8


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm of a matrix."""
    return float(np.linalg.norm(m))


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    return frobenius(m - dagger(m)) < tol


def is_unitary(m: np.ndarray) -> bool:
    return frobenius(dagger(m) @ m - np.eye(m.shape[0])) < HERMITICITY_TOL


def phase_aligned_distance(u: np.ndarray, v: np.ndarray):
    """Frobenius distance min over phi of ||u - e^{i phi} v||_F.

    The optimal phase is the argument of tr(v^dag u); when that trace
    vanishes the two matrices are orthogonal and every phase is optimal.
    Broadcasts over leading axes: a float for two matrices, an array of
    distances for stacks.
    """
    overlap = np.einsum("...ij,...ij->...", np.conj(v), u)  # tr(v^dag u)
    diff = u - np.exp(1j * np.angle(overlap))[..., None, None] * v
    distance = np.sqrt(np.sum(diff.real ** 2 + diff.imag ** 2, axis=(-2, -1)))
    return float(distance) if distance.ndim == 0 else distance


def unitaries_equal(u: np.ndarray, v: np.ndarray) -> bool:
    """True when two matrices agree up to a global phase."""
    return phase_aligned_distance(u, v) < PHASE_EQUAL_TOL


def bloch_rotation(axis, angle: float) -> np.ndarray:
    """Rotation exp(-i * angle * (n . sigma) / 2) about a Bloch axis.

    The axis is normalized internally; a zero axis is rejected.  The result
    is special unitary (det = 1).
    """
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("rotation axis must be nonzero")
    n = axis / norm
    half = 0.5 * angle
    return (
        np.cos(half) * IDENTITY
        - 1j * np.sin(half) * (n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)
    )


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check the shape, Hermiticity, unit trace and positivity of a qubit state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"rho must be a 2x2 qubit density matrix, got shape {rho.shape}")
    if not is_hermitian(rho):
        raise ValueError("rho is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise ValueError("rho does not have unit trace")
    eigenvalues = np.linalg.eigvalsh(rho)
    if eigenvalues.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"rho has a negative eigenvalue {eigenvalues.min():.3e}")
    return rho


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (x, y, z) of a validated single-qubit density matrix."""
    rho = validate_density_matrix(rho)
    return np.array([np.trace(rho @ p).real for p in PAULIS])


def density_from_bloch(v) -> np.ndarray:
    """Density matrix (I + v . sigma)/2 from a Bloch vector of norm <= 1."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    norm = np.linalg.norm(v)
    if norm > 1.0 + 1e-10:
        raise ValueError(f"Bloch vector norm {norm:.6f} exceeds 1")
    return 0.5 * (IDENTITY + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)


def purity(rho: np.ndarray) -> float:
    """Squared Bloch-vector norm <sx>^2 + <sy>^2 + <sz>^2.

    Equals 2 tr(rho^2) - 1; ranges from 0 (maximally mixed) to 1 (pure).
    """
    v = bloch_from_density(rho)
    return float(v @ v)


def excited_population(rho: np.ndarray) -> float:
    """P_e, the population of the excited state |e> = (0, 1)."""
    return float(np.asarray(rho)[1, 1].real)


def read_out(probability, visibility: float = 1.0, shots=None, rng=None):
    """Measured value of a true probability (a float or an array): clipped to
    [0, 1], compressed to 1/2 + visibility (p - 1/2), and with `shots` the
    binomial estimate from that many shots drawn from `rng`."""
    if isinstance(probability, float):  # min/max is ten times cheaper than np.clip here
        p = min(max(probability, 0.0), 1.0)
    else:
        p = np.clip(probability, 0.0, 1.0)
    p = 0.5 + visibility * (p - 0.5)
    if shots is None:
        return p
    check_shots(shots)
    if rng is None:
        raise ValueError("finite-shot measurement needs a random generator")
    return rng.binomial(shots, p) / shots


# ---------------------------------------------------------------------------
# Choi representation of channels
# ---------------------------------------------------------------------------

def _superoperator(kraus_ops) -> np.ndarray:
    """s[..., (a, i), (b, j)] = sum_k K_k[a, i] conj(K_k[b, j]); the K_k are 2x2
    or stacks of 2x2 whose stack shapes broadcast against each other."""
    kraus_ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
    if not kraus_ops or any(k.shape[-2:] != (2, 2) for k in kraus_ops):
        raise ValueError("need one or more Kraus operators, each 2x2 or a stack of 2x2")
    vecs = [k.reshape(k.shape[:-2] + (4,)) for k in kraus_ops]
    return sum(v[..., :, None] * v.conj()[..., None, :] for v in vecs)


def choi_from_kraus(kraus_ops) -> np.ndarray:
    """Choi matrix (trace 2) of 2x2 Kraus operators: C[(i, a), (j, b)] = s[(a, i), (b, j)]."""
    return _superoperator(kraus_ops).reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


def choi_from_unitary(u: np.ndarray) -> np.ndarray:
    """Choi matrix (trace 2) of the unitary channel rho -> u rho u^dag."""
    return choi_from_kraus([u])


def partial_trace_output(c: np.ndarray) -> np.ndarray:
    """Trace out the output factor of a 4x4 input-(x)-output matrix."""
    c = np.asarray(c).reshape(2, 2, 2, 2)
    return np.trace(c, axis1=1, axis2=3)


def partial_trace_input(c: np.ndarray) -> np.ndarray:
    """Trace out the input factor of a 4x4 input-(x)-output matrix."""
    c = np.asarray(c).reshape(2, 2, 2, 2)
    return np.trace(c, axis1=0, axis2=2)


def validate_choi(c: np.ndarray, name: str = "choi") -> np.ndarray:
    """Check the CPTP invariants of a trace-2 Choi matrix."""
    c = np.asarray(c, dtype=complex)
    if c.shape != (4, 4):
        raise InvalidChannelError(f"{name} must be 4x4, got {c.shape}")
    if not is_hermitian(c, CHOI_HERMITICITY_TOL):
        raise InvalidChannelError(f"{name} is not Hermitian")
    if abs(np.trace(c).real - CHOI_TRACE) > CHOI_TRACE_TOL:
        raise InvalidChannelError(
            f"{name} has trace {np.trace(c).real:.8f}, expected {CHOI_TRACE}"
        )
    eigenvalues = np.linalg.eigvalsh(c)
    if eigenvalues.min() < CHOI_EIGENVALUE_FLOOR:
        raise InvalidChannelError(
            f"{name} has a negative eigenvalue {eigenvalues.min():.3e}"
        )
    tp_defect = frobenius(partial_trace_output(c) - IDENTITY)
    if tp_defect > CHOI_TP_TOL:
        raise InvalidChannelError(
            f"{name} violates trace preservation by {tp_defect:.3e}"
        )
    return c


def apply_choi(c: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Output state of the channel described by Choi matrix c.

    E(rho) = Tr_in[(rho^T (x) I) c] for the trace-2 convention.
    """
    c = validate_choi(c)
    rho = validate_density_matrix(rho)
    return partial_trace_input(np.kron(rho.T, IDENTITY) @ c)


def process_fidelity(c: np.ndarray, u_ideal: np.ndarray) -> float:
    """Entanglement fidelity tr(C_ideal C) / d^2 between c and a unitary."""
    c_ideal = choi_from_unitary(u_ideal)
    return float(np.trace(c_ideal @ np.asarray(c)).real) / 4.0


def average_gate_fidelity(c: np.ndarray, u_ideal: np.ndarray) -> float:
    """Average gate fidelity (d F_pro + 1) / (d + 1), d = 2.

    Equals 1 for the ideal gate's own Choi matrix and 1/2 for the fully
    depolarizing channel against any unitary.
    """
    c = validate_choi(c)
    u_ideal = np.asarray(u_ideal, dtype=complex)
    if u_ideal.shape != (2, 2):
        raise ValueError(f"ideal unitary must be 2x2, got {u_ideal.shape}")
    if not is_unitary(u_ideal):
        raise ValueError("ideal gate is not unitary")
    f_pro = process_fidelity(c, u_ideal)
    return (2.0 * f_pro + 1.0) / 3.0


# ---------------------------------------------------------------------------
# Pauli transfer matrices
# ---------------------------------------------------------------------------

def pauli_vector(rho: np.ndarray) -> np.ndarray:
    """Real Pauli vector (tr rho, <sx>, <sy>, <sz>) of a 2x2 density matrix."""
    return np.einsum("ab,iba->i", np.asarray(rho, dtype=complex), PAULI_BASIS).real


def density_from_pauli_vector(r) -> np.ndarray:
    """Inverse of pauli_vector: (r_0 I + r_x sx + r_y sy + r_z sz) / 2."""
    return 0.5 * np.einsum("i,iab->ab", np.asarray(r, dtype=float), PAULI_BASIS)


# R_pq = 1/2 sum s[(a, i), (b, j)] P_p[b, a] P_q[i, j] as a real (32, 16) matrix on s
# flattened with interleaved real and imaginary parts: Re(s c) = Re s Re c - Im s Im c
_PTM_OF_SUPEROPERATOR = (0.5 * np.einsum("pba,qij->pqaibj", PAULI_BASIS, PAULI_BASIS)
                         ).reshape(16, 16).conj().view(float).T.copy()


def ptm_from_kraus(kraus_ops) -> np.ndarray:
    """PTM R_ij = sum_k tr(P_i K_k P_j K_k^dag) / 2, one real product on the
    superoperator; each K_k may be a stack. Row 0 is computed, not assumed."""
    s = _superoperator(kraus_ops)
    ptm = s.reshape(s.shape[:-2] + (16,)).view(float) @ _PTM_OF_SUPEROPERATOR
    return ptm.reshape(s.shape[:-2] + (4, 4))


def ptm_from_unitary(u: np.ndarray) -> np.ndarray:
    """PTM of rho -> u rho u^dag (u may be a stack of unitaries)."""
    return ptm_from_kraus([u])


def relaxation_ptm(gamma, decay: float = 1.0) -> np.ndarray:
    """PTM of amplitude damping to |g> with probability gamma (scalar or
    array), then pure dephasing that scales the coherences by `decay`."""
    gamma = np.asarray(gamma, dtype=float)[..., None, None]
    ptm = ptm_from_kraus([np.diag([1.0, 0.0]) + np.sqrt(1.0 - gamma) * np.diag([0.0, 1.0]),
                          np.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]])])
    if decay < 1.0:
        ptm = ptm_from_kraus([math.sqrt(0.5 * (1.0 + decay)) * IDENTITY,
                              math.sqrt(0.5 * (1.0 - decay)) * SIGMA_Z]) @ ptm
    return ptm


def check_coherence_times(t1, t2) -> None:
    """Raise ValueError unless T1 and T2 are positive (inf allowed) and T2 <= 2 T1."""
    if not (t1 > 0.0 and t2 > 0.0):
        raise ValueError("t1 and t2 must be positive (inf allowed)")
    if t2 > 2 * t1 + 1e-9:
        raise ValueError("t2 cannot exceed 2 * t1")


def relaxation_factors(tau_ns, t1_us, t2_us, damping_t1_us=None):
    """relaxation_ptm's (gamma, decay) over tau ns: 1 - exp(-tau / T1) and
    exp(-tau / T_phi), 1/T_phi = 1/T2 - 1/(2 T1) floored at 0; damping_t1_us
    (scalar or array) replaces T1 in gamma only, for a T1(f) with dips."""
    damping_t1_us = t1_us if damping_t1_us is None else damping_t1_us
    gamma = 1.0 - np.exp(-tau_ns / (damping_t1_us * 1e3))
    dephasing_rate = 1.0 / (t2_us * 1e3) - 0.5 / (t1_us * 1e3)  # 1/T_phi in 1/ns
    return gamma, math.exp(-tau_ns * max(dephasing_rate, 0.0))


def ptm_product(maps) -> np.ndarray:
    """maps[-1] @ ... @ maps[0] (applied first to last) by a pairwise tree
    reduce, log2(n) rounds of stacked matmul; the identity for no maps."""
    out = np.asarray(maps, dtype=float).reshape(-1, 4, 4)
    while len(out) > 1:
        paired = out[1::2] @ out[:len(out) - 1:2]
        out = np.concatenate((paired, out[-1:])) if len(out) % 2 else paired
    return out[0] if len(out) else np.eye(4)

