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
"""

from __future__ import annotations

import math

import numpy as np

from . import InvalidChannelError

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


def is_unitary(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    return frobenius(dagger(m) @ m - np.eye(m.shape[0])) < tol


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance min over phi of ||u - e^{i phi} v||_F.

    The optimal phase is the argument of tr(v^dag u); when that trace
    vanishes the two matrices are orthogonal and every phase is optimal.
    """
    overlap = np.trace(dagger(v) @ u)
    if abs(overlap) > 0:
        phase = overlap / abs(overlap)
    else:
        phase = 1.0
    return frobenius(u - phase * v)


def unitaries_equal(u: np.ndarray, v: np.ndarray, tol: float = PHASE_EQUAL_TOL) -> bool:
    """True when two matrices agree up to a global phase."""
    return phase_aligned_distance(u, v) < tol


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


def validate_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity of a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2) and rho.shape != (4, 4):
        raise ValueError(f"{name} must be 2x2 or 4x4, got {rho.shape}")
    if not is_hermitian(rho):
        raise ValueError(f"{name} is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise ValueError(f"{name} does not have unit trace")
    eigenvalues = np.linalg.eigvalsh(rho)
    if eigenvalues.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"{name} has a negative eigenvalue {eigenvalues.min():.3e}")
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


# ---------------------------------------------------------------------------
# Choi representation of channels
# ---------------------------------------------------------------------------

def choi_from_kraus(kraus_ops) -> np.ndarray:
    """Choi matrix (trace 2) of the channel with the given Kraus operators."""
    c = np.zeros((4, 4), dtype=complex)
    basis = np.eye(2, dtype=complex)
    for i in range(2):
        for j in range(2):
            e_ij = np.outer(basis[i], basis[j])
            out = sum(k @ e_ij @ dagger(k) for k in kraus_ops)
            c += np.kron(e_ij, out)
    return c


def choi_from_unitary(u: np.ndarray) -> np.ndarray:
    """Choi matrix (trace 2) of the unitary channel rho -> u rho u^dag."""
    return choi_from_kraus([np.asarray(u, dtype=complex)])


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


def ptm_from_kraus(kraus_ops) -> np.ndarray:
    """PTM R_ij = sum_k tr(P_i K_k P_j K_k^dag) / 2; each K_k may be a stack.

    Row 0 is computed, not assumed: it is (1, 0, 0, 0) only for a
    trace-preserving set of Kraus operators.
    """
    ptm = 0.0
    for k in kraus_ops:
        k = np.asarray(k, dtype=complex)[..., None, :, :]
        images = k @ PAULI_BASIS @ np.swapaxes(k, -1, -2).conj()
        ptm = ptm + 0.5 * np.einsum("iab,...jba->...ij", PAULI_BASIS, images).real
    return ptm


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


def ptm_product(maps) -> np.ndarray:
    """maps[-1] @ ... @ maps[0] (applied first to last) by a pairwise tree
    reduce, log2(n) rounds of stacked matmul; the identity for no maps."""
    out = np.asarray(maps, dtype=float).reshape(-1, 4, 4)
    while len(out) > 1:
        paired = out[1::2] @ out[:len(out) - 1:2]
        out = np.concatenate((paired, out[-1:])) if len(out) % 2 else paired
    return out[0] if len(out) else np.eye(4)


# ---------------------------------------------------------------------------
# Matrix text serialization: one row per line, complex entries like 1.5-0.25j
# ---------------------------------------------------------------------------

def format_matrix(m: np.ndarray) -> str:
    """Serialize a complex matrix, one row per line, entries like re+imj."""
    m = np.asarray(m, dtype=complex)
    lines = []
    for row in m:
        lines.append(" ".join(f"{z.real:+.17e}{z.imag:+.17e}j" for z in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    """Parse the output of format_matrix; blank and comment lines are skipped."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([complex(tok) for tok in line.split()])
    if not rows:
        raise ValueError("no matrix rows found")
    m = np.array(rows, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m
