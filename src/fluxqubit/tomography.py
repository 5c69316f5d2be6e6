"""Quantum process tomography: 36-entry records and Choi reconstruction.

A process is probed with the six axial Bloch states as inputs and read out
along the six signed axes, 36 (preparation, basis) pairs in the canonical
order (+z, -z, +x, -x, +y, -y) for both factors.  Entry (s, b) records the
probability of the +1 outcome of the signed basis operator b after the
process acted on preparation s.

Reconstruction minimizes the squared residual between the record and the
Born probabilities predicted by a trace-2 Choi matrix, by projected
gradient descent (Knee et al., PRA 98, 062336 (2018)): each gradient step
is followed by the exact Frobenius projection onto the CPTP set, found by a
semismooth Newton solve of its four-dimensional dual problem (Qi & Sun,
SIAM J. Matrix Anal. Appl. 28, 360 (2006)); see `project_cptp`.  Steps that
would increase the cost are halved, so the accepted cost sequence is
monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ConsistencyError, check_shots, is_count, wrap_error
from .qcore import (
    IDENTITY,
    PAULI_BASIS,
    SIGMA_X,
    SIGMA_Z,
    average_gate_fidelity,
    bloch_rotation,
    dagger,
    density_from_bloch,
    partial_trace_output,
    pauli_vector,
    validate_choi,
)

AXIS_LABELS = ("+z", "-z", "+x", "-x", "+y", "-y")

_LABEL_VECTORS = {
    "+z": (0.0, 0.0, 1.0),
    "-z": (0.0, 0.0, -1.0),
    "+x": (1.0, 0.0, 0.0),
    "-x": (-1.0, 0.0, 0.0),
    "+y": (0.0, 1.0, 0.0),
    "-y": (0.0, -1.0, 0.0),
}

PREP_STATES = tuple(density_from_bloch(_LABEL_VECTORS[label]) for label in AXIS_LABELS)
BASIS_PROJECTORS = tuple(
    density_from_bloch(_LABEL_VECTORS[label]) for label in AXIS_LABELS
)  # (I + sign * sigma_axis) / 2 is itself an axial state

# Born-rule coefficient matrices: probability = Re tr(_COEFFS[k] @ C)
_COEFFS = np.stack(
    [
        np.kron(PREP_STATES[s].T, BASIS_PROJECTORS[b])
        for s in range(6)
        for b in range(6)
    ]
)

IDEAL_GATES = {
    "I": IDENTITY,
    "X90": bloch_rotation((1, 0, 0), np.pi / 2),
    "X180": bloch_rotation((1, 0, 0), np.pi),
    "Y-90": bloch_rotation((0, 1, 0), -np.pi / 2),
    "T": np.diag([1.0, np.exp(1j * np.pi / 4)]),
    "S": np.diag([1.0, 1.0j]),
    "H": (SIGMA_X + SIGMA_Z) / np.sqrt(2.0),
}


def entry_index(prep_label: str, basis_label: str) -> int:
    return AXIS_LABELS.index(prep_label) * 6 + AXIS_LABELS.index(basis_label)


def entry_labels(index: int):
    return AXIS_LABELS[index // 6], AXIS_LABELS[index % 6]


@dataclass(frozen=True)
class MeasurementRecord:
    """36 outcome probabilities in canonical order, plus the shot budget."""

    entries: np.ndarray
    shots: Optional[int] = None  # None = exact Born probabilities

    def __post_init__(self):
        check_shots(self.shots)
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (36,):
            raise ValueError(f"expected 36 entries, got shape {entries.shape}")
        if np.any(entries < -1e-12) or np.any(entries > 1 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        object.__setattr__(self, "entries", np.clip(entries, 0.0, 1.0))

    def value(self, prep_label: str, basis_label: str) -> float:
        return float(self.entries[entry_index(prep_label, basis_label)])


@dataclass(frozen=True)
class ReconstructionOptions:
    step_size: float = 0.2
    max_iterations: int = 5000
    tolerance: float = 1e-12
    projection_rounds: int = 50   # eigendecompositions allowed per projection

    def __post_init__(self):
        for name in ("step_size", "tolerance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        for name in ("max_iterations", "projection_rounds"):
            value = getattr(self, name)
            if not (is_count(value) and value >= 1):
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


@dataclass
class ReconstructionDiagnostics:
    iterations: int
    converged: bool
    final_cost: float
    cost_history: tuple
    projections: int = 0        # project_cptp calls, one per line-search trial
    projection_eighs: int = 0   # eigendecompositions those calls used in total


def qpt_record(executor, shots: Optional[int], rng: Optional[np.random.Generator] = None,
               gate_name: str = "") -> MeasurementRecord:
    """Collect the 36 entries by calling the executor per (prep, basis) pair.

    The executor maps (prep_label, basis_label, shots, rng) to the estimated
    probability of the +1 outcome along the signed basis axis.
    """
    entries = np.empty(36)
    for index in range(36):
        prep_label, basis_label = entry_labels(index)
        try:
            entries[index] = executor(prep_label, basis_label, shots, rng)
        except Exception as exc:
            name = f" for {gate_name}" if gate_name else ""
            raise wrap_error(
                exc, f"executor failed at entry {index} ({prep_label}, {basis_label}){name}: {exc}"
            ) from exc
    return MeasurementRecord(entries=entries, shots=shots)


def unitary_executor(u: np.ndarray, visibility: float = 1.0):
    """Ideal executor: prepare, conjugate by u, project; optional visibility."""
    u = np.asarray(u, dtype=complex)

    def executor(prep_label, basis_label, shots, rng):
        rho = u @ PREP_STATES[AXIS_LABELS.index(prep_label)] @ dagger(u)
        prob = float(
            np.trace(rho @ BASIS_PROJECTORS[AXIS_LABELS.index(basis_label)]).real
        )
        prob = 0.5 + visibility * (prob - 0.5)
        check_shots(shots)
        if shots is None:
            return prob
        return rng.binomial(shots, min(max(prob, 0.0), 1.0)) / shots

    return executor


def predict(choi: np.ndarray, prep, basis=None) -> float:
    """Born probability of one record entry under the channel `choi`."""
    if basis is None:
        index = int(prep)
    else:
        index = entry_index(prep, basis) if isinstance(prep, str) else prep * 6 + basis
    return float(np.einsum("ij,ji->", _COEFFS[index], np.asarray(choi)).real)


def predict_all(choi: np.ndarray) -> np.ndarray:
    """All 36 Born probabilities in canonical order."""
    return np.einsum("kij,ji->k", _COEFFS, np.asarray(choi)).real


# sigma_k (x) I for sigma_k = I, X, Y, Z: the directions of the multiplier.
_DIRECTIONS = np.stack([np.kron(sigma, IDENTITY) for sigma in PAULI_BASIS])
_TP_TOLERANCE = 1e-13   # on ||Tr_out X - I||_F, scaled by max(1, ||C||_F)


def project_cptp(c: np.ndarray, rounds: int = 50, *,
                 counts: Optional[list] = None) -> np.ndarray:
    """Frobenius projection of the Hermitian part of c onto the CPTP set.

    The nearest X >= 0 with Tr_out X = I is X = P+(C + L (x) I), where P+
    clips eigenvalues at zero and the Hermitian 2x2 multiplier L solves the
    four real equations Tr_out P+(C + L (x) I) = I.  They are solved by
    semismooth Newton from L = (I - Tr_out C) / 2, the affine TP step, so a
    point whose TP step is already PSD takes one eigendecomposition.  The
    Jacobian comes from the same eigendecomposition, as the Loewner divided
    differences of the clip applied to the directions sigma_k (x) I.  A
    Newton step that does not reduce the TP residual is halved, down to a
    sixteenth; when that fails too, or the Jacobian is singular, the
    fixed-point step L <- L - (Tr_out X - I) / 2 is taken instead (a dual
    gradient step of length 1/Lipschitz).  X is PSD by construction; the
    loop stops once ||Tr_out X - I||_F < 1e-13 max(1, ||C||_F).

    `rounds` caps the eigendecompositions; if the residual is still above
    the tolerance after that many, ConsistencyError names it.  If `counts`
    is a list, the number of eigendecompositions used is appended to it.
    """
    c = np.asarray(c, dtype=complex)
    c = 0.5 * (c + dagger(c))
    tolerance = _TP_TOLERANCE * max(1.0, float(np.linalg.norm(c)))
    multiplier = pauli_vector(IDENTITY - partial_trace_output(c)) / 4.0  # L in Pauli coordinates
    start = None   # (multiplier, defect, residual) where the pending Newton `step` began
    residual = math.inf
    for count in range(1, rounds + 1):
        lifted = (multiplier @ _DIRECTIONS.reshape(4, 16)).reshape(4, 4)   # L (x) I
        eigenvalues, vectors = np.linalg.eigh(c + lifted)
        positive = eigenvalues > 0.0
        clipped = np.where(positive, eigenvalues, 0.0)
        blocks = vectors.conj().T @ _DIRECTIONS @ vectors   # sigma_k (x) I in the eigenbasis
        # Pauli coordinates tr(sigma_k (Tr_out X - I)) of the TP defect
        defect = blocks.diagonal(axis1=1, axis2=2).real @ clipped - (2.0, 0.0, 0.0, 0.0)
        residual = math.sqrt(0.5 * float(defect @ defect))
        if residual < tolerance:
            if counts is not None:
                counts.append(count)
            return (vectors * clipped) @ vectors.conj().T
        if start is not None and residual >= start[2]:
            if fraction > 1.0 / 16.0:
                fraction /= 2.0
                multiplier = start[0] - fraction * step
            else:
                multiplier = start[0] - start[1] / 4.0
                start = None
            continue
        step = _newton_step(eigenvalues, positive, clipped, blocks, defect)
        if step is None:
            multiplier = multiplier - defect / 4.0
            start = None
        else:
            start, fraction = (multiplier, defect, residual), 1.0
            multiplier = multiplier - step
    raise ConsistencyError(
        f"CPTP projection did not converge in {rounds} eigendecompositions: "
        f"trace-preservation residual {residual:.3e} (tolerance {tolerance:.1e})"
    )


def _newton_step(eigenvalues, positive, clipped, blocks, defect):
    """Solve J s = defect for the Newton step s, or None if J is singular.

    J_kl = sum_ij conj(B_k)_ij W_ij (B_l)_ij, with B_k = sigma_k (x) I in the
    eigenbasis and W the divided differences of the clip: 1 between positive
    eigenvalues, 0 between the others, l_i / (l_i - l_j) if only l_i > 0.
    """
    both = (positive[:, None] & positive[None, :]).astype(float)
    across = positive[:, None] != positive[None, :]
    weights = np.divide(clipped[:, None] - clipped[None, :],
                        eigenvalues[:, None] - eigenvalues[None, :],
                        out=both, where=across)
    flat = blocks.reshape(4, 16)
    jacobian = (flat.conj() @ (flat * weights.reshape(16)).T).real
    try:
        step = np.linalg.solve(jacobian, defect)
    except np.linalg.LinAlgError:
        return None
    return step if np.all(np.isfinite(step)) else None


def reconstruct(record: MeasurementRecord, opts: ReconstructionOptions = ReconstructionOptions()):
    """Projected gradient descent onto the CPTP set; returns (choi, diagnostics)."""
    targets = record.entries
    c = np.eye(4, dtype=complex) / 2.0  # maximally mixed channel, trace 2

    def cost_of(m):
        residual = predict_all(m) - targets
        return float(residual @ residual)

    cost = cost_of(c)
    history = [cost]
    converged = False
    iterations = 0
    eighs = []   # one entry per project_cptp call
    for iterations in range(1, opts.max_iterations + 1):
        residual = predict_all(c) - targets
        gradient = np.einsum("k,kij->ij", 2.0 * residual, _COEFFS)
        gradient = 0.5 * (gradient + dagger(gradient))
        step = opts.step_size
        improved = False
        for _ in range(60):
            trial = project_cptp(c - step * gradient, opts.projection_rounds, counts=eighs)
            trial_cost = cost_of(trial)
            if trial_cost <= cost:
                improved = True
                break
            step *= 0.5
        if not improved:
            converged = True  # no feasible descent: constrained optimum
            break
        change = cost - trial_cost
        c, cost = trial, trial_cost
        history.append(cost)
        if change < opts.tolerance:
            converged = True
            break
    c = validate_choi(c, "reconstructed Choi matrix")
    return c, ReconstructionDiagnostics(
        iterations=iterations, converged=converged,
        final_cost=cost, cost_history=tuple(history),
        projections=len(eighs), projection_eighs=sum(eighs),
    )


def linear_lsq_choi(record: MeasurementRecord) -> np.ndarray:
    """Unconstrained least-squares Choi estimate (not CPTP in general)."""
    paulis = (np.eye(2, dtype=complex), SIGMA_X,
              np.array([[0, -1j], [1j, 0]]), SIGMA_Z)
    basis = [np.kron(a, b) / 2.0 for a in paulis for b in paulis]
    design = np.array(
        [[np.trace(coeff @ b).real for b in basis] for coeff in _COEFFS]
    )
    weights, *_ = np.linalg.lstsq(design, record.entries, rcond=None)
    return sum(w * b for w, b in zip(weights, basis))


def report_fidelities(gate_names, chois) -> list:
    """Average gate fidelity per named gate; returns (name, fidelity) rows."""
    rows = []
    for name, choi in zip(gate_names, chois):
        if name not in IDEAL_GATES:
            raise ValueError(f"unknown gate {name!r}; known: {sorted(IDEAL_GATES)}")
        rows.append((name, average_gate_fidelity(choi, IDEAL_GATES[name])))
    return rows

