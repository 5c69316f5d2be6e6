"""Generate the bundled reference process matrices.

Each reference channel composes the ideal gate with a small coherent tilt,
weak amplitude damping, and a depolarizing admixture solved in closed form
so that the average gate fidelity against the ideal gate lands exactly on
the published benchmark value.  Run from the repository root:

    python3 tools/make_reference_channels.py
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fluxqubit.datafiles import (  # noqa: E402
    _REFERENCE_FILES,
    REFERENCE_FIDELITIES,
    REFERENCE_GATES,
)
from fluxqubit.qcore import (  # noqa: E402
    average_gate_fidelity,
    bloch_rotation,
    choi_from_kraus,
    format_matrix,
)
from fluxqubit.tomography import IDEAL_GATES  # noqa: E402

# gate -> (tilt axis, tilt angle rad, damping gamma); the target average
# fidelities and file names are datafiles.REFERENCE_FIDELITIES and _REFERENCE_FILES
RECIPES = {
    "X90": ((0, 0, 1), 0.06, 0.015),
    "Y-90": ((1, 0, 0), 0.05, 0.012),
    "T": ((0, 1, 0), 0.08, 0.020),
    "S": ((1, 1, 0), 0.10, 0.025),
    "H": ((0, 1, 1), 0.09, 0.018),
}


def damping_kraus(gamma):
    return [
        np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex),
        np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex),
    ]


def build_channel(gate, tilt_axis, tilt_angle, gamma):
    u = IDEAL_GATES[gate]
    tilt = bloch_rotation(tilt_axis, tilt_angle)
    return choi_from_kraus([k @ tilt @ u for k in damping_kraus(gamma)])


def reference_choi(gate):
    """The mixed Choi matrix of one recipe: its average gate fidelity is the
    gate's REFERENCE_FIDELITIES target."""
    target = REFERENCE_FIDELITIES[gate]
    base = build_channel(gate, *RECIPES[gate])
    f_base = average_gate_fidelity(base, IDEAL_GATES[gate])
    if f_base <= target:
        raise ValueError(f"{gate}: base fidelity {f_base:.4f} below target {target}")
    # fidelity is affine in the depolarizing admixture eta
    eta = (f_base - target) / (f_base - 0.5)
    choi = (1 - eta) * base + eta * np.eye(4, dtype=complex) / 2
    achieved = average_gate_fidelity(choi, IDEAL_GATES[gate])
    assert abs(achieved - target) < 1e-12, (gate, achieved)
    return choi


def main():
    out_dir = pathlib.Path(__file__).resolve().parents[1] / "src" / "fluxqubit" / "data"
    out_dir.mkdir(parents=True, exist_ok=True)
    for gate in REFERENCE_GATES:
        target = REFERENCE_FIDELITIES[gate]
        path = out_dir / _REFERENCE_FILES[gate]
        header = (
            f"# reference process matrix for gate {gate} (trace-2 Choi form)\n"
            f"# average gate fidelity vs ideal {gate}: {target:.4f}\n"
            f"# synthesized by tools/make_reference_channels.py "
            f"(coherent tilt + damping + depolarizing mix)\n"
        )
        path.write_text(header + format_matrix(reference_choi(gate)), encoding="utf-8")
        print(f"{gate}: fidelity {target:.4f} -> {path.name}")


if __name__ == "__main__":
    main()
