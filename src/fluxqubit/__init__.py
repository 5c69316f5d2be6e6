"""Pulse-level simulation and gate characterization for flux-tunable qubits.

Subpackages cover complex linear algebra and fidelity metrics (qcore), the
one-qubit Clifford group and virtual-Z compilation (cliffords), time-domain
flux-pulse simulation (pulsesim), randomized and purity benchmarking
(benchmarking), curve fitting and Allan-deviation analysis (analysis),
process tomography (tomography), and demultiplexed-gate calibration and
compilation (demux).
"""

import numbers

__version__ = "0.1.0"


class CalibrationError(RuntimeError):
    """Raised when a calibration scan cannot locate its target feature."""


class FitError(RuntimeError):
    """Raised when a least-squares fit cannot proceed (singular Jacobian)."""


class InvalidChannelError(ValueError):
    """Raised when a process matrix violates CPTP constraints beyond tolerance."""


class ConsistencyError(RuntimeError):
    """Raised when an internal invariant is violated (indicates a bug)."""


def wrap_error(exc: Exception, message: str) -> Exception:
    """`message` as exc's type if that takes a lone message, else as RuntimeError."""
    try:
        return type(exc)(message)
    except Exception:
        return RuntimeError(message)


def is_count(value) -> bool:
    """True for an integer (numpy integers included) that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_shots(shots) -> None:
    """Raise ValueError unless shots is None (exact) or a whole number >= 1."""
    if shots is not None and not (is_count(shots) and shots >= 1):
        raise ValueError(
            f"shots must be a whole number of at least 1 (or None for the exact "
            f"value), got {shots!r}"
        )
