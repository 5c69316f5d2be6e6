"""The 24-element one-qubit Clifford group and its compilation to pulses.

Each group element is a Bloch-sphere rotation R_u(theta).  Elements are
decomposed into seven primitive gates, physical X rotations plus virtual Z
rotations realized as reference-frame phase updates:

    I, X180, X90, X-90, Z180, Z90, Z-90

The decomposition table is built once by brute force: every primitive
string of length <= 3 is multiplied out and matched against the group, and
the shortest strings per element are stored.  Elements may have several
minimal decompositions; `decompose` picks uniformly among the stored ones.

Virtual-Z frames are integer quarter turns, so `_STEPS`, built at import by
the one compile rule `_compile_kinds`, holds the pulses and outgoing frame of
every (element, decomposition, incoming frame).  `compile_cliffords` walks a
string through it and draws all its choices in one `rng.integers(highs)`
call, which leaves the generator as one `decompose` per element does.

Convention: the two pi rotations about axes tilted halfway between the
equator and the poles, R_(1,0,+/-1)(pi), are pinned to their two-pulse
decompositions and their equivalent one-pulse forms are dropped.  With this
convention a uniformly drawn element compiles to 23/24 microwave pulses on
average.

Element indices follow the published-table row order (identity first) and
are stable across runs; sequence files store these indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import pi

import numpy as np

from . import ConsistencyError
from .qcore import bloch_rotation, phase_aligned_distance, unitaries_equal

PRIMITIVE_KINDS = ("I", "X180", "X90", "X-90", "Z180", "Z90", "Z-90")

_X_AXIS = (1.0, 0.0, 0.0)
_Z_AXIS = (0.0, 0.0, 1.0)

_PRIMITIVE_ANGLES = {
    "I": (_X_AXIS, 0.0),
    "X180": (_X_AXIS, pi),
    "X90": (_X_AXIS, pi / 2),
    "X-90": (_X_AXIS, -pi / 2),
    "Z180": (_Z_AXIS, pi),
    "Z90": (_Z_AXIS, pi / 2),
    "Z-90": (_Z_AXIS, -pi / 2),
}

_Z_QUARTERS = {"Z90": 1, "Z180": 2, "Z-90": -1}
QUARTER_TURNS = (0.0, pi / 2, pi, -pi / 2)  # frame phase of k quarter turns, wrapped

PRIMITIVE_UNITARIES = {
    kind: bloch_rotation(axis, angle) for kind, (axis, angle) in _PRIMITIVE_ANGLES.items()
}

# (axis, angle) for all 24 elements, published-table row order, identity
# first.  The duplicated (0,1,-1) row of the published table is corrected to
# (0,1,1); the brute-force construction below verifies that the corrected
# axis is the one whose decomposition matches.
CLIFFORD_DEFS = (
    ((1, 0, 0), 0.0),
    ((1, 0, 0), pi),
    ((0, 1, 0), pi),
    ((0, 0, 1), pi),
    ((1, 1, 1), 2 * pi / 3),
    ((1, 1, -1), 2 * pi / 3),
    ((1, -1, 1), 2 * pi / 3),
    ((1, -1, -1), 2 * pi / 3),
    ((-1, 1, 1), 2 * pi / 3),
    ((-1, 1, -1), 2 * pi / 3),
    ((-1, -1, 1), 2 * pi / 3),
    ((-1, -1, -1), 2 * pi / 3),
    ((1, 0, 0), pi / 2),
    ((-1, 0, 0), pi / 2),
    ((0, 1, 0), pi / 2),
    ((0, -1, 0), pi / 2),
    ((0, 0, 1), pi / 2),
    ((0, 0, -1), pi / 2),
    ((1, 0, 1), pi),
    ((1, 0, -1), pi),
    ((0, 1, -1), pi),
    ((0, 1, 1), pi),
    ((1, 1, 0), pi),
    ((-1, 1, 0), pi),
)

# Indices of the two-pulse-only elements, R_(1,0,1)(pi) and R_(1,0,-1)(pi).
_TWO_PULSE_PINNED = (18, 19)

_MATCH_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class CliffordGate:
    """A group element: stable index, rotation axis/angle, cached unitary."""

    index: int
    axis: tuple
    angle: float
    unitary: np.ndarray

    def __eq__(self, other):
        return isinstance(other, CliffordGate) and other.index == self.index

    def __hash__(self):
        return hash(self.index)

    def __repr__(self):
        return f"CliffordGate({self.index}, axis={self.axis}, angle={self.angle:.4f})"


@dataclass(frozen=True)
class PrimitiveSequence:
    """An ordered primitive decomposition (applied left to right)."""

    gates: tuple
    clifford_index: int


@dataclass(frozen=True)
class PhysicalPulseList:
    """Microwave pulses after virtual-Z compilation.

    Each pulse is (rotation amount, axis angle in the x-y plane); the final
    frame phase is the leftover z rotation.  A positive virtual Z rotates
    the axes of subsequent pulses by minus its angle.
    """

    pulses: tuple
    frame_phase: float


def sequence_product(kinds) -> np.ndarray:
    """Unitary of a primitive string applied left to right."""
    u = np.eye(2, dtype=complex)
    for kind in kinds:
        u = PRIMITIVE_UNITARIES[kind] @ u
    return u


def microwave_pulse_count(kinds) -> int:
    """Number of physical pulses a primitive string compiles to."""
    return sum(1 for kind in kinds if kind.startswith("X"))


def _build_group():
    unitaries = [bloch_rotation(axis, angle) for axis, angle in CLIFFORD_DEFS]
    for i in range(24):
        for j in range(i + 1, 24):
            if unitaries_equal(unitaries[i], unitaries[j]):
                raise ConsistencyError(f"elements {i} and {j} coincide up to phase")
    return unitaries


def _match_index(u: np.ndarray, unitaries) -> int:
    for idx, v in enumerate(unitaries):
        if phase_aligned_distance(u, v) < _MATCH_TOL:
            return idx
    raise ConsistencyError("unitary matches no group element; closure is broken")


def _build_tables(unitaries):
    mul = np.empty((24, 24), dtype=np.int8)
    for i in range(24):
        for j in range(24):
            mul[i, j] = _match_index(unitaries[j] @ unitaries[i], unitaries)
    inv = np.empty(24, dtype=np.int8)
    for i in range(24):
        matches = np.flatnonzero(mul[i] == 0)
        if matches.size != 1:
            raise ConsistencyError(f"element {i} has {matches.size} inverses")
        inv[i] = matches[0]
    return mul.tolist(), inv.tolist()


def _build_decompositions(unitaries):
    """All minimal primitive strings per element, then the pulse-count pin."""
    found = [[] for _ in range(24)]
    non_identity = [k for k in PRIMITIVE_KINDS if k != "I"]
    for length in (1, 2, 3):
        kinds_pool = PRIMITIVE_KINDS if length == 1 else non_identity
        for kinds in itertools.product(kinds_pool, repeat=length):
            u = sequence_product(kinds)
            for idx in range(24):
                if found[idx] and len(found[idx][0]) < length:
                    continue
                if phase_aligned_distance(u, unitaries[idx]) < _MATCH_TOL:
                    found[idx].append(kinds)
                    break
    for idx in _TWO_PULSE_PINNED:
        two_pulse = [k for k in found[idx] if microwave_pulse_count(k) == 2]
        if not two_pulse:
            raise ConsistencyError(f"element {idx} has no two-pulse decomposition")
        found[idx] = two_pulse
    for idx, options in enumerate(found):
        if not options:
            raise ConsistencyError(f"element {idx} has no decomposition")
        for kinds in options:
            if phase_aligned_distance(sequence_product(kinds), unitaries[idx]) >= _MATCH_TOL:
                raise ConsistencyError(f"stored decomposition for {idx} does not verify")
    return [tuple(options) for options in found]


_UNITARIES = _build_group()
_MUL, _INV = _build_tables(_UNITARIES)
DECOMPOSITIONS = _build_decompositions(_UNITARIES)

_GATES = tuple(
    CliffordGate(index=i, axis=CLIFFORD_DEFS[i][0], angle=CLIFFORD_DEFS[i][1], unitary=_UNITARIES[i])
    for i in range(24)
)


def enumerate_cliffords():
    """The 24 group elements in stable index order."""
    return _GATES


def clifford(index: int) -> CliffordGate:
    return _GATES[index]


def compose(a: CliffordGate, b: CliffordGate) -> CliffordGate:
    """Group element equal to applying a first, then b (exact table lookup)."""
    return _GATES[_MUL[a.index][b.index]]


def recovery_gate(sequence) -> CliffordGate:
    """Element that returns the product of `sequence` to the identity."""
    total = 0
    for gate in sequence:
        total = _MUL[total][gate.index]
    return _GATES[_INV[total]]


def decompose(c: CliffordGate, rng: np.random.Generator) -> PrimitiveSequence:
    """Pick uniformly among the stored minimal decompositions of c."""
    options = DECOMPOSITIONS[c.index]
    choice = options[rng.integers(len(options))] if len(options) > 1 else options[0]
    return PrimitiveSequence(gates=choice, clifford_index=c.index)


def _compile_kinds(kinds, quarters: int = 0):
    """Pulses of a primitive string entered at a frame of `quarters` quarter
    turns, and the frame it leaves (mod 4)."""
    pulses = []
    for kind in kinds:
        if kind in _Z_QUARTERS:
            quarters += _Z_QUARTERS[kind]
        elif kind != "I":
            pulses.append((_PRIMITIVE_ANGLES[kind][1], QUARTER_TURNS[-quarters % 4]))
    return tuple(pulses), quarters % 4


def compile_virtual_z(seq: PrimitiveSequence) -> PhysicalPulseList:
    """Absorb Z primitives into pulse axis angles and a final frame phase.

    The frame is an integer count of quarter turns, so every axis angle and
    the frame phase is exactly 0, pi/2, pi or -pi/2, however long the string.
    The realized unitary is Z(frame_phase) times the product of the emitted
    pulses, equal to the sequence's unitary up to global phase.
    """
    pulses, quarters = _compile_kinds(seq.gates)
    return PhysicalPulseList(pulses=pulses, frame_phase=QUARTER_TURNS[quarters])


# _STEPS[element][choice][incoming frame] = (pulses, outgoing frame)
_STEPS = tuple(
    tuple(tuple(_compile_kinds(kinds, q) for q in range(4)) for kinds in options)
    for options in DECOMPOSITIONS
)


def compile_cliffords(indices, rng: np.random.Generator, quarters: int = 0):
    """(pulses, outgoing frame) of a sequence of element indices entered at a
    frame of `quarters` quarter turns: `decompose` per element, then
    `compile_virtual_z`, with the same result and generator state."""
    highs = [len(_STEPS[i]) for i in indices if len(_STEPS[i]) > 1]
    choices = iter(rng.integers(highs).tolist() if highs else ())
    pulses = []
    for i in indices:
        options = _STEPS[i]
        step, quarters = options[next(choices) if len(options) > 1 else 0][quarters]
        pulses.extend(step)
    return tuple(pulses), quarters


def physical_unitary(ppl: PhysicalPulseList) -> np.ndarray:
    """Unitary realized by a compiled pulse list including its frame phase."""
    u = np.eye(2, dtype=complex)
    for amount, axis_angle in ppl.pulses:
        n = (np.cos(axis_angle), np.sin(axis_angle), 0.0)
        u = bloch_rotation(n, amount) @ u
    return bloch_rotation(_Z_AXIS, ppl.frame_phase) @ u


# ---------------------------------------------------------------------------
# Sequence files: one sequence per line, whitespace-separated element
# indices, recovery index appended after a "|" separator.
# ---------------------------------------------------------------------------

def format_sequence_line(sequence, recovery: CliffordGate) -> str:
    indices = " ".join(str(g.index) for g in sequence)
    return f"{indices} | {recovery.index}" if indices else f"| {recovery.index}"


def _parse_index(token: str) -> CliffordGate:
    if not (token.isdigit() and int(token) < 24):
        raise ValueError(f"sequence element {token!r} is not an index in 0-23")
    return _GATES[int(token)]


def parse_sequence_line(line: str):
    """Returns (sequence gates, recovery gate) for one file line."""
    if "|" not in line:
        raise ValueError("sequence line is missing the '|' recovery separator")
    left, right = line.split("|", 1)
    gates = tuple(_parse_index(tok) for tok in left.split())
    recovery = _parse_index(right.strip())
    if recovery_gate(gates) != recovery:
        raise ValueError(f"recovery {recovery.index} does not invert the sequence")
    return gates, recovery


def write_sequences(path, sequences_with_recovery):
    with open(path, "w", encoding="utf-8") as fh:
        for sequence, recovery in sequences_with_recovery:
            fh.write(format_sequence_line(sequence, recovery) + "\n")


def read_sequences(path):
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(parse_sequence_line(line))
    return out
