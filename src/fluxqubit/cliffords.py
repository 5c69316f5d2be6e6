"""The 24-element one-qubit Clifford group and its compilation to pulses.

Each group element is a Bloch-sphere rotation R_u(theta).  Elements are
decomposed into seven primitive gates, physical X rotations plus virtual Z
rotations realized as reference-frame phase updates:

    I, X180, X90, X-90, Z180, Z90, Z-90

The group is one read-only (24, 2, 2) stack.  Its tables are built and
checked at import by matching batched products against it: all 576 pairwise
products, and every primitive string of length <= 3, keeping the shortest
strings per element.  `decompose` picks uniformly among those.

Virtual-Z frames are integer quarter turns, so a compiled element is one of
148 steps: an (element, decomposition, incoming frame), with at most 2
pulses and an outgoing frame.  Flat tables built at import by the one compile
rule `_compile_kinds` hold each step's pulses and outgoing frame, indexed by
step id.  `compile_cliffords` turns a string into one step id per element
and draws all its choices in one `rng.integers(highs)` call, which leaves
the generator as one `decompose` per element does; `decode_steps` gives the
pulses of step ids.

Convention: the two pi rotations about axes tilted halfway between the
equator and the poles, R_(1,0,+/-1)(pi), are pinned to their two-pulse
decompositions and their equivalent one-pulse forms are dropped.  With this
convention a uniformly drawn element compiles to 23/24 microwave pulses on
average.

Element indices follow the published-table row order (identity first) and
are stable across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import pi

import numpy as np

from . import ConsistencyError, is_count
from .qcore import bloch_rotation, phase_aligned_distance

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

_PRIMITIVES = np.stack([bloch_rotation(*_PRIMITIVE_ANGLES[kind]) for kind in PRIMITIVE_KINDS])
_PRIMITIVES.flags.writeable = False
PRIMITIVE_UNITARIES = dict(zip(PRIMITIVE_KINDS, _PRIMITIVES))

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
    unitaries = np.stack([bloch_rotation(axis, angle) for axis, angle in CLIFFORD_DEFS])
    unitaries.flags.writeable = False
    for j, i in enumerate(_match(unitaries, unitaries)):
        if i != j:
            raise ConsistencyError(f"elements {i} and {j} coincide up to phase")
    return unitaries


def _match(products: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """Index of the first element each product equals up to phase, matching
    24 products at a time to keep the batch small; raises if one has none."""
    hits = np.concatenate([
        phase_aligned_distance(products[k:k + 24, None], unitaries) < _MATCH_TOL
        for k in range(0, len(products), 24)
    ])
    if not hits.any(axis=1).all():
        raise ConsistencyError("unitary matches no group element; closure is broken")
    return hits.argmax(axis=1)


def _build_tables(unitaries):
    # entry [i, j] is unitaries[j] @ unitaries[i]: i applied first, then j
    mul = _match((unitaries @ unitaries[:, None]).reshape(-1, 2, 2), unitaries).reshape(24, 24)
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
    for length in (1, 2, 3):
        kinds_pool = PRIMITIVE_KINDS if length == 1 else PRIMITIVE_KINDS[1:]  # I only on its own
        strings = list(itertools.product(kinds_pool, repeat=length))
        codes = np.array([[PRIMITIVE_KINDS.index(kind) for kind in kinds] for kinds in strings])
        products = _PRIMITIVES[codes[:, 0]]
        for column in codes.T[1:]:
            products = _PRIMITIVES[column] @ products
        for kinds, idx in zip(strings, _match(products, unitaries).tolist()):
            if not found[idx] or len(found[idx][0]) == length:
                found[idx].append(kinds)
    for idx in _TWO_PULSE_PINNED:
        two_pulse = [k for k in found[idx] if microwave_pulse_count(k) == 2]
        if not two_pulse:
            raise ConsistencyError(f"element {idx} has no two-pulse decomposition")
        found[idx] = two_pulse
    for idx, options in enumerate(found):
        if not options:
            raise ConsistencyError(f"element {idx} has no decomposition")
        products = np.stack([sequence_product(kinds) for kinds in options])
        if (phase_aligned_distance(products, unitaries[idx]) >= _MATCH_TOL).any():
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
    if not (is_count(index) and 0 <= index < 24):
        raise ValueError(f"Clifford index must be a whole number in 0..23, got {index!r}")
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


def _build_steps(decompositions):
    """Flat step tables.  A step is one (element, decomposition choice,
    incoming frame); step id first[i] + 4 * choice + frame is element i by
    decomposition `choice` entered at `frame` quarter turns.  Returns each
    step's pulses, each step's outgoing frame, and each element's first id."""
    pulses, frames = zip(*(_compile_kinds(kinds, q)
                           for options in decompositions for kinds in options for q in range(4)))
    first = itertools.accumulate((4 * len(options) for options in decompositions[:-1]), initial=0)
    return pulses, frames, tuple(first)


_STEP_PULSES, _STEP_FRAME, _FIRST_STEP = _build_steps(DECOMPOSITIONS)
_CHOICE_COUNTS = tuple(len(options) for options in DECOMPOSITIONS)


def compile_cliffords(indices, rng: np.random.Generator, quarters: int = 0):
    """(step ids, outgoing frame) of elements `indices` entered at a frame of
    `quarters` quarter turns; `decompose` then `compile_virtual_z` per element
    give the pulses of `decode_steps` and the same generator state."""
    for i in indices:
        if not (is_count(i) and 0 <= i < 24):
            raise ValueError(f"Clifford index must be a whole number in 0..23, got {i!r}")
    if not (is_count(quarters) and 0 <= quarters < 4):
        raise ValueError(f"quarters must be a whole number in 0..3, got {quarters!r}")
    return _compile_cliffords(indices, rng, quarters)


def _compile_cliffords(indices, rng: np.random.Generator, quarters: int = 0):
    """compile_cliffords unchecked, for indices read from group elements."""
    counts, first, frames = _CHOICE_COUNTS, _FIRST_STEP, _STEP_FRAME
    highs = [counts[i] for i in indices if counts[i] > 1]
    choices = iter(rng.integers(highs).tolist() if highs else ())
    steps = []
    for i in indices:
        step = first[i] + quarters + (4 * next(choices) if counts[i] > 1 else 0)
        steps.append(step)
        quarters = frames[step]
    return steps, quarters


def decode_steps(steps) -> tuple:
    """The (rotation amount, axis angle) pulses of compiled step ids, in order."""
    return tuple(itertools.chain.from_iterable(_STEP_PULSES[step] for step in steps))


def physical_unitary(ppl: PhysicalPulseList) -> np.ndarray:
    """Unitary realized by a compiled pulse list including its frame phase."""
    u = np.eye(2, dtype=complex)
    for amount, axis_angle in ppl.pulses:
        n = (np.cos(axis_angle), np.sin(axis_angle), 0.0)
        u = bloch_rotation(n, amount) @ u
    return bloch_rotation(_Z_AXIS, ppl.frame_phase) @ u
