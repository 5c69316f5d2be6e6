
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxqubit import ConsistencyError
from fluxqubit import cliffords as cl
from fluxqubit import qcore as qc

GATES = cl.enumerate_cliffords()

# Published decomposition table rows (applied left to right); the row listed
# with a duplicated axis in print is corrected to (0,1,1) at index 21.
PUBLISHED_ROWS = {
    0: ("I",),
    1: ("X180",),
    2: ("X180", "Z180"),
    3: ("Z180",),
    4: ("X90", "Z90"),
    5: ("Z-90", "X90"),
    6: ("Z90", "X90"),
    7: ("X90", "Z-90"),
    8: ("Z90", "X-90"),
    9: ("X-90", "Z-90"),
    10: ("X-90", "Z90"),
    11: ("Z-90", "X-90"),
    12: ("X90",),
    13: ("X-90",),
    14: ("X90", "Z90", "X-90"),
    15: ("X90", "Z-90", "X-90"),
    16: ("Z90",),
    17: ("Z-90",),
    18: ("X90", "Z90", "X90"),
    19: ("X90", "Z-90", "X90"),
    20: ("Z180", "X90"),
    21: ("Z180", "X-90"),
    22: ("X180", "Z90"),
    23: ("X180", "Z-90"),
}


def test_twenty_four_distinct_elements():
    assert len(GATES) == 24
    for i in range(24):
        for j in range(i + 1, 24):
            assert not qc.unitaries_equal(GATES[i].unitary, GATES[j].unitary)


def test_identity_has_index_zero():
    assert GATES[0].axis == (1, 0, 0)
    assert GATES[0].angle == 0.0
    assert np.allclose(GATES[0].unitary, np.eye(2), atol=1e-12)


def test_every_element_conjugates_paulis_to_signed_paulis():
    paulis = [qc.SIGMA_X, qc.SIGMA_Y, qc.SIGMA_Z]
    for g in GATES:
        for p in paulis:
            image = g.unitary @ p @ g.unitary.conj().T
            hits = sum(
                np.allclose(image, sign * q, atol=1e-9)
                for q in paulis
                for sign in (+1, -1)
            )
            assert hits == 1


def test_group_closure_and_unique_inverse():
    for a in GATES:
        inverses = 0
        for b in GATES:
            c = cl.compose(a, b)
            assert qc.unitaries_equal(c.unitary, b.unitary @ a.unitary)
            if c.index == 0:
                inverses += 1
        assert inverses == 1


def test_compose_identities():
    identity = GATES[0]
    x180 = GATES[1]
    x90 = GATES[12]
    for c in GATES:
        assert cl.compose(identity, c) == c
        assert cl.compose(c, identity) == c
    assert cl.compose(x180, x180) == identity
    assert cl.compose(x90, x90) == x180


def test_recovery_gate_trivial_cases():
    assert cl.recovery_gate([]) == GATES[0]
    assert cl.recovery_gate([GATES[12]]) == GATES[13]  # X90 -> X-90


def test_recovery_gate_random_sequences():
    rng = np.random.default_rng(11)
    for _ in range(200):
        length = rng.integers(1, 101)
        seq = [GATES[i] for i in rng.integers(24, size=length)]
        rec = cl.recovery_gate(seq)
        total = np.eye(2, dtype=complex)
        for g in seq:
            total = g.unitary @ total
        total = rec.unitary @ total
        assert qc.phase_aligned_distance(total, np.eye(2)) < 1e-8


def test_published_rows_reproduce_their_elements():
    for idx, kinds in PUBLISHED_ROWS.items():
        u = cl.sequence_product(kinds)
        assert qc.unitaries_equal(u, GATES[idx].unitary), f"row {idx}"


def test_corrected_row_does_not_match_printed_duplicate_axis():
    u = cl.sequence_product(("Z180", "X-90"))
    printed_axis = qc.bloch_rotation((0, 1, -1), np.pi)
    assert not qc.unitaries_equal(u, printed_axis)


def test_decompose_identity_and_z180():
    rng = np.random.default_rng(12)
    for _ in range(20):
        assert cl.decompose(GATES[0], rng).gates == ("I",)
        assert cl.decompose(GATES[3], rng).gates == ("Z180",)


def test_decompose_verifies_for_all_elements_and_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for g in GATES:
            seq = cl.decompose(g, rng)
            assert seq.clifford_index == g.index
            assert qc.unitaries_equal(cl.sequence_product(seq.gates), g.unitary)
            assert len(seq.gates) <= 3


def test_stored_decompositions_are_minimal_length():
    for idx, options in enumerate(cl.DECOMPOSITIONS):
        published_len = len(PUBLISHED_ROWS[idx])
        assert all(len(o) <= published_len for o in options)


def test_mean_microwave_pulse_count():
    rng = np.random.default_rng(13)
    draws = rng.integers(24, size=100_000)
    total = sum(
        cl.microwave_pulse_count(cl.decompose(GATES[d], rng).gates) for d in draws
    )
    assert abs(total / 100_000 - 23 / 24) < 0.01


def test_compile_pure_virtual_z():
    compiled = cl.compile_virtual_z(cl.PrimitiveSequence(("Z90",), 16))
    assert compiled.pulses == ()
    assert abs(compiled.frame_phase - np.pi / 2) < 1e-12


def test_compile_hadamard_row_axis_rotated_90_degrees():
    compiled = cl.compile_virtual_z(cl.PrimitiveSequence(("X90", "Z90", "X90"), 18))
    assert len(compiled.pulses) == 2
    (a1, ax1), (a2, ax2) = compiled.pulses
    assert a1 == a2 == np.pi / 2
    assert abs(abs(ax2 - ax1) - np.pi / 2) < 1e-12


def test_compile_never_emits_z_and_counts_match():
    rng = np.random.default_rng(14)
    for g in GATES:
        seq = cl.decompose(g, rng)
        compiled = cl.compile_virtual_z(seq)
        assert len(compiled.pulses) == cl.microwave_pulse_count(seq.gates)
        assert len(compiled.pulses) <= len(seq.gates)


def test_compile_random_sequences_against_matrix_product():
    rng = np.random.default_rng(15)
    kinds = [k for k in cl.PRIMITIVE_KINDS]
    for _ in range(30):
        gates = tuple(kinds[i] for i in rng.integers(len(kinds), size=50))
        seq = cl.PrimitiveSequence(gates, -1)
        compiled = cl.compile_virtual_z(seq)
        assert qc.phase_aligned_distance(
            cl.physical_unitary(compiled), cl.sequence_product(gates)
        ) < 1e-8


def test_compile_frames_are_exact():
    # the frame is counted in quarter turns, so no float drift builds up
    rng = np.random.default_rng(2000)
    kinds = tuple(str(k) for k in rng.choice(cl.PRIMITIVE_KINDS, size=2000))
    compiled = cl.compile_virtual_z(cl.PrimitiveSequence(kinds, -1))
    exact = {0.0, np.pi / 2, np.pi, -np.pi / 2}
    assert len(compiled.pulses) == cl.microwave_pulse_count(kinds)
    assert {axis for _, axis in compiled.pulses} <= exact
    assert compiled.frame_phase in exact


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(indices=st.lists(st.integers(0, 23), max_size=60), quarters=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_compile_cliffords_matches_decompose_then_compile(indices, quarters, seed):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    steps, outgoing = cl.compile_cliffords(indices, rng, quarters)
    kinds = ("Z90",) * quarters  # enters the string at a frame of `quarters`
    for i in indices:
        kinds += cl.decompose(GATES[i], reference_rng).gates
    expected = cl.compile_virtual_z(cl.PrimitiveSequence(kinds, -1))
    assert len(steps) == len(indices)
    assert cl.decode_steps(steps) == expected.pulses
    assert outgoing in range(4) and cl.QUARTER_TURNS[outgoing] == expected.frame_phase
    # one array-`high` draw leaves the generator where per-element draws do
    assert rng.bit_generator.state == reference_rng.bit_generator.state


# Scalar reference build: one pair of matrices at a time.  The batched build
# in `cliffords` must give exactly these tables.

def reference_group(defs):
    unitaries = [qc.bloch_rotation(axis, angle) for axis, angle in defs]
    for i in range(24):
        for j in range(i + 1, 24):
            if qc.unitaries_equal(unitaries[i], unitaries[j]):
                raise ConsistencyError(f"elements {i} and {j} coincide up to phase")
    return unitaries


def reference_match_index(u, unitaries):
    for idx, v in enumerate(unitaries):
        if qc.phase_aligned_distance(u, v) < cl._MATCH_TOL:
            return idx
    raise ConsistencyError("unitary matches no group element; closure is broken")


def reference_tables(unitaries):
    mul = np.empty((24, 24), dtype=np.int8)
    for i in range(24):
        for j in range(24):
            mul[i, j] = reference_match_index(unitaries[j] @ unitaries[i], unitaries)
    inv = np.empty(24, dtype=np.int8)
    for i in range(24):
        matches = np.flatnonzero(mul[i] == 0)
        if matches.size != 1:
            raise ConsistencyError(f"element {i} has {matches.size} inverses")
        inv[i] = matches[0]
    return mul.tolist(), inv.tolist()


def reference_decompositions(unitaries):
    found = [[] for _ in range(24)]
    non_identity = [k for k in cl.PRIMITIVE_KINDS if k != "I"]
    for length in (1, 2, 3):
        kinds_pool = cl.PRIMITIVE_KINDS if length == 1 else non_identity
        for kinds in itertools.product(kinds_pool, repeat=length):
            u = cl.sequence_product(kinds)
            for idx in range(24):
                if found[idx] and len(found[idx][0]) < length:
                    continue
                if qc.phase_aligned_distance(u, unitaries[idx]) < cl._MATCH_TOL:
                    found[idx].append(kinds)
                    break
    for idx in cl._TWO_PULSE_PINNED:
        two_pulse = [k for k in found[idx] if cl.microwave_pulse_count(k) == 2]
        if not two_pulse:
            raise ConsistencyError(f"element {idx} has no two-pulse decomposition")
        found[idx] = two_pulse
    for idx, options in enumerate(found):
        if not options:
            raise ConsistencyError(f"element {idx} has no decomposition")
        for kinds in options:
            u = cl.sequence_product(kinds)
            if qc.phase_aligned_distance(u, unitaries[idx]) >= cl._MATCH_TOL:
                raise ConsistencyError(f"stored decomposition for {idx} does not verify")
    return [tuple(options) for options in found]


def test_batched_tables_equal_the_scalar_reference():
    unitaries = reference_group(cl.CLIFFORD_DEFS)
    mul, inv = reference_tables(unitaries)
    decompositions = reference_decompositions(unitaries)
    steps = tuple(
        tuple(tuple(cl._compile_kinds(kinds, q) for q in range(4)) for kinds in options)
        for options in decompositions
    )
    assert np.array_equal(cl._UNITARIES, np.stack(unitaries))
    assert cl._MUL == mul
    assert cl._INV == inv
    assert cl.DECOMPOSITIONS == decompositions
    # step id first[i] + 4 * choice + frame holds steps[i][choice][frame]
    ids = [cl._FIRST_STEP[i] + 4 * choice + q
           for i, options in enumerate(steps) for choice in range(len(options)) for q in range(4)]
    assert ids == list(range(148))
    assert len(cl._STEP_PULSES) == len(cl._STEP_FRAME) == 148
    assert [(cl._STEP_PULSES[step], cl._STEP_FRAME[step]) for step in ids] == [
        step for options in steps for frames in options for step in frames]
    assert cl._CHOICE_COUNTS == tuple(len(options) for options in decompositions)


def test_every_step_reproduces_its_element_from_its_incoming_frame():
    # a step entered at q quarter turns realizes Z(outgoing) pulses = U_i Z90^q
    steps = [(i, q, cl._FIRST_STEP[i] + 4 * choice + q) for i in range(24)
             for choice in range(cl._CHOICE_COUNTS[i]) for q in range(4)]
    assert sorted(step for _, _, step in steps) == list(range(148))
    for i, q, step in steps:
        pulses = cl.decode_steps([step])
        assert len(pulses) <= 2
        realized = cl.physical_unitary(
            cl.PhysicalPulseList(pulses, cl.QUARTER_TURNS[cl._STEP_FRAME[step]]))
        target = GATES[i].unitary @ cl.sequence_product(("Z90",) * q)
        assert qc.phase_aligned_distance(realized, target) < 1e-8, (i, q, step)
    assert sum(not cl.decode_steps([step]) for _, _, step in steps) == 16


def test_duplicated_definition_row_raises(monkeypatch):
    defs = list(cl.CLIFFORD_DEFS)
    defs[7] = defs[4]
    monkeypatch.setattr(cl, "CLIFFORD_DEFS", tuple(defs))
    with pytest.raises(ConsistencyError, match="elements 4 and 7 coincide up to phase"):
        cl._build_group()


def test_non_clifford_rotation_breaks_closure(monkeypatch):
    defs = list(cl.CLIFFORD_DEFS)
    defs[12] = ((1, 0, 0), np.pi / 3)
    monkeypatch.setattr(cl, "CLIFFORD_DEFS", tuple(defs))
    with pytest.raises(ConsistencyError, match="closure is broken"):
        cl._build_tables(cl._build_group())


def test_pinned_element_without_two_pulse_form_raises(monkeypatch):
    monkeypatch.setattr(cl, "_TWO_PULSE_PINNED", (18, 19, 1))  # X180 is one pulse
    with pytest.raises(ConsistencyError, match="element 1 has no two-pulse decomposition"):
        cl._build_decompositions(cl._UNITARIES)


def test_group_and_primitive_unitaries_are_read_only():
    assert all(g.unitary.base is cl._UNITARIES for g in GATES)  # views of one stack
    before = cl._UNITARIES.copy()
    with pytest.raises(ValueError, match="read-only"):
        GATES[5].unitary[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        cl.PRIMITIVE_UNITARIES["X90"] *= 2.0
    assert np.array_equal(cl._UNITARIES, before)


@pytest.mark.parametrize("index", [-1, 24, 2.0, True, "3", None])
def test_clifford_rejects_bad_indices(index):
    with pytest.raises(ValueError, match="Clifford index must be a whole number in 0..23"):
        cl.clifford(index)


def test_clifford_accepts_numpy_integers():
    assert cl.clifford(np.int64(23)) is GATES[23]


@pytest.mark.parametrize("quarters", [-1, 4, 1.0, True, None])
def test_compile_cliffords_rejects_bad_frames(quarters):
    with pytest.raises(ValueError, match="quarters must be a whole number in 0..3"):
        cl.compile_cliffords([1, 2], np.random.default_rng(0), quarters)


@pytest.mark.parametrize("indices, first_bad", [
    *(([3, bad, 5, -2], bad) for bad in (-1, 24, 2.0, True, None, "4")),
    ((3, -1, 5), -1),
    (np.array([3, -1, 5]), np.int64(-1)),
    (np.array([3, 24, 5]), np.int64(24)),
    (np.array([3.0, 4.0]), np.float64(3.0)),
])
def test_compile_cliffords_rejects_bad_indices_and_names_the_first(indices, first_bad):
    with pytest.raises(ValueError, match=f"0..23, got {re.escape(repr(first_bad))}$"):
        cl.compile_cliffords(indices, np.random.default_rng(0))


def test_compile_cliffords_accepts_numpy_index_arrays():
    indices = np.array([0, 7, 18, 23])
    assert (cl.compile_cliffords(indices, np.random.default_rng(4))
            == cl.compile_cliffords(indices.tolist(), np.random.default_rng(4)))
