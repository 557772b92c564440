"""Transition-frequency checks against closed forms and dense diagonalization.

Frozen numbers below were computed with standalone scripts (plain formula
evaluation and independent 3x3 / 6x6 eigensolves), not with this package.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cdmr import spins
from cdmr.constants import D_ZFS, E_STRAIN, GAMMA_E, NV_AXES, TWO_PI
from cdmr.spins import (
    defect_frame_components,
    nv_exact_transitions,
    nv_transition_frequencies,
    p1_transition_frequencies,
    rotate_to_unit_vector,
    sweep_fields,
)

# Independently computed expected values, Hz.
NV_AXIAL_3MT = (2785317486.4567657, 2954682513.543234)
NV_MIXED_FORMULA = (2813465717.3720746, 2927355551.861374)   # B_par=2 mT, B_perp=1 mT
NV_MIXED_EXACT = (2813442921.8145475, 2927375730.545416)
NV_ZERO_FIELD = (2859999999.9999995, 2880000000.0)
P1_89MT_AXIAL = (2380640000.0, 2494670000.0, 2608700000.0)
P1_89MT_AXIAL_EXACT = (2381995994.072203, 2497321454.2222605, 2609995460.1500573)
P1_MAGIC_SPLITTING_HZ = 93509319.85636511  # cos^2(theta) = 1/3

angle = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@given(angle, angle, angle)
def test_rotation_gives_unit_vector(tx, ty, tz):
    v = rotate_to_unit_vector(tx, ty, tz)
    assert v.shape == (3,)
    assert math.isclose(float(v @ v), 1.0, rel_tol=1e-12)


@given(angle)
def test_z_rotation_fixes_z_axis(tz):
    assert np.allclose(rotate_to_unit_vector(0.0, 0.0, tz), [0.0, 0.0, 1.0], atol=1e-15)


def test_rotation_quarter_turns():
    # Active right-handed: x rotation takes z into -y, y rotation takes z into +x.
    assert np.allclose(rotate_to_unit_vector(math.pi / 2, 0, 0), [0, -1, 0], atol=1e-15)
    assert np.allclose(rotate_to_unit_vector(0, math.pi / 2, 0), [1, 0, 0], atol=1e-15)


@given(st.lists(st.tuples(angle, angle, angle), min_size=1, max_size=8))
def test_rotation_stack_rows_equal_scalar_calls_bitwise(rows):
    angles = np.array(rows)
    stack = rotate_to_unit_vector(angles[:, 0], angles[:, 1], angles[:, 2])
    assert stack.shape == (len(rows), 3)
    # A scalar angle broadcasts against the others, as the orientation fit holds theta_z.
    held = rotate_to_unit_vector(angles[:, 0], angles[:, 1], rows[0][2])
    for i, (tx, ty, tz) in enumerate(rows):
        assert stack[i].tobytes() == rotate_to_unit_vector(tx, ty, tz).tobytes()
        assert held[i].tobytes() == rotate_to_unit_vector(tx, ty, rows[0][2]).tobytes()


@pytest.mark.parametrize("angles,message", [
    ((0.0, math.nan, 0.0), "theta_y must be finite, got nan"),
    ((math.inf, 0.0, 0.0), "theta_x must be finite, got inf"),
    ((0.0, 0.0, -math.inf), "theta_z must be finite, got -inf"),
    ((np.array([0.1, 0.2]), np.array([0.3, math.nan]), 0.0), "theta_y must be finite, got nan"),
])
def test_rotation_rejects_non_finite(angles, message):
    with pytest.raises(ValueError) as info:
        rotate_to_unit_vector(*angles)
    assert str(info.value) == message


def test_sweep_fields_stack_rows_equal_single_directions_bitwise():
    rng = np.random.default_rng(7)
    b_mags = np.linspace(0.014, 0.02, 12)
    angles = rng.uniform(-7.0, 7.0, size=(2000, 3))
    # Rotated unit vectors, whose norms round off 1.0, and arbitrary directions.
    for b_hat in (rotate_to_unit_vector(*angles.T),
                  rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-3, 3, size=(2000, 1))):
        _, stack = sweep_fields(b_mags, b_hat)
        assert stack.shape == (len(b_hat), 12, 3)
        for row, direction in zip(stack, b_hat):
            _, single = sweep_fields(b_mags, direction)
            assert row.tobytes() == single.tobytes()
            # One direction is normalized by its np.linalg.norm, bit for bit.
            assert single.tobytes() == (b_mags[:, None]
                                        * (direction / np.linalg.norm(direction))).tobytes()


@pytest.mark.parametrize("b_mags, b_hat", [
    ([], [0.0, 0.0, 1.0]),
    ([[0.01]], [0.0, 0.0, 1.0]),
    ([0.01], [0.0, 0.0, 0.0]),
    ([0.01], [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
    ([0.01], [0.0, 1.0]),
    ([0.01], np.ones((2, 2, 3))),
    ([0.01], 1.0),
])
def test_sweep_fields_rejects_bad_inputs(b_mags, b_hat):
    with pytest.raises(ValueError, match="non-zero 3-vector or a \\(k, 3\\) stack"):
        sweep_fields(b_mags, b_hat)


def test_nv_axial_field_frozen_values():
    lines = nv_transition_frequencies(3e-3 * NV_AXES[0])
    assert lines[0] / TWO_PI == pytest.approx(NV_AXIAL_3MT[0], rel=1e-12)
    assert lines[1] / TWO_PI == pytest.approx(NV_AXIAL_3MT[1], rel=1e-12)
    # For a purely axial field the second-order expression is exact.
    frame = defect_frame_components(3e-3 * NV_AXES[0], NV_AXES[0])
    exact = nv_exact_transitions(frame)
    assert exact[0] == pytest.approx(lines[0], rel=1e-12)
    assert exact[1] == pytest.approx(lines[1], rel=1e-12)


def test_nv_mixed_field_frozen_values():
    transverse = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)  # orthogonal to the [111] axis
    b = 2e-3 * NV_AXES[0] + 1e-3 * transverse
    lines = nv_transition_frequencies(b)
    assert lines[0] / TWO_PI == pytest.approx(NV_MIXED_FORMULA[0], rel=1e-12)
    assert lines[1] / TWO_PI == pytest.approx(NV_MIXED_FORMULA[1], rel=1e-12)
    exact = nv_exact_transitions(defect_frame_components(b, NV_AXES[0]))
    assert exact[0] / TWO_PI == pytest.approx(NV_MIXED_EXACT[0], rel=1e-9)
    assert exact[1] / TWO_PI == pytest.approx(NV_MIXED_EXACT[1], rel=1e-9)
    # Second-order formula drifts from the exact levels by tens of kHz here.
    assert abs(lines[0] - exact[0]) / TWO_PI < 5e4
    assert abs(lines[1] - exact[1]) / TWO_PI < 5e4


def test_nv_zero_field_strain_doublet():
    lines = nv_transition_frequencies([0.0, 0.0, 0.0])
    for i in range(4):
        assert lines[2 * i] / TWO_PI == pytest.approx(NV_ZERO_FIELD[0], rel=1e-15)
        assert lines[2 * i + 1] / TWO_PI == pytest.approx(NV_ZERO_FIELD[1], rel=1e-15)


def test_nv_field_sign_symmetry():
    b = np.array([1.3e-3, -0.4e-3, 2.1e-3])
    assert np.array_equal(nv_transition_frequencies(b), nv_transition_frequencies(-b))


@given(st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3))
def test_nv_branches_ordered_and_positive(components):
    lines = nv_transition_frequencies(components)
    assert np.all(lines[1::2] >= lines[0::2])
    assert np.all(lines > 0.0)


def test_nv_rejects_bad_field():
    with pytest.raises(ValueError, match="3-vector"):
        nv_transition_frequencies([1e-3, 2e-3])
    with pytest.raises(ValueError, match="finite"):
        nv_transition_frequencies([0.0, math.inf, 0.0])


@pytest.mark.parametrize("field", [[1e-3, -2e-3, 5e-3], [[1e-3, -2e-3, 5e-3], [0.0, 3e-3, -1e-3]]])
def test_nv_lines_pair_the_branches_axis_by_axis(field):
    lines = nv_transition_frequencies(field)
    assert lines.shape == np.shape(field)[:-1] + (8,)
    # Lines 2i and 2i+1 are the minus and plus lines of class NV_AXES[i]: they
    # are split by twice sqrt((gamma_e B.axis_i)^2 + e_strain^2).
    for i, axis in enumerate(NV_AXES):
        splitting = np.sqrt((GAMMA_E * (np.asarray(field) @ axis)) ** 2 + E_STRAIN**2)
        assert np.allclose(lines[..., 2 * i + 1] - lines[..., 2 * i], 2.0 * splitting,
                           rtol=1e-12, atol=0.0)


def test_nv_table_validation():
    # One field and a stack of two: a negative line fails for (3,) and (n, 3) fields.
    # Along an NV axis the lower line of that class crosses zero near 0.102 T.
    low, high = 0.09 * NV_AXES[0], 0.2 * NV_AXES[0]
    assert np.all(nv_transition_frequencies(low) > 0.0)
    for field in (high, [low, high]):
        with pytest.raises(ValueError, match="transition frequencies must be non-negative"):
            nv_transition_frequencies(field)


@given(st.lists(st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3),
                min_size=1, max_size=12))
def test_nv_stack_equals_single_fields_bitwise(fields):
    stack = nv_transition_frequencies(fields)
    assert stack.shape == (len(fields), 8)
    for i, b in enumerate(fields):
        single = nv_transition_frequencies(b)
        assert single.shape == (8,)
        assert np.array_equal(stack[i], single)


@given(st.lists(st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3),
                min_size=1, max_size=12), st.sampled_from(range(4)))
def test_nv_exact_stack_equals_single_fields_bitwise(fields, axis_index):
    """One stacked eigensolve gives, row for row, the single-field results."""
    axis = NV_AXES[axis_index]
    frames = defect_frame_components(fields, axis)
    transitions = nv_exact_transitions(frames)
    assert frames.shape == (len(fields), 3) and transitions.shape == (len(fields), 2)
    for i, b in enumerate(fields):
        single = defect_frame_components(b, axis)
        assert single.shape == (3,)
        assert np.array_equal(frames[i], single)
        assert np.array_equal(transitions[i], nv_exact_transitions(single))


def test_nv_stack_rejects_bad_fields():
    with pytest.raises(ValueError, match="3-vector"):
        nv_transition_frequencies(np.zeros((5, 2)))
    with pytest.raises(ValueError, match="3-vector"):
        nv_transition_frequencies(np.zeros((2, 2, 3)))
    stack = np.full((4, 3), 1e-3)
    stack[2, 1] = math.nan
    with pytest.raises(ValueError, match="finite"):
        nv_transition_frequencies(stack)


@given(st.lists(st.floats(-0.01, 0.01), min_size=3, max_size=3))
def test_nv_exact_levels_trace_invariant(b):
    # Zeeman and strain terms are traceless, so the level sum is 2*d_zfs.
    levels = np.linalg.eigvalsh(spins._nv_hamiltonian(b))
    assert float(np.sum(levels)) == pytest.approx(2.0 * D_ZFS, rel=1e-12)


def test_defect_frame_components_geometry():
    b = np.array([2e-3, -1e-3, 0.5e-3])
    axis = np.array([1.0, 1.0, 1.0])  # normalized internally
    frame = defect_frame_components(b, axis)
    assert frame[1] == 0.0
    assert frame[0] >= 0.0
    assert float(np.linalg.norm(frame)) == pytest.approx(float(np.linalg.norm(b)), rel=1e-12)
    assert frame[2] == pytest.approx(float(b @ axis) / math.sqrt(3.0), rel=1e-12)
    with pytest.raises(ValueError, match="axis"):
        defect_frame_components(b, [0.0, 0.0, 0.0])


def test_p1_axis_aligned_frozen_lines():
    b = 89e-3 * NV_AXES[0]
    lines = p1_transition_frequencies(b, NV_AXES[0])
    for got, expected in zip(lines, P1_89MT_AXIAL):
        assert got / TWO_PI == pytest.approx(expected, rel=1e-12)


def test_p1_magic_angle_splitting():
    # A field along z makes cos^2(theta) = 1/3 against all four <111> axes.
    b = np.array([0.0, 0.0, 89e-3])
    for axis in NV_AXES:
        lines = p1_transition_frequencies(b, axis)
        half_split = 0.5 * (lines[2] - lines[0]) / TWO_PI
        assert half_split == pytest.approx(P1_MAGIC_SPLITTING_HZ, rel=1e-12)


@given(
    st.lists(st.floats(-0.1, 0.1), min_size=3, max_size=3).filter(
        lambda b: sum(v * v for v in b) > 1e-8
    ),
    st.sampled_from([0, 1, 2, 3]),
)
def test_p1_lines_centered_on_zeeman_frequency(b, axis_index):
    lines = p1_transition_frequencies(b, NV_AXES[axis_index])
    b_mag = math.sqrt(sum(v * v for v in b))
    assert lines[1] == pytest.approx(GAMMA_E * b_mag, rel=1e-15)
    assert lines[0] <= lines[1] <= lines[2]
    # Hyperfine lines sit symmetrically around the center.
    assert lines[1] - lines[0] == pytest.approx(lines[2] - lines[1], rel=1e-12)


@given(
    st.lists(st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3).filter(
        lambda b: sum(v * v for v in b) > 1e-8), min_size=1, max_size=12),
    st.sampled_from([0, 1, 2, 3]),
)
def test_p1_stack_equals_single_fields_bitwise(fields, axis_index):
    stack = p1_transition_frequencies(fields, NV_AXES[axis_index])
    assert stack.shape == (len(fields), 3)
    for i, b in enumerate(fields):
        single = p1_transition_frequencies(b, NV_AXES[axis_index])
        assert single.shape == (3,)
        assert np.array_equal(stack[i], single)


vector = st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3).filter(
    lambda b: sum(v * v for v in b) > 1e-8)


@given(st.lists(vector, min_size=1, max_size=12), st.lists(vector, min_size=1, max_size=5))
def test_p1_axis_stack_equals_per_axis_calls_bitwise(fields, axes):
    for stack in (NV_AXES, np.array(axes)):
        lines = p1_transition_frequencies(fields, stack)
        assert lines.shape == (len(fields), 3 * len(stack))
        per_axis = np.hstack([p1_transition_frequencies(fields, axis) for axis in stack])
        assert lines.tobytes() == per_axis.tobytes()
        assert p1_transition_frequencies(fields[0], stack).tobytes() == per_axis[0].tobytes()


def test_p1_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="magnitude"):
        p1_transition_frequencies([0.0, 0.0, 0.0], NV_AXES[0])
    with pytest.raises(ValueError, match="magnitude"):
        p1_transition_frequencies([[0.0, 0.0, 1e-2], [0.0, 0.0, 0.0]], NV_AXES[0])
    with pytest.raises(ValueError, match="3-vector"):
        p1_transition_frequencies(np.zeros((2, 2, 3)), NV_AXES[0])
    with pytest.raises(ValueError, match="axis"):
        p1_transition_frequencies([0.0, 0.0, 1e-2], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="axis"):
        p1_transition_frequencies([0.0, 0.0, 1e-2], [NV_AXES[0], [0.0, 0.0, 0.0]])


def test_p1_exact_levels_traceless_and_sorted(p1_exact):
    levels = np.linalg.eigvalsh(p1_exact.hamiltonian(89e-3 * NV_AXES[1], NV_AXES[1]))
    assert levels.shape == (6,)
    assert np.all(np.diff(levels) >= 0.0)
    assert float(np.sum(levels)) == pytest.approx(0.0, abs=1e-6 * float(np.max(np.abs(levels))))


def test_p1_exact_transitions_frozen_at_high_field(p1_exact):
    exact = p1_exact.transitions(89e-3 * NV_AXES[0], NV_AXES[0])
    for got, expected in zip(exact, P1_89MT_AXIAL_EXACT):
        assert got / TWO_PI == pytest.approx(expected, rel=1e-9)


def test_p1_first_order_tracks_exact_lines(p1_exact):
    # First-order lines stay within a few MHz of the 6x6 eigensolve at 89 mT.
    for direction in (NV_AXES[0], np.array([0.0, 0.0, 1.0])):
        b = 89e-3 * direction / np.linalg.norm(direction)
        approx = p1_transition_frequencies(b, NV_AXES[0])
        exact = p1_exact.transitions(b, NV_AXES[0])
        assert np.max(np.abs(approx - exact)) < TWO_PI * 4e6
