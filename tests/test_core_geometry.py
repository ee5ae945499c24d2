"""Rotation algebra, closure residual, folded geometry, intersection tests."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rigidfold.core_geometry import (
    CreasePattern,
    closure_matrix,
    closure_residual,
    closure_residuals,
    crease_rotation,
    folded_geometry,
    g60,
    rot_x,
    rot_z,
    rotation_products,
    self_intersections,
    self_intersects,
    wrap_angle,
)
from rigidfold.errors import DomainError, NotClosedError
from triangle_oracle import triangle_self_intersects, triangles_interiors_intersect

# a 6-vector that closes on g60: trifold line at beta = 60 degrees,
# companion = 4*atan(-(2+sqrt(3))*tan(drive/4)) for drive -0.4
_RHO1 = 4.0 * math.atan((2.0 + math.sqrt(3.0)) * math.tan(0.1))
CLOSING = np.array([_RHO1, -0.4, _RHO1, -0.4, _RHO1, -0.4])


@given(st.floats(-50.0, 50.0))
def test_wrap_angle_congruent_and_in_range(x):
    w = wrap_angle(x)
    assert -math.pi <= w <= math.pi
    assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-12)
    assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-12)


def test_wrap_angle_fixed_points():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == -math.pi
    assert wrap_angle(0.0) == 0.0


def test_rotation_constructors_are_rotations():
    for theta in (0.0, 0.3, -1.2, math.pi):
        for R in (rot_x(theta), rot_z(theta)):
            assert np.allclose(R @ R.T, np.eye(3), atol=1e-14)
            assert math.isclose(np.linalg.det(R), 1.0, abs_tol=1e-14)


def test_crease_rotation_fixes_its_axis():
    c = np.array([math.cos(0.7), math.sin(0.7), 0.0])
    R = crease_rotation(c, 1.1)
    assert np.allclose(R @ c, c, atol=1e-14)
    assert np.allclose(crease_rotation(c, 0.0), np.eye(3), atol=1e-15)


def test_crease_rotation_rejects_bad_axes():
    with pytest.raises(DomainError):
        crease_rotation(np.array([0.0, 0.0, 1.0]), 0.5)  # out of plane
    with pytest.raises(DomainError):
        crease_rotation(np.array([2.0, 0.0, 0.0]), 0.5)  # not unit


def test_pattern_from_sectors_round_trips():
    sectors = [0.9, 1.1, 0.7, 2.0 * math.pi - 2.7]
    pat = CreasePattern.from_sectors(sectors)
    assert pat.n == 4
    assert np.allclose(pat.sector_angles, sectors, atol=1e-12)
    assert np.allclose(pat.crease_angles[:3], np.cumsum([0.0, 0.9, 1.1]), atol=1e-12)


def test_pattern_validation():
    with pytest.raises(DomainError):
        CreasePattern.from_sectors([1.0, -1.0, 2.0 * math.pi])
    with pytest.raises(DomainError):
        CreasePattern.from_sectors([1.0, 1.0, 1.0])  # sum != 2*pi
    with pytest.raises(DomainError):
        CreasePattern(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))  # too few


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_creases_and_sectors_are_rejected(bad):
    with pytest.raises(DomainError):
        CreasePattern.from_sectors([1.0, 1.0, bad, 2.0 * math.pi - 2.0])
    with pytest.raises(DomainError):
        CreasePattern.from_sectors([bad, 1.0, 1.0, 1.0])
    creases = np.array(g60().creases)
    creases[2, 0] = bad
    with pytest.raises(DomainError):
        CreasePattern(creases)
    with pytest.raises(DomainError):
        CreasePattern(g60().creases, sector_angles=[math.pi / 3.0] * 5 + [bad])


def test_patterns_compare_by_creases():
    a = CreasePattern.from_sectors([math.pi / 3.0] * 6)
    assert a == g60() and not a != g60()
    assert hash(a) == hash(g60())
    assert len({a, g60()}) == 1
    flipped = np.array(g60().creases)
    flipped[:, 2] = -0.0  # compares equal to +0.0, so it must hash alike too
    assert CreasePattern(flipped) == g60() and hash(CreasePattern(flipped)) == hash(g60())
    other = CreasePattern.from_sectors([0.9, 1.1, 0.7, 2.0 * math.pi - 2.7])
    assert other != g60() and not other == g60()
    assert CreasePattern.from_sectors([math.pi / 2.0] * 4) != other  # same n, other creases
    assert (g60() == "g60") is False
    assert (g60() == g60().creases) is False


def test_g60_is_equilateral():
    pat = g60()
    assert pat.n == 6
    assert np.allclose(pat.sector_angles, math.pi / 3.0, atol=1e-12)


def test_flat_state_closes_exactly():
    assert closure_residual(g60(), np.zeros(6)) < 1e-15
    assert np.allclose(closure_matrix(g60(), np.zeros(6)), np.eye(3), atol=1e-15)


def test_known_closing_vector():
    assert closure_residual(g60(), CLOSING) < 1e-12


def test_generic_vector_does_not_close():
    assert closure_residual(g60(), [0.5, 0.2, -0.3, 0.1, 0.4, -0.2]) > 1e-2


def test_closure_invariant_under_cyclic_shift_and_reversal():
    """Relabeling the creases by a pattern symmetry keeps the state closed."""
    pat = g60()
    for k in range(6):
        assert closure_residual(pat, np.roll(CLOSING, k)) < 1e-12
    assert closure_residual(pat, CLOSING[::-1]) < 1e-12


def test_folded_geometry_frames_and_images():
    state = folded_geometry(g60(), CLOSING, tol=1e-9)
    assert state.residual < 1e-12
    for F in state.face_frames:
        assert np.allclose(F @ F.T, np.eye(3), atol=1e-13)
    norms = np.linalg.norm(state.crease_images, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-13)
    # the first crease is the rotation axis of the first frame
    assert np.allclose(state.crease_images[0], [1.0, 0.0, 0.0], atol=1e-14)


def test_folded_geometry_flat_images_are_the_creases():
    pat = g60()
    state = folded_geometry(pat, np.zeros(6))
    assert np.allclose(state.crease_images, pat.creases, atol=1e-15)


def test_folded_geometry_rejects_open_chains():
    with pytest.raises(NotClosedError) as exc:
        folded_geometry(g60(), [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], tol=1e-9)
    assert exc.value.residual > 0.1


def test_triangle_interiors_disjoint():
    t1 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    t2 = t1 + np.array([5.0, 0.0, 0.0])
    assert not triangles_interiors_intersect(t1, t2)


def test_triangle_interiors_crossing():
    t1 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    t2 = np.array([[0.2, 0.2, -0.5], [0.4, 0.2, 0.5], [0.3, 0.4, 0.5]])
    assert triangles_interiors_intersect(t1, t2)


def test_triangle_shared_edge_is_not_intersection():
    t1 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    t2 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.5]])
    assert not triangles_interiors_intersect(t1, t2)


def test_coplanar_overlap_detected():
    t1 = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    t2 = np.array([[0.1, 0.1, 0.0], [1.0, 0.1, 0.0], [0.1, 1.0, 0.0]])
    assert triangles_interiors_intersect(t1, t2)


def test_flat_hexagon_does_not_self_intersect():
    pat = g60()
    state = folded_geometry(pat, np.zeros(6))
    assert not self_intersects(pat, state)


def test_gentle_fold_does_not_self_intersect():
    pat = g60()
    state = folded_geometry(pat, CLOSING * 1e-2, tol=1.0)  # near-flat, not closed
    assert not self_intersects(pat, state)


def test_flat_folded_state_self_intersects():
    """All creases at pi stack the sectors onto each other."""
    pat = CreasePattern.from_sectors([math.pi / 2.0] * 4)
    state = folded_geometry(pat, [math.pi, math.pi, math.pi, math.pi], tol=1e-9)
    assert self_intersects(pat, state)


@pytest.mark.parametrize("sectors", [[math.pi / 3.0] * 6, [math.pi / 2.0] * 4], ids=["g60", "square"])
def test_flat_stacks_match_the_triangle_oracle(sectors):
    """Every {-pi, 0, pi}^n state that closes stacks its sectors in one plane:
    the coplanar branch of the batched test must agree with triangle clipping."""
    pat = CreasePattern.from_sectors(sectors)
    stacks = np.array(list(itertools.product((-math.pi, 0.0, math.pi), repeat=pat.n)))
    stacks = stacks[closure_residuals(pat, stacks) < 1e-9]
    images = np.stack([folded_geometry(pat, rho, tol=1e-9).crease_images for rho in stacks])
    batch = self_intersections(pat, images)
    want = [triangle_self_intersects(pat, folded_geometry(pat, rho, tol=1e-9)) for rho in stacks]
    assert batch.tolist() == want
    assert 0 < sum(want) < len(want)  # both verdicts occur
    assert [self_intersects(pat, folded_geometry(pat, rho, tol=1e-9)) for rho in stacks] == want


def test_self_intersections_rejects_a_wrong_image_shape():
    with pytest.raises(DomainError):
        self_intersections(g60(), np.zeros((2, 5, 3)))
    with pytest.raises(DomainError):
        self_intersections(g60(), np.zeros((6, 3)))


# --- batched Rodrigues kernel ------------------------------------------------

def _reference_frames(sectors, rho):
    """Running products of c I + s K + (1 - c) u u^T, one crease at a time."""
    thetas = np.concatenate([[0.0], np.cumsum(sectors)[:-1]])
    frames = np.empty((len(rho), len(thetas), 3, 3))
    for r, row in enumerate(rho):
        acc = np.eye(3)
        for k, (t, a) in enumerate(zip(thetas, row)):
            u = np.array([math.cos(t), math.sin(t), 0.0])
            K = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
            acc = acc @ (math.cos(a) * np.eye(3) + math.sin(a) * K + (1.0 - math.cos(a)) * np.outer(u, u))
            frames[r, k] = acc
    return frames


@st.composite
def _fan_and_angles(draw):
    n = draw(st.integers(3, 8))
    weights = np.array(draw(st.lists(st.floats(0.6, 1.0), min_size=n, max_size=n)))  # every sector < pi
    sectors = 2.0 * math.pi * weights / weights.sum()
    rows = draw(st.integers(1, 5))
    flat = draw(st.lists(st.floats(-math.pi, math.pi), min_size=rows * n, max_size=rows * n))
    return sectors, np.array(flat).reshape(rows, n)


@settings(max_examples=60, deadline=None)
@given(_fan_and_angles())
def test_kernel_matches_a_reference_rodrigues_product(case):
    sectors, rho = case
    pat = CreasePattern.from_sectors(sectors)
    want = _reference_frames(sectors, rho)
    frames = rotation_products(pat, rho, frames=True)
    assert frames.shape == want.shape
    assert np.max(np.abs(frames - want)) < 1e-14
    assert np.array_equal(rotation_products(pat, rho), frames[:, -1])
    want_res = np.linalg.norm(want[:, -1] - np.eye(3), axis=(1, 2))
    assert np.max(np.abs(closure_residuals(pat, rho) - want_res)) < 1e-14


def test_batched_residuals_equal_single_calls_bit_for_bit():
    rng = np.random.default_rng(11)
    for pat in (g60(), CreasePattern.from_sectors([0.9, 1.3, 0.6, 2.0 * math.pi - 2.8])):
        rho = rng.uniform(-math.pi, math.pi, (500, pat.n))
        rho[:50] *= 1e-3  # near-flat rows, residuals near roundoff
        batch = closure_residuals(pat, rho)
        for k in range(len(rho)):
            assert closure_residual(pat, rho[k]) == batch[k]
            assert folded_geometry(pat, rho[k], tol=10.0).residual == batch[k]


def test_kernel_bits_do_not_depend_on_the_batch_size():
    """A row gets the same bits in a batch of 3 as in a batch of 300."""
    rng = np.random.default_rng(12)
    rho = rng.uniform(-math.pi, math.pi, (300, 6))
    frames = rotation_products(g60(), rho, frames=True)
    sub = rotation_products(g60(), rho[:, 1:4], creases=(5, 0, 2))
    for start in (0, 17, 254, 293):
        rows = slice(start, start + 3)
        assert np.array_equal(frames[rows], rotation_products(g60(), rho[rows], frames=True))
        assert np.array_equal(sub[rows], rotation_products(g60(), rho[rows, 1:4], creases=(5, 0, 2)))
        assert np.array_equal(closure_residuals(g60(), rho)[rows], closure_residuals(g60(), rho[rows]))


def test_g60_is_one_read_only_pattern():
    assert g60() is g60()
    with pytest.raises(ValueError):
        g60().creases[0, 0] = 2.0
    with pytest.raises(ValueError):
        g60().sector_angles[0] = 1.0
    assert g60().creases[0, 0] == 1.0


def test_kernel_rejects_a_wrong_angle_shape():
    with pytest.raises(DomainError):
        rotation_products(g60(), np.zeros((2, 5)))
    with pytest.raises(DomainError):
        closure_residuals(g60(), np.zeros(6))
