"""Rotation algebra, closure residual, folded geometry, intersection tests."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cone_oracle import cone_self_intersections
from rigidfold.config_space import make_sample
from rigidfold.core_geometry import (
    SHARED_LAYOUTS,
    CreasePattern,
    _shared_layout,
    closure_residual,
    closure_residuals,
    crease_images,
    folded_frames,
    folded_geometry,
    g60,
    rotation_products,
    self_intersections,
    self_intersects,
    wrap_angles,
)
from rigidfold.errors import DomainError, NotClosedError
from rigidfold.fold_models import bowtie_pattern, general_solve, trifold_pattern
from rotation_oracle import rotation_products_by_crease
from triangle_oracle import triangle_self_intersects, triangles_interiors_intersect

# a 6-vector that closes on g60: trifold line at beta = 60 degrees,
# companion = 4*atan(-(2+sqrt(3))*tan(drive/4)) for drive -0.4
_RHO1 = 4.0 * math.atan((2.0 + math.sqrt(3.0)) * math.tan(0.1))
CLOSING = np.array([_RHO1, -0.4, _RHO1, -0.4, _RHO1, -0.4])


@given(st.floats(-50.0, 50.0))
def test_wrap_angle_congruent_and_in_range(x):
    w = float(wrap_angles(x))
    assert -math.pi <= w <= math.pi
    assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-12)
    assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-12)


def test_wrap_angle_fixed_points():
    assert wrap_angles(math.pi) == math.pi
    assert wrap_angles(-math.pi) == -math.pi
    assert wrap_angles(0.0) == 0.0


def test_rotation_constructors_are_rotations():
    """Each single-crease rotation, crease 0 on the x-axis included, is proper orthogonal."""
    for theta in (0.0, 0.3, -1.2, math.pi):
        for k in range(6):
            R = rotation_products(g60(), [[theta]], creases=(k,))[0]
            assert np.allclose(R @ R.T, np.eye(3), atol=1e-14)
            assert math.isclose(np.linalg.det(R), 1.0, abs_tol=1e-14)


def test_crease_rotation_fixes_its_axis():
    pat = CreasePattern.from_sectors([0.7, 1.9, 2.0 * math.pi - 2.6])  # crease 1 at angle 0.7
    c = np.array([math.cos(0.7), math.sin(0.7), 0.0])
    R = rotation_products(pat, [[1.1]], creases=(1,))[0]
    assert np.allclose(R @ c, c, atol=1e-14)
    assert np.allclose(rotation_products(pat, [[0.0]], creases=(1,))[0], np.eye(3), atol=1e-15)


def test_pattern_rejects_bad_crease_axes():
    """A crease pattern, the source of every crease rotation, takes only in-plane unit creases."""
    out_of_plane, not_unit = np.array(g60().creases), np.array(g60().creases)
    out_of_plane[2] = [0.0, 0.0, 1.0]
    not_unit[2] *= 2.0
    with pytest.raises(DomainError, match="xy-plane"):
        CreasePattern(out_of_plane)
    with pytest.raises(DomainError, match="unit vectors"):
        CreasePattern(not_unit)


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


@pytest.mark.parametrize("call", [
    lambda: CreasePattern(g60().creases, np.full(6, math.pi / 3.0)),
    lambda: CreasePattern(g60().creases, sector_angles=np.full(6, math.pi / 3.0)),
    lambda: folded_geometry(g60(), CLOSING, tol=1.0),
], ids=["positional sectors", "keyword sectors", "closure bound"])
def test_a_pattern_takes_its_creases_alone_and_a_closed_fold_its_angles_alone(call):
    """Sectors are read from the creases and the closure bound is DEFAULT_TOL: neither is an argument."""
    with pytest.raises(TypeError):
        call()


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
    assert np.allclose(rotation_products(g60(), np.zeros((1, 6)))[0], np.eye(3), atol=1e-15)


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
    state = folded_geometry(g60(), CLOSING)
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
        folded_geometry(g60(), [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
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
    _, frames = folded_frames(pat, CLOSING[None] * 1e-2)  # near-flat, not closed
    assert not self_intersections(pat, crease_images(pat, frames))[0]


def test_flat_folded_state_self_intersects():
    """All creases at pi stack the sectors onto each other."""
    pat = CreasePattern.from_sectors([math.pi / 2.0] * 4)
    state = folded_geometry(pat, [math.pi, math.pi, math.pi, math.pi])
    assert state.residual < 1e-9
    assert self_intersects(pat, state)


@pytest.mark.parametrize("sectors", [[math.pi / 3.0] * 6, [math.pi / 2.0] * 4], ids=["g60", "square"])
def test_flat_stacks_match_the_triangle_oracle(sectors):
    """Every {-pi, 0, pi}^n state that closes stacks its sectors in one plane:
    the coplanar branch of the batched test must agree with triangle clipping."""
    pat = CreasePattern.from_sectors(sectors)
    stacks = np.array(list(itertools.product((-math.pi, 0.0, math.pi), repeat=pat.n)))
    stacks = stacks[closure_residuals(pat, stacks) < 1e-9]
    images = np.stack([folded_geometry(pat, rho).crease_images for rho in stacks])
    batch = self_intersections(pat, images)
    want = [triangle_self_intersects(pat, folded_geometry(pat, rho)) for rho in stacks]
    assert batch.tolist() == want
    assert 0 < sum(want) < len(want)  # both verdicts occur
    assert [self_intersects(pat, folded_geometry(pat, rho)) for rho in stacks] == want


# a 180-degree sector folds to a segment: its normal is zero and it has no interior
ZERO_AREA = [math.pi, math.pi / 3.0, math.pi / 3.0, math.pi / 6.0, math.pi / 12.0, math.pi / 12.0]
CORPUS_PATTERNS = {
    "g60": g60(),
    "50-70-60-60-55-65": CreasePattern.from_sectors(np.radians([50.0, 70.0, 60.0, 60.0, 55.0, 65.0])),
    "bowtie-40": bowtie_pattern(math.radians(40.0), 1),
    "trifold-50": trifold_pattern(math.radians(50.0)),
    "zero-area": CreasePattern.from_sectors(ZERO_AREA),
}


def _images(pattern, rho):
    return crease_images(pattern, rotation_products(pattern, wrap_angles(np.asarray(rho, dtype=float)), frames=True))


@pytest.mark.parametrize("name", list(CORPUS_PATTERNS))
def test_lattice_verdicts_match_the_cone_oracle(name):
    """Every state of {0, +-pi/2, +-pi}^6, closing or not: rich in flat, coplanar and edge-on pairs."""
    pat = CORPUS_PATTERNS[name]
    lattice = np.array(list(itertools.product((0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi), repeat=6)))
    images = _images(pat, lattice)
    want = cone_self_intersections(pat, images)
    assert np.array_equal(self_intersections(pat, images), want)
    assert 0 < want.sum() < len(want)


def test_general_states_match_the_cone_oracle():
    rng = np.random.default_rng(14)
    vectors = general_solve(*rng.uniform(-math.pi, math.pi, (3, 3000))).vectors
    assert len(vectors) >= 4000
    images = _images(g60(), vectors)
    want = cone_self_intersections(g60(), images)
    assert np.array_equal(self_intersections(g60(), images), want)
    assert 0 < want.sum() < len(want)


@st.composite
def _fan_and_lattice_angles(draw):
    n = draw(st.integers(4, 8))
    weights = np.array(draw(st.lists(st.floats(0.35, 1.0), min_size=n, max_size=n)))  # every sector < pi
    sectors = 2.0 * math.pi * weights / weights.sum()
    if draw(st.booleans()):  # a 180-degree sector
        sectors = np.concatenate([[math.pi], math.pi * weights[1:] / weights[1:].sum()])
    steps = st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi])
    rows = draw(st.integers(1, 6))
    rho = draw(st.lists(st.one_of(steps, st.floats(-math.pi, math.pi)), min_size=rows * n, max_size=rows * n))
    return sectors, np.array(rho).reshape(rows, n)


@settings(max_examples=200, deadline=None)
@given(_fan_and_lattice_angles())
def test_verdicts_match_the_cone_oracle_on_any_fan(case):
    sectors, rho = case
    pat = CreasePattern.from_sectors(sectors)
    images = _images(pat, rho)
    assert np.array_equal(self_intersections(pat, images), cone_self_intersections(pat, images))


def test_self_intersections_of_no_rows():
    assert self_intersections(g60(), np.zeros((0, 6, 3))).shape == (0,)


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
            assert folded_frames(pat, rho[k:k + 1])[0][0] == batch[k]


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


_FAN = [0.9, 1.3, 0.6, 2.0 * math.pi - 2.8]


def _count_builds(monkeypatch) -> list:
    """A list that grows by one each time from_sectors builds a pattern rather than share one."""
    built, real = [], CreasePattern._build
    monkeypatch.setattr(CreasePattern, "_build", classmethod(lambda cls, s: built.append(1) or real(s)))
    return built


def test_one_sector_sequence_is_one_shared_pattern():
    """A list, a tuple and an array of the same float bits give one object; one ulp away gives another."""
    pat = CreasePattern.from_sectors(_FAN)
    assert CreasePattern.from_sectors(tuple(_FAN)) is pat
    assert CreasePattern.from_sectors(np.array(_FAN)) is pat
    assert CreasePattern.from_sectors(np.stack([_FAN, _FAN], axis=1)[:, 0]) is pat  # a strided view
    nudged = CreasePattern.from_sectors([math.nextafter(_FAN[0], 1.0)] + _FAN[1:])
    assert nudged is not pat and nudged != pat


def test_a_shared_pattern_stays_read_only():
    pat = CreasePattern.from_sectors(_FAN)
    before = [a.tobytes() for a in (pat.creases, pat.sector_angles, pat.cross, pat.outer)]
    again = CreasePattern.from_sectors(list(_FAN))
    for a in (again.creases, again.sector_angles, again.cross, again.outer):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert [a.tobytes() for a in (pat.creases, pat.sector_angles, pat.cross, pat.outer)] == before


@pytest.mark.parametrize("sectors, message, builds", [
    ([math.nan, 1.0, 1.0, 2.0 * math.pi - 2.0], "sector angles must be finite", 2),
    ([0.0, 1.0, 2.0, 2.0 * math.pi - 3.0], "sector angles must be positive", 2),
    ([1.0, 1.0, 1.0, 1.0], "sector angles must sum to 2*pi", 2),
    ([[math.pi / 3.0] * 3] * 2, "sector angles must form a 1-d sequence", 0),
], ids=["nan", "zero", "sum", "2-d"])
def test_a_refused_sequence_raises_on_every_call(monkeypatch, sectors, message, builds):
    """No failure is kept: each call checks the sectors again, and the 1-d check comes before the table."""
    built = _count_builds(monkeypatch)
    for _ in range(2):
        with pytest.raises(DomainError) as exc:
            CreasePattern.from_sectors(sectors)
        assert str(exc.value) == message
    assert len(built) == builds


def test_the_table_never_holds_more_than_its_bound(monkeypatch):
    """The least recently used sequence is dropped first, and a dropped one is built again."""
    _shared_layout.cache_clear()
    fans = [[1.0 + k * 1e-6, 1.0, 1.0, 2.0 * math.pi - 3.0 - k * 1e-6] for k in range(SHARED_LAYOUTS + 1)]
    kept = [CreasePattern.from_sectors(f) for f in fans[:-1]]
    assert _shared_layout.cache_info().currsize == SHARED_LAYOUTS
    assert CreasePattern.from_sectors(fans[0]) is kept[0]  # now the most recently used
    built = _count_builds(monkeypatch)
    CreasePattern.from_sectors(fans[-1])
    info = _shared_layout.cache_info()
    assert info.currsize == info.maxsize == SHARED_LAYOUTS
    assert CreasePattern.from_sectors(fans[0]) is kept[0]
    assert CreasePattern.from_sectors(fans[2]) is kept[2]
    again = CreasePattern.from_sectors(fans[1])
    assert again is not kept[1] and again == kept[1]
    assert len(built) == 2 and _shared_layout.cache_info().currsize == SHARED_LAYOUTS


_SPECIAL_ANGLES = [0.0, -0.0, math.pi, -math.pi, 1e-300, -1e-300]


def _assert_same_bits(pat, rho, creases=None):
    for frames in (False, True):
        got = rotation_products(pat, rho, creases=creases, frames=frames)
        want = rotation_products_by_crease(pat, rho, creases=creases, frames=frames)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes(), (pat.sector_angles, rho.shape, creases, frames)


def test_kernel_bits_equal_the_crease_at_a_time_product_on_fans():
    """g60, seeded random fans and the reflex fan 2 pi [4, 1, 1, 1] / 7, at random and special angles."""
    rng = np.random.default_rng(28)
    fans = [g60(), CreasePattern.from_sectors(2.0 * math.pi * np.array([4.0, 1.0, 1.0, 1.0]) / 7.0)]
    for n in (3, 5, 6, 8):
        weights = rng.uniform(0.3, 1.0, n)
        fans.append(CreasePattern.from_sectors(2.0 * math.pi * weights / weights.sum()))
    for pat in fans:
        rho = rng.uniform(-math.pi, math.pi, (300, pat.n))
        rho[:40] = rng.choice(_SPECIAL_ANGLES, (40, pat.n))
        _assert_same_bits(pat, rho)
        _assert_same_bits(pat, rho[:, ::-1], creases=range(pat.n - 1, -1, -1))


@pytest.mark.parametrize("n", [0, 1, 5, 16, 700, 2047, 2048, 2049, 5000])
def test_kernel_bits_equal_the_crease_at_a_time_product_across_blocks(n):
    """Every crease order the package uses, orders with a gap or a repeat, both frames
    settings, and row counts on both sides of a block edge."""
    rng = np.random.default_rng(n)
    for creases in (None, (5, 4, 3), (0, 1, 2), (3, 2, 1, 0), (4, 5), (3,), (), (5, 0, 2), (2, 2)):
        m = 6 if creases is None else len(creases)
        rho = rng.uniform(-math.pi, math.pi, (n, m))
        rho.flat[:60] = np.resize(_SPECIAL_ANGLES, min(60, rho.size))
        _assert_same_bits(g60(), rho, creases)
    _assert_same_bits(g60(), np.asfortranarray(rng.uniform(-math.pi, math.pi, (n, 6))))  # a strided angle array


def test_an_empty_chain_is_the_identity():
    rho = np.zeros((3, 0))
    assert np.array_equal(rotation_products(g60(), rho, creases=()), np.tile(np.eye(3), (3, 1, 1)))
    assert rotation_products(g60(), rho, creases=(), frames=True).shape == (3, 0, 3, 3)
    assert rotation_products(g60(), np.zeros((0, 0)), creases=()).shape == (0, 3, 3)


@pytest.mark.parametrize("creases, bad", [((-1, 0), -1), ((6,), 6), ((5, 6), 6)])
def test_kernel_rejects_a_crease_index_outside_the_fan(creases, bad):
    """A negative index does not wrap to a crease counted from the end, and one past the fan names itself."""
    with pytest.raises(DomainError, match=re.escape(f"crease index {bad} is outside [0, 6)")):
        rotation_products(g60(), np.zeros((2, len(creases))), creases=creases)


def test_kernel_rejects_a_wrong_angle_shape():
    with pytest.raises(DomainError):
        rotation_products(g60(), np.zeros((2, 5)))
    with pytest.raises(DomainError):
        closure_residuals(g60(), np.zeros(6))


# --- crease pattern construction ---------------------------------------------

def _reference_pattern(sectors):
    """creases, sector_angles, cross and outer of from_sectors, built one crease at a time."""
    thetas = np.concatenate([[0.0], np.cumsum(sectors[:-1])])
    creases = np.stack([np.cos(thetas), np.sin(thetas), np.zeros_like(thetas)], axis=1)
    unwrapped = np.unwrap(np.arctan2(creases[:, 1], creases[:, 0]))
    sector_angles = np.diff(np.append(unwrapped, unwrapped[0] + 2.0 * np.pi))
    cross = np.stack([np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]]) for u in creases])
    outer = np.einsum("ki,kj->kij", creases, creases)
    return creases, sector_angles, cross, outer


def test_pattern_arrays_equal_the_reference_construction_bit_for_bit():
    rng = np.random.default_rng(15)
    for _ in range(300):
        n = int(rng.integers(3, 13))
        weights = rng.uniform(0.05, 1.0, n)
        sectors = 2.0 * math.pi * weights / weights.sum()
        if sectors.max() >= math.pi:  # the reference's np.unwrap reads such a sector as a step back
            continue
        want = _reference_pattern(sectors)
        for pat in (CreasePattern.from_sectors(sectors), CreasePattern(want[0])):
            got = (pat.creases, pat.sector_angles, pat.cross, pat.outer)
            assert [a.shape for a in got] == [a.shape for a in want]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]  # signs of zeros included


_REFLEX_SECTORS = 2.0 * math.pi * np.array([4.0, 1.0, 1.0, 1.0]) / 7.0
_REFLEX = CreasePattern.from_sectors(_REFLEX_SECTORS)


def test_pattern_takes_a_sector_over_half_a_turn():
    """A counterclockwise fan with one sector above pi is a pattern; its gaps are its sectors."""
    assert np.allclose(_REFLEX.sector_angles, _REFLEX_SECTORS, atol=1e-12)
    assert CreasePattern(_REFLEX.creases) == _REFLEX
    turned = CreasePattern(_REFLEX.creases[[1, 2, 3, 0]])  # the same fan from its second crease
    assert np.allclose(turned.sector_angles, np.roll(_REFLEX_SECTORS, -1), atol=1e-12)


def test_self_intersection_test_refuses_a_sector_over_half_a_turn():
    """The flat state of a reflex fan closes at residual 0, but its reflex sector's triangle is the
    sector's complement: the test refuses the pattern rather than read the flat state as self-intersecting."""
    state = folded_geometry(_REFLEX, np.zeros(4))
    assert state.residual == 0.0
    with pytest.raises(DomainError, match="sector above pi"):
        self_intersections(_REFLEX, state.crease_images[None])
    with pytest.raises(DomainError, match="sector above pi"):
        self_intersects(_REFLEX, state)
    with pytest.raises(DomainError, match="sector above pi"):
        make_sample(_REFLEX, np.zeros(4))
    half = CreasePattern.from_sectors(np.array([1.0, 0.5, 0.5]) * math.pi)  # a sector of exactly pi is modelled
    assert not self_intersects(half, folded_geometry(half, np.zeros(3)))


@pytest.mark.parametrize("build, message", [
    (lambda: CreasePattern(np.zeros((4, 2))), "creases must be an (n, 3) array"),
    (lambda: CreasePattern(np.eye(3)[:2]), "a vertex needs at least three creases"),
    (lambda: CreasePattern.from_sectors([math.pi, math.pi]), "a vertex needs at least three creases"),
    (lambda: CreasePattern([[1.0, 0.0, 0.0], [0.0, math.nan, 0.0], [-1.0, 0.0, 0.0]]), "creases must be finite"),
    (lambda: CreasePattern([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]), "creases must be unit vectors"),
    (lambda: CreasePattern([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [-1.0, 0.0, 0.0]]), "creases must lie in the xy-plane"),
    (lambda: CreasePattern([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
     "creases must be in counterclockwise order"),
    (lambda: CreasePattern(_REFLEX.creases[::-1]), "creases must be in counterclockwise order"),
    (lambda: CreasePattern.from_sectors([1.0, math.inf, 1.0]), "sector angles must be finite"),
    (lambda: CreasePattern.from_sectors([-1.0, 1.0, 2.0 * math.pi]), "sector angles must be positive"),
    (lambda: CreasePattern.from_sectors([1.0, 1.0, 1.0]), "sector angles must sum to 2*pi"),
    (lambda: CreasePattern.from_sectors([]), "sector angles must sum to 2*pi"),
    (lambda: CreasePattern.from_sectors(np.full((2, 3), math.pi / 3.0)), "sector angles must form a 1-d sequence"),
    (lambda: CreasePattern.from_sectors(2.0 * math.pi), "sector angles must form a 1-d sequence"),
])
def test_pattern_errors_keep_their_messages(build, message):
    with pytest.raises(DomainError) as exc:
        build()
    assert str(exc.value) == message
