"""Closed-form family evaluators, checked against the loop-closure residual.

Every evaluator must hand back angle vectors whose rotation product is the
identity to near machine precision; that residual is the oracle for all of
these tests, independent of how each formula was derived.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import domain_oracle
from general_oracle import general_c3_image, general_rho2, general_solve_full_closure, general_solve_reference
from rigidfold import fold_models
from rigidfold.config_space import sweep_model, trace_implicit_curve
from rigidfold.core_geometry import closure_residual, closure_residuals, g60, rotation_products, wrap_angles
from rigidfold.errors import (
    BranchAmbiguityError,
    DomainError,
    InconsistentPointError,
    NoSolutionError,
    OutOfRangeError,
    RigidFoldError,
)
from rigidfold.fold_models import (
    AMBIGUOUS,
    FAMILIES,
    NO_COMPLETION,
    NO_SOLUTION,
    OFF_CURVE,
    OUT_OF_RANGE,
    REASON_ERRORS,
    SOLVED,
    FoldMode,
    FoldModel,
    _two_pair_roots,
    almost_general,
    bowtie,
    bowtie_multiplier,
    bowtie_pattern,
    degree4_fold,
    degree4_multipliers,
    degree4_pattern,
    general_fold,
    general_solve,
    igloo_1dof,
    igloo_pattern,
    igloo_rho1,
    igloo_rho4,
    opposites_pattern,
    opposites_solve,
    pleat_multiplier,
    resch_fold,
    trifold,
    trifold_drive_limit,
    trifold_multiplier,
    trifold_pattern,
    two_pair_complete,
    two_pair_curve_gradient,
    two_pair_curve_residual,
    two_pair_node_loop,
    two_pair_quartic,
    two_pair_solve,
)
from two_pair_oracle import node_loop_one_call, two_pair_solve_six_creases

PI = math.pi
SQRT3 = math.sqrt(3.0)
G = g60()
TWO_PAIR = FAMILIES[FoldModel.TWOPAIR]  # lays a two-pair state's (rho1, rho2, rho3, rho4) out on six creases


def fold_eq(a: float, b: float, tol: float = 1e-12) -> bool:
    """Angle equality modulo 2*pi, with +pi and -pi identified."""
    d = abs(wrap_angles(a - b))
    return min(d, 2.0 * PI - d) < tol or abs(d - PI) < tol and _both_flat(a, b)


def _both_flat(a: float, b: float) -> bool:
    return abs(abs(wrap_angles(a)) - PI) < 1e-9 and abs(abs(wrap_angles(b)) - PI) < 1e-9


# --- degree 4 ----------------------------------------------------------------

def test_degree4_multiplier_closed_forms_agree():
    """cos/sin ratio form equals the tan product form for both constants."""
    for a, b in [(math.radians(50), math.radians(70)), (0.4, 2.2), (1.0, 1.0)]:
        p, q = degree4_multipliers(a, b)
        ta, tb = math.tan(a / 2.0), math.tan(b / 2.0)
        assert math.isclose(p, (1.0 - ta * tb) / (1.0 + ta * tb), rel_tol=1e-13)
        assert math.isclose(p, math.cos((a + b) / 2.0) / math.cos((a - b) / 2.0),
                            rel_tol=1e-13)
        assert math.isclose(q, (ta - tb) / (ta + tb), abs_tol=1e-13)
        assert math.isclose(q, math.sin((a - b) / 2.0) / math.sin((a + b) / 2.0),
                            abs_tol=1e-13)


def test_degree4_modes_close():
    for a, b in [(math.radians(50), math.radians(70)), (0.7, 2.0)]:
        pat = degree4_pattern(a, b)
        for mode in (1, 2):
            for d in np.linspace(-3.0, 3.0, 21):
                rho = degree4_fold(a, b, mode, d)
                assert closure_residual(pat, rho) < 1e-12


def test_degree4_mode_structure():
    rho = degree4_fold(0.9, 1.3, 1, 0.8)
    assert rho[1] == 0.8 and rho[3] == 0.8 and math.isclose(rho[0], -rho[2], abs_tol=1e-15)
    rho = degree4_fold(0.9, 1.3, 2, 0.8)
    assert rho[0] == 0.8 and rho[2] == 0.8 and math.isclose(rho[1], -rho[3], abs_tol=1e-15)


@pytest.mark.parametrize("mode", [1, 2])
def test_degree4_writes_no_negative_zero_at_equal_sectors(mode):
    """At alpha = beta mode 2's multiplier is 0, so rho2 and rho4 = -rho2 are zero at every drive; no zero
    entry of either mode that ``Family.rows`` reports is -0.0, and a nonzero angle keeps the bits of its negation."""
    drives = np.array([-PI, -2.0, -0.3, 0.0, 0.3, 2.0, PI])

    def reported(a, b):
        return FAMILIES[FoldModel.DEGREE4].rows(FoldMode(FoldModel.DEGREE4, mode, a, b), drives[:, None])[0]

    rows = reported(1.1, 1.1)
    assert (rows == 0.0).sum() == (4 if mode == 1 else 2 * len(drives) + 2)
    assert not np.signbit(rows[rows == 0.0]).any()
    for a, b in [(0.9, 1.3), (1.1, 1.1)]:
        rows = reported(a, b)
        scaled, negated = (rows[:, 0], rows[:, 2]) if mode == 1 else (rows[:, 1], rows[:, 3])
        nonzero = scaled != 0.0
        assert np.array_equal(negated[nonzero].view(np.int64), (-scaled[nonzero]).view(np.int64))


def test_degree4_domain():
    with pytest.raises(OutOfRangeError):
        degree4_multipliers(0.0, 1.0)
    with pytest.raises(OutOfRangeError):
        degree4_multipliers(1.0, PI)


def test_pleat_multiplier_identity():
    for x in (0.3, 1.0, 2.5):
        assert math.isclose(pleat_multiplier(x), math.tan(PI / 4.0 - x / 2.0), rel_tol=1e-13)
    p, _ = degree4_multipliers(0.8, PI / 2.0)
    assert math.isclose(pleat_multiplier(0.8), p, rel_tol=1e-13)


# --- trifold ------------------------------------------------------------------

def test_trifold_multiplier_at_equilateral():
    assert abs(trifold_multiplier(PI / 3.0) + (2.0 + SQRT3)) < 1e-12


class _Q3:
    """a + b sqrt(3) with rational a and b: exact arithmetic in Q(sqrt 3)."""

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, other):
        other = _q3(other)
        return _Q3(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return _Q3(-self.a, -self.b)

    def __sub__(self, other):
        return self + -_q3(other)

    def __rsub__(self, other):
        return _q3(other) - self

    def __mul__(self, other):
        other = _q3(other)
        return _Q3(self.a * other.a + 3 * self.b * other.b, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _q3(other)
        norm = other.a * other.a - 3 * other.b * other.b  # never 0: sqrt(3) is irrational
        return self * _Q3(other.a / norm, -other.b / norm)

    def __rtruediv__(self, other):
        return _q3(other) / self

    def __eq__(self, other):
        other = _q3(other)
        return (self.a, self.b) == (other.a, other.b)

    def __float__(self):
        return float(self.a) + float(self.b) * SQRT3


def _q3(x) -> _Q3:
    return x if isinstance(x, _Q3) else _Q3(x)


_HALF = Fraction(1, 2)
# crease k of the 60-degree vertex is (cos, sin, 0) of k * 60 degrees: cosines, and sines over sqrt(3)
_G60_COS = (1, _HALF, -_HALF, -1, -_HALF, _HALF)
_G60_SIN = (0, _HALF, _HALF, 0, -_HALF, -_HALF)


def _q3_rotation(k: int, w: _Q3) -> list[list[_Q3]]:
    """Rodrigues' rotation about crease k of the 60-degree vertex by rho = 4 atan(w), exactly."""
    t = 2 * w / (1 - w * w)  # tan(rho/2)
    c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    u = [_Q3(_G60_COS[k]), _Q3(0, _G60_SIN[k]), _Q3(0)]
    cross = [[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]]
    return [[c * (i == j) + s * cross[i][j] + (1 - c) * u[i] * u[j] for j in range(3)] for i in range(3)]


def _q3_trifold_closes(m: _Q3, u: Fraction) -> bool:
    """Whether the trifold vector with tan(rho1/4) = m tan(rho2/4), tan(rho2/4) = u, closes exactly."""
    product = [[_Q3(i == j) for j in range(3)] for i in range(3)]
    for k in range(6):
        rot = _q3_rotation(k, m * u if k % 2 == 0 else _Q3(u))
        product = [[sum((product[i][l] * rot[l][j] for l in range(3)), _Q3(0)) for j in range(3)] for i in range(3)]
    return all(product[i][j] == (i == j) for i in range(3) for j in range(3))


def test_trifold_multiplier_closes_exactly_in_q_sqrt3():
    """At 60 degrees m = -(2 + sqrt 3), and tan(rho1/4) = m tan(rho2/4) closes the trifold exactly.

    Every crease and every cosine and sine of the quarter-angle rotations lie in
    Q(sqrt 3), so the product of the six rotations is exactly I at three
    rational u = tan(rho2/4); m = -2 leaves it off I.  1/m closes too: the
    60-degree pattern maps to itself turned by one sector, which swaps the
    roles of rho1 and rho2.
    """
    m = _Q3(-2, -1)
    assert abs(trifold_multiplier(PI / 3.0) - float(m)) < 1e-15
    w = Fraction(1, 3)  # the exact rotations are the kernel's, read in floats
    kernel = rotation_products(g60(), np.full((1, 6), 4.0 * math.atan(w)), frames=True)[0]
    exact = np.eye(3)
    for k in range(6):
        exact = exact @ np.array([[float(x) for x in row] for row in _q3_rotation(k, _Q3(w))])
        assert np.abs(exact - kernel[k]).max() < 1e-14
    for u in (Fraction(1, 5), Fraction(1, 7), Fraction(-1, 4)):
        assert _q3_trifold_closes(m, u), u
        assert _q3_trifold_closes(1 / m, u), u
        assert not _q3_trifold_closes(_Q3(-2), u), u


def test_trifold_closes_across_betas_and_modes():
    for beta in (0.4, PI / 3.0, 1.0, 1.9):
        pat = trifold_pattern(beta)
        lim = trifold_drive_limit(beta)
        for mode in (1, 2):
            for d in np.linspace(-lim, lim, 25):
                rho = FAMILIES[FoldModel.TRIFOLD].vector(*trifold(beta, mode, d))
                assert closure_residual(pat, rho) < 1e-12


def test_trifold_drive_limit_hits_flat_fold():
    lim = trifold_drive_limit(0.4)
    assert 0.0 < lim < PI
    r1, r2 = trifold(0.4, 1, lim)
    assert abs(abs(r1) - PI) < 1e-9  # companion reaches the flat fold exactly
    with pytest.raises(OutOfRangeError):
        trifold(0.4, 1, lim + 1e-6)


def test_trifold_limit_at_equilateral_is_pi_over_3():
    assert abs(trifold_drive_limit(PI / 3.0) - PI / 3.0) < 1e-9


@settings(max_examples=40)
@given(
    st.floats(0.1, 2.0 * PI / 3.0 - 0.1),
    st.floats(-0.9, 0.9),
)
def test_trifold_is_odd_in_the_drive(beta, frac):
    d = frac * trifold_drive_limit(beta)
    for mode in (1, 2):
        fwd = trifold(beta, mode, d)
        bwd = trifold(beta, mode, -d)
        assert math.isclose(fwd[0], -bwd[0], abs_tol=1e-10)
        assert math.isclose(fwd[1], -bwd[1], abs_tol=1e-10)


# --- bow tie ------------------------------------------------------------------

def test_bowtie_closes_both_modes():
    for beta in (0.5, PI / 3.0, 1.2):
        for mode in (1, 2):
            pat = bowtie_pattern(beta, mode)
            for d in np.linspace(-3.0, 3.0, 21):
                rho = FAMILIES[FoldModel.BOWTIE].vector(d, bowtie(beta, mode, d))
                assert closure_residual(pat, rho) < 1e-12


def test_bowtie_modes_coincide_at_60_degrees():
    assert math.isclose(bowtie_multiplier(PI / 3.0, 1), -0.5, abs_tol=1e-15)
    assert math.isclose(bowtie_multiplier(PI / 3.0, 2), -0.5, abs_tol=1e-15)
    for d in np.linspace(-3.0, 3.0, 41):
        assert abs(bowtie(PI / 3.0, 1, d) - bowtie(PI / 3.0, 2, d)) < 1e-12


def test_bowtie_domain():
    with pytest.raises(OutOfRangeError):
        bowtie_multiplier(1.6, 1)  # first sector would be nonpositive


# --- opposites ----------------------------------------------------------------

def test_opposites_each_unknown_closes():
    a, b = 0.9, 0.7
    pat = opposites_pattern(a, b)
    known = {"rho1": 0.8, "rho2": -0.5, "rho3": 1.1}
    for missing in ("rho1", "rho2", "rho3"):
        kwargs = {k: v for k, v in known.items() if k != missing}
        sol = opposites_solve(a, b, **kwargs)
        assert not sol.free
        for val in sol.angles:
            full = dict(kwargs)
            full[missing] = val
            rho = FAMILIES[FoldModel.OPPOSITES].vector(full["rho1"], full["rho2"], full["rho3"])
            assert closure_residual(pat, rho) < 1e-12


def test_opposites_flat_pair_leaves_third_free():
    sol = opposites_solve(0.9, 0.7, rho1=0.0, rho2=0.0)
    assert sol.free


def test_opposites_needs_exactly_two_angles():
    with pytest.raises(OutOfRangeError):
        opposites_solve(0.9, 0.7, rho1=0.5)
    with pytest.raises(OutOfRangeError):
        opposites_solve(0.9, 0.7, rho1=0.5, rho2=0.1, rho3=0.2)


@pytest.mark.parametrize("given", [("rho1", "rho2"), ("rho1", "rho3"), ("rho2", "rho3")])
def test_opposites_solve_returns_no_negative_zero(given):
    """Any two of rho1..rho3 in {0, +-0.5, +-pi}: the third angle is never -0.0, and from
    (rho1, rho2) it is the family row's rho3 bit for bit, as ``Family.rows`` reports it."""
    fam, mode = FAMILIES[FoldModel.OPPOSITES], FoldMode(FoldModel.OPPOSITES)
    for pair in itertools.product([0.0, 0.5, -0.5, PI, -PI], repeat=2):
        sol = opposites_solve(PI / 3.0, PI / 3.0, **dict(zip(given, pair)))
        assert not np.signbit([a for a in sol.angles if a == 0.0]).any(), pair
        if given == ("rho1", "rho2") and not sol.free:
            assert np.array([sol.angles[0]]).tobytes() == fam.fold(mode, pair)[0][2:3].tobytes(), pair


# --- igloo --------------------------------------------------------------------

# 0/0 points of the igloo fraction at three sector pairs: both completions' fractions vanish there
IGLOO_AMBIGUOUS = {(PI / 3.0, PI / 3.0): (1.9106332362490182, 1.9106332362490188),
                   (1.0, 0.8): (1.320986754366246, 2.1493629417097346),
                   (0.9, 1.2): (1.9638024167176962, 2.1474791631953942)}


@pytest.mark.parametrize("sectors", list(IGLOO_AMBIGUOUS), ids=str)
def test_igloo_completions_are_the_family_rows(sectors):
    """igloo_rho1 and igloo_rho4 are angles 1 and 4 of ``Family.fold``'s row bit for bit, and refuse what it
    refuses with the same error: 200 seeded drives (some outside [-pi, pi]), NaN and the +/- 0/0 points."""
    fam, mode = FAMILIES[FoldModel.IGLOO2DOF], FoldMode(FoldModel.IGLOO2DOF, 1, *sectors)
    ambiguous = IGLOO_AMBIGUOUS[sectors]
    drives = [*np.random.default_rng(7).uniform(-3.3, 3.3, (200, 2)).tolist(),
              ambiguous, (-ambiguous[0], -ambiguous[1]), (math.nan, 0.3), (0.0, 0.0)]

    def outcome(call):
        try:
            return np.array([call()]).tobytes()
        except RigidFoldError as err:
            return type(err), str(err)

    refused = set()
    for rho2, rho3 in drives:
        for fn, i in ((igloo_rho1, 0), (igloo_rho4, 3)):
            expected = outcome(lambda: fam.fold(mode, (rho2, rho3))[0][i])
            assert outcome(lambda: fn(*sectors, rho2, rho3)) == expected, (fn.__name__, rho2, rho3)
            if isinstance(expected, tuple):
                refused.add(expected[0])
    assert refused == {OutOfRangeError, BranchAmbiguityError}


def test_igloo_completion_closes_on_a_grid():
    a, b = 1.0, 0.8
    pat = igloo_pattern(a, b)
    for r2 in np.linspace(-2.8, 2.8, 9):
        for r3 in np.linspace(-2.8, 2.8, 9):
            r1, r4 = igloo_rho1(a, b, r2, r3), igloo_rho4(a, b, r2, r3)
            rho = FAMILIES[FoldModel.IGLOO2DOF].vector(r1, r2, r3, r4)
            assert closure_residual(pat, rho) < 1e-12


def test_igloo_flat_input_returns_flat():
    assert igloo_rho1(1.0, 0.8, 0.0, 0.0) == 0.0
    assert igloo_rho4(1.0, 0.8, 1e-14, -1e-14) == 0.0


@pytest.mark.parametrize("fn", [igloo_rho1, igloo_rho4])
@pytest.mark.parametrize("bad", ["rho2", "rho3"])
def test_igloo_partial_relations_name_the_bad_drive(fn, bad):
    drives = {"rho2": 0.1, "rho3": 0.1, bad: 5.0}
    with pytest.raises(OutOfRangeError, match=f"^{bad} must lie in"):
        fn(1.0, 1.0, drives["rho2"], drives["rho3"])


@pytest.mark.parametrize("fn", [igloo_rho1, igloo_rho4])
def test_igloo_partial_relations_check_their_sectors_once(fn, monkeypatch):
    """Each completion reads the family's row through one FoldMode: igloo_rho4 builds no flipped one."""
    checks, real = [], FoldMode.__post_init__
    monkeypatch.setattr(FoldMode, "__post_init__", lambda self: checks.append(self) or real(self))
    fn(1.0, 0.8, 0.3, 0.2)
    assert [(f.model, f.alpha, f.beta) for f in checks] == [(FoldModel.IGLOO2DOF, 1.0, 0.8)]


def test_igloo_ambiguity_names_the_callers_drives():
    """At a 0/0 fraction, at either tetrahedral drive pair, both completions name rho2 and rho3 as given."""
    tetra = (1.9106332362490182, 1.9106332362490188)  # doubles either side of arccos(-1/3)
    for rho2, rho3 in (tetra, tetra[::-1], (-tetra[0], -tetra[1]), (-tetra[1], -tetra[0])):
        message = f"half-angle fraction is 0/0 at rho2={rho2}, rho3={rho3}"
        for fn in (igloo_rho1, igloo_rho4):
            with pytest.raises(BranchAmbiguityError) as err:
                fn(PI / 3.0, PI / 3.0, rho2, rho3)
            assert str(err.value) == message


def test_igloo_1dof_closes_and_matches_completion():
    a, b = 1.0, 0.8
    pat = igloo_pattern(a, b)
    for mode in (1, 2):
        for d in np.linspace(-3.0, 3.0, 21):
            r1, r2, r3 = igloo_1dof(a, b, mode, d)
            rho = FAMILIES[FoldModel.IGLOO1DOF].vector(r1, r2, r3, d)
            assert closure_residual(pat, rho) < 1e-12
            assert fold_eq(igloo_rho1(a, b, r2, r3), r1, tol=1e-9)


def test_igloo_right_angle_keeps_first_crease_flat():
    a = 0.7
    for mode in (1, 2):
        for d in np.linspace(-3.0, 3.0, 31):
            r1, r2, _ = igloo_1dof(a, PI / 2.0, mode, d)
            assert abs(r1) < 1e-10
            assert min(abs(r2 - d / 2.0), abs(r2 + d / 2.0)) < 1e-9
    # the two modes pick opposite signs of rho2
    r2_m1 = igloo_1dof(a, PI / 2.0, 1, 1.0)[1]
    r2_m2 = igloo_1dof(a, PI / 2.0, 2, 1.0)[1]
    assert math.isclose(r2_m1, -r2_m2, abs_tol=1e-12)


# --- two pair -----------------------------------------------------------------

def test_two_pair_curve_passes_through_origin():
    assert two_pair_curve_residual(0.0, 0.0) == 0.0
    assert abs(two_pair_curve_residual(1.0, 0.0)) > 1.0  # generic point is off


def test_two_pair_curve_is_swap_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, y = rng.uniform(-PI, PI, 2)
        assert abs(two_pair_curve_residual(x, y) - two_pair_curve_residual(y, x)) < 1e-10


def test_two_pair_curve_gradient_matches_complex_step():
    """The analytic gradient against Im f(x + ih) / h of the residual itself, so no
    formula is typed twice; complex arrays take the residual's ``np.cos`` path."""
    x, y = np.random.default_rng(8).uniform(-PI, PI, (2, 1000))
    h = 1e-30
    want = np.stack([two_pair_curve_residual(x + 1j * h, y + 0j).imag / h,
                     two_pair_curve_residual(x + 0j, y + 1j * h).imag / h])
    got = np.stack(two_pair_curve_gradient(x, y))
    assert np.all(np.hypot(*(got - want)) < 1e-12 * np.hypot(*want))
    scalar = np.array([two_pair_curve_gradient(float(a), float(b)) for a, b in zip(x[:20], y[:20])])
    assert np.allclose(scalar, got[:, :20].T, rtol=0.0, atol=1e-12)  # the math.sin path


def test_two_pair_quartic_roots_lie_on_the_curve():
    """Every real root of the quartic in either chart is on the curve, also where its
    leading coefficient 2 t^2 - 1 vanishes and one root runs off to infinity."""
    edge = 1.0 / math.sqrt(2.0)
    t = np.concatenate([np.tan(np.linspace(-1.5, 1.5, 61) / 2.0), [edge, np.nextafter(edge, 0.0), -edge]])
    assert np.abs(two_pair_quartic(t)[-3:, 0]).max() < 1e-15  # the leading coefficient at the edge
    z = _two_pair_roots(t)
    row, k = np.nonzero((z.imag == 0.0) & np.isfinite(z.real))
    assert len(row) > len(t)
    fixed, free = 2.0 * np.arctan(t[row]), 2.0 * np.arctan(z[row, k].real)
    assert np.abs(two_pair_curve_residual(fixed, free)).max() < 1e-10
    assert np.abs(two_pair_curve_residual(free, fixed)).max() < 1e-10  # the same rows serve the t1 chart


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=400))
def test_two_pair_node_loop_gives_n_distinct_points_on_the_curve(n):
    rows = two_pair_node_loop(n)
    assert rows.shape == (n, 2) and rows[0].tolist() == [0.0, 0.0]
    assert len(np.unique(rows, axis=0)) == n
    assert np.abs(two_pair_curve_residual(rows[:, 0], rows[:, 1])).max() < 1e-10
    if n % 2:  # the targets past halfway are the point images of those before it
        assert np.abs(rows[1:n // 2 + 1] + rows[n // 2 + 1:][::-1]).max() < 1e-9


def test_two_pair_completion_at_origin():
    assert two_pair_complete(0.0, 0.0) == [(0.0, 0.0)]


def _on_curve_point(rho1: float, lo: float, hi: float) -> float:
    """Bisect the relation in rho2 at fixed rho1; bracket must change sign."""
    f = lambda y: two_pair_curve_residual(rho1, y)
    assert f(lo) * f(hi) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_two_pair_completion_closes_off_origin():
    pat = g60()
    r2 = _on_curve_point(1.5, -2.356, -2.094)
    comps = two_pair_complete(1.5, r2)
    assert comps
    for r3, r4 in comps:
        assert closure_residual(pat, TWO_PAIR.vector(1.5, r2, r3, r4)) < 1e-8


def test_two_pair_rejects_off_curve_input():
    with pytest.raises(InconsistentPointError):
        two_pair_complete(1.0, 0.0)


def _two_pair_complete_loop(rho1, rho2, tol):
    """Completions found one candidate at a time with ``math``: the reference for the batched solve.

    Returns the kept completions (None off the curve, [] when no candidate
    closes) and the number of closing candidates before the dedupe.
    """
    def circle(a, b, c):  # roots of a cos x + b sin x = c in (-pi, pi]
        r = math.hypot(a, b)
        if r < 1e-12 or abs(c / r) > 1.0 + 1e-9:
            return []
        phi, off = math.atan2(b, a), math.acos(max(-1.0, min(1.0, c / r)))
        roots = [float(wrap_angles(phi + off)), float(wrap_angles(phi - off))]
        return roots[:1] if abs(roots[0] - roots[1]) < 1e-12 else roots

    if abs(two_pair_curve_residual(rho1, rho2)) > 1e-7:
        return None, 0
    if rho1 == 0.0 and rho2 == 0.0:
        return [(0.0, 0.0)], 1
    c1, s1, c2, s2 = math.cos(rho1), math.sin(rho1), math.cos(rho2), math.sin(rho2)
    a4, b4, c4 = 2.0 + 2.0 * c1, -4.0 * s1, 4.0 * c2 + 3.0 * math.cos(2.0 * rho2) - 1.0 - 2.0 * c1
    rho4s = circle(a4, b4, c4)
    if not rho4s and math.hypot(a4, b4) < 1e-12 and abs(c4) < 1e-9:
        rho4s = list(np.linspace(-PI, PI, 49)[:-1])  # the rho4 relation is vacuous at rho1 = pi
    found = []
    for rho4 in rho4s:
        c5 = (1.0 + 3.0 * math.cos(2.0 * rho1)) * math.cos(rho4) - 3.0 * (c1 - 1.0) * s1 * math.sin(rho4)
        for rho3 in circle(1.0 + 3.0 * math.cos(2.0 * rho2), -3.0 * (c2 - 1.0) * s2, c5):
            res = closure_residual(G, TWO_PAIR.vector(rho1, rho2, rho3, rho4))
            if res < tol:
                found.append((res, rho3, rho4))
    kept = []
    for _, rho3, rho4 in sorted(found, key=lambda t: t[0]):
        if all(math.hypot(rho3 - a, rho4 - b) > 1e-6 for a, b in kept):
            kept.append((rho3, rho4))
    return kept, len(found)


@pytest.mark.parametrize("tol", [1e-8, 1e-2, 0.0])
def test_two_pair_solve_matches_the_one_candidate_loop(tol, monkeypatch):
    """Where checking one candidate at a time keeps one completion, the frame solve gives it and its reason, at
    most one row per drive.  Next to the node the loop's arccos roots close only to about 1e-12..1e-8, so its
    angles are held to 1e-12 plus its own residual, and the frame's residual to no more than the loop's.  The
    loose tolerance keeps the loop's near-duplicate candidates; the frame solve's rows are those of 1e-8."""
    curve = [tuple(map(float, s.rho[:2]))
             for s in trace_implicit_curve(two_pair_curve_residual, (0.0, 0.0), step=0.05).samples[::3]]
    slopes = (4.0 + math.sqrt(15.0), 4.0 - math.sqrt(15.0), 1.0)  # the node's two branches, and off them
    node = [(r, m * r) for m in slopes for r in (1e-5, 1e-6, 3e-7, 1e-7)]
    corners = [(a, b) for a in (PI, -PI) for b in (PI, -PI)]
    drives = np.array(curve + node + corners + [(0.0, 0.0), (1.0, 0.0), (PI, 1.2309594173407747)])
    strict = two_pair_solve(drives[:, 0], drives[:, 1])
    monkeypatch.setattr(fold_models, "DEFAULT_TOL", tol)
    sol = two_pair_solve(drives[:, 0], drives[:, 1])
    assert len(np.unique(sol.drive)) == len(sol.drive)
    compared = 0
    for k, (r1, r2) in enumerate(drives):
        want, _ = _two_pair_complete_loop(r1, r2, tol)
        got = sol.vectors[sol.drive == k]
        if want is None:
            assert sol.reason[k] == OFF_CURVE
        elif len(want) == 1:
            assert sol.reason[k] == SOLVED
            res = closure_residual(G, TWO_PAIR.vector(r1, r2, *want[0]))
            assert closure_residual(G, got[0]) <= res + 1e-15
            assert fold_eq(got[0, 4], want[0][0], 1e-12 + res) and fold_eq(got[0, 5], want[0][1], 1e-12 + res)
            compared += 1
        elif tol == 0.0:  # nothing but the flat state closes exactly
            assert sol.reason[k] == NO_COMPLETION
    assert compared == 2 if tol == 0.0 else compared >= len(curve) - 1  # at 0.0: (0, 0), where the trace starts too
    if tol == 1e-2:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(sol, strict))


_CANDIDATE_FAULTS = [(a, b) for a in (PI, -PI) for b in (PI, -PI)] + [
    (PI, 1.2309594173407747),  # rho4 was sampled at 48 points there, and every sample missed
    (1e-7, (4.0 - math.sqrt(15.0)) * 1e-7),  # on a node branch: no candidate closed below 1e-8
]


@pytest.mark.parametrize("rho1, rho2", _CANDIDATE_FAULTS)
def test_two_pair_completes_where_the_candidate_search_failed(rho1, rho2):
    """The flat corners had two completions that are one state mod 2pi, the others none; each has one."""
    comps = two_pair_complete(rho1, rho2)
    assert len(comps) == 1
    assert closure_residual(G, TWO_PAIR.vector(rho1, rho2, *comps[0])) < 1e-14


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=400))
def test_two_pair_solve_completes_every_node_loop_drive_once(n):
    rows = two_pair_node_loop(n)
    sol = two_pair_solve(rows[:, 0], rows[:, 1])
    assert sol.drive.tolist() == list(range(n)) and np.all(sol.reason == SOLVED)
    assert closure_residuals(G, sol.vectors).max() < 1e-13


@pytest.mark.parametrize("n", [*range(2, 201), 1000])
def test_two_pair_node_loop_bits_equal_the_one_call_layout(n):
    assert two_pair_node_loop(n).tobytes() == node_loop_one_call(n).tobytes()


def test_the_node_loop_polyline_is_read_only():
    loop, s = fold_models._node_loop_polyline()
    for table in (loop, s):
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_a_second_two_pair_sweep_lays_out_no_loop(monkeypatch):
    """The polyline is solved on the first sweep of a process only; each sweep then solves its own targets."""
    calls, real = [], fold_models._two_pair_roots
    monkeypatch.setattr(fold_models, "_two_pair_roots", lambda t: calls.append(len(t)) or real(t))
    fold_models._node_loop_polyline.cache_clear()
    mode = FoldMode(FoldModel.TWOPAIR)
    first = sweep_model(mode, 16)
    assert len(calls) == 2
    second = sweep_model(mode, 16)
    assert calls[2:] == [16] and first == second


def _two_pair_drive_sets() -> list[np.ndarray]:
    """Node loops, the CI's trace walks, and drives off the curve or outside [-pi, pi]."""
    walks = [trace_implicit_curve(two_pair_curve_residual, seed, step=step, gradient=two_pair_curve_gradient)
             for seed, step in [((0.0, 0.0), 0.02), ((0.0, 0.0), 0.05), ((0.0, 0.0), 0.2),
                                ((PI, math.acos(1.0 / 3.0)), 0.05)]]
    rng = np.random.default_rng(28)
    outside = [(4.0, 0.0), (0.0, -3.5), (math.nan, 0.0), (0.0, math.inf), (PI + 1e-9, 0.0), (PI, 1.2309594173407747)]
    return ([two_pair_node_loop(n) for n in (*range(2, 201), 1000)]
            + [w for t in walks for w in (t.samples.rho, wrap_angles(t.samples.rho))]
            + [rng.uniform(-PI, PI, (300, 2)), np.array(outside)])


@pytest.mark.parametrize("tol", [1e-8, 1e-12, 0.0])
def test_two_pair_solve_keeps_the_rows_of_the_six_crease_check(tol, monkeypatch):
    """|R5 R6 - M| and the six-crease residual keep the same drives and give the same reasons."""
    monkeypatch.setattr(fold_models, "DEFAULT_TOL", tol)
    for drives in _two_pair_drive_sets():
        got, want = two_pair_solve(*drives.T), two_pair_solve_six_creases(*drives.T)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


# --- general and almost general -------------------------------------------------

def test_general_x_identity():
    """First coordinate of the folded third crease depends only on rho2."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        r1, r2 = rng.uniform(-PI, PI, 2)
        x = general_c3_image(r1, r2)[0]
        assert abs(x - (1.0 - 3.0 * math.cos(r2)) / 4.0) < 1e-12


def test_general_fold_branches_close():
    solved = 0
    for d in np.random.default_rng(17).uniform(-PI, PI, (40, 3)):  # one fixed batch: the test cannot hang
        try:
            sols = general_fold(*d)
        except NoSolutionError:
            continue
        for v in sols:
            assert closure_residual(G, v) < 1e-8
            assert np.allclose(v[3:], d, atol=1e-15)  # drives pass through
        solved += 1
    assert solved >= 30


def test_general_fold_no_branch_raises():
    assert general_rho2(2.197659, -0.666474, -0.12765) == []
    with pytest.raises(NoSolutionError):
        general_fold(2.197659, -0.666474, -0.12765)


def test_general_flat_drives_give_flat_state():
    sols = general_fold(0.0, 0.0, 0.0)
    assert len(sols) == 1
    assert np.allclose(sols[0], 0.0, atol=1e-12)


def _angle_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest angle difference of each row pair, modulo 2*pi."""
    return np.abs(wrap_angles(a - b)).max(axis=1)


def test_general_solve_matches_the_two_product_reference_on_random_drives():
    """One back-chain frame gives the rows of the earlier route (six-trig cos rho2, five-crease rho3)."""
    drives = np.random.default_rng(18).uniform(-PI, PI, (3, 4000))
    drives[:, :4] = [[np.nan, 4.0, PI, -PI], [0.1, 0.2, -PI, PI], [0.3, -0.3, np.inf, 0.0]]
    new, old = general_solve(*drives), general_solve_reference(*drives)
    assert np.array_equal(new.drive, old.drive)
    assert np.array_equal(new.reason, old.reason)
    assert len(new.drive) > 6000 and {SOLVED, NO_SOLUTION, OUT_OF_RANGE} <= set(new.reason.tolist())
    assert _angle_gap(new.vectors, old.vectors).max() < 1e-12
    assert closure_residuals(G, new.vectors).max() < 1e-13


def _assert_same_solve(new, old):
    assert np.array_equal(new.vectors.view(np.int64), old.vectors.view(np.int64))  # bit for bit, -0.0 too
    assert np.array_equal(new.drive, old.drive) and np.array_equal(new.reason, old.reason)


def test_general_solve_matches_the_full_closure_solve_on_random_drives():
    """The three-crease check |R1 R2 R3 - B| keeps exactly the rows the six-crease residual keeps."""
    drives = np.random.default_rng(21).uniform(-PI, PI, (3, 20000))
    drives[:, :4] = [[np.nan, 4.0, PI, -PI], [0.1, 0.2, -PI, PI], [0.3, -0.3, np.inf, 0.0]]
    new = general_solve(*drives)
    _assert_same_solve(new, general_solve_full_closure(*drives))
    assert len(new.drive) > 30000 and {SOLVED, NO_SOLUTION, OUT_OF_RANGE} <= set(new.reason.tolist())


@pytest.mark.parametrize("rho6", [0.0, PI, -PI])
def test_general_solve_matches_the_full_closure_solve_on_region_grids(rho6):
    axis = np.linspace(-PI, PI, 201)
    r4, r5 = np.meshgrid(axis, axis, indexing="ij")
    _assert_same_solve(*(solve(r4.ravel(), r5.ravel(), rho6) for solve in (general_solve, general_solve_full_closure)))


@pytest.mark.parametrize("rho6", [0.0, 0.4, 0.8, -1.3, PI, -PI])
def test_general_solve_matches_the_two_product_reference_on_region_grids(rho6):
    """The 201 x 201 grid of ``region``: the same admissible cells and reasons.

    Near a double root of rho2 (|sin rho2| < 1e-3 in either solve) arccos
    turns a roundoff in cos rho2 into an angle error up to its square root,
    so rows there agree to 1e-7.  At an exact double root the reference lets
    roundoff decide whether cos rho2 reaches 1, and where it misses keeps two
    copies split by a few 1e-8 in rho2; ``general_solve`` takes rho2 = 0
    there and keeps one row at every such split cell.
    """
    axis = np.linspace(-PI, PI, 201)
    r4, r5 = np.meshgrid(axis, axis, indexing="ij")
    new, old = (solve(r4.ravel(), r5.ravel(), rho6) for solve in (general_solve, general_solve_reference))
    assert np.array_equal(new.reason, old.reason)
    assert np.array_equal(np.unique(new.drive), np.unique(old.drive))
    counts = [np.bincount(sol.drive, minlength=r4.size) for sol in (new, old)]
    split = counts[0] != counts[1]
    assert (counts[0][split] == 1).all()
    for sol, count in zip((new, old), counts):
        rows = sol.vectors[split[sol.drive]]
        assert np.abs(rows[:, 1]).max(initial=0.0) < 1e-7  # a split cell is a double root at rho2 = 0
        assert (rows[count[sol.drive[split[sol.drive]]] == 1, 1] == 0.0).all()  # its single row sits on it
    paired = [sol.vectors[~split[sol.drive]] for sol in (new, old)]
    gap, residual = _angle_gap(*paired), closure_residuals(G, paired[0])
    steep = np.minimum(*(np.abs(np.sin(v[:, 1])) for v in paired)) >= 1e-3
    assert gap[steep].max() < 1e-12 and residual[steep].max() < 1e-13
    assert gap.max() < 1e-7 and residual.max() < 1e-12


def test_almost_general_ties_first_two_creases():
    solved = 0
    for r4, r5 in np.random.default_rng(23).uniform(-PI, PI, (25, 2)):  # one fixed batch: the test cannot hang
        try:
            sols = almost_general(r4, r5)
        except NoSolutionError:
            continue
        for v in sols:
            assert v[0] == v[1]
            assert closure_residual(G, v) < 1e-8
        solved += 1
    assert solved >= 20


# --- seven-vertex patch ---------------------------------------------------------

def test_resch_vertices_all_close():
    limit = trifold_drive_limit(PI / 3.0)
    for t in (-limit, -0.5, 0.0, 0.3, limit):
        states = resch_fold(t)
        assert set(states) == {f"r{i}" for i in range(1, 8)}
        for vec in states.values():
            assert closure_residual(G, vec) < 1e-12


def test_resch_center_is_the_trifold():
    t = 0.3
    states = resch_fold(t)
    center = FAMILIES[FoldModel.TRIFOLD].vector(*trifold(PI / 3.0, 1, t))
    assert np.allclose(states["r1"], center, atol=1e-12)
    # the shared crease feeds the drive back in
    assert fold_eq(states["r2"][0], t, tol=1e-9)


def test_resch_symmetry_triples():
    states = resch_fold(-0.4)
    assert np.array_equal(states["r2"], states["r3"])
    assert np.array_equal(states["r3"], states["r4"])
    assert np.array_equal(states["r5"], states["r6"])
    assert np.array_equal(states["r6"], states["r7"])


def test_resch_flat_at_zero():
    states = resch_fold(0.0)
    for vec in states.values():
        assert np.allclose(vec, 0.0, atol=1e-15)


def test_resch_rejects_out_of_range_drive():
    limit = trifold_drive_limit(PI / 3.0)
    with pytest.raises(OutOfRangeError, match=f"reachable \\|drive\\| <= {limit}$"):
        resch_fold(limit + 1e-3)


# --- mode descriptors ------------------------------------------------------------

def test_fold_mode_validation():
    FoldMode(FoldModel.TRIFOLD, 2, PI / 3.0, PI / 3.0)
    with pytest.raises(OutOfRangeError):
        FoldMode(FoldModel.TRIFOLD, 3, PI / 3.0, PI / 3.0)
    with pytest.raises(OutOfRangeError):
        FoldMode(FoldModel.TRIFOLD, 1, PI / 3.0, 2.5)  # beta outside (0, 2pi/3)


@pytest.mark.parametrize("mode", [True, False, np.bool_(True), 2.0, np.float64(1.0), 1.5, "2", None])
def test_fold_mode_rejects_a_mode_that_is_not_an_integer(mode):
    with pytest.raises(OutOfRangeError, match="trifold mode must be 1 or 2, got"):
        FoldMode(FoldModel.TRIFOLD, mode)


@pytest.mark.parametrize("mode", [2, np.int64(2), np.uint8(2)])
def test_fold_mode_stores_an_integer_mode_as_int(mode):
    stored = FoldMode(FoldModel.TRIFOLD, mode).mode
    assert type(stored) is int and stored == 2


def _near(x: float) -> list[float]:
    """x and its two float neighbours on each side."""
    below, above = math.nextafter(x, -math.inf), math.nextafter(x, math.inf)
    return [math.nextafter(below, -math.inf), below, x, above, math.nextafter(above, math.inf)]


def _sector_pairs() -> set:
    """(alpha, beta) over zeros, infinities, NaN, each bound with its neighbours, and the line alpha + beta = pi."""
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -0.3, 0.3, 1.0, 2.0]
    for bound in (PI / 3.0, PI / 2.0, 2.0 * PI / 3.0, PI):
        values += _near(bound)[1:4]
    pairs = {(a, b) for a in values for b in values}
    for a in (0.3, 1.0, PI / 3.0, PI / 2.0, 2.0, 3.1):
        pairs |= {p for b in _near(PI - a) for p in ((a, b), (b, a))}
    return pairs


# where alpha + beta rounds to pi but pi - alpha - beta stays > 0: the old wedge check refused these,
# FoldMode accepts them, and building the pattern refuses its sliver of a third sector instead
ONE_ULP = {(PI / 3.0, 2.0 * PI / 3.0), (2.0 * PI / 3.0, PI / 3.0), (1.5707963267948963, PI / 2.0),
           (PI / 2.0, 1.5707963267948963), (2.0, 1.141592653589793), (3.1, 0.04159265358979301),
           (3.1, 0.04159265358979302)}


@pytest.mark.parametrize("model, mode", [(model, m) for model, fam in FAMILIES.items() for m in fam.modes],
                         ids=lambda x: getattr(x, "value", x))
def test_fold_mode_accepts_the_sectors_the_old_domain_checks_accepted(model, mode):
    """Every sector > 0 is the old per-family bound on alpha and beta, but at one ulp from alpha + beta = pi;
    the fixed 60-degree check is the old one, but that it refuses the NaN sectors the old one let through."""
    moved, old = set(), domain_oracle.ACCEPTS[model]
    for alpha, beta in _sector_pairs():
        try:
            FoldMode(model, mode, alpha, beta)
            accepted = True
        except OutOfRangeError as e:
            accepted = False
            assert f"alpha={alpha}, beta={beta} give sectors [" in str(e) or "fixed 60-degree" in str(e)
        if accepted != old(alpha, beta):
            moved.add((alpha, beta))
    if old is domain_oracle.fixed_60:
        nan = {(a, b) for a, b in _sector_pairs() if math.isnan(a + b) and old(a, b)}
        assert nan and moved == nan
        return
    assert moved == (ONE_ULP if old is domain_oracle.wedge else set())
    for alpha, beta in moved:
        assert alpha + beta == PI and PI - alpha - beta > 0.0
        with pytest.raises(DomainError, match="creases must be in counterclockwise order"):
            FoldMode(model, mode, alpha, beta).pattern


# --- batched family solves ---------------------------------------------------------

_BAD = [math.nan, math.inf, -math.inf, 4.0, -3.2, PI + 1e-9]  # drives outside [-pi, pi]
_TETRA = math.acos(-1.0 / 3.0)  # near (a, a) = (1.9106332362490182, ...) the igloo fraction is 0/0


def _drive_corpus(model: FoldModel, mode: FoldMode) -> np.ndarray:
    """Drives of every kind for a family: a sweep, the edges, exact zeros and drives that fail."""
    fam = FAMILIES[model]
    rng = np.random.default_rng(31)
    if len(fam.drives) == 1:
        lim = fam.limit(mode.alpha, mode.beta)
        d = np.concatenate([np.linspace(-lim, lim, 41), np.linspace(-PI, PI, 13), [0.0, -0.0, PI, -PI], _BAD])
        return d[:, None]
    if model is FoldModel.TWOPAIR:
        trace = trace_implicit_curve(two_pair_curve_residual, (0.0, 0.0), step=0.05)
        curve = [s.rho[:2] for s in trace.samples[::7]]
        special = [(0.0, 0.0), (1.0, 0.0), (0.3, 0.2), (PI, PI), (-PI, PI), (PI, 1.2309594173407747)]
        return np.array(curve + special + [(b, 0.0) for b in _BAD] + [(0.0, b) for b in _BAD])
    if len(fam.drives) == 2:
        axis = np.linspace(-PI, PI, 9)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        extra = [(0.0, 0.0), (1e-13, -1e-13), (1.9106332362490182, 1.9106332362490188),
                 (-1.9106332362490182, -1.9106332362490188), (_TETRA, _TETRA)]
        return np.concatenate([grid, rng.uniform(-PI, PI, (40, 2)), extra,
                               [(b, 0.3) for b in _BAD], [(0.3, b) for b in _BAD]])
    triples = [(2.197659, -0.666474, -0.12765), (0.0, 0.0, 0.0), (PI, PI, PI)]
    return np.concatenate([rng.uniform(-PI, PI, (120, 3)), triples,
                           [(b, 0.1, 0.2) for b in _BAD], [(0.1, 0.2, b) for b in _BAD]])


def _batch_cases():
    for model, fam in FAMILIES.items():
        for alpha, beta in ((60.0, 60.0), (55.0, 65.0)):
            if fam.sectors(FoldMode(model)) is None and alpha != 60.0:
                continue
            for m in fam.modes:
                yield FoldMode(model, m, math.radians(alpha), math.radians(beta))


_CASE_IDS = lambda f: f"{f.model.value}-{f.mode}-{math.degrees(f.alpha):.0f}"

# the scalar evaluator of each family that has one, on one drive tuple of Python floats
_SCALAR = {
    FoldModel.DEGREE4: lambda f, d: degree4_fold(f.alpha, f.beta, f.mode, *d),
    FoldModel.TRIFOLD: lambda f, d: trifold(f.beta, f.mode, *d),
    FoldModel.BOWTIE: lambda f, d: bowtie(f.beta, f.mode, *d),
    FoldModel.IGLOO1DOF: lambda f, d: igloo_1dof(f.alpha, f.beta, f.mode, *d),
    FoldModel.TWOPAIR: lambda f, d: two_pair_complete(*d),
    FoldModel.FULLY_GENERAL: lambda f, d: general_fold(*d),
    FoldModel.ALMOST_GENERAL: lambda f, d: almost_general(*d),
}


def _rows_equal_one_drive_calls(mode: FoldMode) -> set:
    """Check a batched solve of the family's corpus row by row against one-drive calls; the reasons seen."""
    fam = FAMILIES[mode.model]
    drives = _drive_corpus(mode.model, mode)
    sol = fam.solve(mode, drives)
    assert sol.reason.shape == (len(drives),)
    assert np.all(np.diff(sol.drive) >= 0)
    vectors, _ = fam.rows(mode, drives, skip=tuple(REASON_ERRORS))  # the solve's rows, with no -0.0
    assert np.array_equal(vectors, sol.vectors) and not np.signbit(vectors[vectors == 0.0]).any()
    seen = set()
    for k, row in enumerate(drives):
        got = vectors[sol.drive == k]
        try:
            want = fam.fold(mode, tuple(row))
        except RigidFoldError as err:
            code = int(sol.reason[k])
            assert code != SOLVED and len(got) == 0
            assert type(err) is REASON_ERRORS[code]
            with pytest.raises(type(err)) as again:
                fam.raise_first(mode, drives[k:k + 1], sol.reason[k:k + 1])
            assert str(again.value) == str(err)
            assert "np.float64(" not in str(err)
            if mode.model in _SCALAR:
                with pytest.raises(type(err)) as scalar:
                    _SCALAR[mode.model](mode, row.tolist())
                assert str(scalar.value) == str(err)
            seen.add(code)
            continue
        assert sol.reason[k] == SOLVED
        want = np.array(want)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert OUT_OF_RANGE in seen  # the corpus reaches the failure paths
    fam.raise_first(mode, drives, sol.reason, skip=tuple(seen))  # nothing left to raise
    return seen


@pytest.mark.parametrize("mode", list(_batch_cases()), ids=_CASE_IDS)
def test_batched_solve_rows_equal_one_drive_calls(mode):
    """The rows a batched ``rows`` call reports for drive k are the one-drive call bit for bit, and each failed
    drive's reason code names the exception (type and message) that call, the
    family's scalar evaluator and ``raise_first`` all raise."""
    seen = _rows_equal_one_drive_calls(mode)
    if mode.model is FoldModel.IGLOO2DOF and mode.alpha == PI / 3.0:
        assert AMBIGUOUS in seen
    if mode.model is FoldModel.TWOPAIR:  # every on-curve drive of the corpus completes
        assert OFF_CURVE in seen and NO_COMPLETION not in seen
    if mode.model in (FoldModel.FULLY_GENERAL, FoldModel.ALMOST_GENERAL):
        assert NO_SOLUTION in seen


def test_tight_two_pair_solve_rows_equal_one_drive_calls(monkeypatch):
    """At ``DEFAULT_TOL`` 0 only the flat pair completes, so the corpus reaches ``NO_COMPLETION``."""
    monkeypatch.setattr(fold_models, "DEFAULT_TOL", 0.0)
    seen = _rows_equal_one_drive_calls(FoldMode(FoldModel.TWOPAIR))
    assert {OFF_CURVE, NO_COMPLETION} <= seen


@pytest.mark.parametrize("mode", [f for f in _batch_cases() if FAMILIES[f.model].coloring], ids=_CASE_IDS)
def test_each_solved_row_is_its_class_columns_expanded_by_the_coloring(mode):
    """On the family's drive corpus, 400 seeded drives and 64 points of the two-pair node loop, each
    solved row equals one crease of each class read off it and laid out by ``coloring``, bit for bit."""
    fam = FAMILIES[mode.model]
    drives = [_drive_corpus(mode.model, mode), np.random.default_rng(7).uniform(-PI, PI, (400, len(fam.drives)))]
    if fam.loop is not None:
        drives.append(fam.loop(64))
    vectors = fam.solve(mode, np.concatenate(drives)).vectors
    assert len(vectors) >= 64  # random pairs miss the two-pair curve; its loop points do not
    coloring = np.array(fam.coloring)
    first = [fam.coloring.index(c) for c in range(1, coloring.max() + 1)]  # the first crease of each class
    assert vectors.tobytes() == vectors[:, first][:, coloring - 1].tobytes()
    assert vectors.tobytes() == fam.vector(*vectors[:, first].T).tobytes()


def test_almost_general_rows_are_general_rows_laid_out_by_its_coloring():
    """Almost-general drives (rho4, rho5) solve as general drives (rho4, rho5, rho5); the classes
    (rho5, rho1, rho2, rho3, rho4) of each general row fill the coloring 112345."""
    drives = np.random.default_rng(11).uniform(-PI, PI, (400, 2))
    almost = FAMILIES[FoldModel.ALMOST_GENERAL].solve(FoldMode(FoldModel.ALMOST_GENERAL), drives)
    general = general_solve(drives[:, 0], drives[:, 1], drives[:, 1])
    assert len(almost.vectors) >= 400
    assert np.array_equal(almost.drive, general.drive) and np.array_equal(almost.reason, general.reason)
    assert almost.vectors.tobytes() == general.vectors[:, [4, 4, 0, 1, 2, 3]].tobytes()


def _own_residual(sectors, rho) -> float:
    """Closure residual from a Rodrigues product written here, not the package's kernel."""
    acc = np.eye(3)
    for t, a in zip(np.concatenate([[0.0], np.cumsum(sectors)[:-1]]), rho):
        u = np.array([math.cos(t), math.sin(t), 0.0])
        K = np.array([[0.0, 0.0, u[1]], [0.0, 0.0, -u[0]], [-u[1], u[0], 0.0]])
        acc = acc @ (math.cos(a) * np.eye(3) + math.sin(a) * K + (1.0 - math.cos(a)) * np.outer(u, u))
    return float(np.linalg.norm(acc - np.eye(3)))


@pytest.mark.parametrize("mode", list(_batch_cases()), ids=_CASE_IDS)
def test_batched_solve_vectors_close(mode):
    fam = FAMILIES[mode.model]
    sol = fam.solve(mode, _drive_corpus(mode.model, mode))
    assert len(sol.vectors)
    sectors = mode.pattern.sector_angles
    assert max(_own_residual(sectors, v) for v in sol.vectors) < 1e-8
