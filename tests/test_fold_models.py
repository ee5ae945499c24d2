"""Closed-form family evaluators, checked against the loop-closure residual.

Every evaluator must hand back angle vectors whose rotation product is the
identity to near machine precision; that residual is the oracle for all of
these tests, independent of how each formula was derived.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rigidfold.config_space import trace_implicit_curve
from rigidfold.core_geometry import closure_residual, g60, wrap_angle
from rigidfold.errors import (
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
    almost_general,
    bowtie,
    bowtie_multiplier,
    bowtie_pattern,
    bowtie_vector,
    degree4_fold,
    degree4_multipliers,
    degree4_pattern,
    general_c3_image,
    general_fold,
    general_rho2,
    igloo_1dof,
    igloo_pattern,
    igloo_rho1,
    igloo_rho4,
    igloo_vector,
    opposites_pattern,
    opposites_solve,
    opposites_vector,
    pleat_multiplier,
    resch_fold,
    trifold,
    trifold_drive_limit,
    trifold_multiplier,
    trifold_pattern,
    trifold_vector,
    two_pair_complete,
    two_pair_curve_residual,
    two_pair_pattern,
    two_pair_solve,
    two_pair_vector,
)

PI = math.pi
SQRT3 = math.sqrt(3.0)
G = g60()


def fold_eq(a: float, b: float, tol: float = 1e-12) -> bool:
    """Angle equality modulo 2*pi, with +pi and -pi identified."""
    d = abs(wrap_angle(a - b))
    return min(d, 2.0 * PI - d) < tol or abs(d - PI) < tol and _both_flat(a, b)


def _both_flat(a: float, b: float) -> bool:
    return abs(abs(wrap_angle(a)) - PI) < 1e-9 and abs(abs(wrap_angle(b)) - PI) < 1e-9


# --- degree 4 ----------------------------------------------------------------

def test_degree4_multiplier_closed_forms_agree():
    """cos/sin ratio form equals the tan product form for both constants."""
    for a, b in [(math.radians(50), math.radians(70)), (0.4, 2.2), (1.0, 1.0)]:
        p, q = degree4_multipliers(a, b)
        ta, tb = math.tan(a / 2.0), math.tan(b / 2.0)
        assert math.isclose(p.value, (1.0 - ta * tb) / (1.0 + ta * tb), rel_tol=1e-13)
        assert math.isclose(p.value, math.cos((a + b) / 2.0) / math.cos((a - b) / 2.0),
                            rel_tol=1e-13)
        assert math.isclose(q.value, (ta - tb) / (ta + tb), abs_tol=1e-13)
        assert math.isclose(q.value, math.sin((a - b) / 2.0) / math.sin((a + b) / 2.0),
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


def test_degree4_domain():
    with pytest.raises(OutOfRangeError):
        degree4_multipliers(0.0, 1.0)
    with pytest.raises(OutOfRangeError):
        degree4_multipliers(1.0, PI)


def test_pleat_multiplier_identity():
    for x in (0.3, 1.0, 2.5):
        assert math.isclose(pleat_multiplier(x), math.tan(PI / 4.0 - x / 2.0), rel_tol=1e-13)
    p, _ = degree4_multipliers(0.8, PI / 2.0)
    assert math.isclose(pleat_multiplier(0.8), p.value, rel_tol=1e-13)


# --- trifold ------------------------------------------------------------------

def test_trifold_multiplier_at_equilateral():
    assert abs(trifold_multiplier(PI / 3.0) + (2.0 + SQRT3)) < 1e-12


def test_trifold_closes_across_betas_and_modes():
    for beta in (0.4, PI / 3.0, 1.0, 1.9):
        pat = trifold_pattern(beta)
        lim = trifold_drive_limit(beta)
        for mode in (1, 2):
            for d in np.linspace(-lim, lim, 25):
                rho = trifold_vector(*trifold(beta, mode, d))
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
                rho = bowtie_vector(d, bowtie(beta, mode, d))
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
            rho = opposites_vector(full["rho1"], full["rho2"], full["rho3"])
            assert closure_residual(pat, rho) < 1e-12


def test_opposites_flat_pair_leaves_third_free():
    sol = opposites_solve(0.9, 0.7, rho1=0.0, rho2=0.0)
    assert sol.free


def test_opposites_needs_exactly_two_angles():
    with pytest.raises(OutOfRangeError):
        opposites_solve(0.9, 0.7, rho1=0.5)
    with pytest.raises(OutOfRangeError):
        opposites_solve(0.9, 0.7, rho1=0.5, rho2=0.1, rho3=0.2)


# --- igloo --------------------------------------------------------------------

def test_igloo_completion_closes_on_a_grid():
    a, b = 1.0, 0.8
    pat = igloo_pattern(a, b)
    for r2 in np.linspace(-2.8, 2.8, 9):
        for r3 in np.linspace(-2.8, 2.8, 9):
            rho = igloo_vector(igloo_rho1(a, b, r2, r3), r2, r3, igloo_rho4(a, b, r2, r3))
            assert closure_residual(pat, rho) < 1e-12


def test_igloo_flat_input_returns_flat():
    assert igloo_rho1(1.0, 0.8, 0.0, 0.0) == 0.0
    assert igloo_rho4(1.0, 0.8, 1e-14, -1e-14) == 0.0


def test_igloo_1dof_closes_and_matches_completion():
    a, b = 1.0, 0.8
    pat = igloo_pattern(a, b)
    for mode in (1, 2):
        for d in np.linspace(-3.0, 3.0, 21):
            r1, r2, r3 = igloo_1dof(a, b, mode, d)
            rho = igloo_vector(r1, r2, r3, d)
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
    pat = two_pair_pattern()
    r2 = _on_curve_point(1.5, -2.356, -2.094)
    comps = two_pair_complete(1.5, r2)
    assert comps
    for r3, r4 in comps:
        assert closure_residual(pat, two_pair_vector(1.5, r2, r3, r4)) < 1e-8


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
        roots = [wrap_angle(phi + off), wrap_angle(phi - off)]
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
            res = closure_residual(G, two_pair_vector(rho1, rho2, rho3, rho4))
            if res < tol:
                found.append((res, rho3, rho4))
    kept = []
    for _, rho3, rho4 in sorted(found, key=lambda t: t[0]):
        if all(math.hypot(rho3 - a, rho4 - b) > 1e-6 for a, b in kept):
            kept.append((rho3, rho4))
    return kept, len(found)


@pytest.mark.parametrize("tol", [1e-8, 1e-2, 0.0])
def test_two_pair_solve_matches_the_one_candidate_loop(tol):
    """Same completions, order and reasons as checking one candidate at a time; the loose
    tolerance keeps near-duplicate candidates next to the node, which the dedupe must drop."""
    curve = [tuple(map(float, s.rho[:2]))
             for s in trace_implicit_curve(two_pair_curve_residual, (0.0, 0.0), step=0.05).samples[::3]]
    slopes = (4.0 + math.sqrt(15.0), 4.0 - math.sqrt(15.0), 1.0)  # the node's two branches, and off them
    node = [(r, m * r) for m in slopes for r in (1e-5, 1e-6, 3e-7, 1e-7)]
    corners = [(a, b) for a in (PI, -PI) for b in (PI, -PI)]
    drives = np.array(curve + node + corners + [(0.0, 0.0), (1.0, 0.0), (PI, 1.2309594173407747)])
    sol = two_pair_solve(drives[:, 0], drives[:, 1], tol)
    deduped = 0
    for k, (r1, r2) in enumerate(drives):
        want, found = _two_pair_complete_loop(r1, r2, tol)
        got = sol.vectors[sol.drive == k][:, 4:]
        if want is None:
            assert sol.reason[k] == OFF_CURVE
            continue
        assert sol.reason[k] == (SOLVED if want else NO_COMPLETION)
        assert len(got) == len(want)
        for (r3, r4), (w3, w4) in zip(got, want):
            assert fold_eq(r3, w3) and fold_eq(r4, w4)
        deduped += found > len(want)
    assert deduped or tol != 1e-2


# --- general and almost general -------------------------------------------------

def test_general_x_identity():
    """First coordinate of the folded third crease depends only on rho2."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        r1, r2 = rng.uniform(-PI, PI, 2)
        x = general_c3_image(r1, r2)[0]
        assert abs(x - (1.0 - 3.0 * math.cos(r2)) / 4.0) < 1e-12


def test_general_fold_branches_close():
    rng = np.random.default_rng(17)
    solved = 0
    while solved < 30:
        d = rng.uniform(-PI, PI, 3)
        try:
            sols = general_fold(*d)
        except NoSolutionError:
            continue
        for v in sols:
            assert closure_residual(G, v) < 1e-8
            assert np.allclose(v[3:], d, atol=1e-15)  # drives pass through
        solved += 1


def test_general_fold_no_branch_raises():
    assert general_rho2(2.197659, -0.666474, -0.12765) == []
    with pytest.raises(NoSolutionError):
        general_fold(2.197659, -0.666474, -0.12765)


def test_general_flat_drives_give_flat_state():
    sols = general_fold(0.0, 0.0, 0.0)
    assert len(sols) == 1
    assert np.allclose(sols[0], 0.0, atol=1e-12)


def test_almost_general_ties_first_two_creases():
    rng = np.random.default_rng(23)
    solved = 0
    while solved < 20:
        r4, r5 = rng.uniform(-PI, PI, 2)
        try:
            sols = almost_general(r4, r5)
        except NoSolutionError:
            continue
        for v in sols:
            assert v[0] == v[1]
            assert closure_residual(G, v) < 1e-8
        solved += 1


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
    assert np.allclose(states["r1"], trifold_vector(*trifold(PI / 3.0, 1, t)), atol=1e-12)
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
    with pytest.raises(OutOfRangeError):
        resch_fold(limit + 1e-3)


# --- mode descriptors ------------------------------------------------------------

def test_fold_mode_validation():
    FoldMode(FoldModel.TRIFOLD, 2, PI / 3.0, PI / 3.0)
    with pytest.raises(OutOfRangeError):
        FoldMode(FoldModel.TRIFOLD, 3, PI / 3.0, PI / 3.0)
    with pytest.raises(OutOfRangeError):
        FoldMode(FoldModel.TRIFOLD, 1, PI / 3.0, 2.5)  # beta outside (0, 2pi/3)


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
            if fam.domain is None and alpha != 60.0:
                continue
            for m in fam.modes:
                yield FoldMode(model, m, math.radians(alpha), math.radians(beta))


_CASE_IDS = lambda f: f"{f.model.value}-{f.mode}-{math.degrees(f.alpha):.0f}"


@pytest.mark.parametrize("mode", list(_batch_cases()), ids=_CASE_IDS)
def test_batched_solve_rows_equal_one_drive_calls(mode):
    """Row k of a batched solve is the one-drive call bit for bit, and each failed
    drive's reason code names the exception (type and message) that call raises."""
    fam = FAMILIES[mode.model]
    drives = _drive_corpus(mode.model, mode)
    sol = fam.solve(mode, drives, 1e-8)
    assert sol.reason.shape == (len(drives),)
    assert np.all(np.diff(sol.drive) >= 0)
    seen = set()
    for k, row in enumerate(drives):
        got = sol.vectors[sol.drive == k]
        try:
            want = fam.fold(mode, tuple(row), 1e-8)
        except RigidFoldError as err:
            code = int(sol.reason[k])
            assert code != SOLVED and len(got) == 0
            assert type(err) is REASON_ERRORS[code]
            with pytest.raises(type(err)) as again:
                fam.raise_first(mode, drives[k:k + 1], sol.reason[k:k + 1], 1e-8)
            assert str(again.value) == str(err)
            seen.add(code)
            continue
        assert sol.reason[k] == SOLVED
        want = np.array(want)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert OUT_OF_RANGE in seen  # the corpus reaches the failure paths
    if mode.model is FoldModel.IGLOO2DOF and mode.alpha == PI / 3.0:
        assert AMBIGUOUS in seen
    if mode.model is FoldModel.TWOPAIR:
        assert {OFF_CURVE, NO_COMPLETION} <= seen
    if mode.model in (FoldModel.FULLY_GENERAL, FoldModel.ALMOST_GENERAL):
        assert NO_SOLUTION in seen


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
    sol = fam.solve(mode, _drive_corpus(mode.model, mode), 1e-8)
    assert len(sol.vectors)
    sectors = fam.pattern(mode).sector_angles
    assert max(_own_residual(sectors, v) for v in sol.vectors) < 1e-8
