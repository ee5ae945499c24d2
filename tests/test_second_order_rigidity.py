"""First/second order closure conditions and the symmetric mode solver."""

import math

import numpy as np
import pytest
from census_oracle import census_solutions, decide

from rigidfold.core_geometry import CreasePattern, closure_residual, g60, rotation_products
from rigidfold.fold_models import FAMILIES, FoldMode, FoldModel
from rigidfold.second_order_rigidity import (
    ModeSolution,
    VelocityVector,
    _decide,
    first_order_matrix,
    ray_class_values,
    second_order_matrix,
    solve_modes,
    symmetric_mode_solve,
    symmetry_reduced_system,
)
from rigidfold.symmetry_enumeration import _restricted_growth, classify_g60, enumerate_patterns
from rigidfold.tolerances import CENSUS_ZERO

G = g60()

# frozen: second-order scalar of the velocity (1,2,1,2,1,2) on the
# equilateral pattern, cross-checked against sum_{i<j} v_i v_j sin(th_j-th_i)
# and against closure_residual(t*v)/t^2 -> A/sqrt(2)
A_12 = 11.258330249197702

TRIFOLD = (1, 2, 1, 2, 1, 2)
SQRT3 = math.sqrt(3.0)


def scalar_form(v):
    th = G.crease_angles
    return sum(v[i] * v[j] * math.sin(th[j] - th[i]) for i in range(6) for j in range(i + 1, 6))


def test_first_order_matrix_is_closure_derivative():
    """Central difference of the closure product reproduces the linear form."""
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(5):
        v = rng.normal(size=6)
        numeric = (rotation_products(G, h * v[None])[0] - rotation_products(G, -h * v[None])[0]) / (2.0 * h)
        assert np.allclose(numeric, first_order_matrix(G, v), atol=1e-8)


def test_alternating_velocities_are_first_order_flexes():
    # even and odd creases each sum to zero on the equilateral fan
    for a, b in [(1.0, 2.0), (3.0, -1.0), (0.5, 0.5)]:
        v = np.array([a, b] * 3)
        assert np.linalg.norm(first_order_matrix(G, v)) < 1e-13


def test_single_crease_velocity_is_not_a_flex():
    assert np.linalg.norm(first_order_matrix(G, [1, 0, 0, 0, 0, 0])) > 1.0


def test_second_order_matrix_collapses_to_scalar():
    M = second_order_matrix(G, np.array(TRIFOLD, dtype=float))
    expected = np.array([[0.0, -A_12, 0.0], [A_12, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(M, expected, atol=1e-12)
    assert math.isclose(scalar_form(TRIFOLD), A_12, rel_tol=1e-12)


def _reference_first_order(pattern, v):
    out = np.zeros((3, 3))
    for vi, (lx, ly, _) in zip(v, pattern.creases):
        out += vi * np.array([[0.0, 0.0, ly], [0.0, 0.0, -lx], [-ly, lx, 0.0]])
    return out


def _reference_second_order(pattern, v):
    cs = pattern.creases
    out = np.zeros((3, 3))
    for i in range(pattern.n):
        for j in range(pattern.n):
            a, b = min(i, j), max(i, j)
            out += v[i] * v[j] * np.array([
                [-cs[i][1] * cs[j][1], cs[a][1] * cs[b][0], 0.0],
                [cs[a][0] * cs[b][1], -cs[i][0] * cs[j][0], 0.0],
                [0.0, 0.0, -cs[i][0] * cs[j][0] - cs[i][1] * cs[j][1]],
            ])
    return out


def test_order_matrices_equal_the_per_crease_sums():
    """The closed-form sums equal the per-crease (pair) loops up to rounding."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(4, 9))
        sectors = rng.uniform(0.5, 1.5, n)
        pattern = CreasePattern.from_sectors(sectors / sectors.sum() * 2.0 * math.pi)
        v = rng.normal(size=n)
        for fast, slow in [(first_order_matrix, _reference_first_order),
                           (second_order_matrix, _reference_second_order)]:
            assert np.allclose(fast(pattern, v), slow(pattern, v), rtol=1e-12, atol=1e-12 * (v @ v))


def test_second_order_scalar_drives_quadratic_residual_growth():
    v = np.array(TRIFOLD, dtype=float)
    t = 1e-5
    assert math.isclose(closure_residual(G, t * v) / t**2, A_12 / math.sqrt(2.0), rel_tol=1e-6)


def test_reduced_system_shapes():
    L, Q, E = symmetry_reduced_system(G, (1, 2, 1, 2, 1, 2))
    assert L.shape == (2, 2)
    assert Q.shape == (2, 2)
    assert E.shape == (6, 2)
    assert np.allclose(Q, Q.T, atol=1e-15)
    # expanding class values through E must reproduce the scalar form
    x = np.array([1.0, 2.0])
    assert math.isclose(float(x @ Q @ x), scalar_form(E @ x), rel_tol=1e-12)


def test_trifold_rays():
    sol = symmetric_mode_solve(G, TRIFOLD)
    assert isinstance(sol, ModeSolution)
    assert sol.foldable
    ratios = sorted(ray_class_values(TRIFOLD, v)[1] for v in sol.velocities)
    assert math.isclose(ratios[0], -(2.0 + SQRT3), abs_tol=1e-9)
    assert math.isclose(ratios[1], -(2.0 - SQRT3), abs_tol=1e-9)


def test_rigid_pattern_has_no_rays():
    sol = symmetric_mode_solve(G, (1, 1, 2, 2, 3, 3))
    assert not sol.foldable
    assert sol.velocities == ()


def test_returned_rays_satisfy_both_order_conditions():
    for pat in [(1, 2, 1, 2, 1, 2), (1, 2, 3, 1, 2, 3), (1, 1, 2, 2, 3, 4), (1, 2, 3, 4, 5, 6)]:
        sol = symmetric_mode_solve(G, pat)
        assert sol.foldable
        for vv in sol.velocities:
            v = vv.as_array()
            assert np.linalg.norm(first_order_matrix(G, v)) < 1e-8
            assert abs(scalar_form(v)) < 1e-7
            # symmetry of the class assignment is respected
            vals = ray_class_values(pat, vv)
            assert np.allclose(v, [vals[c - 1] for c in pat], atol=1e-12)


def test_rays_give_at_least_cubic_residual_decay():
    """residual(t*v)/t^3 must stay bounded as t shrinks: no quadratic term
    survives on a ray.  Decay can be faster than cubic when the deviation
    from the true branch points along another flex, so the check is
    one-sided."""
    sol = symmetric_mode_solve(G, TRIFOLD)
    assert sol.velocities
    for vv in sol.velocities:
        v = vv.as_array()
        r2 = closure_residual(G, 1e-2 * v) / 1e-6
        r3 = closure_residual(G, 1e-3 * v) / 1e-9
        if closure_residual(G, 1e-2 * v) < 1e-13:  # exact line, nothing to bound
            continue
        assert r3 <= 2.0 * r2


def test_velocity_vector_round_trip():
    vv = VelocityVector((1.0, -0.25, 3.0, 0.0, 2.0, 1.0))
    assert np.array_equal(vv.as_array(), np.array([1.0, -0.25, 3.0, 0.0, 2.0, 1.0]))


def test_normalization_and_determinism():
    """First nonzero entry is +1 and repeated solves agree exactly."""
    a = symmetric_mode_solve(G, (1, 1, 2, 3, 4, 5))
    b = symmetric_mode_solve(G, (1, 1, 2, 3, 4, 5))
    assert a.foldable
    assert len(a.velocities) == len(b.velocities)
    for va, vb in zip(a.velocities, b.velocities):
        assert va.rho_dot == vb.rho_dot
        first = next(x for x in va.rho_dot if abs(x) > 1e-12)
        assert math.isclose(first, 1.0, abs_tol=1e-12)


# The seeded random cone sampler that the exact analysis replaced, kept as the
# reference: null eigenvectors and balanced mixes of the restricted form, plus
# 64 random cone points from default_rng(0), filtered by both order conditions.
def _reference_harvest(pattern, coloring):
    L, Q, E = symmetry_reduced_system(pattern, coloring)
    _, sv, vt = np.linalg.svd(L)
    N = vt[int(np.sum(sv > 1e-12)):].T
    m = N.shape[1]
    points = []
    if m > 0:
        Qn = N.T @ Q @ N
        lam, W = np.linalg.eigh(Qn)
        pos = [i for i in range(m) if lam[i] > 1e-12]
        neg = [i for i in range(m) if lam[i] < -1e-12]
        points += [W[:, i] for i in range(m) if abs(lam[i]) <= 1e-12]
        for i in pos:
            for j in neg:
                a, b = np.sqrt(-lam[j]), np.sqrt(lam[i])
                points += [a * W[:, i] + b * W[:, j], a * W[:, i] - b * W[:, j]]
        if pos and neg:
            rng = np.random.default_rng(0)
            P, Ng = W[:, pos], W[:, neg]
            for _ in range(64):
                x = rng.standard_normal(m)
                xp, xn = P @ (P.T @ x), Ng @ (Ng.T @ x)
                qp, qn = float(xp @ Qn @ xp), -float(xn @ Qn @ xn)
                if qp > 1e-12 and qn > 1e-12:
                    points.append(xp / np.sqrt(qp) + xn / np.sqrt(qn))
    rays = []
    for w in points:
        x = N @ w
        if np.max(np.abs(L @ x)) <= 1e-9 and abs(x @ Q @ x) <= 1e-9:
            v = E @ x
            rays.append(x / v[np.flatnonzero(np.abs(v) > 1e-12)[0]])
    return L, Q, rays


def _distinct(vals):
    return all(abs(vals[p] - vals[q]) > 1e-9 for p in range(len(vals)) for q in range(p + 1, len(vals)))


def _reference_census(pattern, coloring):
    """(foldable with distinct classes, DOF) as the census read the harvest."""
    L, Q, rays = _reference_harvest(pattern, coloring)
    dofs = [L.shape[1] - np.linalg.matrix_rank(np.vstack([L, 2.0 * (Q @ x)[None, :]]), tol=1e-9)
            for x in rays if _distinct(x)]
    return bool(dofs), min(dofs, default=None)


def test_exact_census_matches_the_seeded_harvest():
    for k in range(1, 7):
        for pat in enumerate_patterns(k):
            sol = symmetric_mode_solve(G, pat)
            assert ((sol.witness is not None), sol.dof) == _reference_census(G, pat), str(pat)


OFF_60 = [(50, 70, 60, 60, 60, 60), (40, 80, 50, 70, 55, 65), (30, 90, 45, 75, 100, 20)]


@pytest.mark.parametrize("sectors_deg", OFF_60)
def test_foldable_matches_the_seeded_harvest_off_60_degrees(sectors_deg):
    pattern = CreasePattern.from_sectors(np.radians(sectors_deg))
    for coloring in _restricted_growth(6):  # every coloring, one per set partition
        sol = symmetric_mode_solve(pattern, coloring)
        _, _, rays = _reference_harvest(pattern, coloring)
        assert sol.foldable == bool(rays), coloring
        assert (sol.witness is not None) == any(_distinct(x) for x in rays), coloring


def _merged_pairs(coloring, v):
    vals = ray_class_values(coloring, v)
    return {(p, q) for p in range(len(vals)) for q in range(p + 1, len(vals)) if abs(vals[p] - vals[q]) <= 1e-9}


def test_rank_2_cones_are_decided_line_by_line():
    """A rank-2 indefinite form on a plane null(L) makes the cone two lines.

    On the 60-degree vertex both lines of 112113 set classes 2 and 3 equal
    (L already forces it), so 112113 is not in the census.  With sectors
    50, 70, 60, 60, 60, 60 the two lines of 123123 merge different pairs:
    L forces no merge, yet no ray is exact.  There 112134 has one exact line,
    and its witness lies on it."""
    sol = symmetric_mode_solve(G, (1, 1, 2, 1, 1, 3))
    assert sol.foldable and len(sol.velocities) == 2
    assert [_merged_pairs((1, 1, 2, 1, 1, 3), v) for v in sol.velocities] == [{(1, 2)}, {(1, 2)}]
    assert sol.witness is None and sol.dof is None
    census = {str(p) for row in classify_g60() for p, _, _ in row.foldable_patterns}
    assert "112113" not in census and "111232" in census

    skew = CreasePattern.from_sectors(np.radians([50, 70, 60, 60, 60, 60]))
    sol = symmetric_mode_solve(skew, (1, 2, 3, 1, 2, 3))
    assert sorted(map(sorted, (_merged_pairs((1, 2, 3, 1, 2, 3), v) for v in sol.velocities))) == [
        [(0, 1)], [(1, 2)]]
    assert sol.witness is None
    sol = symmetric_mode_solve(skew, (1, 1, 2, 1, 3, 4))
    assert len(sol.velocities) == 2 and sol.dof == 1
    assert sorted(len(_merged_pairs((1, 1, 2, 1, 3, 4), v)) for v in sol.velocities) == [0, 2]
    assert not _merged_pairs((1, 1, 2, 1, 3, 4), sol.witness)


def test_every_census_ray_satisfies_both_order_conditions():
    for k in range(1, 7):
        for pat in enumerate_patterns(k):
            sol = symmetric_mode_solve(G, pat)
            again = symmetric_mode_solve(G, pat)
            assert sol == again  # deterministic, bit for bit
            for vv in sol.velocities:
                v = vv.as_array()
                assert np.linalg.norm(first_order_matrix(G, v)) < 1e-8, str(pat)
                assert abs(scalar_form(v)) < 1e-7, str(pat)
            if sol.witness is not None:
                assert sol.witness in sol.velocities
                assert _distinct(ray_class_values(pat, sol.witness))


@pytest.mark.parametrize("sectors_deg", [None, *OFF_60])
def test_batched_solve_equals_the_one_row_solves(sectors_deg):
    """Every coloring, stacked by class count and grouped by rank, comes back in
    its own place, equal to its one-row solve; no row slices out its cone or
    builds rays until read, and reading one row builds no other."""
    pattern = G if sectors_deg is None else CreasePattern.from_sectors(np.radians(sectors_deg))
    colorings = list(_restricted_growth(6))
    batched = solve_modes(pattern, colorings)
    lazy = ("_cone", "_witness_point", "witness", "velocities")
    assert not any(name in vars(sol) for sol in batched for name in lazy)
    assert [sol.color_pattern for sol in batched] == colorings
    assert batched[-1].witness is not None and "_cone" in vars(batched[-1])
    assert not any(name in vars(sol) for sol in batched[:-1] for name in lazy)
    assert batched == [symmetric_mode_solve(pattern, c) for c in colorings]
    ranks = [np.linalg.matrix_rank(symmetry_reduced_system(pattern, c)[0], tol=1e-12) for c in colorings]
    assert len({(max(c), r) for c, r in zip(colorings, ranks)}) >= 7  # 10 (k, rank) groups on g60
    assert solve_modes(pattern, []) == []


def test_padded_solve_equals_the_per_group_solve():
    """The one padded pass gives every coloring the solution of the per-(k, rank)
    solve it replaced (``census_oracle``): the same DOF, witness and every ray, on
    g60, off 60 degrees, on 100 seeded random six-crease fans and on seeded 4-, 5-
    and 8-crease fans, which pad to n != 6."""
    rng = np.random.default_rng(26)
    patterns = [G, *(CreasePattern.from_sectors(np.radians(s)) for s in OFF_60),
                *(CreasePattern.from_sectors(s / s.sum() * 2.0 * math.pi) for s in rng.uniform(0.5, 1.5, (100, 6)))]
    patterns += [CreasePattern.from_sectors(s / s.sum() * 2.0 * math.pi)
                 for n, count in ((4, 5), (5, 5), (8, 1)) for s in rng.uniform(0.5, 1.5, (count, n))]
    foldable = rays = 0
    for pattern in patterns:
        colorings = list(_restricted_growth(pattern.n))
        solutions = solve_modes(pattern, colorings)
        assert solutions == census_solutions(pattern, colorings)
        foldable += sum(sol.dof is not None for sol in solutions)
        rays += sum(len(sol.velocities) for sol in solutions)
    assert foldable > 1000 and rays > foldable


def test_stacked_decision_gives_the_per_row_dof_on_coarse_eigenpairs():
    """Eigenpairs drawn from a few small values, so that classes coincide and every
    case is hit, rank 2 with null columns too: the padded decision of all rows at
    once equals the per-row one."""
    rng = np.random.default_rng(5)
    K, B = 5, 3000
    ks, ms = rng.integers(1, K + 1, B), rng.integers(0, K + 1, B)
    ms = np.minimum(ms, ks)
    lam, V = np.full((B, K), np.nan), np.zeros((B, K, K))
    expected = []
    for b, (k, m) in enumerate(zip(ks.tolist(), ms.tolist())):
        lam[b, :m] = np.sort(rng.choice([-2.0, -1.0, 0.0, 0.0, 1.0, 4.0], m))
        V[b, :k, :m] = rng.choice([-1.0, 0.0, 0.5, 1.0], (k, m))
        expected.append(decide(lam[b, :m], V[b, :k, :m]))
    got = _decide(lam, V, ks)
    assert [None if dof < 0 else dof for dof in got] == expected
    assert len(set(expected)) == K + 1


def test_mixed_width_solve_equals_the_one_row_solves():
    """Rows of one, two, three and nine classes share one decision, padded to nine;
    each comes back equal to its own one-row solve, where nothing is padded."""
    pattern = CreasePattern.from_sectors(np.full(9, 2.0 * math.pi / 9))
    colorings = [tuple(range(1, 10)), (1,) * 9, (1, 2) * 4 + (1,), (1, 2, 3) * 3, (1, 1, 2, 2, 3, 3, 1, 2, 3),
                 (1, 2, 2, 1, 3, 3, 1, 2, 3)]
    order = np.random.default_rng(9).permutation(len(colorings))
    colorings = [colorings[i] for i in order]
    batched = solve_modes(pattern, colorings)
    assert [sol.color_pattern for sol in batched] == colorings
    assert batched == [symmetric_mode_solve(pattern, c) for c in colorings]
    assert {max(c): sol.dof for c, sol in zip(colorings, batched)}[9] == 6


def _ray_dof(L: np.ndarray, Q: np.ndarray, x: np.ndarray) -> int:
    """Class count minus the rank of L stacked with the quadratic gradient at x."""
    J = np.vstack([L, 2.0 * (Q @ x)[None, :]])
    return int(L.shape[1] - np.linalg.matrix_rank(J, tol=CENSUS_ZERO))


def test_dof_is_the_jacobian_rank_deficiency_at_the_witness():
    """The solve reads the DOF off the inertia of Qn: dim null(L), less one where
    Qn is indefinite.  It equals the rank deficiency of [L; 2 (Q x)^T] at the
    witness x, on g60 and on 100 seeded random six-crease fans."""
    rng = np.random.default_rng(19)
    patterns = [G] + [CreasePattern.from_sectors(s / s.sum() * 2.0 * math.pi) for s in rng.uniform(0.5, 1.5, (100, 6))]
    colorings = list(_restricted_growth(6))
    checked = 0
    for pattern in patterns:
        for coloring, sol in zip(colorings, solve_modes(pattern, colorings)):
            if sol.dof is None:
                continue
            L, Q, _ = symmetry_reduced_system(pattern, coloring)
            assert sol.dof == _ray_dof(L, Q, ray_class_values(coloring, sol.witness)), coloring
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize("n", range(5, 13))
def test_all_distinct_coloring_of_an_equal_sector_vertex_has_the_generic_dof(n):
    """n creases, n classes: L has rank 2 and the cone spans null(L), so the
    witness ray has n - 3 degrees of freedom (the null space is wider than six
    columns from n = 9 on)."""
    pattern = CreasePattern.from_sectors(np.full(n, 2.0 * math.pi / n))
    sol = symmetric_mode_solve(pattern, range(n))
    assert sol.witness is not None and sol.dof == n - 3
    assert _distinct(ray_class_values(range(n), sol.witness))
    assert sol.witness in sol.velocities


def _census_cases():
    """Every family and mode at 60/60 degrees, and at 50/70 where its sectors may vary."""
    for alpha, beta in ((60.0, 60.0), (50.0, 70.0)):
        for model, fam in FAMILIES.items():
            if fam.sectors(FoldMode(model)) is not None or alpha == 60.0:
                yield from (FoldMode(model, m, math.radians(alpha), math.radians(beta)) for m in fam.modes)


def _case_id(f: FoldMode) -> str:
    return f"{f.model.value}-{f.mode}-{math.degrees(f.alpha):.0f}-{math.degrees(f.beta):.0f}"


@pytest.mark.parametrize("mode", list(_census_cases()), ids=_case_id)
def test_each_family_coloring_folds_with_the_family_dof(mode):
    """The family's coloring folds on the family's pattern, with one DOF per free
    drive; a drive pair on a relation curve has one free drive.  The 1-DOF igloo is
    a sub-mode of the 2-DOF igloo's coloring, so the census gives it at least its
    one drive.  Degree-4 has no coloring (its row is signed), so its coloring is
    read off one solved vector: the first-occurrence labels of its equal entries."""
    fam = FAMILIES[mode.model]
    coloring = fam.coloring
    if coloring is None:
        labels: dict = {}
        vector = fam.solve(mode, np.array([[0.7]])).vectors[0]
        coloring = tuple(labels.setdefault(x, len(labels) + 1) for x in vector.tolist())
    sol = symmetric_mode_solve(mode.pattern, coloring)
    free = len(fam.drives) - (fam.curve is not None)
    assert sol.foldable, coloring
    if mode.model is FoldModel.IGLOO1DOF:
        assert sol.dof >= free, coloring
    else:
        assert sol.dof == free, coloring
