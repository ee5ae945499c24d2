"""Sweeps, implicit-curve tracing, admissible masks, and exporters."""

import csv
import functools
import inspect
import io
import json
import math
import os
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sample_oracle
from cone_oracle import cone_self_intersections
from general_oracle import general_solve_full_closure
from rigidfold import config_space, core_geometry, fold_models
from rigidfold.config_space import (
    AdmissibleRegion,
    ConfigSample,
    Samples,
    _central_gradient,
    _correct,
    admissible_region,
    as_samples,
    export,
    load_samples_json,
    make_sample,
    make_samples,
    render,
    samples_to_csv,
    samples_to_json,
    samples_to_obj,
    sweep_model,
    trace_implicit_curve,
    write_text,
)
from rigidfold.core_geometry import (
    closure_residual,
    closure_residuals,
    crease_images,
    folded_frames,
    folded_geometry,
    g60,
    rotation_products,
    self_intersections,
)
from rigidfold.errors import NoSolutionError, NotClosedError, OutOfRangeError
from rigidfold.fold_models import (
    FAMILIES,
    FoldMode,
    FoldModel,
    general_fold,
    two_pair_complete,
    two_pair_curve_gradient,
    two_pair_curve_residual,
)
from rigidfold.tolerances import ROUNDOFF
from triangle_oracle import triangle_self_intersects

PI = math.pi
G = g60()


def test_make_sample_flat():
    s = make_sample(G, np.zeros(6))
    assert s.residual < 1e-14
    assert s.valid
    assert s.branch == 0


def test_make_sample_open_chain_is_invalid():
    s = make_sample(G, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert not s.valid
    assert s.residual > 0.1


def _family_modes():
    """Every family and mode at (60, 60), (55, 65) and (70, 50) degrees where its sectors may vary."""
    for alpha, beta in ((60.0, 60.0), (55.0, 65.0), (70.0, 50.0)):
        for model, fam in FAMILIES.items():
            if fam.sectors(FoldMode(model)) is None and alpha != 60.0:
                continue
            for m in fam.modes:
                yield FoldMode(model, m, math.radians(alpha), math.radians(beta))


@pytest.mark.parametrize("mode", list(_family_modes()),
                         ids=lambda f: f"{f.model.value}-{f.mode}-{math.degrees(f.alpha):.0f}-{math.degrees(f.beta):.0f}")
def test_sweep_verdicts_match_the_triangle_oracle(mode):
    """The batched cone-crossing test decides each closing sweep state as triangle clipping does."""
    fam = FAMILIES[mode.model]
    pattern = mode.pattern
    result = sweep_model(mode, 8 if len(fam.drives) == 2 else 80)  # grids are n by n
    closing = [s for s in result if s.residual < 1e-8]
    assert closing
    states = [folded_geometry(pattern, s.rho) for s in closing]
    want = [triangle_self_intersects(pattern, st) for st in states]
    assert self_intersections(pattern, np.stack([st.crease_images for st in states])).tolist() == want
    assert [s.valid for s in closing] == [not w for w in want]


@pytest.mark.parametrize("model, n", [
    (FoldModel.DEGREE4, 1000), (FoldModel.TRIFOLD, 1000), (FoldModel.BOWTIE, 1000), (FoldModel.IGLOO1DOF, 1000),
    (FoldModel.OPPOSITES, 32), (FoldModel.IGLOO2DOF, 32), (FoldModel.TWOPAIR, 1000), (FoldModel.FULLY_GENERAL, 1000),
    (FoldModel.ALMOST_GENERAL, 32),
], ids=lambda x: getattr(x, "value", x))
def test_criterion_3_sweep_verdicts_match_the_cone_oracle(model, n):
    """Every state of the acceptance sweeps (60-degree sectors) gets the oracle's verdict."""
    mode = FoldMode(model, 1, PI / 3.0, PI / 3.0)
    pattern = mode.pattern
    samples = sweep_model(mode, n)
    residuals, frames = folded_frames(pattern, np.array([s.rho for s in samples]))
    assert residuals.max() < 1e-8
    want = cone_self_intersections(pattern, crease_images(pattern, frames))
    assert np.array_equal(self_intersections(pattern, crease_images(pattern, frames)), want)
    assert [s.valid for s in samples] == (~want).tolist()


def test_two_pair_red_state_intersects():
    """Criterion 5's red state closes, and some completion of it self-intersects."""
    seed, _ = _correct(two_pair_curve_residual, np.array([-1.7999, -2.0473]), 1e-10,
                       functools.partial(_central_gradient, two_pair_curve_residual))
    pattern = g60()
    fam = FAMILIES[FoldModel.TWOPAIR]
    states = [folded_geometry(pattern, fam.vector(seed[0], seed[1], r3, r4))
              for r3, r4 in two_pair_complete(float(seed[0]), float(seed[1]))]
    verdicts = self_intersections(pattern, np.stack([st.crease_images for st in states]))
    assert verdicts.tolist() == [triangle_self_intersects(pattern, st) for st in states]
    assert verdicts.any()


def test_make_samples_rows_equal_make_sample_bit_for_bit():
    rng = np.random.default_rng(3)
    closing = [s.rho for s in sweep_model(FoldMode(FoldModel.FULLY_GENERAL), 60)]
    rows = np.concatenate([closing, rng.uniform(-PI, PI, (20, 6)), [[PI, PI, 0.0, PI, PI, 0.0]], [np.zeros(6)]])
    branches = list(range(len(rows)))
    batch = make_samples(G, rows, branches)
    assert any(s.valid for s in batch) and any(s.residual < 1e-8 and not s.valid for s in batch)
    for row, branch, got in zip(rows, branches, batch):
        want = make_sample(G, row, branch)
        assert np.array_equal(got.rho, want.rho)
        assert (got.residual, got.valid, got.branch) == (want.residual, want.valid, want.branch)
    assert make_samples(G, [], []) == []


def test_rows_are_equal_when_their_json_is():
    """A row compares as the record does, by its json text, so ``==`` and ``in`` decide."""
    flat, other = make_sample(G, np.zeros(6)), make_sample(G, np.zeros(6))
    assert flat == other and flat in [other] and not flat != other
    assert flat != make_sample(G, np.zeros(6), branch=1) and flat != make_sample(G, np.full(6, 0.1))
    assert flat not in [make_sample(G, np.full(6, 0.1))]
    one = make_samples(G, [np.zeros(6)], [0])
    assert flat == one and one == flat and flat == [other] and flat != make_samples(G, [np.zeros(6)] * 2, [0, 0])
    assert flat != "row" and flat != 0


@pytest.mark.parametrize("key", [[False, True, True], [True, False, False], slice(1, None), slice(0, 0),
                                 np.array([2, 0]), [-1], np.array([False, False, True])], ids=repr)
def test_selecting_rows_equals_rebuilding_the_record_from_them(key):
    """Rows of a mixed 6/4-angle record, selected by any non-integer index, are the record the
    selected ``ConfigSample`` rows rebuild: angle columns cut to the widest selected row."""
    mixed = as_samples([make_sample(G, np.zeros(6), 1),
                        ConfigSample(np.array([0.1, -0.0, 0.3, 5e-324]), 2.0, False, "b"),
                        ConfigSample(np.array([np.inf, 0.5, 0.0, 1.0]), 0.0, True, 3)])
    got = mixed[key]
    want = as_samples([mixed[i] for i in np.arange(3)[key].tolist()])
    assert got.rho.shape == want.rho.shape and got.width.tolist() == want.width.tolist()
    assert got.rho[~np.isnan(want.rho)].tobytes() == want.rho[~np.isnan(want.rho)].tobytes()
    assert samples_to_csv(got) == samples_to_csv(want)
    assert samples_to_json(got) == samples_to_json(want)


def test_long_sweep_is_fast():
    start = time.perf_counter()
    samples = sweep_model(FoldMode(FoldModel.TRIFOLD, 1, PI / 3.0, PI / 3.0), 1000)
    assert time.perf_counter() - start < 0.5
    assert len(samples) == 1000


@pytest.mark.parametrize("n", [16, 1000])
def test_general_sweep_equals_one_triple_at_a_time(n):
    """The block draws keep the rows of a sampler drawing one triple at a time,
    with its budget of 40 n triples and its cut at n vectors."""
    rng = np.random.default_rng(0)
    vectors, branches = [], []
    for _ in range(40 * n):
        if len(vectors) >= n:
            break
        try:
            sols = general_fold(*rng.uniform(-PI, PI, 3))
        except NoSolutionError:
            continue
        vectors += sols
        branches += range(1, len(sols) + 1)
    got = sweep_model(FoldMode(FoldModel.FULLY_GENERAL), n)
    assert len(got) == n
    assert np.array(vectors[:n]).tobytes() == np.array([s.rho for s in got]).tobytes()
    assert branches[:n] == [s.branch for s in got]


def test_criterion_3_plan_is_fast():
    """Every family sweep of criterion 3 is one batched solve and one make_samples call."""
    plan = [(FoldModel.DEGREE4, 1000), (FoldModel.TRIFOLD, 1000), (FoldModel.BOWTIE, 1000),
            (FoldModel.IGLOO1DOF, 1000), (FoldModel.OPPOSITES, 32), (FoldModel.IGLOO2DOF, 32),
            (FoldModel.TWOPAIR, 1000), (FoldModel.FULLY_GENERAL, 1000), (FoldModel.ALMOST_GENERAL, 32)]
    start = time.perf_counter()
    for model, n in plan:
        assert len(sweep_model(FoldMode(model, 1, PI / 3.0, PI / 3.0), n)) >= 1000
    assert time.perf_counter() - start < 0.6


@pytest.mark.parametrize(
    "model,mode,n",
    [
        (FoldModel.DEGREE4, 1, 15),
        (FoldModel.DEGREE4, 2, 15),
        (FoldModel.TRIFOLD, 1, 25),
        (FoldModel.BOWTIE, 2, 15),
        (FoldModel.IGLOO1DOF, 1, 15),
        (FoldModel.OPPOSITES, 1, 6),
        (FoldModel.IGLOO2DOF, 1, 6),
        (FoldModel.TWOPAIR, 1, 30),
        (FoldModel.FULLY_GENERAL, 1, 20),
        (FoldModel.ALMOST_GENERAL, 1, 6),
    ],
)
def test_sweeps_close(model, mode, n):
    result = sweep_model(FoldMode(model, mode, PI / 3.0, PI / 3.0), n)
    assert isinstance(result, Samples)
    assert len(result)
    assert max(s.residual for s in result) < 1e-8


def test_sweep_sample_counts():
    curve = sweep_model(FoldMode(FoldModel.TRIFOLD, 1, PI / 3.0, PI / 3.0), 40)
    assert len(curve) == 40
    grid = sweep_model(FoldMode(FoldModel.OPPOSITES, 1, 0.9, 0.8), 5)
    assert len(grid) == 25


@pytest.fixture(scope="module")
def walked_loop():
    """The step-0.02 walk around the two-pair figure-eight: the oracle for the sampled loop."""
    trace = trace_implicit_curve(two_pair_curve_residual, (0.0, 0.0), step=0.02, gradient=two_pair_curve_gradient)
    assert trace.closed
    return np.array([s.rho for s in trace.samples])


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.hypot(*(a[:, None, :] - b[None, :, :]).transpose(2, 0, 1))


def _gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each row of ``a`` to its nearest row of ``b``."""
    return _distances(a, b).min(axis=1)


@pytest.mark.parametrize("n", [2, 16, 1000])
def test_two_pair_sweep_samples_distinct_states_of_the_walked_loop(n, walked_loop):
    rows = np.array([s.rho[[0, 2]] for s in sweep_model(FoldMode(FoldModel.TWOPAIR), n)])  # (rho1, rho2)
    assert len(rows) == n
    assert rows[0].tolist() == [0.0, 0.0] and not np.signbit(rows[0]).any()
    pairs = _distances(rows, rows)
    np.fill_diagonal(pairs, np.inf)
    length = np.hypot(*np.diff(walked_loop, axis=0).T).sum()
    assert pairs.min() >= 0.25 * length / n  # pairwise distinct, and no near-copies either
    assert np.abs(two_pair_curve_residual(rows[:, 0], rows[:, 1])).max() <= 1e-10
    assert _gaps(rows, walked_loop).max() <= 0.03
    if n == 1000:
        assert _gaps(walked_loop, rows).max() <= 0.03


def test_sweep_needs_two_points():
    with pytest.raises(OutOfRangeError):
        sweep_model(FoldMode(FoldModel.TRIFOLD), 1)


@pytest.mark.parametrize("mode", [FoldMode(model, m) for model, fam in FAMILIES.items() for m in fam.modes],
                         ids=lambda f: f"{f.model.value}-{f.mode}")
def test_sweep_tol_moves_no_solved_row(monkeypatch, mode):
    """Every solve closes below the solves' ``DEFAULT_TOL``, so the bound that judges a sweep's samples
    changes its valid flags and nothing else: the same rows, bit for bit, with the same residuals and branch tags."""
    n = 8 if len(FAMILIES[mode.model].drives) == 2 and FAMILIES[mode.model].loop is None else 40
    base = sweep_model(mode, n)
    assert len(base)
    for tol in (1e-15, 1e-12, 1e-8, 1e-4, 1e-2):  # 1e-15 is below many rows' residuals: a solve at it drops them
        monkeypatch.setattr(config_space, "DEFAULT_TOL", tol)
        got = sweep_model(mode, n)
        assert got.rho.tobytes() == base.rho.tobytes() and got.residual.tobytes() == base.residual.tobytes()
        assert got.branch == base.branch
        assert not (got.valid & ~(got.residual < tol)).any()  # the moved bound judges the flags


def test_no_solve_takes_a_tolerance():
    """Solves and sample reports close at ``DEFAULT_TOL`` alone: none of them takes a ``tol``."""
    fam = FAMILIES[FoldModel.TRIFOLD]
    solves = [fam.rows, fam.fold, fold_models.two_pair_solve, two_pair_complete, fold_models.general_solve,
              general_fold, fold_models.almost_general, admissible_region]
    solves += [make_samples, make_sample, sweep_model, render, export, samples_to_obj]
    solves += [f.solve for f in FAMILIES.values()]
    solves += [folded_geometry, folded_frames, closure_residual, closure_residuals]
    assert [f for f in solves if "tol" in inspect.signature(f).parameters] == []


def test_folded_geometry_reads_the_closure_bound_when_called(monkeypatch):
    """A vector just off closure is refused by ``folded_geometry`` where ``make_sample`` reads it as invalid."""
    monkeypatch.setattr(core_geometry, "DEFAULT_TOL", 1e-12)
    monkeypatch.setattr(config_space, "DEFAULT_TOL", 1e-12)
    v = general_fold(0.3, 0.5, 0.7)[0]
    v[5] += 1e-10  # rho6
    assert not make_sample(G, v).valid
    with pytest.raises(NotClosedError):
        folded_geometry(G, v)


# --- tracing -------------------------------------------------------------------

def test_trace_unit_circle():
    trace = trace_implicit_curve(lambda x, y: x * x + y * y - 1.0, (1.0, 0.0))
    assert trace.closed
    assert 300 < len(trace.samples) < 330  # circumference / step
    for s in trace.samples:
        assert abs(math.hypot(*s.rho) - 1.0) < 1e-6


def test_trace_exhausts_budget_on_open_curves(monkeypatch):
    monkeypatch.setattr(config_space, "_TRACE_BUDGET", 50)
    trace = trace_implicit_curve(lambda x, y: y, (0.0, 0.0))
    assert not trace.closed
    assert trace.note == "step budget exhausted"
    assert len(trace.samples) == 51


def test_trace_stops_at_an_isolated_zero():
    trace = trace_implicit_curve(lambda x, y: x * x + y * y, (0.0, 0.0))
    assert trace.closed
    assert trace.note == "isolated zero"
    assert len(trace.samples) == 1
    assert trace.samples[0].rho.tolist() == [0.0, 0.0] and trace.samples[0].valid


def test_trace_rejects_off_curve_seed():
    with pytest.raises(OutOfRangeError):
        trace_implicit_curve(lambda x, y: x * x + y * y - 1.0, (0.5, 0.0))


def test_trace_two_pair_figure_eight():
    """One walk from the origin covers both loops, crossing the node twice."""
    trace = trace_implicit_curve(two_pair_curve_residual, (0.0, 0.0))
    assert trace.closed
    assert len(trace.samples) > 400
    near_origin = [i for i, s in enumerate(trace.samples) if np.linalg.norm(s.rho) < 0.03]
    interior = [i for i in near_origin if 20 < i < len(trace.samples) - 20]
    assert interior, "trace never re-crossed the node"
    for s in trace.samples:
        assert abs(two_pair_curve_residual(*s.rho)) < 1e-8


def _reference_trace(fn, seed, step, tol=1e-8, max_steps=20000):
    """The numpy-vector walker with central differences and a one-point-at-a-time
    node scan, kept as the reference for the float walker."""

    def grad(x, y, h=1e-6):
        return np.array([(fn(x + h, y) - fn(x - h, y)) / (2.0 * h), (fn(x, y + h) - fn(x, y - h)) / (2.0 * h)])

    def correct(q):
        for _ in range(25):
            f = fn(q[0], q[1])
            if abs(f) <= 1e-12:
                return q, f
            g = grad(q[0], q[1])
            g2 = float(g @ g)
            if g2 < 1e-12:
                return q, f
            q = q - f * g / g2
        f = fn(q[0], q[1])
        return q, f if abs(f) <= tol else None

    p0 = np.array(seed, dtype=float)
    g0 = grad(*p0)
    if float(np.hypot(*g0)) < 1e-6:
        thetas = np.linspace(-PI, PI, 721)
        vals = [fn(p0[0] + step * math.cos(t), p0[1] + step * math.sin(t)) for t in thetas]
        i = next(i for i in range(720) if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0)
        a, b = abs(vals[i]), abs(vals[i + 1])
        t = thetas[i] + (thetas[i + 1] - thetas[i]) * a / (a + b)
        tangent = np.array([math.cos(t), math.sin(t)])
    else:
        tangent = np.array([g0[1], -g0[0]]) / np.linalg.norm(g0)
    start, points, p = tangent.copy(), [p0], p0
    for i in range(max_steps):
        q, f = correct(p + step * tangent)
        if f is None:
            return points, False, f"corrector diverged at step {i}"
        move = q - p
        if float(np.linalg.norm(move)) < 1e-12:
            return points, False, f"stalled at step {i}"
        g = grad(q[0], q[1])
        if float(np.hypot(*g)) < 1e-6:
            tangent = move / np.linalg.norm(move)
        else:
            tangent = np.array([g[1], -g[0]]) / float(np.hypot(*g))
            if float(tangent @ move) < 0.0:
                tangent = -tangent
        points.append(q)
        p = q
        if i > 4 and float(np.linalg.norm(p - p0)) < 0.75 * step and float(tangent @ start) > 0.7:
            return points, True, ""
    return points, False, "step budget exhausted"


@pytest.mark.parametrize("step", [0.02, 0.05, 0.2])
@pytest.mark.parametrize("gradient", [two_pair_curve_gradient, None], ids=["analytic", "central"])
def test_float_walker_matches_the_vector_walker(step, gradient):
    points, closed, note = _reference_trace(two_pair_curve_residual, (0.0, 0.0), step)
    trace = trace_implicit_curve(two_pair_curve_residual, (0.0, 0.0), step, gradient=gradient)
    assert (len(trace.samples), trace.closed, trace.note) == (len(points), closed, note)
    assert closed
    assert np.abs(np.array([s.rho for s in trace.samples]) - np.array(points)).max() < 1e-9


# --- admissible region -----------------------------------------------------------

def test_admissible_region_shape_and_origin():
    region = admissible_region(0.4, grid_n=21)
    assert isinstance(region, AdmissibleRegion)
    assert region.mask.shape == (21, 21)
    assert region.mask.dtype == bool
    assert region.mask.any()
    assert region.mask[10, 10]  # (rho4, rho5) = (0, 0) stays reachable


def test_admissible_region_point_reflection():
    plus = admissible_region(0.4, grid_n=15)
    minus = admissible_region(-0.4, grid_n=15)
    assert np.array_equal(minus.mask, plus.mask[::-1, ::-1])


def test_admissible_region_needs_grid():
    with pytest.raises(OutOfRangeError):
        admissible_region(0.0, grid_n=1)


def _rodrigues_residual(rho):
    """Closure residual on the 60-degree vertex, from its own rotation product."""
    acc = np.eye(3)
    for k, a in enumerate(rho):
        t = k * PI / 3.0
        u = np.array([math.cos(t), math.sin(t), 0.0])
        K = np.array([[0.0, 0.0, u[1]], [0.0, 0.0, -u[0]], [-u[1], u[0], 0.0]])
        acc = acc @ (math.cos(a) * np.eye(3) + math.sin(a) * K + (1.0 - math.cos(a)) * np.outer(u, u))
    return float(np.linalg.norm(acc - np.eye(3)))


@pytest.mark.parametrize("rho6", [0.0, 0.4, 0.8])
def test_admissible_region_is_where_general_fold_solves(rho6):
    """A cell is admissible exactly when the scalar solve returns there; at
    rho6 = 0 this includes cells with |cos rho2| just above 1."""
    region = admissible_region(rho6, grid_n=41)
    axis = region.rho4_axis
    solved = np.zeros_like(region.mask)
    for i, r4 in enumerate(axis):
        for j, r5 in enumerate(axis):
            try:
                sols = general_fold(float(r4), float(r5), rho6)
            except NoSolutionError:
                continue
            solved[i, j] = True
            assert max(_rodrigues_residual(v) for v in sols) < 1e-8
    assert np.array_equal(region.mask, solved)


@pytest.mark.parametrize("rho6", [*np.linspace(-PI, PI, 21).tolist(), 0.4, 0.8])
def test_admissible_region_is_where_the_full_closure_solve_keeps_a_row(rho6):
    """The separable back chain and the three-crease closure check decide every cell as the solve with
    a per-cell product and the six-crease residual does."""
    for n in (21, 201):
        axis = np.linspace(-PI, PI, n)
        r4, r5 = np.meshgrid(axis, axis, indexing="ij")
        solved = np.zeros(n * n, dtype=bool)
        solved[general_solve_full_closure(r4.ravel(), r5.ravel(), rho6).drive] = True
        assert np.array_equal(admissible_region(rho6, grid_n=n).mask, solved.reshape(n, n))


@pytest.mark.parametrize("rho6, n", [(r, 41) for r in np.unique([*np.linspace(-PI, PI, 9), 0.0, 0.8])]
                         + [(0.8, 201), (PI, 201)])
def test_admissible_region_is_the_bare_back_chain_existence_test(rho6, n):
    """A cell is admissible exactly where a branch exists on its back chain B = R6^T R5^T R4^T:
    cos rho2 = (1 - 4 c1.B c3)/3 is at most 1 + ROUNDOFF, so c1.B c3 >= -1/2 - 3/4 ROUNDOFF, and B c3
    is at least ROUNDOFF off the first crease's axis.  At the default tol no existing branch fails closure.
    Dropping the 3/4 ROUNDOFF slack changes 114 cells of the ten n = 41 slices, dropping the axis guard 178."""
    c1, _, c3 = G.creases[:3]
    assert c1.tolist() == [1.0, 0.0, 0.0]  # so c1.B c3 is the x entry of B c3 and its (y, z) entries leave the axis
    region = admissible_region(rho6, grid_n=n)
    r4, r5 = (a.ravel() for a in np.meshgrid(region.rho4_axis, region.rho5_axis, indexing="ij"))
    back = rotation_products(G, -np.stack([np.full_like(r4, rho6), r5, r4], axis=1), creases=(5, 4, 3)) @ c3
    exists = (back[:, 0] >= -0.5 - 0.75 * ROUNDOFF) & (np.hypot(back[:, 1], back[:, 2]) >= ROUNDOFF)
    assert np.array_equal(region.mask.ravel(), exists)


def test_admissible_region_tol_governs_the_mask(monkeypatch):
    """Every cell's closure is checked against ``DEFAULT_TOL``: none passes 0, and at 1e-15, near roundoff,
    about 600 of the 29,477 default cells fail (28,854 here; the full-closure solve keeps 28,760)."""
    full = admissible_region(0.8, grid_n=201).mask
    monkeypatch.setattr(fold_models, "DEFAULT_TOL", 1e-15)
    tight = admissible_region(0.8, grid_n=201).mask
    assert full.sum() == 29477 and not (tight & ~full).any() and 28000 < tight.sum() < 29000
    monkeypatch.setattr(fold_models, "DEFAULT_TOL", 0.0)
    assert not admissible_region(0.8, grid_n=21).mask.any()


def test_admissible_region_default_grid_is_fast():
    start = time.perf_counter()
    region = admissible_region(0.8, grid_n=201)
    assert time.perf_counter() - start < 5.0
    assert region.mask.shape == (201, 201) and region.mask.any()


# --- export ----------------------------------------------------------------------

def _samples():
    return sweep_model(FoldMode(FoldModel.TRIFOLD, 1, PI / 3.0, PI / 3.0), 8)


def test_csv_export(tmp_path):
    path = tmp_path / "sweep.csv"
    report = export(_samples(), "csv", str(path))
    assert report.written == 8 and report.skipped == 0
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "rho1,rho2,rho3,rho4,rho5,rho6,residual,valid,branch"
    assert len(lines) == 9
    cells = lines[1].split(",")
    assert cells[-2] in ("true", "false")
    assert len(cells) == 9


def test_export_over_a_longer_file_leaves_only_the_new_text(tmp_path):
    """An output file is written over its old bytes, not cut to zero first, and then cut to the new length."""
    path = tmp_path / "sweep.csv"
    path.write_text("x" * 100_000)
    export(_samples(), "csv", str(path))
    assert path.read_bytes() == samples_to_csv(_samples()).encode()
    export(_samples()[:2], "csv", str(path))
    assert path.read_bytes() == samples_to_csv(_samples()[:2]).encode()
    write_text(os.devnull, "a device takes the text and is not cut\n")


def test_json_export_round_trips_bit_exactly(tmp_path):
    path = tmp_path / "sweep.json"
    samples = _samples()
    export(samples, "json", str(path))
    loaded = load_samples_json(str(path))
    assert len(loaded) == len(samples)
    for a, b in zip(samples, loaded):
        assert np.array_equal(a.rho, b.rho)
        assert a.residual == b.residual
        assert a.valid == b.valid
        assert a.branch == b.branch


def test_obj_export_writes_fans(tmp_path):
    path = tmp_path / "sweep.obj"
    samples = _samples()
    report = export(samples, "obj", str(path), pattern=None)
    text = path.read_text()
    objects = [ln for ln in text.splitlines() if ln.startswith("o ")]
    verts = [ln for ln in text.splitlines() if ln.startswith("v ")]
    faces = [ln for ln in text.splitlines() if ln.startswith("f ")]
    assert len(objects) == report.written
    assert len(verts) == report.written * 7  # apex + six tips
    assert len(faces) == report.written * 6


def test_obj_export_skips_invalid_samples(tmp_path):
    samples = [*_samples(), ConfigSample(np.ones(6), residual=1.0, valid=False)]
    report = export(samples, "obj", str(tmp_path / "mixed.obj"))
    assert report.skipped == 1
    assert report.written == 8


def _obj_one_sample_at_a_time(flat, pattern, tol=1e-8):
    """The obj text built with one folded_frames call per sample."""
    lines, skipped, offset = [], 0, 0
    for m, s in enumerate(flat):
        if not s.valid or s.residual >= tol:
            skipped += 1
            continue
        residuals, frames = folded_frames(pattern, np.asarray(s.rho, dtype=float)[None])
        if residuals[0] > max(tol, s.residual * 2):
            skipped += 1
            continue
        lines += [f"o sample_{m:04d}", "v 0 0 0"]
        lines += ["v " + " ".join(f"{float(c):.12g}" for c in tip) for tip in crease_images(pattern, frames)[0]]
        k = pattern.n
        lines += [f"f {offset + 1} {offset + 2 + i} {offset + 2 + (i + 1) % k}" for i in range(k)]
        offset += pattern.n + 1
    return "\n".join(lines) + "\n", skipped


def test_obj_export_equals_folding_one_sample_at_a_time():
    """One folded_frames call for all samples writes the bytes of one call per sample,
    skipping invalid samples and samples that close only on another pattern."""
    general = sweep_model(FoldMode(FoldModel.FULLY_GENERAL), 200)
    other = sweep_model(FoldMode(FoldModel.IGLOO2DOF, 1, 1.0, 0.8), 6)  # closes on its own pattern
    flat = [*general, *other, ConfigSample(np.ones(6), residual=1.0, valid=False)]
    assert any(not s.valid for s in general)
    text, skipped = samples_to_obj(flat, None)
    assert (text, skipped) == _obj_one_sample_at_a_time(flat, G)
    assert skipped >= len(other)
    with pytest.raises(OutOfRangeError):
        samples_to_obj(flat + [ConfigSample(np.zeros(4), residual=0.0, valid=True)], None)


def test_export_rejects_unknown_format_and_empty_input(tmp_path):
    with pytest.raises(OutOfRangeError):
        export(_samples(), "stl", str(tmp_path / "x.stl"))
    with pytest.raises(OutOfRangeError):
        export([], "csv", str(tmp_path / "x.csv"))


def test_csv_uses_twelve_significant_digits():
    s = [ConfigSample(np.array([1.0 / 3.0, 0.0]), residual=1e-15, valid=True)]
    text = samples_to_csv(s)
    assert "0.333333333333" in text


# --- reference writers -------------------------------------------------------------
# The per-float formatters the block templates replaced, kept as the byte-level
# reference: json through json.dumps(indent=1), csv and obj one f"{x:.12g}" per float.

def _reference_csv(flat):
    """Each row's cells through ``csv.writer``, which quotes a cell as RFC 4180 asks."""
    width = max(len(s.rho) for s in flat)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"rho{i + 1}" for i in range(width)] + ["residual", "valid", "branch"])
    for s in flat:
        angles = [f"{float(x):.12g}" for x in s.rho] + [""] * (width - len(s.rho))
        writer.writerow(angles + [f"{s.residual:.12g}", "true" if s.valid else "false", str(s.branch)])
    return out.getvalue()


def _reference_json(flat):
    objs = []
    for s in flat:
        rec = {f"rho{i + 1}": float(x) for i, x in enumerate(s.rho)}
        rec["residual"] = float(s.residual)
        rec["valid"] = bool(s.valid)
        rec["branch"] = s.branch if isinstance(s.branch, str) else int(s.branch)
        objs.append(rec)
    return json.dumps(objs, indent=1) + "\n"


def _reference_obj(flat, pattern, tol=1e-8):
    kept = [m for m, s in enumerate(flat) if s.valid and not s.residual >= tol]
    lines, written = [], 0
    if kept:
        rows = np.array([flat[m].rho for m in kept])  # folded_frames wraps them
        residuals, frames = folded_frames(pattern, rows)
        for m, residual, tips in zip(kept, residuals, crease_images(pattern, frames)):
            if residual > max(tol, flat[m].residual * 2):
                continue
            offset = written * (pattern.n + 1)
            lines += [f"o sample_{m:04d}", "v 0 0 0"]
            lines += ["v " + " ".join(f"{float(c):.12g}" for c in tip) for tip in tips]
            lines += [f"f {offset + 1} {offset + 2 + i} {offset + 2 + (i + 1) % pattern.n}"
                      for i in range(pattern.n)]
            written += 1
    return "\n".join(lines) + "\n", len(flat) - written


def _reference_corpus():
    """(samples, pattern) groups: every family's sweeps, a 600-sample general mix, edge values."""
    groups = []
    for model in FoldModel:
        fam = FAMILIES[model]
        for alpha, beta in [(60.0, 60.0)] if fam.sectors(FoldMode(model)) is None else [(60.0, 60.0), (55.0, 65.0)]:
            for m in fam.modes:
                mode = FoldMode(model, m, math.radians(alpha), math.radians(beta))
                groups.append((sweep_model(mode, 5), mode.pattern))
    general = sweep_model(FoldMode(FoldModel.FULLY_GENERAL), 600)
    assert len(general) == 600 and 0 < sum(s.valid for s in general) < 600
    groups.append((general, G))
    nan, inf = math.nan, math.inf
    edge = [
        ConfigSample(np.array([nan, 0.1, -0.0, 1e22, 5e-324, -inf]), 0, True, 'quote " and \\ back'),
        ConfigSample(np.array([inf, -0.0, 1.0 / 3.0, 2.0, -1.5, 1e-300]), nan, True, "ñandú 日本"),
        ConfigSample(np.zeros(6), -0.0, True, 3),
        ConfigSample(np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]), inf, False, 0),
        ConfigSample(np.array([1e300, -1e300, 123456789012345.0, 0.5, 0.25, 0.0]), 1e-20, True, "x"),
    ]
    groups.append((edge, G))
    groups.append((edge + [ConfigSample(np.array([0.1, -0.0, nan, 5e-324]), 2, False, "four")], None))
    groups.append(([s for s in general if not s.valid][:5], G))  # every obj sample skipped
    return groups


def _finite(s: ConfigSample) -> bool:
    return bool(np.isfinite(s.rho).all()) and math.isfinite(s.residual)


def test_loader_keeps_a_valid_record_whose_angle_sum_overflows(tmp_path):
    path = tmp_path / "big.json"
    path.write_text('[{"rho1": 1e308, "rho2": 1e308, "residual": 0.0, "valid": true, "branch": 1}]\n')
    (s,) = load_samples_json(str(path))
    assert s.valid and s.rho.tolist() == [1e308, 1e308]


def test_writers_match_the_reference_formatters(tmp_path):
    """The template writers write the per-float writers' bytes; json load-and-write is bit-exact.

    The loader refuses a record flagged valid with a non-finite angle or
    residual; flagged invalid, the same record round-trips bit-exactly."""
    for k, (flat, pattern) in enumerate(_reference_corpus()):
        assert samples_to_csv(flat) == _reference_csv(flat), k
        text = samples_to_json(flat)
        assert text == _reference_json(flat), k
        path = tmp_path / f"group{k}.json"
        path.write_text(text)
        if all(_finite(s) or not s.valid for s in flat):
            assert samples_to_json(load_samples_json(str(path))) == text, k
        else:
            with pytest.raises(OutOfRangeError, match="flagged valid but has an angle or residual"):
                load_samples_json(str(path))
            invalid = [ConfigSample(s.rho, s.residual, s.valid and _finite(s), s.branch) for s in flat]
            path.write_text(samples_to_json(invalid))
            assert samples_to_json(load_samples_json(str(path))) == path.read_text(), k
        if pattern is not None:
            with np.errstate(invalid="ignore"):  # re-folding an infinite angle wraps it to NaN
                obj = samples_to_obj(flat, pattern)
                assert obj == _reference_obj(flat, pattern), k
            if all(not s.valid for s in flat):
                assert obj == ("\n", len(flat))


def test_writers_refuse_a_branch_the_loader_refuses():
    """A bool branch is neither written as 1 (json) nor as True (csv); int and str branches are
    written as the reference formatters write them."""
    for write in (samples_to_json, samples_to_csv):
        with pytest.raises(OutOfRangeError, match="sample 0 has branch True; a branch must be an integer or a string"):
            write(make_samples(G, [[0.0] * 6], [True]))
    tagged = make_samples(G, [[0.0] * 6] * 4, [0, 7, -2, "r1"])
    assert samples_to_json(tagged) == _reference_json(tagged)
    assert samples_to_csv(tagged) == _reference_csv(tagged)
    assert '"branch": 7' in samples_to_json(tagged) and samples_to_csv(tagged).endswith("0,0,0,0,0,0,0,true,r1\n")
    numpy_mode = sweep_model(FoldMode(FoldModel.TRIFOLD, np.int64(2)), 3)  # FoldMode stores int(mode)
    assert samples_to_json(numpy_mode) == samples_to_json(sweep_model(FoldMode(FoldModel.TRIFOLD, 2), 3))


@pytest.mark.parametrize("tag", [True, np.bool_(False), np.int64(2), 1.0, None])
def test_a_record_refuses_a_branch_the_loader_refuses(tag):
    """``make_samples``, ``as_samples`` and the constructor refuse a tag that is not an int or a str, so
    a record's equality, which compares json text, never meets a tag its writer refuses."""
    message = re.escape(f"sample 1 has branch {tag!r}; a branch must be an integer or a string")
    rows = [make_sample(G, [0.0] * 6), ConfigSample(np.zeros(6), 0.0, True, tag)]
    builds = (lambda: make_samples(G, [[0.0] * 6] * 2, [0, tag]), lambda: as_samples(rows),
              lambda: Samples(np.zeros((2, 6)), np.zeros(2), np.ones(2, dtype=bool), ["a", tag]))
    for build in builds:
        with pytest.raises(OutOfRangeError, match=message):
            build()
    tagged = make_samples(G, [[0.0] * 6] * 3, [0, -7, "r"])
    assert tagged == tagged and tagged[1:] == [tagged[1], tagged[2]] and tagged[0] in list(tagged)


# --- columnar loader against the record-by-record oracle ----------------------------

_KEY_FAULT = "angle keys must be rho1..rhoN"
_FLAG_FAULT = "needs a true/false valid and an integer or string branch"


def _load(loader, path, records):
    """What ``loader`` makes of a file of ``records``: its samples, or the text of its OutOfRangeError."""
    path.write_text(json.dumps(records, indent=1) + "\n")  # as the json export writes them
    try:
        return loader(str(path))
    except OutOfRangeError as e:
        return str(e)


def _newly_rejected(rec, path) -> str:
    """The fault the columnar loader reports in a record the oracle passes through: a true/false
    branch, or angle keys other than rho1..rhoN; '' when the two loaders agree on the record."""
    if not isinstance(rec, dict) or any(k not in rec for k in ("residual", "valid", "branch")):
        return ""
    try:
        angles = sorted((k for k in rec if k.startswith("rho")), key=lambda k: int(k[3:]))
    except ValueError:
        return ""
    if angles and angles != [f"rho{i + 1}" for i in range(len(angles))]:
        return _KEY_FAULT
    numbers = not isinstance(_load(sample_oracle.load_samples_json, path, [{**rec, "valid": False, "branch": 0}]), str)
    return _FLAG_FAULT if numbers and type(rec["valid"]) is bool and type(rec["branch"]) is bool else ""


def _expected(records, path):
    """The oracle's result, except that the first record it passes but the columnar loader refuses
    ends the file with that record's fault."""
    for j, rec in enumerate(records):
        fault = _newly_rejected(rec, path)
        if fault:
            before = _load(sample_oracle.load_samples_json, path, records[:j])
            return before if isinstance(before, str) else f"{path}: record {j} {fault}"
    return _load(sample_oracle.load_samples_json, path, records)


_MUTATIONS = ["drop a key", "string angle", "null angle", "nested angle", "bool angle", "int angle", "int residual",
              "list branch", "bool branch", "int valid", "non-finite", "renumber", "reorder", "not an object"]
_ANGLE_VALUES = {"string angle": st.sampled_from(["0.5", ""]), "null angle": st.none(),
                 "nested angle": st.just([0.1, 0.2]), "bool angle": st.booleans(),
                 "int angle": st.one_of(st.integers(-3, 3),  # numpy keeps ints in the int64 or uint64 range numbers
                                        st.sampled_from([2**63, 2**64 - 1, 2**64, -2**63, -2**63 - 1, 10**20]))}


@st.composite
def _records(draw):
    """A sample record of 6, 4 or 1 angles with up to two of the mutations above."""
    width = draw(st.sampled_from([6, 6, 6, 4, 1]))
    rec = {f"rho{i + 1}": draw(st.floats(-4.0, 4.0)) for i in range(width)}
    rec.update(residual=draw(st.floats(0.0, 1e-6)), valid=draw(st.booleans()),
               branch=draw(st.one_of(st.integers(-2, 3), st.text(max_size=2))))
    for mutation in draw(st.lists(st.sampled_from(_MUTATIONS), max_size=2)) if draw(st.integers(0, 2)) == 0 else []:
        angles = [k for k in rec if k.startswith("rho")] or ["rho1"]
        angle = draw(st.sampled_from(angles))
        if mutation == "drop a key":
            del rec[draw(st.sampled_from(list(rec)))]
        elif mutation in _ANGLE_VALUES:
            rec[angle] = draw(_ANGLE_VALUES[mutation])
        elif mutation == "int residual":
            rec["residual"] = draw(st.one_of(st.integers(-10, 10), st.just(10**30)))
        elif mutation in ("list branch", "bool branch"):
            rec["branch"] = [1] if mutation == "list branch" else draw(st.booleans())
        elif mutation == "int valid":
            rec["valid"] = draw(st.sampled_from([0, 1, None]))
        elif mutation == "non-finite":
            rec[draw(st.sampled_from([angle, "residual"]))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        elif mutation == "renumber" and angle in rec:
            rec[draw(st.sampled_from([f"rho0{angle[3:]}", "rho9", f"rho {angle[3:]}", "rhox"]))] = rec.pop(angle)
        elif mutation == "reorder":
            rec = dict(reversed(rec.items()))
        elif mutation == "not an object":
            return draw(st.sampled_from([5, "x", [0.1], None]))
    return rec


@settings(max_examples=200, deadline=None)
@given(st.lists(_records(), max_size=8))
def test_columnar_loader_matches_the_record_oracle(tmp_path_factory, records):
    """Same files accepted, same rows loaded, same message and record index for the rest,
    apart from the two records only the columnar loader refuses."""
    path = tmp_path_factory.getbasetemp() / "records.json"
    got, want = _load(load_samples_json, path, records), _expected(records, path)
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, Samples) and len(got) == len(want)
    for a, b in zip(got, want):
        assert a.rho.tobytes() == b.rho.astype(float).tobytes()
        assert np.float64(a.residual).tobytes() == np.float64(b.residual).tobytes()
        assert (a.valid, a.branch, type(a.branch)) == (b.valid, b.branch, type(b.branch))
    assert samples_to_json(got) == samples_to_json(want)


_EDGE = {"rho1": 0.5, "rho2": -0.5, "residual": 0.0, "valid": True, "branch": 1}


@pytest.mark.parametrize("rec", [
    {**_EDGE, "rho2": "x", "valid": 1},  # not a number comes before the flags
    {**_EDGE, "residual": None, "branch": [1]},
    {**_EDGE, "rho1": math.nan, "valid": "yes"},  # the flags come before finiteness
    {**_EDGE, "residual": math.nan},
    {**_EDGE, "rho1": 2**64 - 1, "rho2": -2**63},  # numbers: numpy keeps them in a float64 row
    {**_EDGE, "rho1": 2**64},
    {**_EDGE, "rho2": -2**63 - 1},
    {**_EDGE, "rho1": 10**20, "rho2": 0.5},
    {**_EDGE, "rho1": True, "residual": False},
    {**_EDGE, "residual": 10**30},
    {"rho2": 0.1, "rho1": 0.2, "branch": "b", "valid": False, "residual": 1},
], ids=lambda rec: json.dumps(rec))
def test_columnar_loader_matches_the_record_oracle_on_edge_records(tmp_path, rec):
    path = tmp_path / "edge.json"
    want = _load(sample_oracle.load_samples_json, path, [_EDGE, rec])
    got = _load(load_samples_json, path, [_EDGE, rec])
    assert got == want if isinstance(want, str) else samples_to_json(got) == samples_to_json(want)


def test_loader_refuses_what_the_record_oracle_renumbered_or_read_as_an_integer(tmp_path):
    """The two files the record-by-record loader read but could not write back unchanged."""
    base = {"rho1": 0.1, "rho2": 0.2, "residual": 0.0, "valid": False, "branch": 0}
    flags = {"residual": 0.0, "valid": False, "branch": 0}
    for rec, fault in (({**base, "branch": True}, _FLAG_FAULT),
                       ({"rho1": 0.1, "rho01": 0.2, **flags}, _KEY_FAULT),
                       ({"rho1": 0.1, "rho3": 0.2, **flags}, _KEY_FAULT)):
        path = tmp_path / "one.json"
        loaded = _load(sample_oracle.load_samples_json, path, [base, rec])
        assert not isinstance(loaded, str)  # the oracle reads the record ...
        if rec["branch"] is True:  # ... and the writers refuse its bool branch, as the loader does
            with pytest.raises(OutOfRangeError, match="sample 1 has branch True"):
                samples_to_json(loaded)
        else:  # ... and does not write the file back as it was
            assert samples_to_json(loaded) != path.read_text()
        assert _load(load_samples_json, path, [base, rec]) == f"{path}: record 1 {fault}"


def test_loader_refuses_a_residual_integer_beyond_the_float_range(tmp_path):
    """The oracle read it, and every writer then failed converting it to a float."""
    path = tmp_path / "big.json"
    rec = {"rho1": 0.1, "residual": 10**400, "valid": False, "branch": 0}
    with pytest.raises(OverflowError):
        samples_to_json(_load(sample_oracle.load_samples_json, path, [rec]))
    assert _load(load_samples_json, path, [rec]) == f"{path}: record 0 has an angle or residual that is not a number"
