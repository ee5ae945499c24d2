"""Sweeps, implicit-curve tracing, admissible masks, and exporters."""

import json
import math
import time

import numpy as np
import pytest

from rigidfold.config_space import (
    AdmissibleRegion,
    ConfigSample,
    CurveTrace,
    SurfaceGrid,
    _correct,
    admissible_region,
    export,
    load_samples_json,
    make_sample,
    make_samples,
    samples_to_csv,
    samples_to_obj,
    sweep_model,
    trace_implicit_curve,
)
from rigidfold.core_geometry import folded_geometry, g60, self_intersections
from rigidfold.errors import NoSolutionError, NotClosedError, OutOfRangeError
from rigidfold.fold_models import (
    FAMILIES,
    FoldMode,
    FoldModel,
    general_fold,
    two_pair_complete,
    two_pair_curve_residual,
    two_pair_pattern,
    two_pair_vector,
)
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
            if fam.domain is None and alpha != 60.0:
                continue
            for m in fam.modes:
                yield FoldMode(model, m, math.radians(alpha), math.radians(beta))


@pytest.mark.parametrize("mode", list(_family_modes()),
                         ids=lambda f: f"{f.model.value}-{f.mode}-{math.degrees(f.alpha):.0f}-{math.degrees(f.beta):.0f}")
def test_sweep_verdicts_match_the_triangle_oracle(mode):
    """The batched cone-crossing test decides each closing sweep state as triangle clipping does."""
    fam = FAMILIES[mode.model]
    pattern = fam.pattern(mode)
    result = sweep_model(mode, 8 if len(fam.drives) == 2 else 80)  # grids are n by n
    closing = [s for s in result.samples if s.residual < 1e-8]
    assert closing
    states = [folded_geometry(pattern, s.rho, tol=1e-8) for s in closing]
    want = [triangle_self_intersects(pattern, st) for st in states]
    assert self_intersections(pattern, np.stack([st.crease_images for st in states])).tolist() == want
    assert [s.valid for s in closing] == [not w for w in want]


def test_two_pair_red_state_intersects():
    """Criterion 5's red state closes, and some completion of it self-intersects."""
    seed, _ = _correct(two_pair_curve_residual, np.array([-1.7999, -2.0473]), 1e-10)
    pattern = two_pair_pattern()
    states = [folded_geometry(pattern, two_pair_vector(seed[0], seed[1], r3, r4), tol=1e-8)
              for r3, r4 in two_pair_complete(float(seed[0]), float(seed[1]), tol=1e-8)]
    verdicts = self_intersections(pattern, np.stack([st.crease_images for st in states]))
    assert verdicts.tolist() == [triangle_self_intersects(pattern, st) for st in states]
    assert verdicts.any()


def test_make_samples_rows_equal_make_sample_bit_for_bit():
    rng = np.random.default_rng(3)
    closing = [s.rho for s in sweep_model(FoldMode(FoldModel.FULLY_GENERAL), 60).samples]
    rows = np.concatenate([closing, rng.uniform(-PI, PI, (20, 6)), [[PI, PI, 0.0, PI, PI, 0.0]], [np.zeros(6)]])
    branches = list(range(len(rows)))
    batch = make_samples(G, rows, branches)
    assert any(s.valid for s in batch) and any(s.residual < 1e-8 and not s.valid for s in batch)
    for row, branch, got in zip(rows, branches, batch):
        want = make_sample(G, row, branch)
        assert np.array_equal(got.rho, want.rho)
        assert (got.residual, got.valid, got.branch) == (want.residual, want.valid, want.branch)
    assert make_samples(G, [], []) == []


def test_long_sweep_is_fast():
    start = time.perf_counter()
    trace = sweep_model(FoldMode(FoldModel.TRIFOLD, 1, PI / 3.0, PI / 3.0), 1000)
    assert time.perf_counter() - start < 0.5
    assert len(trace.samples) == 1000


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
    got = sweep_model(FoldMode(FoldModel.FULLY_GENERAL), n).samples
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
        assert len(sweep_model(FoldMode(model, 1, PI / 3.0, PI / 3.0), n).samples) >= 1000
    assert time.perf_counter() - start < 0.6


@pytest.mark.parametrize(
    "model,mode,n,kind",
    [
        (FoldModel.DEGREE4, 1, 15, CurveTrace),
        (FoldModel.DEGREE4, 2, 15, CurveTrace),
        (FoldModel.TRIFOLD, 1, 25, CurveTrace),
        (FoldModel.BOWTIE, 2, 15, CurveTrace),
        (FoldModel.IGLOO1DOF, 1, 15, CurveTrace),
        (FoldModel.OPPOSITES, 1, 6, SurfaceGrid),
        (FoldModel.IGLOO2DOF, 1, 6, SurfaceGrid),
        (FoldModel.TWOPAIR, 1, 30, CurveTrace),
        (FoldModel.FULLY_GENERAL, 1, 20, CurveTrace),
        (FoldModel.ALMOST_GENERAL, 1, 6, SurfaceGrid),
    ],
)
def test_sweeps_close(model, mode, n, kind):
    result = sweep_model(FoldMode(model, mode, PI / 3.0, PI / 3.0), n)
    assert isinstance(result, kind)
    assert result.samples
    assert max(s.residual for s in result.samples) < 1e-8


def test_sweep_sample_counts():
    trace = sweep_model(FoldMode(FoldModel.TRIFOLD, 1, PI / 3.0, PI / 3.0), 40)
    assert len(trace.samples) == 40
    grid = sweep_model(FoldMode(FoldModel.OPPOSITES, 1, 0.9, 0.8), 5)
    assert len(grid.samples) == 25


def test_two_pair_sweep_reports_closure():
    trace = sweep_model(FoldMode(FoldModel.TWOPAIR), 20)
    assert trace.closed


def test_sweep_needs_two_points():
    with pytest.raises(OutOfRangeError):
        sweep_model(FoldMode(FoldModel.TRIFOLD), 1)


# --- tracing -------------------------------------------------------------------

def test_trace_unit_circle():
    trace = trace_implicit_curve(lambda x, y: x * x + y * y - 1.0, (1.0, 0.0))
    assert trace.closed
    assert 300 < len(trace.samples) < 330  # circumference / step
    for s in trace.samples:
        assert abs(math.hypot(*s.rho) - 1.0) < 1e-6


def test_trace_exhausts_budget_on_open_curves():
    trace = trace_implicit_curve(lambda x, y: y, (0.0, 0.0), max_steps=50)
    assert not trace.closed
    assert trace.note == "step budget exhausted"
    assert len(trace.samples) == 51


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


def test_admissible_region_default_grid_is_fast():
    start = time.perf_counter()
    region = admissible_region(0.8, grid_n=201)
    assert time.perf_counter() - start < 5.0
    assert region.mask.shape == (201, 201) and region.mask.any()


# --- export ----------------------------------------------------------------------

def _samples():
    sweep = sweep_model(FoldMode(FoldModel.TRIFOLD, 1, PI / 3.0, PI / 3.0), 8)
    return sweep.samples


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
    samples = _samples() + [ConfigSample(np.ones(6), residual=1.0, valid=False)]
    report = export(samples, "obj", str(tmp_path / "mixed.obj"))
    assert report.skipped == 1
    assert report.written == 8


def _obj_one_sample_at_a_time(flat, pattern, tol=1e-8):
    """The obj text built with one folded_geometry call per sample."""
    lines, skipped, offset = [], 0, 0
    for m, s in enumerate(flat):
        if not s.valid or s.residual >= tol:
            skipped += 1
            continue
        try:
            state = folded_geometry(pattern, s.rho, tol=max(tol, s.residual * 2 + 1e-300))
        except NotClosedError:
            skipped += 1
            continue
        lines += [f"o sample_{m:04d}", "v 0 0 0"]
        lines += ["v " + " ".join(f"{float(c):.12g}" for c in tip) for tip in state.crease_images]
        k = pattern.n
        lines += [f"f {offset + 1} {offset + 2 + i} {offset + 2 + (i + 1) % k}" for i in range(k)]
        offset += pattern.n + 1
    return "\n".join(lines) + "\n", skipped


def test_obj_export_equals_folding_one_sample_at_a_time():
    """One folded_frames call for all samples writes the bytes of one call per sample,
    skipping invalid samples and samples that close only on another pattern."""
    general = sweep_model(FoldMode(FoldModel.FULLY_GENERAL), 200).samples
    other = sweep_model(FoldMode(FoldModel.IGLOO2DOF, 1, 1.0, 0.8), 6).samples  # closes on its own pattern
    flat = general + other + [ConfigSample(np.ones(6), residual=1.0, valid=False)]
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
