"""Configuration-space sampling, implicit-curve tracing, masks and export.

Samples are angle vectors tagged with their loop-closure defect and a
validity verdict (closes and does not self-intersect).  One-parameter
families are swept over their reachable drive interval, two-parameter
families over a grid; the two-pair relation curve is traced with a
predictor-corrector walker that can march straight through the node where
its two loops cross.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core_geometry import (
    CreasePattern,
    check_fold_angle,
    crease_images,
    folded_frames,
    folded_geometry,
    g60,
    self_intersections,
)
from .errors import (
    BranchAmbiguityError,
    NoSolutionError,
    NotClosedError,
    OutOfRangeError,
)
from .fold_models import FAMILIES, FoldMode, general_solve

DEFAULT_TOL = 1e-8
_TRACE_STEP = 0.02
_NODE_GRAD_TOL = 1e-6

PI = math.pi


@dataclass
class ConfigSample:
    """One sampled folded state: angles, closure defect, validity, branch tag."""

    rho: np.ndarray
    residual: float
    valid: bool
    branch: int | str = 0


@dataclass
class CurveTrace:
    samples: list[ConfigSample] = field(default_factory=list)
    closed: bool = False
    note: str = ""


@dataclass
class SurfaceGrid:
    drive1: np.ndarray
    drive2: np.ndarray
    samples: list[ConfigSample] = field(default_factory=list)


@dataclass
class AdmissibleRegion:
    rho6: float
    rho4_axis: np.ndarray
    rho5_axis: np.ndarray
    mask: np.ndarray  # boolean, mask[i, j] at (rho4_axis[i], rho5_axis[j])


@dataclass(frozen=True)
class ExportReport:
    written: int
    skipped: int


def make_samples(pattern: CreasePattern, rows, branches, tol: float = DEFAULT_TOL) -> list[ConfigSample]:
    """Evaluate closure and the self-intersection test for each row of an (N, n) angle array.

    One kernel call gives every row's residual and frames; the rows that
    close below ``tol`` are then tested for self-intersection in one pass.
    ``branches`` tags the rows in order.
    """
    if len(rows) == 0:
        return []
    rho = np.asarray(rows, dtype=float)
    residuals, frames = folded_frames(pattern, rho)
    closed = residuals < tol
    valid = np.zeros(len(rho), dtype=bool)
    valid[closed] = ~self_intersections(pattern, crease_images(pattern, frames[closed]))
    return [ConfigSample(rho=r, residual=float(res), valid=bool(v), branch=b)
            for r, res, v, b in zip(rho, residuals, valid, branches, strict=True)]


def make_sample(pattern: CreasePattern, rho, branch=0, tol: float = DEFAULT_TOL) -> ConfigSample:
    """Evaluate closure and the self-intersection test for one angle vector."""
    return make_samples(pattern, np.asarray(rho, dtype=float)[None], [branch], tol)[0]


# ---------------------------------------------------------------------------
# sweeping

def sweep_model(mode: FoldMode, n: int, tol: float = DEFAULT_TOL) -> CurveTrace | SurfaceGrid:
    """Sample a family: n points over the drive interval, or an n-by-n grid.

    The family's drive count picks the sampler: one drive is swept over its
    reachable interval, a drive pair on a relation curve is resampled from
    a trace of that curve, any other pair over a grid, and a drive triple
    is drawn at random from a fixed seed.  One-parameter families return a
    CurveTrace ordered by drive value; two-parameter families return a
    SurfaceGrid.  Drives where the family has no closing solution are
    skipped rather than reported as invalid samples, so a returned sample
    always corresponds to a solve.  The solved vectors are evaluated
    together by one ``make_samples`` call.
    """
    if n < 2:
        raise OutOfRangeError(f"need at least 2 samples, got {n}")
    fam = FAMILIES[mode.model]
    pattern = fam.pattern(mode)
    branch = mode.mode if len(fam.modes) > 1 else 0  # two-mode families tag samples by mode
    vectors: list[np.ndarray] = []
    branches: list[int] = []

    def add(drives):
        try:
            sols = fam.solve(mode, drives, max(tol, DEFAULT_TOL))
        except (BranchAmbiguityError, NoSolutionError):
            return
        if fam.numbered:
            vectors.extend(sols)
            branches.extend(range(1, len(sols) + 1))
        else:
            vectors.append(sols[0])
            branches.append(branch)

    if len(fam.drives) == 1:
        lim = fam.limit(mode.alpha, mode.beta)
        for d in np.linspace(-lim, lim, n):
            add((d,))
        return CurveTrace(samples=make_samples(pattern, vectors, branches, tol), closed=False, note="sweep")
    if fam.curve is not None:
        trace = trace_implicit_curve(fam.curve, (0.0, 0.0), step=_TRACE_STEP, tol=tol)
        for i in np.linspace(0, len(trace.samples) - 1, n).round().astype(int):
            add(tuple(trace.samples[i].rho[:2]))
        return CurveTrace(samples=make_samples(pattern, vectors, branches, tol), closed=trace.closed,
                          note="resampled relation curve")
    if len(fam.drives) == 2:
        axis = np.linspace(-PI, PI, n)
        for x in axis:
            for y in axis:
                add((x, y))
        return SurfaceGrid(drive1=axis, drive2=axis, samples=make_samples(pattern, vectors, branches, tol))
    rng = np.random.default_rng(0)
    for _ in range(40 * n):
        if len(vectors) >= n:
            break
        add(tuple(rng.uniform(-PI, PI, 3)))
    return CurveTrace(samples=make_samples(pattern, vectors[:n], branches[:n], tol), closed=False,
                      note="seeded random drive triples")


# ---------------------------------------------------------------------------
# implicit-curve tracing

def _grad(fn, x: float, y: float, h: float = 1e-6) -> np.ndarray:
    return np.array([
        (fn(x + h, y) - fn(x - h, y)) / (2.0 * h),
        (fn(x, y + h) - fn(x, y - h)) / (2.0 * h),
    ])


def _node_directions(fn, p: np.ndarray, r: float) -> list[np.ndarray]:
    """Zero-crossing directions of fn on a small circle around a singular point."""
    thetas = np.linspace(-PI, PI, 721)
    vals = np.array([fn(p[0] + r * math.cos(t), p[1] + r * math.sin(t)) for t in thetas])
    dirs = []
    for i in range(len(thetas) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0 or a * b < 0.0:
            t = thetas[i] if a == 0.0 else thetas[i] + (thetas[i + 1] - thetas[i]) * abs(a) / (abs(a) + abs(b))
            dirs.append(np.array([math.cos(t), math.sin(t)]))
    return dirs


def _correct(fn, q: np.ndarray, tol: float) -> tuple[np.ndarray, bool]:
    """Newton along the gradient (orthogonal to the tangent); near-singular
    gradients leave the point as predicted so the walker crosses nodes."""
    for _ in range(25):
        f = fn(q[0], q[1])
        if abs(f) <= 1e-12:
            return q, True
        grd = _grad(fn, q[0], q[1])
        g2 = float(grd @ grd)
        if g2 < _NODE_GRAD_TOL**2:
            return q, True
        q = q - f * grd / g2
    return q, abs(fn(q[0], q[1])) <= tol


def trace_implicit_curve(residual_fn, seed, step: float = _TRACE_STEP, tol: float = DEFAULT_TOL,
                         max_steps: int = 20000) -> CurveTrace:
    """Predictor-corrector walk along one connected zero-set component.

    The tangent is the 90-degree rotation of the central-difference
    gradient, oriented to keep moving forward; where the gradient is
    near-singular (a node) the walker keeps its previous direction and
    marches straight through.  The trace closes when it returns to the
    seed with a matching direction, so a figure-eight is traversed fully,
    crossing its node twice, before closing.
    """
    p0 = np.array([float(seed[0]), float(seed[1])])
    if not np.all(np.isfinite(p0)):
        raise OutOfRangeError(f"seed {tuple(p0)} must be finite")
    if not abs(residual_fn(p0[0], p0[1])) <= 1e-7:
        raise OutOfRangeError(f"seed {tuple(p0)} is not on the curve")

    g0 = _grad(residual_fn, p0[0], p0[1])
    if float(np.hypot(*g0)) < _NODE_GRAD_TOL:
        dirs = _node_directions(residual_fn, p0, step)
        if not dirs:
            return CurveTrace(samples=[ConfigSample(p0, abs(residual_fn(*p0)), True, 0)],
                              closed=True, note="isolated zero")
        tangent = dirs[0]
    else:
        tangent = np.array([g0[1], -g0[0]])
        tangent = tangent / np.linalg.norm(tangent)
    start_dir = tangent.copy()

    samples = [ConfigSample(p0.copy(), abs(residual_fn(*p0)), True, 0)]
    p = p0.copy()
    closed = False
    note = ""
    for i in range(max_steps):
        q = p + step * tangent
        q, ok = _correct(residual_fn, q, tol)
        if not ok:
            note = f"corrector diverged at step {i}"
            break
        move = q - p
        if float(np.linalg.norm(move)) < 1e-12:
            note = f"stalled at step {i}"
            break
        g = _grad(residual_fn, q[0], q[1])
        gn = float(np.hypot(*g))
        if gn < _NODE_GRAD_TOL:
            new_tan = move / np.linalg.norm(move)  # straight through the node
        else:
            new_tan = np.array([g[1], -g[0]]) / gn
            if float(new_tan @ move) < 0.0:
                new_tan = -new_tan
        samples.append(ConfigSample(q.copy(), abs(residual_fn(*q)), abs(residual_fn(*q)) < tol, 0))
        p, tangent = q, new_tan
        if i > 4 and float(np.linalg.norm(p - p0)) < 0.75 * step and float(tangent @ start_dir) > 0.7:
            closed = True
            break
    else:
        note = "step budget exhausted"
    return CurveTrace(samples=samples, closed=closed, note=note)


# ---------------------------------------------------------------------------
# admissible drive region of the fully general family

def admissible_region(rho6: float, grid_n: int = 201, tol: float = DEFAULT_TOL) -> AdmissibleRegion:
    """Boolean (rho4, rho5) mask: a branch exists and at least one closes.

    The whole grid is decided in one array pass of ``general_solve``, so a
    cell is admissible exactly when ``general_fold`` at that cell returns.
    """
    if grid_n < 2:
        raise OutOfRangeError(f"grid_n must be >= 2, got {grid_n}")
    check_fold_angle(rho6, "rho6")
    axis = np.linspace(-PI, PI, grid_n)
    r4g, r5g = np.meshgrid(axis, axis, indexing="ij")
    _, cells = general_solve(r4g.ravel(), r5g.ravel(), rho6, tol=tol)
    mask = np.zeros(grid_n * grid_n, dtype=bool)
    mask[cells] = True
    return AdmissibleRegion(rho6=rho6, rho4_axis=axis, rho5_axis=axis, mask=mask.reshape(grid_n, grid_n))


# ---------------------------------------------------------------------------
# export

def _flatten_samples(samples) -> list[ConfigSample]:
    if isinstance(samples, (CurveTrace, SurfaceGrid)):
        return list(samples.samples)
    if isinstance(samples, ConfigSample):
        return [samples]
    return list(samples)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def export(samples, format: str, path: str, pattern: CreasePattern | None = None,
           tol: float = DEFAULT_TOL) -> ExportReport:
    """Write samples to csv, json or obj.

    csv: one row per sample, angle columns then residual, valid, branch,
    12 significant digits, LF line endings.  json: an array of objects
    with the same keys, floats at full round-trip precision.  obj: one
    mesh object per valid sample (vertex at the origin, unit crease tips,
    triangular sector faces); invalid samples are skipped and counted.
    """
    flat = _flatten_samples(samples)
    text, skipped = render(flat, format, pattern, tol)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return ExportReport(written=len(flat) - skipped, skipped=skipped)


def render(samples, format: str, pattern: CreasePattern | None = None,
           tol: float = DEFAULT_TOL) -> tuple[str, int]:
    """Serialized samples in csv, json or obj, with the count of skipped samples."""
    flat = _flatten_samples(samples)
    if not flat:
        raise OutOfRangeError("nothing to export")
    if format == "csv":
        return samples_to_csv(flat), 0
    if format == "json":
        return samples_to_json(flat), 0
    if format == "obj":
        return samples_to_obj(flat, pattern, tol)
    raise OutOfRangeError(f"unknown format {format!r}")


def samples_to_csv(flat: list[ConfigSample]) -> str:
    width = max(len(s.rho) for s in flat)
    header = ",".join([f"rho{i + 1}" for i in range(width)] + ["residual", "valid", "branch"])
    lines = [header]
    for s in flat:
        angles = [_fmt(float(x)) for x in s.rho] + [""] * (width - len(s.rho))
        lines.append(",".join(angles + [_fmt(s.residual), "true" if s.valid else "false", str(s.branch)]))
    return "\n".join(lines) + "\n"


def samples_to_json(flat: list[ConfigSample]) -> str:
    objs = []
    for s in flat:
        rec: dict = {f"rho{i + 1}": float(x) for i, x in enumerate(s.rho)}
        rec["residual"] = float(s.residual)
        rec["valid"] = bool(s.valid)
        rec["branch"] = s.branch if isinstance(s.branch, str) else int(s.branch)
        objs.append(rec)
    return json.dumps(objs, indent=1) + "\n"


def load_samples_json(path: str) -> list[ConfigSample]:
    """Inverse of the json export; residuals round-trip bit-exactly."""
    with open(path) as fh:
        data = json.load(fh)
    out = []
    for rec in data:
        keys = sorted((k for k in rec if k.startswith("rho")), key=lambda k: int(k[3:]))
        rho = np.array([rec[k] for k in keys])
        out.append(ConfigSample(rho=rho, residual=rec["residual"], valid=rec["valid"],
                                branch=rec["branch"]))
    return out


def samples_to_obj(flat: list[ConfigSample], pattern: CreasePattern | None,
                   tol: float = DEFAULT_TOL) -> tuple[str, int]:
    lines = []
    skipped = 0
    offset = 0
    for m, s in enumerate(flat):
        pat = pattern
        if pat is None:
            if len(s.rho) != 6:
                raise OutOfRangeError("obj export needs an explicit pattern for non-6-crease samples")
            pat = g60()
        if not s.valid or s.residual >= tol:
            skipped += 1
            continue
        try:
            state = folded_geometry(pat, s.rho, tol=max(tol, s.residual * 2 + 1e-300))
        except NotClosedError:  # sample came from a different pattern
            skipped += 1
            continue
        lines.append(f"o sample_{m:04d}")
        lines.append("v 0 0 0")
        for tip in state.crease_images:
            lines.append("v " + " ".join(_fmt(float(c)) for c in tip))
        k = pat.n
        for i in range(k):
            a = offset + 2 + i
            b = offset + 2 + (i + 1) % k
            lines.append(f"f {offset + 1} {a} {b}")
        offset += k + 1
    return "\n".join(lines) + "\n", skipped
