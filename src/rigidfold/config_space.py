"""Configuration-space sampling, implicit-curve tracing, masks and export.

Samples are angle vectors tagged with their loop-closure defect and a
validity verdict (closes and does not self-intersect).  One-parameter
families are swept over their reachable drive interval, two-parameter
families over a grid; ``twopair`` sweeps sample the node loop of the
Weierstrass quartic.  The predictor-corrector walker, which marches through
that node, remains only for ``trace`` and generic curves.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core_geometry import (
    CreasePattern,
    as_fold_angles,
    check_fold_angle,
    crease_images,
    folded_frames,
    g60,
    self_intersections,
)
from .errors import OutOfRangeError
from .fold_models import AMBIGUOUS, DEFAULT_TOL, FAMILIES, NO_SOLUTION, FoldMode, drive_ranks, general_solve

_TRACE_STEP = 0.02
_NODE_GRAD_TOL = 1e-6
_SKIPPED = (NO_SOLUTION, AMBIGUOUS)  # reasons a sweep skips a drive for; any other one raises

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
    reachable interval, a drive pair on a relation curve at n points of its
    node loop, any other pair over a grid, and a drive triple is drawn at
    random from a fixed seed.  One-parameter families return a CurveTrace
    ordered by drive value or arclength; two-parameter families return a
    SurfaceGrid.  Drives where the family has no closing solution are
    skipped rather than reported as invalid samples, so a returned sample
    always corresponds to a solve.  Each sampler solves all of its drives
    with one ``Family.solve`` call and evaluates the solved vectors with
    one ``make_samples`` call.
    """
    if n < 2:
        raise OutOfRangeError(f"need at least 2 samples, got {n}")
    fam = FAMILIES[mode.model]
    pattern = fam.pattern(mode)
    branch = mode.mode if len(fam.modes) > 1 else 0  # two-mode families tag samples by mode

    def solved(drives: np.ndarray) -> tuple[np.ndarray, list]:
        """Closing vectors and branch tags of an (N, k) drive array, skipping unsolvable drives."""
        sol = fam.solve(mode, drives, max(tol, DEFAULT_TOL))
        fam.raise_first(mode, drives, sol.reason, skip=_SKIPPED)
        rank = drive_ranks(sol.drive)
        if fam.numbered:
            return sol.vectors, (rank + 1).tolist()
        first = rank == 0
        return sol.vectors[first], [branch] * int(first.sum())

    if len(fam.drives) == 1:
        lim = fam.limit(mode.alpha, mode.beta)
        vectors, branches = solved(np.linspace(-lim, lim, n)[:, None])
        return CurveTrace(samples=make_samples(pattern, vectors, branches, tol), closed=False, note="sweep")
    if fam.loop is not None:
        return CurveTrace(samples=make_samples(pattern, *solved(fam.loop(n)), tol), closed=True, note="node loop")
    if len(fam.drives) == 2:
        axis = np.linspace(-PI, PI, n)
        vectors, branches = solved(np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2))
        return SurfaceGrid(drive1=axis, drive2=axis, samples=make_samples(pattern, vectors, branches, tol))
    # Blocks of n triples draw the same stream as one triple at a time; the
    # budget of 40 n triples and the cut at n vectors keep the scalar sampler's rows.
    rng = np.random.default_rng(0)
    blocks, branches, budget = [], [], 40 * n
    while len(branches) < n and budget:
        block = min(n, budget)
        budget -= block
        vectors, tags = solved(rng.uniform(-PI, PI, (block, 3)))
        blocks.append(vectors)
        branches += tags
    return CurveTrace(samples=make_samples(pattern, np.concatenate(blocks)[:n], branches[:n], tol),
                      closed=False, note="seeded random drive triples")


# ---------------------------------------------------------------------------
# implicit-curve tracing

def _central_gradient(fn, x: float, y: float, h: float = 1e-6) -> tuple[float, float]:
    return (fn(x + h, y) - fn(x - h, y)) / (2.0 * h), (fn(x, y + h) - fn(x, y - h)) / (2.0 * h)


def _node_directions(fn, p: tuple[float, float], r: float) -> np.ndarray:
    """Zero-crossing directions of fn on a small circle around a singular point, as (k, 2) rows.

    The 721 circle points are evaluated with one array call of ``fn``.
    """
    thetas = np.linspace(-PI, PI, 721)
    vals = fn(p[0] + r * np.cos(thetas), p[1] + r * np.sin(thetas))
    a, b = vals[:-1], vals[1:]
    hits = np.flatnonzero((a == 0.0) | (a * b < 0.0))
    a, b = np.abs(a[hits]), np.abs(b[hits])
    frac = np.divide(a, a + b, out=np.zeros_like(a), where=a != 0.0)  # a zero on the circle is its own direction
    t = thetas[hits] + (thetas[hits + 1] - thetas[hits]) * frac
    return np.column_stack([np.cos(t), np.sin(t)])


def _correct(fn, q, tol: float, gradient=None) -> tuple[tuple[float, float], float | None]:
    """Newton along the gradient (orthogonal to the tangent); near-singular
    gradients leave the point as predicted so the walker crosses nodes.

    ``gradient(x, y)`` returns fn's two partial derivatives; by default they
    are central differences of fn.  Returns the corrected point and fn
    there, or None in place of fn when the corrector diverged.
    """
    if gradient is None:
        gradient = functools.partial(_central_gradient, fn)
    x, y = float(q[0]), float(q[1])
    for _ in range(25):
        f = fn(x, y)
        if abs(f) <= 1e-12:
            return (x, y), f
        gx, gy = gradient(x, y)
        g2 = gx * gx + gy * gy
        if g2 < _NODE_GRAD_TOL**2:
            return (x, y), f
        x, y = x - f * gx / g2, y - f * gy / g2
    f = fn(x, y)
    return (x, y), f if abs(f) <= tol else None


def trace_implicit_curve(residual_fn, seed, step: float = _TRACE_STEP, tol: float = DEFAULT_TOL,
                         max_steps: int = 20000, gradient=None) -> CurveTrace:
    """Predictor-corrector walk along one connected zero-set component.

    ``residual_fn(x, y)`` must be elementwise on float arrays too: the node
    scan evaluates it on a whole circle of points in one call.
    ``gradient(x, y)`` returns its two partial derivatives at a point; by
    default they are central differences of ``residual_fn``.  ``step`` must
    be finite and positive.

    The tangent is the 90-degree rotation of the gradient, oriented to keep
    moving forward; where the gradient is near-singular (a node) the walker
    keeps its previous direction and marches straight through.  The trace
    closes when it returns to the seed with a matching direction, so a
    figure-eight is traversed fully, crossing its node twice, before closing.
    The walk runs on Python floats: every step is a handful of scalar
    operations, which numpy 2-vectors would only slow down.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise OutOfRangeError(f"trace step must be finite and > 0, got {step}")
    x0, y0 = float(seed[0]), float(seed[1])
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise OutOfRangeError(f"seed {(x0, y0)} must be finite")
    f0 = residual_fn(x0, y0)
    if not abs(f0) <= 1e-7:
        raise OutOfRangeError(f"seed {(x0, y0)} is not on the curve")
    if gradient is None:
        gradient = functools.partial(_central_gradient, residual_fn)

    gx, gy = gradient(x0, y0)
    gn = math.hypot(gx, gy)
    if gn < _NODE_GRAD_TOL:
        dirs = _node_directions(residual_fn, (x0, y0), step)
        if not len(dirs):
            return CurveTrace(samples=[ConfigSample(np.array([x0, y0]), abs(f0), True, 0)],
                              closed=True, note="isolated zero")
        tx, ty = float(dirs[0, 0]), float(dirs[0, 1])
    else:
        tx, ty = gy / gn, -gx / gn
    sx, sy = tx, ty  # start direction

    samples = [ConfigSample(np.array([x0, y0]), abs(f0), True, 0)]
    x, y = x0, y0
    closed = False
    note = ""
    for i in range(max_steps):
        (qx, qy), f = _correct(residual_fn, (x + step * tx, y + step * ty), tol, gradient)
        if f is None:
            note = f"corrector diverged at step {i}"
            break
        mx, my = qx - x, qy - y
        mn = math.hypot(mx, my)
        if mn < 1e-12:
            note = f"stalled at step {i}"
            break
        gx, gy = gradient(qx, qy)
        gn = math.hypot(gx, gy)
        if gn < _NODE_GRAD_TOL:
            tx, ty = mx / mn, my / mn  # straight through the node
        else:
            tx, ty = gy / gn, -gx / gn
            if tx * mx + ty * my < 0.0:
                tx, ty = -tx, -ty
        samples.append(ConfigSample(np.array([qx, qy]), abs(f), abs(f) < tol, 0))
        x, y = qx, qy
        if i > 4 and math.hypot(x - x0, y - y0) < 0.75 * step and tx * sx + ty * sy > 0.7:
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
    cells = general_solve(r4g.ravel(), r5g.ravel(), rho6, tol=tol).drive
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


def export(samples, format: str, path: str, pattern: CreasePattern | None = None,
           tol: float = DEFAULT_TOL) -> ExportReport:
    """Write samples to csv, json or obj.

    csv: one row per sample, angle columns then residual, valid, branch,
    12 significant digits, LF line endings.  json: an array of objects
    with the same keys, written as ``json.dumps(records, indent=1)`` writes
    it: floats at full round-trip precision, NaN, Infinity and -Infinity
    for non-finite values.  obj: one
    mesh object per valid sample (vertex at the origin, unit crease tips,
    triangular sector faces); invalid samples are skipped and counted.
    """
    flat = _flatten_samples(samples)
    text, invalid, foreign = render(flat, format, pattern, tol)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return ExportReport(written=len(flat) - invalid - foreign, skipped=invalid + foreign)


def render(samples, format: str, pattern: CreasePattern | None = None,
           tol: float = DEFAULT_TOL) -> tuple[str, int, int]:
    """Serialized samples in csv, json or obj, with the counts of invalid and of foreign (non-closing) obj samples."""
    flat = _flatten_samples(samples)
    if not flat:
        raise OutOfRangeError("nothing to export")
    if format == "csv":
        return samples_to_csv(flat), 0, 0
    if format == "json":
        return samples_to_json(flat), 0, 0
    if format == "obj":
        text, skipped = samples_to_obj(flat, pattern, tol)
        invalid = sum(not s.valid or s.residual >= tol for s in flat)  # the samples skipped before folding
        return text, invalid, skipped - invalid
    raise OutOfRangeError(f"unknown format {format!r}")


def samples_to_csv(flat: list[ConfigSample]) -> str:
    """One row per sample: angles, residual, valid, branch; floats to 12 significant digits.

    Each row is one ``%`` template per angle count; a row narrower than the
    header gets its blank angle columns before ``residual``.
    """
    width = max(len(s.rho) for s in flat)
    lines = [",".join([f"rho{i + 1}" for i in range(width)] + ["residual", "valid", "branch"])]
    templates: dict[int, str] = {}
    for s in flat:
        rho = np.asarray(s.rho, dtype=float).tolist()
        row = templates.get(len(rho))
        if row is None:
            row = templates[len(rho)] = "%.12g," * len(rho) + "," * (width - len(rho)) + "%.12g,%s,%s"
        lines.append(row % (*rho, s.residual, "true" if s.valid else "false", s.branch))
    return "\n".join(lines) + "\n"


def _json_float(x: float) -> str:
    """A float as json.dumps writes it: its repr, or NaN, Infinity or -Infinity."""
    if math.isfinite(x):
        return repr(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def samples_to_json(flat: list[ConfigSample]) -> str:
    """The text of ``json.dumps(records, indent=1)``, one ``%`` template per angle count.

    Floats are filled in as their repr, which is what json.dumps writes; a
    record holding a non-finite value writes it as NaN, Infinity or -Infinity.
    """
    templates: dict[int, str] = {}
    records = []
    for s in flat:
        fields = (*np.asarray(s.rho, dtype=float).tolist(), float(s.residual))
        record = templates.get(len(fields))
        if record is None:
            keys = [f"rho{i + 1}" for i in range(len(fields) - 1)] + ["residual", "valid", "branch"]
            record = templates[len(fields)] = " {\n" + ",\n".join(f'  "{k}": %s' for k in keys) + "\n }"
        if not math.isfinite(sum(fields)):
            fields = tuple(map(_json_float, fields))
        branch = json.dumps(s.branch) if isinstance(s.branch, str) else int(s.branch)
        records.append(record % (*fields, "true" if s.valid else "false", branch))
    return "[\n" + ",\n".join(records) + "\n]\n" if records else "[]\n"


def _angle_keys(path: str, i: int, keys) -> list[str]:
    """The rhoN keys of record ``i`` in angle order; raises when a sample field is missing."""
    for name in ("residual", "valid", "branch"):
        if name not in keys:
            raise OutOfRangeError(f"{path}: record {i} has no {name!r}")
    try:
        angles = sorted((k for k in keys if k.startswith("rho")), key=lambda k: int(k[3:]))
    except ValueError:
        raise OutOfRangeError(f"{path}: record {i} has a rho key that is not rhoN") from None
    if not angles:
        raise OutOfRangeError(f"{path}: record {i} has no rhoN key")
    return angles


def load_samples_json(path: str) -> list[ConfigSample]:
    """Inverse of the json export; residuals round-trip bit-exactly.

    The rhoN keys are ordered once for each distinct key set.  Input that is
    not a json array of sample records, or a record flagged valid whose
    angles or residual are not finite, raises OutOfRangeError naming the
    file and the first bad record.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as e:
            raise OutOfRangeError(f"{path} is not json: {e}") from None
    if not isinstance(data, list):
        raise OutOfRangeError(f"{path} is not a json array of sample records")
    angle_keys: dict[tuple, list[str]] = {}
    out = []
    for i, rec in enumerate(data):
        if not isinstance(rec, dict):
            raise OutOfRangeError(f"{path}: record {i} is not an object")
        keys = tuple(rec)
        angles = angle_keys.get(keys)
        if angles is None:
            angles = angle_keys[keys] = _angle_keys(path, i, keys)
        vals = [rec[k] for k in angles]
        try:
            rho = np.array(vals)
        except ValueError:  # nested lists of unequal length
            rho = None
        residual, valid, branch = rec["residual"], rec["valid"], rec["branch"]
        if rho is None or rho.ndim != 1 or rho.dtype.kind not in "biuf" or not isinstance(residual, (int, float)):
            raise OutOfRangeError(f"{path}: record {i} has an angle or residual that is not a number")
        if not isinstance(valid, bool) or not isinstance(branch, (int, str)):
            raise OutOfRangeError(f"{path}: record {i} needs a true/false valid and an integer or string branch")
        # the float sum is finite for finite angles unless it overflows: then ask numpy
        if valid and not (-math.inf < residual < math.inf and (math.isfinite(sum(vals)) or np.isfinite(rho).all())):
            raise OutOfRangeError(f"{path}: record {i} is flagged valid but has an angle or residual that is not finite")
        out.append(ConfigSample(rho=rho.astype(float, copy=False), residual=residual, valid=valid, branch=branch))
    return out


def samples_to_obj(flat: list[ConfigSample], pattern: CreasePattern | None,
                   tol: float = DEFAULT_TOL) -> tuple[str, int]:
    """One mesh object per valid sample, all folded by one kernel call.

    A sample is skipped when it is invalid, when its residual is not below
    ``tol``, or when it does not close on ``pattern`` (default ``g60()``)
    within max(tol, twice its own residual): it came from another pattern.
    Each object is one ``%`` template: its name, the apex, the crease tips
    to 12 significant digits and the fan of sector faces.
    """
    if pattern is None and any(len(s.rho) != 6 for s in flat):
        raise OutOfRangeError("obj export needs an explicit pattern for non-6-crease samples")
    pat = g60() if pattern is None else pattern
    kept = [m for m, s in enumerate(flat) if s.valid and not s.residual >= tol]  # NaN: re-fold decides
    objects = []
    if kept:
        n = pat.n
        residuals, frames = folded_frames(pat, np.array([as_fold_angles(flat[m].rho, n) for m in kept]))
        tips = crease_images(pat, frames).reshape(len(kept), 3 * n).tolist()
        fan = [c for i in range(n) for c in (0, 1 + i, 1 + (i + 1) % n)]  # face corners; 0 is the apex
        template = "o sample_%04d\nv 0 0 0\n" + "v %.12g %.12g %.12g\n" * n + "f %d %d %d\n" * n
        for m, residual, xyz in zip(kept, residuals.tolist(), tips):
            if residual > max(tol, flat[m].residual * 2 + 1e-300):  # sample came from a different pattern
                continue
            apex = len(objects) * (n + 1) + 1
            objects.append(template % (m, *xyz, *[apex + c for c in fan]))
    return "".join(objects) or "\n", len(flat) - len(objects)
