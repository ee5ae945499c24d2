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
import operator
import os
import sys
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .core_geometry import (
    CreasePattern,
    check_fold_angle,
    crease_images,
    folded_frames,
    g60,
    rotation_products,
    self_intersections,
)
from .errors import DomainError, OutOfRangeError
from .fold_models import AMBIGUOUS, FAMILIES, NO_SOLUTION, FoldMode, _solve_back
from .tolerances import DEFAULT_TOL, DIFF_STEP, NODE_GRAD_TOL, ON_CURVE, ROUNDOFF

_TRACE_STEP = 0.02
_TRACE_BUDGET = 20000  # steps the walker takes at most
_SKIPPED = (NO_SOLUTION, AMBIGUOUS)  # reasons a sweep skips a drive for; any other one raises

PI = math.pi


@dataclass(eq=False)
class ConfigSample:
    """One sampled folded state, the row view of ``Samples``: angles, closure defect, validity, branch tag."""

    rho: np.ndarray
    residual: float
    valid: bool
    branch: int | str = 0

    def __eq__(self, other) -> bool:
        return as_samples(self) == other


@dataclass(frozen=True, eq=False)
class Samples:
    """Sampled folded states as columns: angles (N, w), closure defect, validity and branch tag.

    Row i holds ``width[i]`` angles (w by default), then NaN.  An integer
    index, ``len`` and iteration give ``ConfigSample`` rows; any other index
    gives the selected rows, their angles cut to the widest of them.
    Records, rows or lists of rows are equal when their json export is.
    A branch tag is an int or a str, as the loader reads it; any other one
    (a bool too) raises ``OutOfRangeError`` when the record is built.
    """

    rho: np.ndarray
    residual: np.ndarray
    valid: np.ndarray
    branch: list
    width: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.width is None:
            object.__setattr__(self, "width", np.full(len(self.rho), self.rho.shape[1]))
        if not len(self.rho) == len(self.residual) == len(self.valid) == len(self.branch) == len(self.width):
            raise ValueError("sample columns differ in length")
        wrong = np.flatnonzero(_faulty(self.branch, {int, str}))  # what the loader refuses: a bool too
        if len(wrong):
            raise OutOfRangeError(f"sample {wrong[0]} has branch {self.branch[wrong[0]]!r}; "
                                  "a branch must be an integer or a string")

    def __len__(self) -> int:
        return len(self.branch)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return ConfigSample(self.rho[key, :self.width[key]], float(self.residual[key]), bool(self.valid[key]),
                                self.branch[key])
        rows = np.arange(len(self))[key]
        width = self.width[rows]
        return Samples(self.rho[rows, :width.max(initial=0)], self.residual[rows], self.valid[rows],
                       [self.branch[i] for i in rows.tolist()], width)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Samples, ConfigSample, list, tuple)):
            return NotImplemented
        return samples_to_json(self) == samples_to_json(other)  # the json text keeps every bit of every row


@dataclass
class CurveTrace:
    samples: Samples
    closed: bool = False
    note: str = ""


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


def as_samples(samples) -> Samples:
    """A ``Samples`` record from one, or from ConfigSample rows."""
    if isinstance(samples, Samples):
        return samples
    rows = [samples] if isinstance(samples, ConfigSample) else list(samples)
    angles = [np.asarray(s.rho, dtype=float) for s in rows]
    width = np.array([len(a) for a in angles], dtype=int)
    rho = np.full((len(rows), width.max(initial=0)), np.nan)
    rho[np.arange(rho.shape[1]) < width[:, None]] = np.concatenate([[], *angles])
    return Samples(rho, np.array([s.residual for s in rows], dtype=float),
                   np.array([bool(s.valid) for s in rows], dtype=bool), [s.branch for s in rows], width)


def make_samples(pattern: CreasePattern, rows, branches) -> Samples:
    """Evaluate closure and the self-intersection test for each row of an (N, n) angle array.

    One kernel call gives every row's residual and frames; the rows closing
    below ``DEFAULT_TOL`` (read when called) are then tested for
    self-intersection in one pass.  ``branches`` tags the rows in order.
    """
    rho = np.asarray(rows, dtype=float) if len(rows) else np.empty((0, pattern.n))
    residuals, frames = folded_frames(pattern, rho)
    closed = residuals < DEFAULT_TOL
    valid = np.zeros(len(rho), dtype=bool)
    valid[closed] = ~self_intersections(pattern, crease_images(pattern, frames[closed]))
    return Samples(rho, residuals, valid, list(branches))


def make_sample(pattern: CreasePattern, rho, branch=0) -> ConfigSample:
    """Evaluate closure and the self-intersection test for one angle vector."""
    return make_samples(pattern, np.asarray(rho, dtype=float)[None], [branch])[0]


# ---------------------------------------------------------------------------
# sweeping

def sweep_model(mode: FoldMode, n: int) -> Samples:
    """Sample a family: n points over the drive interval, or an n-by-n grid.

    The family's drive count picks the sampler: one drive is swept over its
    reachable interval, a drive pair on a relation curve at n points of its
    node loop, any other pair over a grid, and a drive triple is drawn at
    random from a fixed seed.  Samples come in drive order: by drive value,
    by arclength around the loop, or row-major over the grid.  Drives where
    the family has no closing solution are skipped rather than reported as
    invalid samples, so a returned sample always corresponds to a solve.
    Each sampler reports all of its drives with one ``Family.rows`` call and
    evaluates the solved vectors with one ``make_samples`` call, which flags them at ``DEFAULT_TOL``.
    """
    if n < 2:
        raise OutOfRangeError(f"need at least 2 samples, got {n}")
    fam = FAMILIES[mode.model]
    pattern = mode.pattern
    solved = functools.partial(fam.rows, mode, skip=_SKIPPED)
    if len(fam.drives) == 1:
        lim = fam.limit(mode.alpha, mode.beta)
        return make_samples(pattern, *solved(np.linspace(-lim, lim, n)[:, None]))
    if fam.loop is not None:
        return make_samples(pattern, *solved(fam.loop(n)))
    if len(fam.drives) == 2:
        axis = np.linspace(-PI, PI, n)
        drives = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        return make_samples(pattern, *solved(drives))
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
    return make_samples(pattern, np.concatenate(blocks)[:n], branches[:n])


# ---------------------------------------------------------------------------
# implicit-curve tracing

def _central_gradient(fn, x: float, y: float) -> tuple[float, float]:
    h = DIFF_STEP
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


def _correct(fn, q, tol: float, gradient) -> tuple[tuple[float, float], float | None]:
    """Newton along the gradient (orthogonal to the tangent); near-singular
    gradients leave the point as predicted so the walker crosses nodes.

    ``gradient(x, y)`` returns fn's two partial derivatives.  Returns the
    corrected point and fn there, or None in place of fn when the corrector
    diverged.
    """
    x, y = float(q[0]), float(q[1])
    for _ in range(25):
        f = fn(x, y)
        if abs(f) <= ROUNDOFF:
            return (x, y), f
        gx, gy = gradient(x, y)
        g2 = gx * gx + gy * gy
        if g2 < NODE_GRAD_TOL**2:
            return (x, y), f
        x, y = x - f * gx / g2, y - f * gy / g2
    f = fn(x, y)
    return (x, y), f if abs(f) <= tol else None


def trace_implicit_curve(residual_fn, seed, step: float = _TRACE_STEP, gradient=None) -> CurveTrace:
    """Predictor-corrector walk along one connected zero-set component.

    ``residual_fn(x, y)`` must be elementwise on float arrays too: the node
    scan evaluates it on a whole circle of points in one call.
    ``gradient(x, y)`` returns its two partial derivatives at a point; by
    default they are central differences of ``residual_fn``.  ``step`` must
    be finite and positive.  The seed check, the corrector's divergence test
    and each point's valid flag all bound the defect by ``ON_CURVE``.

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
    if not abs(f0) <= ON_CURVE:
        raise OutOfRangeError(f"seed {(x0, y0)} is not on the curve")
    if gradient is None:
        gradient = functools.partial(_central_gradient, residual_fn)

    gx, gy = gradient(x0, y0)
    gn = math.hypot(gx, gy)
    if gn < NODE_GRAD_TOL:
        dirs = _node_directions(residual_fn, (x0, y0), step)
        if not len(dirs):
            return CurveTrace(samples=Samples(np.array([[x0, y0]]), np.array([abs(f0)]), np.array([True]), [0]),
                              closed=True, note="isolated zero")
        tx, ty = float(dirs[0, 0]), float(dirs[0, 1])
    else:
        tx, ty = gy / gn, -gx / gn
    sx, sy = tx, ty  # start direction

    walked = [(x0, y0, abs(f0), True)]  # x, y, |residual|, valid
    x, y = x0, y0
    closed = False
    note = ""
    for i in range(_TRACE_BUDGET):
        (qx, qy), f = _correct(residual_fn, (x + step * tx, y + step * ty), ON_CURVE, gradient)
        if f is None:
            note = f"corrector diverged at step {i}"
            break
        mx, my = qx - x, qy - y
        mn = math.hypot(mx, my)
        if mn < ROUNDOFF:
            note = f"stalled at step {i}"
            break
        gx, gy = gradient(qx, qy)
        gn = math.hypot(gx, gy)
        if gn < NODE_GRAD_TOL:
            tx, ty = mx / mn, my / mn  # straight through the node
        else:
            tx, ty = gy / gn, -gx / gn
            if tx * mx + ty * my < 0.0:
                tx, ty = -tx, -ty
        walked.append((qx, qy, abs(f), abs(f) < ON_CURVE))
        x, y = qx, qy
        if i > 4 and math.hypot(x - x0, y - y0) < 0.75 * step and tx * sx + ty * sy > 0.7:
            closed = True
            break
    else:
        note = "step budget exhausted"
    walked = np.array(walked)
    return CurveTrace(samples=Samples(walked[:, :2], walked[:, 2], walked[:, 3] == 1.0, [0] * len(walked)),
                      closed=closed, note=note)


# ---------------------------------------------------------------------------
# admissible drive region of the fully general family

def admissible_region(rho6: float, grid_n: int = 201) -> AdmissibleRegion:
    """Boolean (rho4, rho5) mask: a branch exists and at least one closes below ``DEFAULT_TOL``.

    The back chain of cell (i, j) is B = (R6^T R5^T)[j] @ R4^T[i], one
    rotation product over each axis and one broadcast matmul: the bits of
    ``general_solve``'s per-cell product, as the factors associate the same
    way.  The whole grid is then decided in one pass of its solve, so a cell
    is admissible exactly when ``general_fold`` at that cell returns.
    """
    if grid_n < 2:
        raise OutOfRangeError(f"grid_n must be >= 2, got {grid_n}")
    check_fold_angle(rho6, "rho6")
    axis = np.linspace(-PI, PI, grid_n)
    r4, r5, r6 = np.repeat(axis, grid_n), np.tile(axis, grid_n), np.full(grid_n * grid_n, float(rho6))
    back65 = rotation_products(g60(), -np.stack([r6[:grid_n], axis], axis=1), creases=(5, 4))  # over rho5
    back4 = rotation_products(g60(), -axis[:, None], creases=(3,))  # over rho4
    B = (back65[None, :] @ back4[:, None]).reshape(-1, 3, 3)
    cells = _solve_back(B, r4, r5, r6, np.zeros(len(r6), dtype=bool)).drive
    mask = np.zeros(grid_n * grid_n, dtype=bool)
    mask[cells] = True
    return AdmissibleRegion(rho6=rho6, rho4_axis=axis, rho5_axis=axis, mask=mask.reshape(grid_n, grid_n))


# ---------------------------------------------------------------------------
# export

def export(samples, format: str, path: str, pattern: CreasePattern | None = None) -> ExportReport:
    """Write samples to csv, json or obj.

    csv: one row per sample, angle columns then residual, valid, branch,
    12 significant digits, LF line endings.  json: an array of objects
    with the same keys, written as ``json.dumps(records, indent=1)`` writes
    it: floats at full round-trip precision, NaN, Infinity and -Infinity
    for non-finite values.  obj: one mesh object per valid sample (vertex
    at the origin, unit crease tips, triangular sector faces); invalid
    samples are skipped and counted.
    """
    flat = as_samples(samples)
    text, invalid, foreign = render(flat, format, pattern)
    write_text(path, text)
    return ExportReport(written=len(flat) - invalid - foreign, skipped=invalid + foreign)


def write_text(path: str, text: str) -> None:
    """Write text with LF line endings over the file's old bytes, then cut off what is left of them.

    open(path, "w") would cut an existing file to zero first, after which ext4 blocks its close on a disk flush.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666), "w", newline="\n") as fh:
        fh.write(text)
        if os.path.isfile(path):  # a pipe or device has no length to cut
            fh.truncate()


def render(samples, format: str, pattern: CreasePattern | None = None) -> tuple[str, int, int]:
    """Serialized samples in csv, json or obj, with the counts of invalid and of foreign (non-closing) obj samples."""
    flat = as_samples(samples)
    if not len(flat):
        raise OutOfRangeError("nothing to export")
    if format == "csv":
        return samples_to_csv(flat), 0, 0
    if format == "json":
        return samples_to_json(flat), 0, 0
    if format == "obj":
        text, skipped = samples_to_obj(flat, pattern)
        invalid = int(np.count_nonzero(~flat.valid | (flat.residual >= DEFAULT_TOL)))  # skipped before folding
        return text, invalid, skipped - invalid
    raise OutOfRangeError(f"unknown format {format!r}")


def _column(values) -> np.ndarray:
    """N values as an (N, 1) object column, kept as they are."""
    return np.fromiter(values, dtype=object, count=len(values))[:, None]


def _keys(k: int) -> list[str]:
    return [f"rho{i + 1}" for i in range(k)] + ["residual", "valid", "branch"]


def _fill(template, sep: str, flat: Samples, angles: np.ndarray, *fields) -> str:
    """Row i's ``template(width[i])`` filled with its first width[i] ``angles``, then its ``fields``: one ``%``."""
    templates = {k: template(k) for k in set(flat.width.tolist())}
    cells = np.concatenate([angles, *map(_column, fields)], axis=1)  # object: Python floats, ints and strings
    kept = np.ones(cells.shape, dtype=bool)
    kept[:, :angles.shape[1]] = np.arange(angles.shape[1]) < flat.width[:, None]
    return sep.join(map(templates.__getitem__, flat.width.tolist())) % tuple(cells[kept])


def _csv_field(text: str) -> str:
    """A string as ``csv.writer`` writes it (RFC 4180): quoted, with its quotes doubled,
    when it holds a comma, a quote, CR or LF."""
    return '"%s"' % text.replace('"', '""') if any(c in text for c in ',"\r\n') else text


def samples_to_csv(samples) -> str:
    """One row per sample: angles, residual, valid, branch; floats to 12 significant digits.

    A row narrower than the header gets its blank angle columns before ``residual``.
    """
    flat = as_samples(samples)
    w = flat.rho.shape[1]
    body = _fill(lambda k: "%.12g," * k + "," * (w - k) + "%.12g,%s,%s", "\n", flat, flat.rho,
                 flat.residual.tolist(), np.where(flat.valid, "true", "false").tolist(),
                 [_csv_field(b) if isinstance(b, str) else b for b in flat.branch])
    return ",".join(_keys(w)) + f"\n{body}\n"


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json.dumps' spelling of these reprs


def samples_to_json(samples) -> str:
    """The text of ``json.dumps(records, indent=1)``, one ``%`` template per angle count.

    Floats are filled in as their repr, as json.dumps writes them; the rows
    holding a non-finite value (or NaN padding) respell it as json.dumps does.
    """
    flat = as_samples(samples)
    if not len(flat):
        return "[]\n"
    fields = np.column_stack([flat.rho, flat.residual])
    text = _column(list(map(repr, fields.ravel().tolist()))).reshape(fields.shape)
    for i in np.flatnonzero(~np.isfinite(fields).all(axis=1)).tolist():
        text[i] = [_JSON_NON_FINITE.get(t, t) for t in text[i]]
    body = _fill(lambda k: " {\n" + ",\n".join(f'  "{key}": %s' for key in _keys(k)) + "\n }", ",\n", flat,
                 text[:, :-1], text[:, -1].tolist(), np.where(flat.valid, "true", "false").tolist(),
                 [json.dumps(b) if isinstance(b, str) else b for b in flat.branch])
    return f"[\n{body}\n]\n"


def _angle_keys(keys: tuple) -> tuple[list[str], str]:
    """The rhoN keys of a record's key set in angle order, and what is wrong with the set ('' if nothing)."""
    for name in ("residual", "valid", "branch"):
        if name not in keys:
            return [], f"has no {name!r}"
    try:
        angles = sorted((k for k in keys if k.startswith("rho")), key=lambda k: int(k[3:]))
    except ValueError:
        return [], "has a rho key that is not rhoN"
    if not angles:
        return [], "has no rhoN key"
    return angles, "" if angles == _keys(len(angles))[:-3] else "angle keys must be rho1..rhoN"


def _faulty(column, types: set, lo=1, hi=0) -> np.ndarray:
    """Whether each json value's type is outside ``types``; ints in [lo, hi] pass too (none by default).

    numpy keeps an angle int in the int64 or uint64 range a number, and a residual int must fit a float.
    """
    if set(map(type, column)) <= types:
        return np.zeros(len(column), dtype=bool)
    return np.fromiter((type(v) not in types and not (type(v) is int and lo <= v <= hi) for v in column),
                       dtype=bool, count=len(column))


def load_samples_json(path: str) -> Samples:
    """Inverse of the json export; residuals round-trip bit-exactly.

    The records of each key set are checked and gathered column by column.
    Input that is not a json array of sample records raises OutOfRangeError
    naming the file, the first bad record and its first fault.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as e:
            raise OutOfRangeError(f"{path} is not json: {e}") from None
    if not isinstance(data, list):
        raise OutOfRangeError(f"{path} is not a json array of sample records")
    n = len(data)
    fault = np.full(n, "", dtype=object)  # each record's first fault
    fault[np.fromiter(map(type, data), dtype=object, count=n) != dict] = "is not an object"
    records = np.flatnonzero(fault == "")
    keys = list(map(tuple, map(data.__getitem__, records.tolist())))
    layouts = {k: _angle_keys(k) for k in dict.fromkeys(keys)}
    group = np.fromiter(map({k: g for g, k in enumerate(layouts)}.__getitem__, keys), dtype=int, count=len(keys))
    w = max((len(angles) for angles, wrong in layouts.values() if not wrong), default=0)
    rho, residual, valid = np.full((n, w), np.nan), np.zeros(n), np.zeros(n, dtype=bool)
    branch, width = np.zeros(n, dtype=object), np.zeros(n, dtype=int)
    for g, (angles, wrong) in enumerate(layouts.values()):
        rows = records[group == g]
        fault[rows] = wrong
        if wrong:
            continue
        columns = list(zip(*map(operator.itemgetter(*angles, "residual", "valid", "branch"),
                                map(data.__getitem__, rows.tolist()))))
        not_number = _faulty(columns[-3], {float, bool}, -sys.float_info.max, sys.float_info.max)
        for column in columns[:-3]:
            not_number |= _faulty(column, {float, bool}, -2**63, 2**64 - 1)
        not_flag = _faulty(columns[-2], {bool}) | _faulty(columns[-1], {int, str})
        fault[rows[not_flag]] = "needs a true/false valid and an integer or string branch"
        fault[rows[not_number]] = "has an angle or residual that is not a number"
        ok = ~(not_number | not_flag)
        rows, columns = rows[ok], [list(compress(column, ok)) for column in columns]
        values = np.array(columns[:-2], dtype=float)  # angle columns, then the residual
        rho[rows, :len(angles)], residual[rows] = values[:-1].T, values[-1]
        valid[rows], branch[rows], width[rows] = columns[-2], _column(columns[-1])[:, 0], len(angles)
    finite = (np.isfinite(rho) | (np.arange(w) >= width[:, None])).all(axis=1) & np.isfinite(residual)
    fault[valid & ~finite] = "is flagged valid but has an angle or residual that is not finite"
    bad = np.flatnonzero(fault != "")
    if len(bad):
        raise OutOfRangeError(f"{path}: record {bad[0]} {fault[bad[0]]}")
    return Samples(rho, residual, valid, branch.tolist(), width)


def samples_to_obj(samples, pattern: CreasePattern | None) -> tuple[str, int]:
    """One mesh object per valid sample, all folded by one kernel call.

    A sample is skipped when it is invalid, when its residual is not below
    ``DEFAULT_TOL``, or when it does not close on ``pattern`` (default ``g60()``)
    within max(DEFAULT_TOL, twice its own residual): it came from another pattern.
    The objects fill one ``%`` template: each its name, the apex, the crease
    tips to 12 significant digits and the fan of sector faces.
    """
    flat = as_samples(samples)
    if pattern is None and (flat.width != 6).any():
        raise OutOfRangeError("obj export needs an explicit pattern for non-6-crease samples")
    pat = g60() if pattern is None else pattern
    n = pat.n
    kept = np.flatnonzero(flat.valid & ~(flat.residual >= DEFAULT_TOL))  # NaN: re-fold decides
    if (flat.width[kept] != n).any():
        raise DomainError(f"expected {n} folding angles, got {flat.width[kept][flat.width[kept] != n][0]}")
    rows = flat.rho[kept, :n].reshape(len(kept), n)  # (0, n) also when no row is kept and every row is narrower
    residuals, frames = folded_frames(pat, rows)
    closes = ~(residuals > np.fmax(DEFAULT_TOL, flat.residual[kept] * 2))  # else from a different pattern
    kept = kept[closes]
    fan = np.array([c for i in range(n) for c in (0, 1 + i, 1 + (i + 1) % n)])  # face corners; 0 is the apex
    faces = np.arange(len(kept))[:, None] * (n + 1) + 1 + fan
    cells = np.concatenate([_column(kept.tolist()), crease_images(pat, frames[closes]).reshape(-1, 3 * n), faces], 1)
    template = "o sample_%04d\nv 0 0 0\n" + "v %.12g %.12g %.12g\n" * n + "f %d %d %d\n" * n
    return (template * len(kept)) % tuple(cells.ravel()) or "\n", len(flat) - len(kept)
