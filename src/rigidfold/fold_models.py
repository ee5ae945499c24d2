"""Folding-angle evaluators for the symmetric families of a degree-6 vertex.

Each family fixes a crease pattern and a coloring of its creases; the
evaluators map the free (drive) angles to the remaining class angles, which
``Family.vector`` lays out on the creases, so that loop closure holds.  Half-
and quarter-angle tangent relations are evaluated through two-argument
arctangents so the flat-folded ends of each branch stay finite.

Every relation is written once, elementwise in numpy: a family's ``solve``
applies it to a whole drive array, and ``Family.rows``, which sweeps, traces,
``fold`` and every scalar evaluator share, turns its rows into reported states:
failed drives raised or skipped, branch tags, and no -0.0.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core_geometry import (
    CreasePattern,
    _frobenius_distance,
    _read_only,
    check_fold_angle,
    closure_residuals,
    g60,
    outside_fold_range,
    rotation_products,
    wrap_angles,
)
from .errors import (
    BranchAmbiguityError,
    InconsistentPointError,
    NoSolutionError,
    NotClosedError,
    OutOfRangeError,
    SingularParameterError,
)
from .tolerances import DEFAULT_TOL, ON_CURVE, ROUNDOFF

PI = math.pi

# Per-drive reason codes of a batched solve.  0 means solved; every other
# code stands for the exception the one-drive call raises.
SOLVED, NO_SOLUTION, AMBIGUOUS, OFF_CURVE, NO_COMPLETION, OUT_OF_RANGE = range(6)
REASON_ERRORS = {
    NO_SOLUTION: NoSolutionError,  # no real branch closes
    AMBIGUOUS: BranchAmbiguityError,  # a half-angle fraction is 0/0
    OFF_CURVE: InconsistentPointError,  # the drive pair is off the relation curve
    NO_COMPLETION: InconsistentPointError,  # an on-curve pair's completion does not close below DEFAULT_TOL
    OUT_OF_RANGE: OutOfRangeError,  # a drive or a computed angle leaves [-pi, pi]
}


class Solved(NamedTuple):
    """Result of a batched solve of N drives.

    ``vectors`` (M, n) holds every closing angle vector in drive order, first
    branch first; ``drive`` (M,) the index of each one's drive; ``reason``
    (N,) one code per drive, ``SOLVED`` exactly where the drive has a row.
    """

    vectors: np.ndarray
    drive: np.ndarray
    reason: np.ndarray


class FoldModel(Enum):
    DEGREE4 = "degree4"
    TRIFOLD = "trifold"
    BOWTIE = "bowtie"
    OPPOSITES = "opposites"
    IGLOO2DOF = "igloo"
    IGLOO1DOF = "igloo1dof"
    TWOPAIR = "twopair"
    FULLY_GENERAL = "general"
    ALMOST_GENERAL = "almost-general"


@dataclass(frozen=True)
class FoldMode:
    """A family member: model, branch id and sector parameters.  Every sector of the family's layout must be > 0."""

    model: FoldModel
    mode: int = 1
    alpha: float = PI / 3
    beta: float = PI / 3

    def __post_init__(self):
        fam, mode = FAMILIES[self.model], self.mode
        if isinstance(mode, bool) or not isinstance(mode, numbers.Integral) or mode not in fam.modes:
            allowed = " or ".join(map(str, fam.modes))
            raise OutOfRangeError(f"{self.model.value} mode must be {allowed}, got {mode!r}")
        object.__setattr__(self, "mode", int(mode))  # a numpy integer is kept as the int it equals
        sectors = fam.sectors(self)
        if sectors is None:
            if not (abs(self.alpha - PI / 3) <= ROUNDOFF and abs(self.beta - PI / 3) <= ROUNDOFF):  # NaN fails
                raise OutOfRangeError(f"{self.model.value} has fixed 60-degree sectors")
        elif not all(s > 0.0 for s in sectors):  # NaN and infinities fail too
            raise OutOfRangeError(f"{self.model.value} needs every sector > 0: alpha={self.alpha}, "
                                  f"beta={self.beta} give sectors {[float(s) for s in sectors]}")

    @functools.cached_property
    def pattern(self) -> CreasePattern:
        """The crease pattern at these sectors: the shared instance of ``from_sectors``."""
        sectors = FAMILIES[self.model].sectors(self)
        return g60() if sectors is None else CreasePattern.from_sectors(sectors)


@dataclass(frozen=True)
class Family:
    """One folding family: sector layout, coloring, modes, drive angles and closed-form solve.

    ``sectors(mode)`` lists the sector angles at the mode's alpha and beta, or None for fixed 60-degree
    sectors; ``FoldMode`` checks them and builds its pattern from them.  ``solve(mode, drives)`` solves an
    (N, k) drive array in one pass and returns a ``Solved``, whose states ``rows`` reports.  The six closed
    forms close by construction; only the two-pair and general solves judge closure, at ``DEFAULT_TOL``.
    ``coloring`` gives each crease its class label (first-occurrence labels, as the census writes
    them), and ``vector`` expands class angles through it.  The callables in
    ``FAMILIES`` look the solves up by module name when called, so a wrapper
    installed on a module attribute (a profiler, a call counter) sees every call.
    """

    solve: Callable[[FoldMode, np.ndarray], Solved]
    drives: tuple[str, ...]  # CLI flag names, in the order solve takes them
    coloring: tuple[int, ...] | None  # None: the crease angles are not a coloring (degree-4 has signs)
    sectors: Callable[[FoldMode], list | None] = lambda f: None  # None: fixed 60-degree sectors
    modes: tuple[int, ...] = (1,)
    limit: Callable[[float, float], float] = lambda alpha, beta: PI  # 1-DOF drive bound
    curve: Callable[[float, float], float] | None = None  # relation the drive pair lies on
    loop: Callable[[int], np.ndarray] | None = None  # n drive pairs around ``curve``'s node loop
    numbered: bool = False  # one sample per solution branch, tagged 1, 2, ...

    def vector(self, *classes) -> np.ndarray:
        """(N, n) crease angles from one (N,) column per class, or (n,) from one scalar per class: each
        crease takes its class's angle.  With no coloring the columns are the creases'."""
        cols = classes if self.coloring is None else [classes[c - 1] for c in self.coloring]
        return np.array(cols).T

    def rows(self, mode: FoldMode, drives, skip: tuple[int, ...] = ()) -> tuple[np.ndarray, list]:
        """Every closing angle vector of an (N, k) drive array from one ``solve``, in drive order and first
        branch first, with no -0.0, and its branch tag: the mode in a two-mode family, 1, 2, ... over each
        drive's rows in a ``numbered`` one, else 0.  A failed drive raises unless its reason is in ``skip``."""
        drives = np.asarray(drives, dtype=float)
        sol = self.solve(mode, drives)
        self.raise_first(mode, drives, sol.reason, skip)
        if self.numbered:  # the position of each row among its drive's rows, from 1
            tags = (np.arange(len(sol.drive)) - np.searchsorted(sol.drive, sol.drive) + 1).tolist()
        else:  # at most one row per drive
            tags = [mode.mode if len(self.modes) > 1 else 0] * len(sol.vectors)
        return sol.vectors + 0.0, tags  # x + 0.0 is x, and 0.0 for -0.0

    def fold(self, mode: FoldMode, drives) -> list[np.ndarray]:
        """Every closing angle vector of one drive tuple, first branch first, by ``rows``; a failed drive raises."""
        return list(self.rows(mode, [drives])[0])

    def raise_first(self, mode: FoldMode, drives: np.ndarray, reason: np.ndarray, skip: tuple[int, ...] = ()):
        """Raise the one-drive exception of the first drive of an (N, k) array whose reason is
        neither solved nor in ``skip``, built from that reason code and the drive's values."""
        failed = reason != SOLVED
        for code in skip:
            failed &= reason != code
        if not failed.any():
            return
        first = int(failed.argmax())
        code, row = int(reason[first]), drives[first].tolist()
        values = ", ".join(map(str, row))
        if code == OUT_OF_RANGE:
            for name, x in zip(self.drives, row):
                check_fold_angle(x, name)  # raises for a drive outside [-pi, pi]
            limit = self.limit(mode.alpha, mode.beta)
            text = f"drive {values} maps outside [-pi, pi]; reachable |drive| <= {limit}"
        elif code == OFF_CURVE:
            text = f"({values}) is not on the {mode.model.value} curve (defect {self.curve(*row):.3e})"
        elif code == NO_COMPLETION:
            text = f"the completion of ({values}) does not close below the tolerance"
        elif code == AMBIGUOUS:
            text = "half-angle fraction is 0/0 at " + ", ".join(f"{n}={x}" for n, x in zip(self.drives, row))
        else:
            text = f"no closing branch for drives ({values})"
        raise REASON_ERRORS[code](text)


def _drive_columns(*drives) -> tuple[np.ndarray, np.ndarray]:
    """Drives broadcast to N rows as a (k, N) float array of contiguous columns, and the
    (N,) mask of rows with an angle outside [-pi, pi] (NaN and infinities too).  Those
    rows are zeroed, so no later step sees a non-finite value."""
    if len({np.shape(d) for d in drives}) > 1:
        drives = np.broadcast_arrays(*drives)
    cols = np.array(drives, dtype=float).reshape(len(drives), -1)
    bad = outside_fold_range(cols).any(axis=0)
    if bad.any():
        cols[:, bad] = 0.0
    return cols, bad


def _batched(rows):
    """Family solve of a closed form ``rows(mode, *drive columns) -> (class columns, reason)``."""

    def solve(f: FoldMode, drives) -> Solved:
        cols, bad = _drive_columns(*np.asarray(drives, dtype=float).T)
        classes, reason = rows(f, *cols)
        vectors = FAMILIES[f.model].vector(*classes)
        reason = np.where(bad, OUT_OF_RANGE, reason)
        solved = reason == SOLVED
        return Solved(vectors[solved], np.flatnonzero(solved), reason)

    return solve


def _tan_half_scaled(mult: float, rho):
    """2*atan(mult * tan(rho/2)) through atan2, finite at rho = +/-pi; elementwise."""
    return 2.0 * np.arctan2(mult * np.sin(0.5 * rho), np.cos(0.5 * rho))


def _half_angle_branch(num, den):
    """Angle with tan(rho/2) = num/den on the branch cos(rho/2) >= 0; elementwise."""
    flip = np.where(den >= 0.0, 1.0, -1.0)
    return 2.0 * np.arctan2(flip * num, flip * den)


# ---------------------------------------------------------------------------
# degree-4 flat-foldable vertex

def degree4_pattern(alpha: float, beta: float) -> CreasePattern:
    return FoldMode(FoldModel.DEGREE4, 1, alpha, beta).pattern


def degree4_multipliers(alpha: float, beta: float) -> tuple[float, float]:
    """The two constant half-angle tangent ratios p and q of the vertex."""
    FoldMode(FoldModel.DEGREE4, 1, alpha, beta)
    return _degree4_multipliers(alpha, beta)


def _degree4_multipliers(alpha: float, beta: float) -> tuple[float, float]:
    cd = math.cos(0.5 * (alpha - beta))
    ss = math.sin(0.5 * (alpha + beta))
    if abs(cd) < ROUNDOFF or abs(ss) < ROUNDOFF:
        raise SingularParameterError(f"degenerate sector pair alpha={alpha}, beta={beta}")
    return math.cos(0.5 * (alpha + beta)) / cd, math.sin(0.5 * (alpha - beta)) / ss


def _degree4_rows(alpha: float, beta: float, mode: int, drive):
    """The four crease columns of the mode and their reasons; elementwise in the drive."""
    p, q = _degree4_multipliers(alpha, beta)
    if mode == 1:
        rho1 = _tan_half_scaled(p, drive)
        return (rho1, drive, -rho1, drive), SOLVED
    rho2 = _tan_half_scaled(q, drive)
    return (drive, rho2, drive, -rho2), SOLVED


def degree4_fold(alpha: float, beta: float, mode: int, rho_drive: float) -> np.ndarray:
    """Angle 4-vector of the chosen mode; drive is rho2 (mode 1) or rho1 (mode 2)."""
    f = FoldMode(FoldModel.DEGREE4, mode, alpha, beta)
    return FAMILIES[f.model].fold(f, (rho_drive,))[0]


def pleat_multiplier(x: float) -> float:
    """p(x, pi/2): the multiplier of a right-angle pleat, (1 - tan(x/2))/(1 + tan(x/2))."""
    if not 0.0 < x < PI:
        raise OutOfRangeError(f"pleat sector must lie in (0, pi), got {x}")
    t = math.tan(0.5 * x)
    return (1.0 - t) / (1.0 + t)


# ---------------------------------------------------------------------------
# trifold

def trifold_pattern(beta: float) -> CreasePattern:
    return FoldMode(FoldModel.TRIFOLD, 1, PI / 3.0, beta).pattern


def trifold_multiplier(beta: float) -> float:
    """Quarter-angle tangent ratio tan(rho1/4)/tan(rho2/4) of the trifold."""
    return _trifold_multiplier(FoldMode(FoldModel.TRIFOLD, 1, PI / 3.0, beta).beta)


def _trifold_multiplier(beta: float) -> float:
    rad = 2.0 * math.sin(beta) * (math.sqrt(3.0) * math.cos(beta) + math.sin(beta))
    return -(math.cos(beta) + math.sqrt(3.0) * math.sin(beta) + math.sqrt(rad))


def _trifold_companion(m: float, drive):
    """Undriven angle 4*atan(m * tan(drive/4)) and whether it leaves [-pi, pi]; elementwise."""
    other = 4.0 * np.arctan(m * np.tan(0.25 * drive))
    return other, outside_fold_range(other)


def _trifold_rows(beta: float, mode: int, drive):
    """Trifold (rho1, rho2) and their reasons; elementwise in the drive."""
    other, outside = _trifold_companion(_trifold_multiplier(beta), drive)
    return (other, drive) if mode == 1 else (drive, other), np.where(outside, OUT_OF_RANGE, SOLVED)


def trifold(beta: float, mode: int, rho_drive: float) -> tuple[float, float]:
    """(rho1, rho2) of the trifold; mode 1 drives rho2, mode 2 drives rho1."""
    f = FoldMode(FoldModel.TRIFOLD, mode, PI / 3.0, beta)
    return tuple(FAMILIES[f.model].fold(f, (rho_drive,))[0][:2].tolist())


def trifold_drive_limit(beta: float) -> float:
    """Largest |drive| whose companion angle stays inside [-pi, pi].

    The companion reaches +/-pi where tan(drive/4) = 1/|m|; from there the
    bound steps to the last double the companion formula keeps inside.
    """
    return _trifold_drive_limit(FoldMode(FoldModel.TRIFOLD, 1, PI / 3.0, beta).beta)


def _trifold_drive_limit(beta: float) -> float:
    m = abs(_trifold_multiplier(beta))
    if m <= 1.0:
        return PI
    lim = 4.0 * math.atan(1.0 / m)
    while abs(_trifold_companion(m, lim)[0]) > PI:
        lim = math.nextafter(lim, 0.0)
    while abs(_trifold_companion(m, up := math.nextafter(lim, PI))[0]) <= PI:
        lim = up
    return lim


# ---------------------------------------------------------------------------
# bow tie

def bowtie_pattern(beta: float, mode: int) -> CreasePattern:
    return FoldMode(FoldModel.BOWTIE, mode, PI / 3.0, beta).pattern


def bowtie_multiplier(beta: float, mode: int) -> float:
    return _bowtie_multiplier(beta, FoldMode(FoldModel.BOWTIE, mode, PI / 3.0, beta).mode)


def _bowtie_multiplier(beta: float, mode: int) -> float:
    return -math.cos(beta) if mode == 1 else -1.0 / (1.0 + 2.0 * math.cos(beta))


def _bowtie_rows(beta: float, mode: int, rho1):
    """Bow-tie (rho1, rho2) and their reasons; elementwise in rho1."""
    return (rho1, _tan_half_scaled(_bowtie_multiplier(beta, mode), rho1)), SOLVED


def bowtie(beta: float, mode: int, rho1: float) -> float:
    """rho2 of the bow tie from rho1 via the mode's half-angle ratio."""
    f = FoldMode(FoldModel.BOWTIE, mode, PI / 3.0, beta)
    return float(FAMILIES[f.model].fold(f, (rho1,))[0][2])


# ---------------------------------------------------------------------------
# opposites

def opposites_pattern(alpha: float, beta: float) -> CreasePattern:
    return FoldMode(FoldModel.OPPOSITES, 1, alpha, beta).pattern


@dataclass(frozen=True)
class OppositesSolution:
    """Solutions for the unknown angle; ``free`` marks a vacuous relation."""

    angles: tuple[float, ...]
    free: bool = False


def _opposites_third(kxy: float, kyz: float, kxz: float, x, y):
    """Third angle z of the relation and whether it is free, from the given pair (x, y); elementwise.

    k_pq is the coefficient of t_p t_q in the relation.
    """
    sx, cx = np.sin(0.5 * x), np.cos(0.5 * x)
    sy, cy = np.sin(0.5 * y), np.cos(0.5 * y)
    num = -kxy * sx * sy
    den = kyz * cx * sy + kxz * sx * cy
    return wrap_angles(2.0 * np.arctan2(num, den)), np.hypot(num, den) < ROUNDOFF


def opposites_solve(
    alpha: float,
    beta: float,
    rho1: float | None = None,
    rho2: float | None = None,
    rho3: float | None = None,
) -> OppositesSolution:
    """Solve the bilinear half-angle relation of the opposites family.

    Exactly two of the three angles must be given.  The relation
    sin(a) t1 t2 + sin(b) t2 t3 + sin(a+b) t1 t3 = 0 (t_i = tan(rho_i/2))
    is solved for the third in projective half-angle form, so flat-folded
    creases (rho = +/-pi) need no special casing.
    """
    FoldMode(FoldModel.OPPOSITES, 1, alpha, beta)
    known = {1: rho1, 2: rho2, 3: rho3}
    given = [i for i, x in known.items() if x is not None]
    if len(given) != 2:
        raise OutOfRangeError(f"exactly two angles must be given, got {len(given)}")
    for i in given:
        check_fold_angle(known[i], f"rho{i}")
    x, y = given
    (z,) = {1, 2, 3} - set(given)
    k = {3: math.sin(alpha), 1: math.sin(beta), 2: math.sin(alpha + beta)}  # k[i]: the pair without i
    angle, free = _opposites_third(k[z], k[x], k[y], float(known[x]), float(known[y]))
    if free:
        return OppositesSolution(angles=(), free=True)
    return OppositesSolution(angles=(float(angle) + 0.0,))  # x + 0.0 is x, and 0.0 for -0.0


def _opposites_rows(alpha: float, beta: float, rho1, rho2):
    """Opposites (rho1, rho2, rho3) from (rho1, rho2); a free rho3 is taken flat.  Elementwise."""
    rho3, free = _opposites_third(math.sin(alpha), math.sin(beta), math.sin(alpha + beta), rho1, rho2)
    return (rho1, rho2, np.where(free, 0.0, rho3)), SOLVED


# ---------------------------------------------------------------------------
# igloo, two free angles

def igloo_pattern(alpha: float, beta: float) -> CreasePattern:
    return FoldMode(FoldModel.IGLOO2DOF, 1, alpha, beta).pattern


def _igloo_fraction(alpha: float, beta: float, rho2, rho3):
    """(num, den) with tan(rho1/2) = num/den for the symmetric completion; elementwise."""
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    sg, cg = math.sin(alpha + beta), math.cos(alpha + beta)
    s2, c2 = np.sin(rho2), np.cos(rho2)
    s3, c3 = np.sin(rho3), np.cos(rho3)
    num = (
        sa * sb * sg * c3
        + cb * (sa * cg - ca * sg * c2 * c3)
        + ca * (sb * cg * c2 + sg * s2 * s3)
    )
    den = sb * cg * s2 - sg * (cb * s2 * c3 + c2 * s3)
    return num, den


def _igloo_half(alpha: float, beta: float, rho2, rho3):
    """rho1 of the symmetric completion and where its fraction is 0/0; elementwise.

    Flat input (both angles below ``ROUNDOFF``) gives rho1 = 0 exactly, because
    there the fraction is noise over noise.
    """
    num, den = _igloo_fraction(alpha, beta, rho2, rho3)
    flat = np.maximum(np.abs(rho2), np.abs(rho3)) < ROUNDOFF
    ambiguous = ~flat & (np.hypot(num, den) < ROUNDOFF)
    return np.where(flat, 0.0, _half_angle_branch(num, den)), ambiguous


def igloo_rho1(alpha: float, beta: float, rho2: float, rho3: float) -> float:
    """Completing angle on the first crease of the mirror-symmetric igloo: angle 1 of the family's row.

    The half-angle tangent is a ratio of trigonometric polynomials in the
    two free angles; the branch with cos(rho1/2) >= 0 is the one realized
    by the symmetric folded state.  A drive where either completion's
    fraction is 0/0 has no determined state and raises.
    """
    f = FoldMode(FoldModel.IGLOO2DOF, 1, alpha, beta)
    return float(FAMILIES[f.model].fold(f, (rho2, rho3))[0][0])


def igloo_rho4(alpha: float, beta: float, rho2: float, rho3: float) -> float:
    """Completing angle on the middle crease: angle 4 of the family's row, refused where ``igloo_rho1`` is."""
    f = FoldMode(FoldModel.IGLOO2DOF, 1, alpha, beta)
    return float(FAMILIES[f.model].fold(f, (rho2, rho3))[0][3])


def _igloo_rows(alpha: float, beta: float, rho2, rho3):
    """Igloo (rho1, ..., rho4) and their reasons; elementwise in (rho2, rho3)."""
    rho1, ambiguous1 = _igloo_half(alpha, beta, rho2, rho3)
    rho4, ambiguous4 = _igloo_half(PI - alpha - beta, beta, rho3, rho2)
    return (rho1, rho2, rho3, rho4), np.where(ambiguous1 | ambiguous4, AMBIGUOUS, SOLVED)


# ---------------------------------------------------------------------------
# igloo, one free angle

def _igloo_1dof_rows(alpha: float, beta: float, mode: int, rho4):
    """Igloo (rho1, ..., rho4) of the 1-DOF mode and their reasons; elementwise in rho4."""
    pa, pb = pleat_multiplier(alpha), pleat_multiplier(beta)
    t = np.tan(0.25 * rho4)
    if mode == 1:
        rho1 = 4.0 * np.arctan(pb * t)
        rho2 = 0.5 * rho4 - 2.0 * np.arctan(pa * pb * t)
        num = -math.sin(0.5 * alpha) * np.sin(0.5 * rho4)
        den = math.cos(0.5 * alpha) + np.cos(0.5 * rho4) * math.sin(0.5 * alpha + beta)
    else:
        rho1 = -4.0 * np.arctan(pb * t)
        rho2 = -0.5 * rho4 + 2.0 * np.arctan(pa * pb * t)
        num = 2.0 * math.cos(0.5 * alpha) * np.sin(0.5 * rho4)
        den = (
            np.cos(0.5 * alpha + beta + 0.5 * rho4)
            + np.cos(0.5 * alpha + beta - 0.5 * rho4)
            - 2.0 * math.sin(0.5 * alpha)
        )
    return (rho1, rho2, _half_angle_branch(num, den), rho4), SOLVED


def igloo_1dof(alpha: float, beta: float, mode: int, rho4: float) -> tuple[float, float, float]:
    """(rho1, rho2, rho3) of the two 1-DOF curves through the flat state.

    Both modes share the same |rho1| and |rho2| profiles; mode 2 negates
    them and uses its own rho3 branch.  At beta = pi/2 the first crease
    stays flat (rho1 = 0) and rho2 = +/- rho4/2.
    """
    f = FoldMode(FoldModel.IGLOO1DOF, mode, alpha, beta)
    return tuple(FAMILIES[f.model].fold(f, (rho4,))[0][:3].tolist())


# ---------------------------------------------------------------------------
# two pair (fixed 60-degree sectors)

# the fifth and sixth creases, and the sine and cosine directions of rho3 (about c5) and of -rho4 (about c6)
_C5, _C6 = g60().creases[4:6]
_SIN3, _COS3 = np.cross(_C5, _C6), _C6 - (_C5 @ _C6) * _C5
_SIN4, _COS4 = np.cross(_C6, _C5), _C5 - (_C5 @ _C6) * _C6


def two_pair_curve_residual(rho1, rho2):
    """Defect of the (rho1, rho2) relation; its zero set is the model's curve.

    Elementwise on arrays.  Scalars take ``math.cos``: the tracer calls this
    one point at a time, several thousand times per curve, and ``np.cos`` on
    a Python float makes a trace about 1.5 times slower (the traced points
    are the same either way).
    """
    c = np.cos if isinstance(rho1, np.ndarray) or isinstance(rho2, np.ndarray) else math.cos
    lhs = (
        24.0 * c(rho1)
        + 24.0 * c(rho2)
        + 6.0 * c(2.0 * rho1)
        + 6.0 * c(2.0 * rho2)
        + 27.0 * c(2.0 * (rho1 + rho2))
        - 9.0 * c(2.0 * (rho1 - rho2))
    )
    rhs = (
        24.0 * c(rho1 - 2.0 * rho2)
        + 24.0 * c(2.0 * rho1 - rho2)
        + 24.0 * c(rho1 + rho2)
        + 40.0 * c(rho1 - rho2)
        - 34.0
    )
    return lhs - rhs


def two_pair_curve_gradient(rho1, rho2):
    """(d/drho1, d/drho2) of ``two_pair_curve_residual``: the tracer's analytic gradient.

    Elementwise on arrays; scalars take ``math.sin`` for the same reason the
    residual takes ``math.cos``.
    """
    s = np.sin if isinstance(rho1, np.ndarray) or isinstance(rho2, np.ndarray) else math.sin
    plus = -54.0 * s(2.0 * (rho1 + rho2)) + 24.0 * s(rho1 + rho2)  # terms in rho1 + rho2
    minus = 18.0 * s(2.0 * (rho1 - rho2)) + 40.0 * s(rho1 - rho2)  # terms in rho1 - rho2
    one_two, two_one = s(rho1 - 2.0 * rho2), s(2.0 * rho1 - rho2)
    d1 = -24.0 * s(rho1) - 12.0 * s(2.0 * rho1) + plus + minus + 24.0 * one_two + 48.0 * two_one
    d2 = -24.0 * s(rho2) - 12.0 * s(2.0 * rho2) + plus - minus - 48.0 * one_two - 24.0 * two_one
    return d1, d2


# two_pair_curve_residual = -128 P / ((1 + t1^2)^2 (1 + t2^2)^2), t = tan(rho/2), P = sum _TWO_PAIR_P[i, j] t1^i t2^j
_TWO_PAIR_P = np.array([[0, 0, -1, 0, -1], [0, 8, 0, -4, 0], [-1, 0, -5, 0, 2], [0, -4, 0, 2, 0], [-1, 0, 2, 0, 0]])
_TWO_PAIR_TURN = 1.3602216639894433  # R*, the node loop's largest |rho1|: a root of disc_t2(P)
_LOOP_T = np.tan(_TWO_PAIR_TURN / 2.0 * np.sin(np.linspace(0.0, PI / 2.0, 96, endpoint=False)[1:]))  # dense near R*


def two_pair_quartic(t) -> np.ndarray:
    """(N, 5) coefficients, highest first, of P(t, s) in s; P is symmetric: in t2 at t1 = t or in t1 at t2 = t."""
    return np.power.outer(np.asarray(t, dtype=float), np.arange(5)) @ _TWO_PAIR_P[:, ::-1]


def _two_pair_roots(t) -> np.ndarray:
    """(N, 4) complex roots s of P(t, s) from one ``eigvals`` call, reversed where 2 t^2 - 1 is the smaller end."""
    q = two_pair_quartic(t)
    rev = np.abs(q[:, :1]) < np.abs(q[:, 4:])  # near 2 t^2 = 1 a root runs off to infinity; never exactly
    q = np.where(rev, q[:, ::-1], q)
    z = np.linalg.eigvals(np.concatenate([-q[:, None, 1:] / q[:, :1, None], np.eye(3, 4)[None].repeat(len(q), 0)], 1))
    return np.divide(1.0, z, out=z, where=rev)


@functools.cache
def _node_loop_polyline() -> tuple[np.ndarray, np.ndarray]:
    """The node loop as a read-only polyline from (0, 0) on, and the arclength at each of its points."""
    z = _two_pair_roots(_LOOP_T)
    t2 = np.sort(np.where((z.imag == 0.0) & (z.real >= 0.0) & (z.real <= _LOOP_T[:, None]), z.real, np.inf), axis=1)
    arc = 2.0 * np.arctan(np.concatenate([[[0.0, 0.0]], np.column_stack([_LOOP_T, t2[:, 0]]),  # node to diagonal
                                          np.column_stack([_LOOP_T, t2[:, 1]])[t2[:, 1] < np.inf][::-1]]))
    loop = np.concatenate([-arc, -arc[::-1, ::-1], arc[1:, ::-1], arc[::-1]])  # lobe III, lobe I
    return _read_only(loop), _read_only(np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(loop, axis=0).T))]))


def two_pair_node_loop(n: int) -> np.ndarray:
    """(n, 2) distinct (rho1, rho2) pairs around the figure-eight through (0, 0), from (0, 0) on.

    One ``eigvals`` call on a rho1 grid over (0, R*), made once per process, lays out the loop by symmetry, as
    ``trace`` walks it; one more per call solves each arclength target where |slope| <= 1.  For even n the
    targets past halfway, where the loop recrosses the node, move on by half a spacing.
    """
    loop, s = _node_loop_polyline()
    k = np.arange(n)
    target = (k + 0.5 * (n % 2 == 0) * (k >= n // 2)) * s[-1] / n
    d = np.abs(np.diff(loop, axis=0))[np.searchsorted(s, target, side="right") - 1]  # of each target's segment
    steep = (d[:, 1] > d[:, 0])[:, None]
    guess = np.column_stack([np.interp(target, s, loop[:, 0]), np.interp(target, s, loop[:, 1])])
    g = np.where(steep, guess[:, ::-1], guess)  # (fixed, free): fix rho2 where the loop is steep
    z = _two_pair_roots(np.tan(g[:, 0] / 2.0))
    g[:, 1] = 2.0 * np.arctan(z[k, np.abs(z - np.tan(g[:, 1] / 2.0)[:, None]).argmin(axis=1)].real)
    return np.where(steep, g[:, ::-1], g)


def two_pair_solve(rho1, rho2) -> Solved:
    """The closing completion of each of a batch of (rho1, rho2) drive pairs, in one array pass.

    On the curve, closure is R5(rho3) R6(rho4) = M = (R1 R2 R3 R4)^T, and
    one four-crease product M gives both angles: rho3 turns c6 into M c6
    about c5, and -rho4 turns c5 into M^T c5 about c6.  So every drive has at
    most one row, kept when its full vector closes below ``DEFAULT_TOL``; the
    flat pair (0, 0) completes to exactly (0, 0).  As R1 R2 R3 R4 is orthogonal, the closure residual
    |R1 ... R6 - I| is |R5 R6 - M|, so the check rotates about two creases, not six.  Reasons: ``OFF_CURVE``
    when the pair's curve defect exceeds ``ON_CURVE``, ``NO_COMPLETION`` when the completion does not close.
    """
    (r1, r2), bad = _drive_columns(rho1, rho2)
    off = ~bad & ~(np.abs(two_pair_curve_residual(r1, r2)) <= ON_CURVE)
    live = ~(bad | off)
    # (0, 0) completes to exactly (0, 0) with residual 0; it is kept even where DEFAULT_TOL is 0
    flat = live & (r1 == 0.0) & (r2 == 0.0)
    M = rotation_products(g60(), -np.stack([r2, r2, r1, r1], axis=1), creases=(3, 2, 1, 0))
    # elementwise sums, not a matvec: a row's bits do not depend on the batch size
    m6, m5 = (M * _C6).sum(axis=2), (M * _C5[:, None]).sum(axis=1)  # M c6 and M^T c5
    rho3 = np.arctan2((m6 * _SIN3).sum(axis=1), (m6 * _COS3).sum(axis=1))
    rho4 = -np.arctan2((m5 * _SIN4).sum(axis=1), (m5 * _COS4).sum(axis=1))
    vecs = FAMILIES[FoldModel.TWOPAIR].vector(r1, r2, np.where(flat, 0.0, rho3), np.where(flat, 0.0, rho4))
    last = rotation_products(g60(), vecs[:, 4:], creases=(4, 5))  # R5 R6; rho3 and rho4 are wrapped already
    keep = live & ((_frobenius_distance(last, M) < DEFAULT_TOL) | flat)
    reason = np.where(bad, OUT_OF_RANGE, np.where(off, OFF_CURVE, np.where(keep, SOLVED, NO_COMPLETION)))
    return Solved(vecs[keep], np.flatnonzero(keep), reason)


def two_pair_complete(rho1: float, rho2: float) -> list[tuple[float, float]]:
    """The (rho3, rho4) completion of an on-curve (rho1, rho2) pair, as a list of at most one.

    Both angles come from the four-crease frame of ``two_pair_solve``.  Off-curve input raises;
    so does a completion that does not close below ``DEFAULT_TOL``.
    """
    vecs = FAMILIES[FoldModel.TWOPAIR].fold(FoldMode(FoldModel.TWOPAIR), (rho1, rho2))
    return [(float(v[4]), float(v[5])) for v in vecs]


# ---------------------------------------------------------------------------
# fully general and almost general (fixed 60-degree sectors)

_C3 = np.array([-0.5, math.sqrt(3.0) / 2.0, 0.0])
_P3 = np.array([math.sqrt(3.0) / 2.0, 0.5, 0.0])  # p: e_y mirrored by the reflection swapping c1 and c3


def _turn(rho2: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Angle about c1 turning R2 c3, sqrt(3)/2 (cos^2(rho2/2), sin rho2) along (e_y, e_z), onto (y, z) along
    (e_y, e_z).  The mirror swapping c1 and c3 carries it to the angle about c3 turning (y, z) along
    (p, e_z) onto R2^T c1."""
    return wrap_angles(np.arctan2(z, y) - np.arctan2(np.sin(rho2), np.cos(0.5 * rho2) ** 2))


def general_solve(rho4, rho5, rho6) -> Solved:
    """Every closing 6-vector of a batch of drive triples, in one array pass.

    Closure is R1 R2 R3 = B = R6^T R5^T R4^T, and the one product B gives all
    three angles: c1.B c3 = c1.R2 c3 = 1/4 - 3/4 cos rho2 (R1 fixes c1, R3
    c3), rho1 turns R2 c3 onto B c3 about c1, and rho3 turns B^T c1 onto
    R2^T c1 about c3.  The drives broadcast to N triples; rows come in drive
    order, the +rho2 branch before the -rho2 one; where 1 - cos rho2 <=
    ``ROUNDOFF`` the two are one double root, rho2 = 0.  A branch is kept when
    |cos rho2| <= 1 + ``ROUNDOFF``, the back chain does not leave the third
    crease on the first crease's axis, and the full vector closes below
    ``DEFAULT_TOL``; a drive keeping none has reason ``NO_SOLUTION``.  As B^T = R4 R5 R6
    is orthogonal, the closure residual |R1 ... R6 - I| is |R1 R2 R3 - B|, so
    the check rotates about three creases, not six.
    """
    (r4, r5, r6), bad = _drive_columns(rho4, rho5, rho6)
    B = rotation_products(g60(), -np.stack([r6, r5, r4], axis=1), creases=(5, 4, 3))
    return _solve_back(B, r4, r5, r6, bad)


def _solve_back(B, r4, r5, r6, bad) -> Solved:
    """``general_solve`` from each drive triple's back chain B = R6^T R5^T R4^T on; ``bad`` rows are refused."""
    back = B @ _C3
    cos2 = (1.0 - 4.0 * back[:, 0]) / 3.0
    r = np.arccos(np.clip(cos2, -1.0, 1.0))
    exists = ~bad & (np.abs(cos2) <= 1.0 + ROUNDOFF)
    exists &= np.hypot(back[:, 1], back[:, 2]) >= ROUNDOFF  # nearer the first crease, rho1 is free
    r[1.0 - cos2 <= ROUNDOFF] = 0.0  # a double root: one row, not two split by roundoff
    keep = np.stack([exists, exists & (r != 0.0)], axis=1)
    drive, branch = np.nonzero(keep)  # row-major: drive order, + branch first
    rho2 = np.where(branch == 0, r[drive], -r[drive])
    B, back = B[drive], back[drive]
    rho1 = _turn(rho2, back[:, 1], back[:, 2])
    rho3 = _turn(rho2, (B[:, 0] * _P3).sum(axis=1), B[:, 0, 2])  # B[:, 0] = B^T c1
    vecs = FAMILIES[FoldModel.FULLY_GENERAL].vector(rho1, rho2, rho3, r4[drive], r5[drive], r6[drive])
    front = rotation_products(g60(), vecs[:, :3], creases=(0, 1, 2))  # rho1 and rho3 are wrapped already
    closes = _frobenius_distance(front, B) < DEFAULT_TOL
    reason = np.where(bad, OUT_OF_RANGE, NO_SOLUTION)
    reason[drive[closes]] = SOLVED
    return Solved(vecs[closes], drive[closes], reason)


def general_fold(rho4: float, rho5: float, rho6: float) -> list[np.ndarray]:
    """All closing 6-vectors for the drive triple, one per rho2 branch."""
    return FAMILIES[FoldModel.FULLY_GENERAL].fold(FoldMode(FoldModel.FULLY_GENERAL), (rho4, rho5, rho6))


def almost_general(rho4: float, rho5: float) -> list[np.ndarray]:
    """Closing 6-vectors of the general family with its last two drives tied, laid
    out by the family's coloring: the equal-angle pair on the first two creases."""
    return FAMILIES[FoldModel.ALMOST_GENERAL].fold(FoldMode(FoldModel.ALMOST_GENERAL), (rho4, rho5))


def _almost_general_solve(drives) -> Solved:
    """General rows of the drives (rho4, rho5, rho5); their classes are (rho5, rho1, rho2, rho3, rho4)."""
    sol = general_solve(*np.asarray(drives, dtype=float)[:, [0, 1, 1]].T)
    return sol._replace(vectors=FAMILIES[FoldModel.ALMOST_GENERAL].vector(*sol.vectors[:, [4, 0, 1, 2, 3]].T))


# ---------------------------------------------------------------------------
# family table

_IGLOO = (1, 2, 3, 4, 3, 2)  # the mirror layout of both igloo families: the 1-DOF modes fold in it too


def _igloo_sectors(f: FoldMode) -> list:
    g = PI - f.alpha - f.beta
    return [f.alpha, f.beta, g, g, f.beta, f.alpha]


FAMILIES: dict[FoldModel, Family] = {
    FoldModel.DEGREE4: Family(
        sectors=lambda f: [PI - f.beta, f.alpha, f.beta, PI - f.alpha], coloring=None,
        solve=_batched(lambda f, x: _degree4_rows(f.alpha, f.beta, f.mode, x)),
        drives=("drive",), modes=(1, 2)),
    FoldModel.TRIFOLD: Family(
        sectors=lambda f: [f.beta, 2.0 * PI / 3.0 - f.beta] * 3, coloring=(1, 2, 1, 2, 1, 2),
        solve=_batched(lambda f, x: _trifold_rows(f.beta, f.mode, x)),
        drives=("drive",), modes=(1, 2), limit=lambda alpha, beta: _trifold_drive_limit(beta)),
    FoldModel.BOWTIE: Family(
        sectors=lambda f: ([PI - 2.0 * f.beta, f.beta, f.beta] if f.mode == 1
                           else [f.beta, PI - 2.0 * f.beta, f.beta]) * 2, coloring=(1, 1, 2, 1, 1, 2),
        solve=_batched(lambda f, x: _bowtie_rows(f.beta, f.mode, x)),
        drives=("drive",), modes=(1, 2)),
    FoldModel.OPPOSITES: Family(
        sectors=lambda f: [f.alpha, f.beta, PI - f.alpha - f.beta] * 2, coloring=(1, 2, 3, 1, 2, 3),
        solve=_batched(lambda f, x, y: _opposites_rows(f.alpha, f.beta, x, y)),
        drives=("rho1", "rho2")),
    FoldModel.IGLOO2DOF: Family(
        sectors=_igloo_sectors, coloring=_IGLOO,
        solve=_batched(lambda f, x, y: _igloo_rows(f.alpha, f.beta, x, y)),
        drives=("rho2", "rho3")),
    FoldModel.IGLOO1DOF: Family(
        sectors=_igloo_sectors, coloring=_IGLOO,
        solve=_batched(lambda f, x: _igloo_1dof_rows(f.alpha, f.beta, f.mode, x)),
        drives=("rho4",), modes=(1, 2)),
    FoldModel.TWOPAIR: Family(
        coloring=(1, 1, 2, 2, 3, 4),
        solve=lambda f, d: two_pair_solve(*np.asarray(d, dtype=float).T),
        drives=("rho1", "rho2"), curve=lambda rho1, rho2: two_pair_curve_residual(rho1, rho2),
        loop=lambda n: two_pair_node_loop(n)),
    FoldModel.FULLY_GENERAL: Family(
        coloring=(1, 2, 3, 4, 5, 6),
        solve=lambda f, d: general_solve(*np.asarray(d, dtype=float).T),
        drives=("rho4", "rho5", "rho6"), numbered=True),
    FoldModel.ALMOST_GENERAL: Family(
        coloring=(1, 1, 2, 3, 4, 5),
        solve=lambda f, d: _almost_general_solve(d),
        drives=("rho4", "rho5"), numbered=True),
}


# ---------------------------------------------------------------------------
# seven-vertex triangulated demo patch

def resch_fold(t: float) -> dict[str, np.ndarray]:
    """Angle vectors of the seven-vertex 120-degree-symmetric patch.

    The center vertex is the 60-degree trifold row at t; its undriven rho1
    drives the three 1-DOF igloo vertices (mode 2) through the shared
    crease, and the outer three vertices are the igloo rows at the (rho2,
    rho3) they share with their neighbors.  All vertices sit on 60-degree
    patterns.  A drive the trifold row refuses (past ``trifold_drive_limit``,
    or outside [-pi, pi]) raises the trifold's error.
    """
    center = FAMILIES[FoldModel.TRIFOLD].fold(FoldMode(FoldModel.TRIFOLD), (t,))[0]
    inner = FAMILIES[FoldModel.IGLOO1DOF].fold(FoldMode(FoldModel.IGLOO1DOF, 2), (center[0],))[0]
    outer = FAMILIES[FoldModel.IGLOO2DOF].fold(FoldMode(FoldModel.IGLOO2DOF), inner[1:3])[0]
    for vid, res in zip(("r1", "r2", "r5"), closure_residuals(g60(), np.stack([center, inner, outer])).tolist()):
        if res > DEFAULT_TOL:
            raise NotClosedError(f"vertex {vid} fails closure at drive {t}", residual=res)
    rows = (center, inner, inner.copy(), inner.copy(), outer, outer.copy(), outer.copy())
    return {f"r{i}": vec for i, vec in enumerate(rows, 1)}
