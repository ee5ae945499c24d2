"""Folding-angle evaluators for the symmetric families of a degree-6 vertex.

Each family fixes a crease pattern and a coloring of its creases; the
evaluators map the free (drive) angles to the remaining ones so that the
assembled angle vector satisfies loop closure.  Half- and quarter-angle
tangent relations are evaluated through two-argument arctangents so the
flat-folded ends of each branch stay finite.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core_geometry import (
    CreasePattern,
    check_fold_angle,
    closure_residual,
    closure_residuals,
    g60,
    rotation_products,
    wrap_angle,
    wrap_angles,
)
from .errors import (
    BranchAmbiguityError,
    DegenerateConfigurationError,
    InconsistentPointError,
    NoSolutionError,
    NotClosedError,
    OutOfRangeError,
    SingularParameterError,
)

_SING_TOL = 1e-12
_AMBIGUOUS_TOL = 1e-12
_CURVE_TOL = 1e-7
_CLOSE_TOL = 1e-8
_DEDUPE_TOL = 1e-6
_RESCH_TOL = 1e-6

PI = math.pi


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
    """A family member: model, branch id and sector parameters."""

    model: FoldModel
    mode: int = 1
    alpha: float = PI / 3
    beta: float = PI / 3

    def __post_init__(self):
        fam = FAMILIES[self.model]
        if self.mode not in fam.modes:
            allowed = " or ".join(map(str, fam.modes))
            raise OutOfRangeError(f"{self.model.value} mode must be {allowed}, got {self.mode}")
        if fam.domain is not None:
            fam.domain(self.alpha, self.beta)
        elif abs(self.alpha - PI / 3) > 1e-12 or abs(self.beta - PI / 3) > 1e-12:
            raise OutOfRangeError(f"{self.model.value} has fixed 60-degree sectors")


@dataclass(frozen=True)
class Family:
    """One folding family: crease pattern, modes, drive angles and closed-form solve.

    ``solve(mode, drives, tol)`` returns every closing angle vector for the
    drive tuple, first branch first.  The callables in ``FAMILIES`` look the
    evaluators up by module name when called, so a wrapper installed on a
    module attribute (a profiler, a call counter) sees every call.
    """

    pattern: Callable[[FoldMode], CreasePattern]
    solve: Callable[[FoldMode, tuple, float], list[np.ndarray]]
    drives: tuple[str, ...]  # CLI flag names, in the order solve takes them
    domain: Callable[[float, float], None] | None = None  # None: fixed 60-degree sectors
    modes: tuple[int, ...] = (1,)
    limit: Callable[[float, float], float] = lambda alpha, beta: PI  # 1-DOF drive bound
    curve: Callable[[float, float], float] | None = None  # relation the drive pair lies on
    numbered: bool = False  # one sample per solution branch, tagged 1, 2, ...


@dataclass(frozen=True)
class Multiplier:
    """Constant tangent ratio of a 1-DOF mode, with its half-angle-tangent equivalent."""

    value: float
    tan_half_value: float


def _check_degree4_domain(alpha: float, beta: float):
    if not (0.0 < alpha < PI and 0.0 < beta < PI):
        raise OutOfRangeError(f"degree-4 sectors need alpha, beta in (0, pi): {alpha}, {beta}")


def _check_trifold_domain(beta: float):
    if not 0.0 < beta < 2.0 * PI / 3.0:
        raise OutOfRangeError(f"trifold needs beta in (0, 2pi/3), got {beta}")


def _check_bowtie_domain(beta: float):
    if not 0.0 < beta < PI / 2.0:
        raise OutOfRangeError(f"bow tie needs beta in (0, pi/2), got {beta}")


def _check_wedge_domain(alpha: float, beta: float):
    if not (alpha > 0.0 and beta > 0.0 and alpha + beta < PI):
        raise OutOfRangeError(f"need alpha, beta > 0 with alpha + beta < pi: {alpha}, {beta}")


def _tan_half_scaled(mult: float, rho: float) -> float:
    """2*atan(mult * tan(rho/2)) through atan2, finite at rho = +/-pi."""
    return 2.0 * math.atan2(mult * math.sin(0.5 * rho), math.cos(0.5 * rho))


def _half_angle_branch(num: float, den: float) -> float:
    """Angle with tan(rho/2) = num/den on the branch cos(rho/2) >= 0."""
    if den >= 0.0:
        return 2.0 * math.atan2(num, den)
    return 2.0 * math.atan2(-num, -den)


def _solve_circle_linear(a: float, b: float, c: float) -> list[float]:
    """Roots of a*cos(x) + b*sin(x) = c in (-pi, pi]."""
    r = math.hypot(a, b)
    if r < _SING_TOL:
        return []
    d = c / r
    if abs(d) > 1.0 + 1e-9:
        return []
    d = max(-1.0, min(1.0, d))
    phi = math.atan2(b, a)
    off = math.acos(d)
    roots = [wrap_angle(phi + off), wrap_angle(phi - off)]
    if abs(roots[0] - roots[1]) < 1e-12:
        return roots[:1]
    return roots


# ---------------------------------------------------------------------------
# degree-4 flat-foldable vertex

def degree4_pattern(alpha: float, beta: float) -> CreasePattern:
    _check_degree4_domain(alpha, beta)
    return CreasePattern.from_sectors([PI - beta, alpha, beta, PI - alpha])


def degree4_multipliers(alpha: float, beta: float) -> tuple[Multiplier, Multiplier]:
    """The two constant half-angle tangent ratios p and q of the vertex."""
    _check_degree4_domain(alpha, beta)
    cd = math.cos(0.5 * (alpha - beta))
    ss = math.sin(0.5 * (alpha + beta))
    if abs(cd) < _SING_TOL or abs(ss) < _SING_TOL:
        raise SingularParameterError(f"degenerate sector pair alpha={alpha}, beta={beta}")
    p = math.cos(0.5 * (alpha + beta)) / cd
    q = math.sin(0.5 * (alpha - beta)) / ss
    ta, tb = math.tan(0.5 * alpha), math.tan(0.5 * beta)
    p_half = (1.0 - ta * tb) / (1.0 + ta * tb)
    q_half = (ta - tb) / (ta + tb)
    return Multiplier(p, p_half), Multiplier(q, q_half)


def degree4_fold(alpha: float, beta: float, mode: int, rho_drive: float) -> np.ndarray:
    """Angle 4-vector of the chosen mode; drive is rho2 (mode 1) or rho1 (mode 2)."""
    if mode not in (1, 2):
        raise OutOfRangeError(f"mode must be 1 or 2, got {mode}")
    check_fold_angle(rho_drive)
    p, q = degree4_multipliers(alpha, beta)
    if mode == 1:
        rho1 = _tan_half_scaled(p.value, rho_drive)
        return np.array([rho1, rho_drive, -rho1, rho_drive])
    rho2 = _tan_half_scaled(q.value, rho_drive)
    return np.array([rho_drive, rho2, rho_drive, -rho2])


def pleat_multiplier(x: float) -> float:
    """p(x, pi/2): the multiplier of a right-angle pleat, (1 - tan(x/2))/(1 + tan(x/2))."""
    if not 0.0 < x < PI:
        raise OutOfRangeError(f"pleat sector must lie in (0, pi), got {x}")
    t = math.tan(0.5 * x)
    return (1.0 - t) / (1.0 + t)


# ---------------------------------------------------------------------------
# trifold

def trifold_pattern(beta: float) -> CreasePattern:
    _check_trifold_domain(beta)
    return CreasePattern.from_sectors([beta, 2.0 * PI / 3.0 - beta] * 3)


def trifold_multiplier(beta: float) -> float:
    """Quarter-angle tangent ratio tan(rho1/4)/tan(rho2/4) of the trifold."""
    _check_trifold_domain(beta)
    rad = 2.0 * math.sin(beta) * (math.sqrt(3.0) * math.cos(beta) + math.sin(beta))
    return -(math.cos(beta) + math.sqrt(3.0) * math.sin(beta) + math.sqrt(rad))


def trifold(beta: float, mode: int, rho_drive: float) -> tuple[float, float]:
    """(rho1, rho2) of the trifold; mode 1 drives rho2, mode 2 drives rho1."""
    if mode not in (1, 2):
        raise OutOfRangeError(f"mode must be 1 or 2, got {mode}")
    check_fold_angle(rho_drive)
    m = trifold_multiplier(beta)
    other = 4.0 * math.atan(m * math.tan(0.25 * rho_drive))
    if abs(other) > PI + 1e-12:
        raise OutOfRangeError(
            f"drive {rho_drive} maps outside [-pi, pi] (companion {other}); "
            f"reachable |drive| <= {trifold_drive_limit(beta)}"
        )
    return (other, rho_drive) if mode == 1 else (rho_drive, other)


def trifold_drive_limit(beta: float) -> float:
    """Largest |drive| whose companion angle stays inside [-pi, pi], by bisection."""
    m = abs(trifold_multiplier(beta))
    if m <= 1.0:
        return PI
    lo, hi = 0.0, PI
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if abs(4.0 * math.atan(m * math.tan(0.25 * mid))) <= PI:
            lo = mid
        else:
            hi = mid
    return lo


def trifold_vector(rho1: float, rho2: float) -> np.ndarray:
    return np.array([rho1, rho2, rho1, rho2, rho1, rho2])


# ---------------------------------------------------------------------------
# bow tie

def bowtie_pattern(beta: float, mode: int) -> CreasePattern:
    _check_bowtie_domain(beta)
    if mode == 1:
        return CreasePattern.from_sectors([PI - 2.0 * beta, beta, beta] * 2)
    if mode == 2:
        return CreasePattern.from_sectors([beta, PI - 2.0 * beta, beta] * 2)
    raise OutOfRangeError(f"mode must be 1 or 2, got {mode}")


def bowtie_multiplier(beta: float, mode: int) -> float:
    _check_bowtie_domain(beta)
    if mode == 1:
        return -math.cos(beta)
    if mode == 2:
        return -1.0 / (1.0 + 2.0 * math.cos(beta))
    raise OutOfRangeError(f"mode must be 1 or 2, got {mode}")


def bowtie(beta: float, mode: int, rho1: float) -> float:
    """rho2 of the bow tie from rho1 via the mode's half-angle ratio."""
    check_fold_angle(rho1, "rho1")
    return _tan_half_scaled(bowtie_multiplier(beta, mode), rho1)


def bowtie_vector(rho1: float, rho2: float) -> np.ndarray:
    return np.array([rho1, rho1, rho2, rho1, rho1, rho2])


# ---------------------------------------------------------------------------
# opposites

def opposites_pattern(alpha: float, beta: float) -> CreasePattern:
    _check_wedge_domain(alpha, beta)
    return CreasePattern.from_sectors([alpha, beta, PI - alpha - beta] * 2)


@dataclass(frozen=True)
class OppositesSolution:
    """Solutions for the unknown angle; ``free`` marks a vacuous relation."""

    angles: tuple[float, ...]
    free: bool = False


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
    _check_wedge_domain(alpha, beta)
    known = {1: rho1, 2: rho2, 3: rho3}
    given = [i for i, x in known.items() if x is not None]
    if len(given) != 2:
        raise OutOfRangeError(f"exactly two angles must be given, got {len(given)}")
    for i in given:
        check_fold_angle(known[i], f"rho{i}")
    (unknown,) = [i for i in (1, 2, 3) if i not in given]
    c12, c23, c13 = math.sin(alpha), math.sin(beta), math.sin(alpha + beta)
    s = {i: math.sin(0.5 * known[i]) for i in given}
    c = {i: math.cos(0.5 * known[i]) for i in given}
    if unknown == 3:
        num = -c12 * s[1] * s[2]
        den = c23 * c[1] * s[2] + c13 * s[1] * c[2]
    elif unknown == 1:
        num = -c23 * s[2] * s[3]
        den = c12 * s[2] * c[3] + c13 * c[2] * s[3]
    else:
        num = -c13 * s[1] * s[3]
        den = c12 * s[1] * c[3] + c23 * c[1] * s[3]
    if math.hypot(num, den) < _SING_TOL:
        return OppositesSolution(angles=(), free=True)
    return OppositesSolution(angles=(wrap_angle(2.0 * math.atan2(num, den)),))


def opposites_vector(rho1: float, rho2: float, rho3: float) -> np.ndarray:
    return np.array([rho1, rho2, rho3, rho1, rho2, rho3])


# ---------------------------------------------------------------------------
# igloo, two free angles

def igloo_pattern(alpha: float, beta: float) -> CreasePattern:
    _check_wedge_domain(alpha, beta)
    g = PI - alpha - beta
    return CreasePattern.from_sectors([alpha, beta, g, g, beta, alpha])


def _igloo_fraction(alpha: float, beta: float, rho2: float, rho3: float) -> tuple[float, float]:
    """(num, den) with tan(rho1/2) = num/den for the symmetric completion."""
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    sg, cg = math.sin(alpha + beta), math.cos(alpha + beta)
    s2, c2 = math.sin(rho2), math.cos(rho2)
    s3, c3 = math.sin(rho3), math.cos(rho3)
    num = (
        sa * sb * sg * c3
        + cb * (sa * cg - ca * sg * c2 * c3)
        + ca * (sb * cg * c2 + sg * s2 * s3)
    )
    den = sb * cg * s2 - sg * (cb * s2 * c3 + c2 * s3)
    return num, den


def igloo_rho1(alpha: float, beta: float, rho2: float, rho3: float) -> float:
    """Completing angle on the first crease of the mirror-symmetric igloo.

    The half-angle tangent is a ratio of trigonometric polynomials in the
    two free angles; the branch with cos(rho1/2) >= 0 is the one realized
    by the symmetric folded state.  When numerator and denominator vanish
    together the branch is ambiguous and the two one-sided continuations
    are reported.
    """
    _check_wedge_domain(alpha, beta)
    check_fold_angle(rho2, "rho2")
    check_fold_angle(rho3, "rho3")
    if max(abs(rho2), abs(rho3)) < _AMBIGUOUS_TOL:
        return 0.0  # flat to working precision; the fraction would be noise / noise
    num, den = _igloo_fraction(alpha, beta, rho2, rho3)
    if math.hypot(num, den) < _AMBIGUOUS_TOL:
        eps = 1e-6
        cands = []
        for d in (eps, -eps):
            n2, d2 = _igloo_fraction(alpha, beta, rho2 + d, rho3)
            if math.hypot(n2, d2) >= _AMBIGUOUS_TOL:
                cands.append(_half_angle_branch(n2, d2))
        raise BranchAmbiguityError(
            f"half-angle fraction is 0/0 at rho2={rho2}, rho3={rho3}", candidates=cands
        )
    return _half_angle_branch(num, den)


def igloo_rho4(alpha: float, beta: float, rho2: float, rho3: float) -> float:
    """Completing angle on the middle crease; the vertex flipped end for end."""
    _check_wedge_domain(alpha, beta)
    return igloo_rho1(PI - alpha - beta, beta, rho3, rho2)


def igloo_vector(rho1: float, rho2: float, rho3: float, rho4: float) -> np.ndarray:
    return np.array([rho1, rho2, rho3, rho4, rho3, rho2])


# ---------------------------------------------------------------------------
# igloo, one free angle

def igloo_1dof(alpha: float, beta: float, mode: int, rho4: float) -> tuple[float, float, float]:
    """(rho1, rho2, rho3) of the two 1-DOF curves through the flat state.

    Both modes share the same |rho1| and |rho2| profiles; mode 2 negates
    them and uses its own rho3 branch.  At beta = pi/2 the first crease
    stays flat (rho1 = 0) and rho2 = +/- rho4/2.
    """
    _check_wedge_domain(alpha, beta)
    if mode not in (1, 2):
        raise OutOfRangeError(f"mode must be 1 or 2, got {mode}")
    check_fold_angle(rho4, "rho4")
    pa, pb = pleat_multiplier(alpha), pleat_multiplier(beta)
    t = math.tan(0.25 * rho4)
    if mode == 1:
        rho1 = 4.0 * math.atan(pb * t)
        rho2 = 0.5 * rho4 - 2.0 * math.atan(pa * pb * t)
        num = -math.sin(0.5 * alpha) * math.sin(0.5 * rho4)
        den = math.cos(0.5 * alpha) + math.cos(0.5 * rho4) * math.sin(0.5 * alpha + beta)
    else:
        rho1 = -4.0 * math.atan(pb * t)
        rho2 = -0.5 * rho4 + 2.0 * math.atan(pa * pb * t)
        num = 2.0 * math.cos(0.5 * alpha) * math.sin(0.5 * rho4)
        den = (
            math.cos(0.5 * alpha + beta + 0.5 * rho4)
            + math.cos(0.5 * alpha + beta - 0.5 * rho4)
            - 2.0 * math.sin(0.5 * alpha)
        )
    rho3 = _half_angle_branch(num, den)
    return rho1, rho2, rho3


# ---------------------------------------------------------------------------
# two pair (fixed 60-degree sectors)

def two_pair_pattern() -> CreasePattern:
    return g60()


def two_pair_vector(rho1: float, rho2: float, rho3: float, rho4: float) -> np.ndarray:
    return np.array([rho1, rho1, rho2, rho2, rho3, rho4])


def two_pair_curve_residual(rho1: float, rho2: float) -> float:
    """Defect of the (rho1, rho2) relation; its zero set is the model's curve."""
    c = math.cos
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


def two_pair_complete(rho1: float, rho2: float, tol: float = _CLOSE_TOL) -> list[tuple[float, float]]:
    """(rho3, rho4) completions of an on-curve (rho1, rho2) pair.

    rho4 solves a linear-in-(cos, sin) equation, then rho3 another one;
    only combinations whose full 6-vector closes survive.  Off-curve input
    or a spurious branch yields no closing candidate.
    """
    check_fold_angle(rho1, "rho1")
    check_fold_angle(rho2, "rho2")
    if abs(two_pair_curve_residual(rho1, rho2)) > _CURVE_TOL:
        raise InconsistentPointError(
            f"({rho1}, {rho2}) is not on the two-pair curve "
            f"(defect {two_pair_curve_residual(rho1, rho2):.3e})"
        )
    if rho1 == 0.0 and rho2 == 0.0:
        return [(0.0, 0.0)]
    c1, s1 = math.cos(rho1), math.sin(rho1)
    c2, s2 = math.cos(rho2), math.sin(rho2)
    a4 = 2.0 + 2.0 * c1
    b4 = -4.0 * s1
    c4 = 4.0 * c2 + 3.0 * math.cos(2.0 * rho2) - 1.0 - 2.0 * c1
    rho4_cands = _solve_circle_linear(a4, b4, c4)
    if not rho4_cands and math.hypot(a4, b4) < _SING_TOL and abs(c4) < 1e-9:
        rho4_cands = list(np.linspace(-PI, PI, 49)[:-1])  # relation vacuous at rho1 = pi
    pattern = two_pair_pattern()
    out: list[tuple[float, float, float]] = []
    for rho4 in rho4_cands:
        a5 = 1.0 + 3.0 * math.cos(2.0 * rho2)
        b5 = -3.0 * (c2 - 1.0) * s2
        c5 = (1.0 + 3.0 * math.cos(2.0 * rho1)) * math.cos(rho4) - 3.0 * (c1 - 1.0) * s1 * math.sin(rho4)
        rho3_cands = _solve_circle_linear(a5, b5, c5)
        if not rho3_cands and math.hypot(a5, b5) < _SING_TOL and abs(c5) < 1e-9:
            rho3_cands = list(np.linspace(-PI, PI, 49)[:-1])
        for rho3 in rho3_cands:
            res = closure_residual(pattern, two_pair_vector(rho1, rho2, rho3, rho4))
            if res < tol:
                out.append((rho3, rho4, res))
    out.sort(key=lambda t: t[2])
    kept: list[tuple[float, float]] = []
    for rho3, rho4, _ in out:
        if all(math.hypot(rho3 - a, rho4 - b) > _DEDUPE_TOL for a, b in kept):
            kept.append((rho3, rho4))
    if not kept:
        raise InconsistentPointError(
            f"no completion of ({rho1}, {rho2}) closes; point lies on a spurious branch"
        )
    return kept


# ---------------------------------------------------------------------------
# fully general and almost general (fixed 60-degree sectors)

_C3 = np.array([-0.5, math.sqrt(3.0) / 2.0, 0.0])
_RHO2_SLACK = 1e-12  # |cos rho2| up to 1 + this still has the branch rho2 = 0 or pi
_AXIS_TOL = 1e-12  # back chain closer than this to the first crease leaves rho1 free


def _drive_arrays(**drives) -> list[np.ndarray]:
    """Validated drive angles as equal-length 1-d arrays; scalars broadcast."""
    arrays = [np.ravel(a).astype(float) for a in np.broadcast_arrays(*drives.values())]
    for name, a in zip(drives, arrays):
        bad = ~(np.abs(a) <= PI + 1e-12)  # NaN and infinities are bad too
        if bad.any():
            check_fold_angle(a[bad][0], name)
    return arrays


def _back_chains(rho4: np.ndarray, rho5: np.ndarray, rho6: np.ndarray) -> np.ndarray:
    return rotation_products(g60(), -np.stack([rho6, rho5, rho4], axis=1), creases=(5, 4, 3)) @ _C3


def _rho2_branches(rho4: np.ndarray, rho5: np.ndarray, rho6: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, exists): rho2 = +/-r where a branch exists; r = 0 is one branch."""
    rhs = general_cos_rho2(np.sin(rho4), np.cos(rho4), np.sin(rho5), np.cos(rho5),
                           np.sin(rho6), np.cos(rho6))
    exists = np.abs(rhs) <= 1.0 + _RHO2_SLACK
    return np.arccos(np.clip(rhs, -1.0, 1.0)), exists


def _rho1(rho2: np.ndarray, back: np.ndarray) -> np.ndarray:
    """rho1 turning the forward image of the third crease onto the back chain."""
    v1 = (math.sqrt(3.0) / 2.0) * np.cos(0.5 * rho2) ** 2
    v2 = (math.sqrt(3.0) / 2.0) * np.sin(rho2)
    return wrap_angles(np.arctan2(back[:, 2], back[:, 1]) - np.arctan2(v2, v1))


def _rho3(rho1, rho2, rho4, rho5, rho6) -> np.ndarray:
    """Angle of R3 = (R1 R2)^T (R4 R5 R6)^T about the third crease."""
    M = rotation_products(g60(), -np.stack([rho2, rho1, rho6, rho5, rho4], axis=1),
                          creases=(1, 0, 5, 4, 3))
    w0 = 0.5 * (M[:, 2, 1] - M[:, 1, 2])
    w1 = 0.5 * (M[:, 0, 2] - M[:, 2, 0])
    return np.arctan2(w0 * _C3[0] + w1 * _C3[1], 0.5 * (M[:, 0, 0] + M[:, 1, 1] + M[:, 2, 2] - 1.0))


def general_c3_image(rho1: float, rho2: float) -> np.ndarray:
    """Third crease direction after folding the first two creases."""
    r1, r2 = _drive_arrays(rho1=rho1, rho2=rho2)
    return rotation_products(g60(), np.stack([r1, r2], axis=1), creases=(0, 1))[0] @ _C3


def general_cos_rho2(s4, c4, s5, c5, s6, c6):
    """cos(rho2) forced by the drives' sines and cosines; elementwise on arrays."""
    return 0.25 * (
        1.0 + c6 - 2.0 * s4 * s5 - 2.0 * c6 * s4 * s5 - 2.0 * s5 * s6
        + c5 * (1.0 + c6 - 4.0 * s4 * s6)
        + c4 * (1.0 - 3.0 * c6 + c5 * (1.0 + c6) - 2.0 * s5 * s6)
    )


def general_rho2(rho4: float, rho5: float, rho6: float) -> list[float]:
    """The 0, 1 or 2 values of rho2 compatible with the three drive angles."""
    r, exists = _rho2_branches(*_drive_arrays(rho4=rho4, rho5=rho5, rho6=rho6))
    if not exists[0]:
        return []
    r = float(r[0])
    return [r] if r == 0.0 else [r, -r]


def general_rho1(rho2: float, rho4: float, rho5: float, rho6: float) -> float:
    """rho1 aligning the forward image of the third crease with the back chain."""
    r2, r4, r5, r6 = _drive_arrays(rho2=rho2, rho4=rho4, rho5=rho5, rho6=rho6)
    back = _back_chains(r4, r5, r6)
    if math.hypot(back[0, 1], back[0, 2]) < _AXIS_TOL:
        raise DegenerateConfigurationError(
            "back chain leaves the third crease on the rotation axis; rho1 is free"
        )
    return float(_rho1(r2, back)[0])


def general_rho3(rho1: float, rho2: float, rho4: float, rho5: float, rho6: float) -> float:
    """Remaining angle, read off the loop-closure product as an axis rotation."""
    return float(_rho3(*_drive_arrays(rho1=rho1, rho2=rho2, rho4=rho4, rho5=rho5, rho6=rho6))[0])


def general_solve(rho4, rho5, rho6, tol: float = _CLOSE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Every closing 6-vector of a batch of drive triples, in one array pass.

    The drives broadcast to N triples.  Returns (vectors, drive): an (M, 6)
    array of closing angle vectors and, for each, the index of its drive
    triple.  Rows come in drive order, the +rho2 branch before the -rho2
    one.  A branch is kept when |cos rho2| <= 1 + 1e-12, the back chain
    does not leave the third crease on the first crease's axis, and the
    full vector closes below ``tol``.
    """
    r4, r5, r6 = _drive_arrays(rho4=rho4, rho5=rho5, rho6=rho6)
    r, exists = _rho2_branches(r4, r5, r6)
    back = _back_chains(r4, r5, r6)
    exists &= np.hypot(back[:, 1], back[:, 2]) >= _AXIS_TOL
    keep = np.stack([exists, exists & (r != 0.0)], axis=1)
    drive, branch = np.nonzero(keep)  # row-major: drive order, + branch first
    rho2 = np.where(branch == 0, r[drive], -r[drive])
    r4, r5, r6 = r4[drive], r5[drive], r6[drive]
    rho1 = _rho1(rho2, back[drive])
    rho3 = _rho3(rho1, rho2, r4, r5, r6)
    vecs = np.stack([rho1, rho2, rho3, r4, r5, r6], axis=1)
    closes = closure_residuals(g60(), vecs) < tol
    return vecs[closes], drive[closes]


def general_fold(rho4: float, rho5: float, rho6: float, tol: float = _CLOSE_TOL) -> list[np.ndarray]:
    """All closing 6-vectors for the drive triple, one per rho2 branch."""
    vecs, _ = general_solve(rho4, rho5, rho6, tol)
    if not len(vecs):
        raise NoSolutionError(f"no closing branch for drives ({rho4}, {rho5}, {rho6})")
    return list(vecs)


def almost_general(rho4: float, rho5: float, tol: float = _CLOSE_TOL) -> list[np.ndarray]:
    """Closing 6-vectors with the last two drives tied, re-rooted so the
    equal-angle pair sits on the first two creases."""
    sols = general_fold(rho4, rho5, rho5, tol=tol)
    return [np.roll(v, 2) for v in sols]


# ---------------------------------------------------------------------------
# family table

def _opposites_closing(f: FoldMode, d: tuple, tol: float) -> list[np.ndarray]:
    sol = opposites_solve(f.alpha, f.beta, rho1=d[0], rho2=d[1])
    return [opposites_vector(d[0], d[1], 0.0 if sol.free else sol.angles[0])]  # free: rho3 flat


FAMILIES: dict[FoldModel, Family] = {
    FoldModel.DEGREE4: Family(
        pattern=lambda f: degree4_pattern(f.alpha, f.beta),
        solve=lambda f, d, tol: [degree4_fold(f.alpha, f.beta, f.mode, d[0])],
        drives=("drive",), domain=_check_degree4_domain, modes=(1, 2)),
    FoldModel.TRIFOLD: Family(
        pattern=lambda f: trifold_pattern(f.beta),
        solve=lambda f, d, tol: [trifold_vector(*trifold(f.beta, f.mode, d[0]))],
        drives=("drive",), domain=lambda alpha, beta: _check_trifold_domain(beta), modes=(1, 2),
        limit=lambda alpha, beta: trifold_drive_limit(beta)),
    FoldModel.BOWTIE: Family(
        pattern=lambda f: bowtie_pattern(f.beta, f.mode),
        solve=lambda f, d, tol: [bowtie_vector(d[0], bowtie(f.beta, f.mode, d[0]))],
        drives=("drive",), domain=lambda alpha, beta: _check_bowtie_domain(beta), modes=(1, 2)),
    FoldModel.OPPOSITES: Family(
        pattern=lambda f: opposites_pattern(f.alpha, f.beta),
        solve=_opposites_closing,
        drives=("rho1", "rho2"), domain=_check_wedge_domain),
    FoldModel.IGLOO2DOF: Family(
        pattern=lambda f: igloo_pattern(f.alpha, f.beta),
        solve=lambda f, d, tol: [igloo_vector(igloo_rho1(f.alpha, f.beta, *d), *d,
                                              igloo_rho4(f.alpha, f.beta, *d))],
        drives=("rho2", "rho3"), domain=_check_wedge_domain),
    FoldModel.IGLOO1DOF: Family(
        pattern=lambda f: igloo_pattern(f.alpha, f.beta),
        solve=lambda f, d, tol: [igloo_vector(*igloo_1dof(f.alpha, f.beta, f.mode, d[0]), d[0])],
        drives=("rho4",), domain=_check_wedge_domain, modes=(1, 2)),
    FoldModel.TWOPAIR: Family(
        pattern=lambda f: two_pair_pattern(),
        solve=lambda f, d, tol: [two_pair_vector(*d, r3, r4)
                                 for r3, r4 in two_pair_complete(*d, tol=tol)],
        drives=("rho1", "rho2"), curve=lambda rho1, rho2: two_pair_curve_residual(rho1, rho2)),
    FoldModel.FULLY_GENERAL: Family(
        pattern=lambda f: g60(),
        solve=lambda f, d, tol: general_fold(*d, tol=tol),
        drives=("rho4", "rho5", "rho6"), numbered=True),
    FoldModel.ALMOST_GENERAL: Family(
        pattern=lambda f: g60(),
        solve=lambda f, d, tol: almost_general(*d, tol=tol),
        drives=("rho4", "rho5"), numbered=True),
}


# ---------------------------------------------------------------------------
# seven-vertex triangulated demo patch

def resch_fold(t: float) -> dict[str, np.ndarray]:
    """Angle vectors of the seven-vertex 120-degree-symmetric patch.

    The center vertex runs the 60-degree trifold; its undriven angle feeds
    the three 1-DOF igloo vertices (mode 2) through the shared crease, and
    the outer three vertices are completed from the two igloo angles they
    share with their neighbors.  All vertices sit on 60-degree patterns.
    """
    limit = trifold_drive_limit(PI / 3.0)
    if not abs(t) <= limit + 1e-12:
        raise OutOfRangeError(f"drive {t} outside reachable interval [-{limit}, {limit}]")
    third = PI / 3.0
    t1, t2 = trifold(third, 1, t)
    m1, m2, m3 = igloo_1dof(third, third, 2, t1)
    p1 = igloo_rho1(third, third, m2, m3)
    p4 = igloo_rho4(third, third, m2, m3)
    center = trifold_vector(t1, t2)
    inner = igloo_vector(m1, m2, m3, t1)
    outer = igloo_vector(p1, m2, m3, p4)
    pattern = g60()
    vertices = {
        "r1": center,
        "r2": inner,
        "r3": inner.copy(),
        "r4": inner.copy(),
        "r5": outer,
        "r6": outer.copy(),
        "r7": outer.copy(),
    }
    for vid, vec in vertices.items():
        res = closure_residual(pattern, vec)
        if res > _RESCH_TOL:
            raise NotClosedError(f"vertex {vid} fails closure at drive {t}", residual=res)
    return vertices
