"""Rotation algebra, loop closure, and folded geometry for a single vertex.

A vertex is a fan of unit creases in the xy-plane.  Folding angles live in
[-pi, pi]; +/-pi both mean folded flat, positive is a valley fold.  The
product of per-crease rotations around the fan must equal the identity for
a folding to exist, and the Frobenius distance of that product from the
identity is the closure residual used as the ground-truth check everywhere
else in the package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotClosedError, OutOfRangeError

# Products of a handful of orthogonal 3x3 matrices carry ~1e-15 roundoff,
# so these thresholds separate genuine violations from noise.
CLOSURE_TOL = 1e-9
GEOMETRY_TOL = 1e-6
TRIANGLE_EPS = 1e-9
_UNIT_TOL = 1e-9
_SECTOR_SUM_TOL = 1e-9

_I3 = np.eye(3)
_I3.setflags(write=False)


def _cross_matrix(u: np.ndarray) -> np.ndarray:
    """K with K @ x = u x x."""
    return np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])


def _rodrigues(cross: np.ndarray, outer: np.ndarray, c, s) -> np.ndarray:
    """c I + s K + (1 - c) u u^T: the rotation by the angle with cosine c and sine s.

    c and s are scalars, or (N, 1, 1) arrays for a stack of N rotations.
    """
    return c * _I3 + s * cross + (1.0 - c) * outer


def _axis_rotation(axis, theta: float) -> np.ndarray:
    u = np.asarray(axis, dtype=float)
    return _rodrigues(_cross_matrix(u), np.outer(u, u), np.cos(theta), np.sin(theta))


def rot_x(theta: float) -> np.ndarray:
    """Rotation by theta about the x-axis."""
    return _axis_rotation((1.0, 0.0, 0.0), theta)


def rot_z(theta: float) -> np.ndarray:
    """Rotation by theta about the z-axis."""
    return _axis_rotation((0.0, 0.0, 1.0), theta)


def crease_rotation(crease: np.ndarray, rho: float) -> np.ndarray:
    """Rotation by rho about the line through an in-plane unit crease."""
    c = np.asarray(crease, dtype=float)
    if c.shape != (3,):
        raise DomainError(f"crease must be a 3-vector, got shape {c.shape}")
    if abs(c[2]) > _UNIT_TOL:
        raise DomainError("crease must lie in the xy-plane")
    if abs(np.linalg.norm(c) - 1.0) > _UNIT_TOL:
        raise DomainError("crease must be a unit vector")
    return _axis_rotation(c, rho)


def wrap_angles(rho: np.ndarray) -> np.ndarray:
    """Wrap into (-pi, pi], elementwise; values already in [-pi, pi] pass through."""
    return np.where(np.abs(rho) <= np.pi, rho, np.arctan2(np.sin(rho), np.cos(rho)))


def wrap_angle(x: float) -> float:
    """wrap_angles for one angle."""
    return float(wrap_angles(float(x)))


def outside_fold_range(rho):
    """Whether each angle lies outside [-pi, pi] (with 1e-12 slack); NaN and infinities do."""
    return ~(np.abs(rho) <= np.pi + 1e-12)


def check_fold_angle(rho: float, name: str = "drive"):
    """Reject a folding angle outside [-pi, pi]; NaN and infinities are outside."""
    if outside_fold_range(rho):
        raise OutOfRangeError(f"{name} must lie in [-pi, pi], got {rho}")


def as_fold_angles(angles, n: int | None = None) -> np.ndarray:
    """Validate and normalize a folding-angle vector."""
    rho = np.asarray(angles, dtype=float)
    if rho.ndim != 1:
        raise DomainError("folding angles must form a 1-d sequence")
    if n is not None and rho.size != n:
        raise DomainError(f"expected {n} folding angles, got {rho.size}")
    return wrap_angles(rho)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CreasePattern:
    """Unit creases around a vertex, in counterclockwise order.

    sector_angles[i] is the angle from crease i to crease i+1 (cyclically);
    the sectors always sum to 2*pi because the paper around the vertex is
    developable.  cross[k] and outer[k] are the cross-product matrix and the
    outer product u u^T of crease k, the fixed parts of its Rodrigues
    rotation.  All four arrays are read-only.  Two patterns are equal, and
    hash alike, when their creases are equal.
    """

    creases: np.ndarray
    sector_angles: np.ndarray = field(default=None)  # type: ignore[assignment]
    cross: np.ndarray = field(init=False, repr=False, compare=False)
    outer: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        creases = np.array(self.creases, dtype=float)
        if creases.ndim != 2 or creases.shape[1] != 3:
            raise DomainError("creases must be an (n, 3) array")
        if creases.shape[0] < 3:
            raise DomainError("a vertex needs at least three creases")
        if not np.all(np.isfinite(creases)):
            raise DomainError("creases must be finite")
        norms = np.linalg.norm(creases, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
            raise DomainError("creases must be unit vectors")
        if np.any(np.abs(creases[:, 2]) > _UNIT_TOL):
            raise DomainError("creases must lie in the xy-plane")
        thetas = np.unwrap(np.arctan2(creases[:, 1], creases[:, 0]))
        if np.any(np.diff(thetas) <= 0):
            raise DomainError("creases must be in counterclockwise order")
        sectors = np.diff(np.append(thetas, thetas[0] + 2.0 * np.pi))
        if abs(sectors.sum() - 2.0 * np.pi) > _SECTOR_SUM_TOL:
            raise DomainError("sector angles must sum to 2*pi")
        given = self.sector_angles
        if given is not None:
            given = np.asarray(given, dtype=float)
            if given.shape != sectors.shape or not np.all(np.abs(given - sectors) <= 1e-8):
                raise DomainError("sector_angles disagree with crease directions")
        object.__setattr__(self, "creases", _read_only(creases))
        object.__setattr__(self, "sector_angles", _read_only(sectors))
        object.__setattr__(self, "cross", _read_only(np.stack([_cross_matrix(u) for u in creases])))
        object.__setattr__(self, "outer", _read_only(np.einsum("ki,kj->kij", creases, creases)))

    def __eq__(self, other) -> bool:
        """Patterns are equal when their creases are; anything else is unequal."""
        return isinstance(other, CreasePattern) and np.array_equal(self.creases, other.creases)

    def __hash__(self) -> int:
        return hash((self.creases + 0.0).tobytes())  # + 0.0 turns -0.0 into 0.0, which compares equal

    @classmethod
    def from_sectors(cls, sector_angles) -> "CreasePattern":
        """Build the pattern with crease 1 on the +x axis."""
        sectors = np.asarray(sector_angles, dtype=float)
        if not np.all(np.isfinite(sectors)):
            raise DomainError("sector angles must be finite")
        if not np.all(sectors > 0):
            raise DomainError("sector angles must be positive")
        if abs(sectors.sum() - 2.0 * np.pi) > _SECTOR_SUM_TOL:
            raise DomainError("sector angles must sum to 2*pi")
        thetas = np.concatenate([[0.0], np.cumsum(sectors[:-1])])
        creases = np.stack([np.cos(thetas), np.sin(thetas), np.zeros_like(thetas)], axis=1)
        return cls(creases)

    @property
    def n(self) -> int:
        return self.creases.shape[0]

    @property
    def crease_angles(self) -> np.ndarray:
        return np.arctan2(self.creases[:, 1], self.creases[:, 0])


_G60 = CreasePattern.from_sectors(np.full(6, np.pi / 3.0))


def g60() -> CreasePattern:
    """Degree-6 vertex with all sectors equal to 60 degrees (one shared, read-only instance)."""
    return _G60


def rotation_products(pattern: CreasePattern, angles, creases=None, frames: bool = False) -> np.ndarray:
    """Batched products of crease rotations, each built by Rodrigues' formula.

    ``angles`` is an (N, m) array.  Row r gives the product
    R(c_0, angles[r, 0]) @ ... @ R(c_{m-1}, angles[r, m-1]) over the crease
    indices ``creases`` (default: the whole fan in order, m = n).  Returns
    the (N, 3, 3) products; with ``frames`` the (N, m, 3, 3) running
    products instead.  Without frames only the running product is kept, so
    memory stays O(N).  Rows are independent: a row gives the same bits
    whatever else is in the batch.
    """
    rho = np.asarray(angles, dtype=float)
    order = range(pattern.n) if creases is None else creases
    if rho.ndim != 2 or rho.shape[1] != len(order):
        raise DomainError(f"expected an (N, {len(order)}) angle array, got shape {rho.shape}")
    c = np.cos(rho)[:, :, None, None]
    s = np.sin(rho)[:, :, None, None]
    out = np.empty(rho.shape + (3, 3)) if frames else None
    acc = None
    for j, k in enumerate(order):
        rot = _rodrigues(pattern.cross[k], pattern.outer[k], c[:, j], s[:, j])
        acc = rot if acc is None else acc @ rot
        if frames:
            out[:, j] = acc
    return out if frames else acc


def _distance_from_identity(products: np.ndarray) -> np.ndarray:
    """Frobenius distance of each 3x3 matrix from the identity."""
    return np.sqrt(np.square(products - _I3).sum(axis=(-2, -1)))


def closure_residuals(pattern: CreasePattern, angles) -> np.ndarray:
    """Closure residual of each row of an (N, n) folding-angle array."""
    rho = np.asarray(angles, dtype=float)
    if rho.ndim != 2:
        raise DomainError("folding-angle rows must form a 2-d array")
    return _distance_from_identity(rotation_products(pattern, wrap_angles(rho)))


def closure_matrix(pattern: CreasePattern, angles) -> np.ndarray:
    """Product of crease rotations; identity exactly on the configuration space."""
    return rotation_products(pattern, as_fold_angles(angles, pattern.n)[None])[0]


def closure_residual(pattern: CreasePattern, angles) -> float:
    """Frobenius distance of the closure matrix from the identity."""
    rho = as_fold_angles(angles, pattern.n)
    return float(_distance_from_identity(rotation_products(pattern, rho[None]))[0])


@dataclass(frozen=True)
class FoldedState:
    """Folded placement of each sector of a vertex.

    face_frames[k] carries the sector between creases k and k+1; it is the
    partial product of the first k+1 crease rotations.  crease_images[k] is
    face_frames[k] applied to crease k, which leaves the first crease fixed.
    """

    face_frames: np.ndarray
    crease_images: np.ndarray
    residual: float


def folded_frames(pattern: CreasePattern, angles) -> tuple[np.ndarray, np.ndarray]:
    """Closure residuals (N,) and face frames (N, n, 3, 3) of an (N, n) folding-angle array.

    Both come from one kernel call: each residual is its last frame's
    distance from the identity, the bits ``closure_residual`` gives.
    """
    rho = np.asarray(angles, dtype=float)
    if rho.ndim != 2:
        raise DomainError("folding-angle rows must form a 2-d array")
    frames = rotation_products(pattern, wrap_angles(rho), frames=True)
    return _distance_from_identity(frames[:, -1]), frames


def crease_images(pattern: CreasePattern, frames: np.ndarray) -> np.ndarray:
    """Image of crease k under face frame k, for (..., n, 3, 3) frames."""
    return np.einsum("...kij,kj->...ki", frames, pattern.creases)


def folded_geometry(pattern: CreasePattern, angles, tol: float = GEOMETRY_TOL) -> FoldedState:
    """Folded frames and crease images; raises if the vector does not close."""
    residuals, frames = folded_frames(pattern, as_fold_angles(angles, pattern.n)[None])
    residual, frames = float(residuals[0]), frames[0]
    if residual > tol:
        raise NotClosedError(
            f"folding angles do not close (residual {residual:.3e} > {tol:.1e})",
            residual=residual,
        )
    return FoldedState(face_frames=frames, crease_images=crease_images(pattern, frames), residual=residual)


# --- self-intersection test -------------------------------------------------
#
# Each sector folds to the triangle (origin, image of crease k, image of
# crease k+1) at unit radius.  Every sector shares the origin apex, so two
# triangles overlap in their interiors exactly when their cones do; adjacent
# sectors share a crease, so only non-adjacent pairs are tested.


@functools.cache
def _sector_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), i < j, of the non-adjacent sectors of an n-fan (read-only)."""
    i, j = np.triu_indices(n, 2)
    keep = j - i != n - 1
    return _read_only(i[keep]), _read_only(j[keep])


# The helpers below hold 3-vectors with their coordinates on the first axis,
# so each product is three whole-array operations over every state and pair.

def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.stack([x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]])


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _meet(sector: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Where a sector's tip-to-tip edge crosses a plane its tips lie at signed distances d from."""
    a, b = sector[:, 0], sector[:, 1]
    return a + d[0] / (d[0] - d[1]) * (b - a)


def _inside(sector: np.ndarray, wedge: np.ndarray, eps: float) -> np.ndarray:
    """Whether a tip or the bisector of ``sector`` lies strictly inside ``wedge``."""
    sides = _dot(sector[:, :2, None], wedge[:, None, 3:])  # [tip, edge normal]
    return (sides > eps).all(axis=1).any(axis=0) | (sides.sum(axis=0) > eps).all(axis=0)


def self_intersections(pattern: CreasePattern, images, eps: float = TRIANGLE_EPS) -> np.ndarray:
    """Whether any two non-adjacent folded sectors overlap, for each row of (N, n, 3) crease images.

    Every non-adjacent sector pair of every row is decided at once.  A
    sector whose normal e_k x e_k+1 is shorter than eps has no interior and
    meets nothing.  Otherwise take the signed distances of each sector's two
    tips from the other sector's plane:

    * transversal pair: each sector's tips lie strictly on opposite sides of
      the other's plane.  The tip-to-tip edges cross the planes' common line
      at p_i and p_j, and the sectors overlap when min(|p_i|, p_j . p_i/|p_i|)
      exceeds eps;
    * coplanar pair: all four distances are below eps.  The sectors overlap
      when a tip or the bisector of one wedge lies strictly inside the
      other: x is strictly inside the wedge from a to b with unit normal m
      when (a x x) . m and (x x b) . m both exceed eps.

    Any other pair touches at most along its boundary.
    """
    e = np.asarray(images, dtype=float)
    if e.ndim != 3 or e.shape[1:] != (pattern.n, 3):
        raise DomainError(f"expected (N, {pattern.n}, 3) crease images, got shape {e.shape}")
    a = np.moveaxis(e, 2, 0)
    b = np.roll(a, -1, axis=2)
    normal = _cross(a, b)
    size = np.sqrt(_dot(normal, normal))
    i, j = _sector_pairs(pattern.n)
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate sectors are masked below
        m = normal / size
        # per sector: tips a and b, normal, and m x a, b x m, since (a x x) . m = x . (m x a)
        sector = np.stack([a, b, normal, _cross(m, a), _cross(b, m)], axis=1)
        si, sj = sector[..., i], sector[..., j]
        di = _dot(si[:, :2], sj[:, 2:3]) / size[:, j]  # tips of sector i from plane j
        dj = _dot(sj[:, :2], si[:, 2:3]) / size[:, i]
        pi, pj = _meet(si, di), _meet(sj, dj)
        length = np.sqrt(_dot(pi, pi))
        along = _dot(pj, pi / length)
    transversal = ((di.max(axis=0) > eps) & (di.min(axis=0) < -eps) & (dj.max(axis=0) > eps)
                   & (dj.min(axis=0) < -eps) & (np.minimum(length, along) > eps))
    flat = (np.abs(di) < eps).all(axis=0) & (np.abs(dj) < eps).all(axis=0)
    coplanar = flat & (_inside(sj, si, eps) | _inside(si, sj, eps))
    solid = (size[:, i] >= eps) & (size[:, j] >= eps)
    return np.any(solid & (transversal | coplanar), axis=1)


def self_intersects(pattern: CreasePattern, state: FoldedState, eps: float = TRIANGLE_EPS) -> bool:
    """Whether any two non-adjacent folded sectors overlap in their interiors."""
    return bool(self_intersections(pattern, state.crease_images[None], eps)[0])
