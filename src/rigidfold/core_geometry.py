"""Rotation algebra, loop closure, and folded geometry for a single vertex.

A vertex is a fan of unit creases in the xy-plane.  Folding angles live in
[-pi, pi]; +/-pi both mean folded flat, positive is a valley fold.  The
product of per-crease rotations around the fan must equal the identity for
a folding to exist, and the Frobenius distance of that product from the
identity is the closure residual used as the ground-truth check everywhere
else in the package.
"""

from __future__ import annotations

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


def wrap_angle(x: float) -> float:
    """Wrap into (-pi, pi]; values already in [-pi, pi] pass through."""
    x = float(x)
    if -np.pi <= x <= np.pi:
        return x
    return float(np.arctan2(np.sin(x), np.cos(x)))


def wrap_angles(rho: np.ndarray) -> np.ndarray:
    """wrap_angle elementwise, as one array expression."""
    return np.where(np.abs(rho) <= np.pi, rho, np.arctan2(np.sin(rho), np.cos(rho)))


def check_fold_angle(rho: float, name: str = "drive"):
    """Reject a folding angle outside [-pi, pi]; NaN and infinities are outside."""
    if not abs(rho) <= np.pi + 1e-12:
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
    rotation.  All four arrays are read-only.
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
            if given.shape != sectors.shape or np.any(np.abs(given - sectors) > 1e-8):
                raise DomainError("sector_angles disagree with crease directions")
        object.__setattr__(self, "creases", _read_only(creases))
        object.__setattr__(self, "sector_angles", _read_only(sectors))
        object.__setattr__(self, "cross", _read_only(np.stack([_cross_matrix(u) for u in creases])))
        object.__setattr__(self, "outer", _read_only(np.einsum("ki,kj->kij", creases, creases)))

    @classmethod
    def from_sectors(cls, sector_angles) -> "CreasePattern":
        """Build the pattern with crease 1 on the +x axis."""
        sectors = np.asarray(sector_angles, dtype=float)
        if np.any(sectors <= 0):
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


def folded_geometry(pattern: CreasePattern, angles, tol: float = GEOMETRY_TOL) -> FoldedState:
    """Folded frames and crease images; raises if the vector does not close."""
    rho = as_fold_angles(angles, pattern.n)
    frames = rotation_products(pattern, rho[None], frames=True)
    residual = float(_distance_from_identity(frames[:, -1])[0])  # the bits closure_residual gives
    frames = frames[0]
    if residual > tol:
        raise NotClosedError(
            f"folding angles do not close (residual {residual:.3e} > {tol:.1e})",
            residual=residual,
        )
    images = np.einsum("kij,kj->ki", frames, pattern.creases)
    return FoldedState(face_frames=frames, crease_images=images, residual=residual)


# --- self-intersection test -------------------------------------------------
#
# Each sector folds to the triangle (origin, image of crease k, image of
# crease k+1) at unit radius.  Adjacent sectors share a crease and every
# sector shares the origin apex, so only interior overlap of non-adjacent
# triangles counts as self-intersection.


def _tri_normal(tri: np.ndarray) -> np.ndarray:
    return np.cross(tri[1] - tri[0], tri[2] - tri[0])


def _plane_clip_segment(tri: np.ndarray, dists: np.ndarray, eps: float):
    """Chord of a triangle cut by another triangle's plane.

    Returns the chord endpoints when the plane passes through the triangle's
    interior, or None when contact is confined to the boundary.
    """
    sign = np.where(dists > eps, 1, np.where(dists < -eps, -1, 0))
    if np.all(sign >= 0) or np.all(sign <= 0):
        # no transversal crossing: contact, if any, is boundary-only
        return None
    pts = []
    for a in range(3):
        b = (a + 1) % 3
        da, db = dists[a], dists[b]
        if sign[a] == 0:
            pts.append(tri[a])
        if sign[a] * sign[b] < 0:
            t = da / (da - db)
            pts.append(tri[a] + t * (tri[b] - tri[a]))
    if len(pts) < 2:
        return None
    pts = np.asarray(pts)
    # keep the two extreme points along the chord direction
    d = pts[-1] - pts[0]
    if np.linalg.norm(d) < eps:
        return None
    t = pts @ d
    return pts[np.argmin(t)], pts[np.argmax(t)]


def _coplanar_overlap_area(t1: np.ndarray, t2: np.ndarray, normal: np.ndarray) -> float:
    """Area of the 2-d intersection of two coplanar triangles."""
    axis = int(np.argmax(np.abs(normal)))
    keep = [i for i in range(3) if i != axis]
    p1 = t1[:, keep]
    p2 = t2[:, keep]

    def signed_area(poly):
        x, y = poly[:, 0], poly[:, 1]
        return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))

    def clip(subject, a, b):
        # Sutherland-Hodgman against the half-plane left of a->b
        out = []
        m = len(subject)
        for i in range(m):
            p, q = subject[i], subject[(i + 1) % m]
            side_p = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            side_q = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
            if side_p >= 0:
                out.append(p)
            if side_p * side_q < 0:
                t = side_p / (side_p - side_q)
                out.append(p + t * (q - p))
        return out

    if signed_area(p1) < 0:
        p1 = p1[::-1]
    if signed_area(p2) < 0:
        p2 = p2[::-1]
    poly = [p1[0], p1[1], p1[2]]
    for a in range(3):
        poly = clip(poly, p2[a], p2[(a + 1) % 3])
        if len(poly) < 3:
            return 0.0
    return abs(signed_area(np.asarray(poly)))


def triangles_interiors_intersect(t1: np.ndarray, t2: np.ndarray, eps: float = TRIANGLE_EPS) -> bool:
    """Whether two triangles overlap beyond boundary contact."""
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    n1 = _tri_normal(t1)
    n2 = _tri_normal(t2)
    if np.linalg.norm(n1) < eps or np.linalg.norm(n2) < eps:
        return False  # degenerate triangle has no interior
    d2 = (t2 - t1[0]) @ n1 / np.linalg.norm(n1)
    d1 = (t1 - t2[0]) @ n2 / np.linalg.norm(n2)
    if np.all(np.abs(d2) < eps) and np.all(np.abs(d1) < eps):
        return _coplanar_overlap_area(t1, t2, n1) > eps
    seg1 = _plane_clip_segment(t1, d1, eps)
    seg2 = _plane_clip_segment(t2, d2, eps)
    if seg1 is None or seg2 is None:
        return False
    # both chords lie on the plane-intersection line; compare 1-d intervals
    axis = seg1[1] - seg1[0]
    norm = np.linalg.norm(axis)
    if norm < eps:
        return False
    axis = axis / norm
    a0, a1 = 0.0, norm
    b0, b1 = sorted(((seg2[0] - seg1[0]) @ axis, (seg2[1] - seg1[0]) @ axis))
    overlap = min(a1, b1) - max(a0, b0)
    return overlap > eps


def self_intersects(pattern: CreasePattern, state: FoldedState, eps: float = TRIANGLE_EPS) -> bool:
    """Whether any two non-adjacent folded sectors overlap in their interiors."""
    n = pattern.n
    origin = np.zeros(3)
    tris = [
        np.stack([origin, state.crease_images[k], state.crease_images[(k + 1) % n]])
        for k in range(n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            gap = (j - i) % n
            if gap in (1, n - 1):
                continue
            if triangles_interiors_intersect(tris[i], tris[j], eps):
                return True
    return False
