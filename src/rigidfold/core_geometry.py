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
from .tolerances import DEFAULT_TOL, INPUT_SLACK, ROUNDOFF, TRIANGLE_EPS

_I3 = np.eye(3)
_I3.setflags(write=False)

# K with K @ x = u x x, flattened: its off-diagonal slots, and the component of u and sign in each
_CROSS_SLOTS, _CROSS_AXES, _CROSS_SIGNS = [1, 2, 3, 5, 6, 7], [2, 1, 2, 0, 1, 0], np.array([-1.0, 1, 1, -1, -1, 1])


def wrap_angles(rho: np.ndarray) -> np.ndarray:
    """Wrap into [-pi, pi], elementwise, as a new float array; values already in [-pi, pi] pass
    through (-pi stays -pi), and only the others (NaN too) go through arctan2(sin, cos)."""
    out = np.array(rho, dtype=float)
    far = ~(np.abs(out) <= np.pi)
    if far.any():
        out[far] = np.arctan2(np.sin(out[far]), np.cos(out[far]))
    return out


def outside_fold_range(rho):
    """Whether each angle lies outside [-pi, pi] (with ``ROUNDOFF`` slack); NaN and infinities do."""
    return ~(np.abs(rho) <= np.pi + ROUNDOFF)


def check_fold_angle(rho: float, name: str = "drive"):
    """Reject a folding angle outside [-pi, pi]; NaN and infinities are outside."""
    if outside_fold_range(rho):
        raise OutOfRangeError(f"{name} must lie in [-pi, pi], got {rho}")


def as_fold_angles(angles, n: int) -> np.ndarray:
    """Validate ``n`` finite folding angles and wrap them into [-pi, pi]."""
    rho = np.asarray(angles, dtype=float)
    if rho.ndim != 1:
        raise DomainError("folding angles must form a 1-d sequence")
    if rho.size != n:
        raise DomainError(f"expected {n} folding angles, got {rho.size}")
    if not np.isfinite(rho).all():
        raise DomainError("folding angles must be finite")
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
    sector_angles: np.ndarray = field(init=False)
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
        if np.any(np.abs(np.sqrt(np.square(creases).sum(axis=1)) - 1.0) > INPUT_SLACK):
            raise DomainError("creases must be unit vectors")
        if np.any(np.abs(creases[:, 2]) > INPUT_SLACK):
            raise DomainError("creases must lie in the xy-plane")
        thetas = np.unwrap(np.arctan2(creases[:, 1], creases[:, 0]))
        # np.unwrap reads a step over half a turn as a step back; its steps modulo one turn are the
        # counterclockwise gaps, which make one turn only when the creases go round once counterclockwise
        sectors = np.mod(np.diff(np.append(thetas, thetas[0] + 2.0 * np.pi)), 2.0 * np.pi)
        if np.any(sectors <= 0) or abs(sectors.sum() - 2.0 * np.pi) > INPUT_SLACK:
            raise DomainError("creases must be in counterclockwise order")
        cross = np.zeros((len(creases), 9))
        cross[:, _CROSS_SLOTS] = creases[:, _CROSS_AXES] * _CROSS_SIGNS  # -0.0 where the axis is 0.0
        object.__setattr__(self, "creases", _read_only(creases))
        object.__setattr__(self, "sector_angles", _read_only(sectors))
        object.__setattr__(self, "cross", _read_only(cross.reshape(-1, 3, 3)))
        outer = creases[:, :, None] * creases[:, None, :] + 0.0  # + 0.0: every zero product is +0.0
        object.__setattr__(self, "outer", _read_only(outer))

    def __eq__(self, other) -> bool:
        """Patterns are equal when their creases are; anything else is unequal."""
        return isinstance(other, CreasePattern) and np.array_equal(self.creases, other.creases)

    def __hash__(self) -> int:
        return hash((self.creases + 0.0).tobytes())  # + 0.0 turns -0.0 into 0.0, which compares equal

    @classmethod
    def from_sectors(cls, sector_angles) -> "CreasePattern":
        """The pattern with crease 1 on the +x axis: one shared, read-only instance per sector sequence.

        Equal float bits give the same object, whether they come as a list, a
        tuple or an array; the last ``SHARED_LAYOUTS`` sequences used are kept.
        A refused sequence raises on every call: no failure is kept.
        """
        sectors = np.asarray(sector_angles, dtype=float)
        if sectors.ndim != 1:
            raise DomainError("sector angles must form a 1-d sequence")
        return _shared_layout(cls, sectors.tobytes())

    @classmethod
    def _build(cls, sectors: np.ndarray) -> "CreasePattern":
        """Check a 1-d sector array and build its pattern, a new instance on every call."""
        if not np.all(np.isfinite(sectors)):
            raise DomainError("sector angles must be finite")
        if not np.all(sectors > 0):
            raise DomainError("sector angles must be positive")
        if abs(sectors.sum() - 2.0 * np.pi) > INPUT_SLACK:
            raise DomainError("sector angles must sum to 2*pi")
        thetas = np.concatenate([[0.0], np.cumsum(sectors[:-1])])
        return cls(np.stack([np.cos(thetas), np.sin(thetas), np.zeros_like(thetas)], axis=1))

    @property
    def n(self) -> int:
        return self.creases.shape[0]

    @property
    def crease_angles(self) -> np.ndarray:
        return np.arctan2(self.creases[:, 1], self.creases[:, 0])


SHARED_LAYOUTS = 64  # sector sequences from_sectors keeps, about 2 kB each at degree 6; least recent go first


@functools.lru_cache(maxsize=SHARED_LAYOUTS)
def _shared_layout(cls: type, bits: bytes) -> CreasePattern:
    """The pattern of the float64 sectors ``bits``; an exception is not cached, so a refused sequence is
    checked again on every call."""
    return cls._build(np.frombuffer(bits))


_G60 = CreasePattern.from_sectors(np.full(6, np.pi / 3.0))


def g60() -> CreasePattern:
    """Degree-6 vertex with all sectors equal to 60 degrees (one shared, read-only instance)."""
    return _G60


_BLOCK_ROWS = 2048  # rows per Rodrigues build, so a large batch's temporaries stay bounded; not tuned


def rotation_products(pattern: CreasePattern, angles, creases=None, frames: bool = False) -> np.ndarray:
    """Batched products of crease rotations, each built by Rodrigues' formula.

    ``angles`` is an (N, m) array.  Row r gives the product
    R(c_0, angles[r, 0]) @ ... @ R(c_{m-1}, angles[r, m-1]) over the crease
    indices ``creases`` in [0, n) (default: the whole fan in order, m = n).  Returns
    the (N, 3, 3) products, identities when m = 0; with ``frames`` the
    (N, m, 3, 3) running products instead.  The m rotations c I + s K + (1 - c) u u^T
    of a block of ``_BLOCK_ROWS`` rows are built at once, summed in that order, and
    multiplied one crease at a time, so memory stays O(N) without frames.
    Rows are independent: a row gives the same bits whatever else is in the batch,
    on either side of a block edge.
    """
    rho = np.asarray(angles, dtype=float)
    m = pattern.n if creases is None else len(creases)
    if rho.ndim != 2 or rho.shape[1] != m:
        raise DomainError(f"expected an (N, {m}) angle array, got shape {rho.shape}")
    for i in () if creases is None else creases:
        if not 0 <= i < pattern.n:
            raise DomainError(f"crease index {i} is outside [0, {pattern.n})")
    if m == 0:
        return np.empty((len(rho), 0, 3, 3)) if frames else np.tile(_I3, (len(rho), 1, 1))
    cross, outer = (pattern.cross, pattern.outer) if creases is None else (
        pattern.cross.take(creases, axis=0), pattern.outer.take(creases, axis=0))  # (m, 3, 3)
    c, s = np.cos(rho)[:, :, None, None], np.sin(rho)[:, :, None, None]  # (N, m, 1, 1)
    out = np.empty((len(rho), m, 3, 3) if frames else (len(rho), 3, 3))
    for lo in range(0, len(rho), _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        rot = c[block] * _I3 + s[block] * cross + (1.0 - c[block]) * outer  # (rows, m, 3, 3)
        if frames:
            run = out[block]
            run[:, 0] = rot[:, 0]
            for j in range(1, m):
                np.matmul(run[:, j - 1], rot[:, j], out=run[:, j])
        else:
            acc = rot[:, 0]
            for j in range(1, m):
                acc = acc @ rot[:, j]
            out[block] = acc
    return out


def _frobenius_distance(a: np.ndarray, b: np.ndarray = _I3) -> np.ndarray:
    """Frobenius distance of each 3x3 matrix of ``a`` from ``b`` (the identity by default)."""
    return np.sqrt(np.square(a - b).sum(axis=(-2, -1)))


def closure_residuals(pattern: CreasePattern, angles) -> np.ndarray:
    """Closure residual of each row of an (N, n) folding-angle array."""
    rho = np.asarray(angles, dtype=float)
    if rho.ndim != 2:
        raise DomainError("folding-angle rows must form a 2-d array")
    return _frobenius_distance(rotation_products(pattern, wrap_angles(rho)))


def closure_residual(pattern: CreasePattern, angles) -> float:
    """Frobenius distance of the closure matrix from the identity."""
    rho = as_fold_angles(angles, pattern.n)
    return float(_frobenius_distance(rotation_products(pattern, rho[None]))[0])


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
    return _frobenius_distance(frames[:, -1]), frames


def crease_images(pattern: CreasePattern, frames: np.ndarray) -> np.ndarray:
    """Image of crease k under face frame k, for (..., n, 3, 3) frames."""
    return np.einsum("...kij,kj->...ki", frames, pattern.creases)


def folded_geometry(pattern: CreasePattern, angles) -> FoldedState:
    """Folded frames and crease images; raises NotClosedError if the residual exceeds ``DEFAULT_TOL``."""
    residuals, frames = folded_frames(pattern, as_fold_angles(angles, pattern.n)[None])
    residual, frames = float(residuals[0]), frames[0]
    if residual > DEFAULT_TOL:
        raise NotClosedError(
            f"folding angles do not close (residual {residual:.3e} > {DEFAULT_TOL:.1e})",
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
def _gram_tables(n: int) -> tuple[np.ndarray, ...]:
    """Flat indices (read-only) of the factors of each normal e_k x e_k+1 in an (n, 3) image array,
    and, per non-adjacent pair (i, j), of the entries of G = e n^T, H = e e^T and |n| the test reads."""
    i, j = np.triu_indices(n, 2)
    tips = np.array([[i, i + 1], [j, (j + 1) % n]])[..., j - i != n - 1]  # [side, tip, pair], i < j non-adjacent
    left = (3 * np.arange(n)[:, None, None] + np.array([[1, 2, 0], [2, 0, 1]])).transpose(1, 0, 2).reshape(2, -1)
    g = tips.transpose(1, 0, 2) * n + tips[::-1, 0]  # [tip, side]: a_i . n_j and a_j . n_i, then the next tips
    h = tips[:, None, :, None] * n + np.stack([tips, tips[::-1]], axis=1)[:, :, None]  # [wedge, own/other, tip, tip]
    return tuple(_read_only(t) for t in (left, np.roll(left[::-1], -3, axis=1), g, h, tips[::-1, 0]))


def self_intersections(pattern: CreasePattern, images) -> np.ndarray:
    """Whether any two non-adjacent folded sectors overlap, for each row of (N, n, 3) crease images.

    Every non-adjacent sector pair of every row is decided at once from the
    Gram products G = a_p . n_q and H = a_p . a_q of the images a_k and the
    sector normals n_k = a_k x a_k+1.  With eps = ``TRIANGLE_EPS``, a sector
    whose normal is shorter than eps has no interior and meets nothing.
    Otherwise take the signed distances d = G / |n| of each sector's two tips
    from the other's plane:

    * transversal pair: each sector's tips lie strictly on opposite sides of
      the other's plane.  The tip-to-tip edges cross the planes' common line
      at p_i = (1 - t) a_i + t a_i+1, t = d0 / (d0 - d1), and at p_j, and the
      sectors overlap when min(|p_i|, p_j . p_i/|p_i|), bilinear in H, exceeds eps;
    * coplanar pair: all four distances are below eps.  The sectors overlap
      when a tip or the bisector of one wedge lies strictly inside the
      other: when, for the wedge from a to b, x . (m x a) = ((x.b)(a.a) - (x.a)(a.b)) / |n|
      and x . (b x m) = ((x.a)(b.b) - (x.b)(a.b)) / |n|, m = n / |n|, both exceed eps.

    Any other pair touches at most along its boundary.  A pattern with a
    sector above pi raises ``DomainError``: that sector's triangle is its
    complement, which this test does not model.
    """
    e = np.asarray(images, dtype=float)
    n = pattern.n
    if e.ndim != 3 or e.shape[1:] != (n, 3):
        raise DomainError(f"expected (N, {n}, 3) crease images, got shape {e.shape}")
    if pattern.sector_angles.max() > np.pi:
        raise DomainError("the self-intersection test does not model a sector above pi")
    left, right, gi, hi, si = _gram_tables(n)
    eps = TRIANGLE_EPS
    terms = e.reshape(len(e), 3 * n).take(left, axis=1) * e.reshape(len(e), 3 * n).take(right, axis=1)
    normal = (terms[:, 0] - terms[:, 1]).reshape(e.shape)
    sizes = np.sqrt(np.square(normal).sum(axis=2)).take(si, axis=1)  # (N, side, pair): |n_j|, |n_i|
    g = (e @ normal.transpose(0, 2, 1)).reshape(len(e), n * n).take(gi, axis=1)  # (N, tip, side, pair)
    h = (e @ e.transpose(0, 2, 1)).reshape(len(e), n * n).take(hi, axis=1)  # (N, wedge, block, tip, tip, pair)
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate sectors are masked at the end
        d0, d1 = g[:, 0] / sizes, g[:, 1] / sizes
        t = d0 / (d0 - d1)
        ti, tj, ui, uj = t[:, 0], t[:, 1], 1.0 - t[:, 0], 1.0 - t[:, 1]
        own, other = h[:, 0, 0], h[:, 0, 1]
        length = np.sqrt(ui * ui * own[:, 0, 0] + 2.0 * ti * ui * own[:, 0, 1] + ti * ti * own[:, 1, 1])
        along = (ui * (uj * other[:, 0, 0] + tj * other[:, 0, 1])
                 + ti * (uj * other[:, 1, 0] + tj * other[:, 1, 1])) / length
        straddle = (np.maximum(d0, d1) > eps) & (np.minimum(d0, d1) < -eps)
        hit = straddle.all(axis=1) & (np.minimum(length, along) > eps)
        r, k = np.nonzero(((np.abs(d0) < eps) & (np.abs(d1) < eps)).all(axis=1))  # coplanar pairs
        if len(r):
            wedge, width = h[r, ..., k], sizes[r, ::-1, k][:, :, None]  # (|n_i|, |n_j|) for wedges i and j
            aa, ab, bb = wedge[:, :, 0, 0, :1], wedge[:, :, 0, 0, 1:], wedge[:, :, 0, 1, 1:]
            xa, xb = wedge[:, :, 1, 0], wedge[:, :, 1, 1]  # (M, wedge, tip): x . a and x . b
            s1, s2 = (xb * aa - xa * ab) / width, (xa * bb - xb * ab) / width
            inside = ((s1 > eps) & (s2 > eps)).any(axis=2) | ((s1.sum(axis=2) > eps) & (s2.sum(axis=2) > eps))
            hit[r, k] |= inside.any(axis=1)
    return np.any((sizes >= eps).all(axis=1) & hit, axis=1)


def self_intersects(pattern: CreasePattern, state: FoldedState) -> bool:
    """Whether any two non-adjacent folded sectors overlap in their interiors."""
    return bool(self_intersections(pattern, state.crease_images[None])[0])
