"""Vector cone-crossing self-intersection test, kept as the tests' reference oracle.

This is the batched kernel that ``core_geometry.self_intersections``
replaced: it builds every sector's tips, normal, meet points and wedge
edge normals as explicit 3-vectors, where the Gram-matrix test reads the
same quantities off the products G = e n^T and H = e e^T.  The
differential tests require both to give the same verdict.
"""

import numpy as np

from rigidfold.core_geometry import TRIANGLE_EPS

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


def sector_normal_sizes(images) -> np.ndarray:
    """|e_k x e_k+1| of each row of (N, n, 3) crease images, as the oracle computes it."""
    a = np.moveaxis(np.asarray(images, dtype=float), 2, 0)
    normal = _cross(a, np.roll(a, -1, axis=2))
    return np.sqrt(_dot(normal, normal))


def cone_self_intersections(pattern, images, eps: float = TRIANGLE_EPS) -> np.ndarray:
    """Whether any two non-adjacent folded sectors overlap, for each row of (N, n, 3) crease images.

    A sector whose normal e_k x e_k+1 is shorter than eps has no interior
    and meets nothing.  Otherwise take the signed distances of each
    sector's two tips from the other sector's plane:

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
    a = np.moveaxis(e, 2, 0)
    b = np.roll(a, -1, axis=2)
    normal = _cross(a, b)
    size = np.sqrt(_dot(normal, normal))
    i, j = np.triu_indices(pattern.n, 2)
    keep = j - i != pattern.n - 1  # non-adjacent: the first and last sector share crease 0
    i, j = i[keep], j[keep]
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
