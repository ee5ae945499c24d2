"""Triangle-clipping self-intersection test, kept as the tests' reference oracle.

Each folded sector is the triangle (origin, image of crease k, image of
crease k+1) at unit radius; two non-adjacent triangles intersect when they
overlap beyond boundary contact.  This is the per-pair clipping code the
batched cone-crossing test in ``core_geometry.self_intersections`` replaced;
the differential tests require both to give the same verdict.
"""

import numpy as np

from rigidfold.core_geometry import TRIANGLE_EPS


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


def triangle_self_intersects(pattern, state, eps: float = TRIANGLE_EPS) -> bool:
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
