"""The crease-at-a-time closure-product kernel, kept as the tests' bit reference.

``rotation_products`` builds the Rodrigues terms of every crease of a row
block at once; this builds them one crease at a time, with the same
elementwise operations in the same order, and multiplies as it goes.  The
two must agree bit for bit.
"""

import numpy as np

_I3 = np.eye(3)


def _rodrigues(cross: np.ndarray, outer: np.ndarray, c, s) -> np.ndarray:
    """c I + s K + (1 - c) u u^T: the rotation by the angle with cosine c and sine s.

    c and s are scalars, or (N, 1, 1) arrays for a stack of N rotations.
    """
    return c * _I3 + s * cross + (1.0 - c) * outer


def rotation_products_by_crease(pattern, angles, creases=None, frames: bool = False) -> np.ndarray:
    """``rotation_products`` of an (N, m) angle array, one crease rotation after another."""
    rho = np.asarray(angles, dtype=float)
    order = range(pattern.n) if creases is None else creases
    assert rho.ndim == 2 and rho.shape[1] == len(order)
    c = np.cos(rho)[:, :, None, None]
    s = np.sin(rho)[:, :, None, None]
    out = np.empty(rho.shape + (3, 3)) if frames else None
    acc = np.tile(_I3, (len(rho), 1, 1)) if len(order) == 0 else None
    for j, k in enumerate(order):
        rot = _rodrigues(pattern.cross[k], pattern.outer[k], c[:, j], s[:, j])
        acc = rot if acc is None else acc @ rot
        if frames:
            out[:, j] = acc
    return out if frames else acc
