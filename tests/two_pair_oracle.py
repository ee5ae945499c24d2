"""The two-pair node loop laid out on every call and the six-crease closure check, kept as the tests' reference.

``two_pair_node_loop`` reads the loop's polyline from a table built once per
process, and ``two_pair_solve`` judges closure as |R5 R6 - M|, M = (R1 R2 R3 R4)^T.
These keep the earlier route: the polyline solved again on each call, and
the closure residual of the full six-crease product.
"""

import numpy as np

from rigidfold import fold_models
from rigidfold.core_geometry import closure_residuals, g60, rotation_products
from rigidfold.fold_models import (
    _C5,
    _C6,
    _COS3,
    _COS4,
    _LOOP_T,
    _SIN3,
    _SIN4,
    FAMILIES,
    NO_COMPLETION,
    OFF_CURVE,
    ON_CURVE,
    OUT_OF_RANGE,
    SOLVED,
    FoldModel,
    Solved,
    _drive_columns,
    _two_pair_roots,
    two_pair_curve_residual,
)


def node_loop_one_call(n: int) -> np.ndarray:
    """``two_pair_node_loop`` with its polyline laid out by an ``eigvals`` call of its own."""
    z = _two_pair_roots(_LOOP_T)
    t2 = np.sort(np.where((z.imag == 0.0) & (z.real >= 0.0) & (z.real <= _LOOP_T[:, None]), z.real, np.inf), axis=1)
    arc = 2.0 * np.arctan(np.concatenate([[[0.0, 0.0]], np.column_stack([_LOOP_T, t2[:, 0]]),  # node to diagonal
                                          np.column_stack([_LOOP_T, t2[:, 1]])[t2[:, 1] < np.inf][::-1]]))
    loop = np.concatenate([-arc, -arc[::-1, ::-1], arc[1:, ::-1], arc[::-1]])  # lobe III, lobe I
    s = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(loop, axis=0).T))])
    k = np.arange(n)
    target = (k + 0.5 * (n % 2 == 0) * (k >= n // 2)) * s[-1] / n
    d = np.abs(np.diff(loop, axis=0))[np.searchsorted(s, target, side="right") - 1]  # of each target's segment
    steep = (d[:, 1] > d[:, 0])[:, None]
    guess = np.column_stack([np.interp(target, s, loop[:, 0]), np.interp(target, s, loop[:, 1])])
    g = np.where(steep, guess[:, ::-1], guess)  # (fixed, free): fix rho2 where the loop is steep
    z = _two_pair_roots(np.tan(g[:, 0] / 2.0))
    g[:, 1] = 2.0 * np.arctan(z[k, np.abs(z - np.tan(g[:, 1] / 2.0)[:, None]).argmin(axis=1)].real)
    return np.where(steep, g[:, ::-1], g)


def two_pair_solve_six_creases(rho1, rho2) -> Solved:
    """``two_pair_solve`` with each completion kept when its full six-crease product closes below DEFAULT_TOL."""
    (r1, r2), bad = _drive_columns(rho1, rho2)
    off = ~bad & ~(np.abs(two_pair_curve_residual(r1, r2)) <= ON_CURVE)
    live = ~(bad | off)
    flat = live & (r1 == 0.0) & (r2 == 0.0)
    M = rotation_products(g60(), -np.stack([r2, r2, r1, r1], axis=1), creases=(3, 2, 1, 0))
    m6, m5 = (M * _C6).sum(axis=2), (M * _C5[:, None]).sum(axis=1)  # M c6 and M^T c5
    rho3 = np.arctan2((m6 * _SIN3).sum(axis=1), (m6 * _COS3).sum(axis=1))
    rho4 = -np.arctan2((m5 * _SIN4).sum(axis=1), (m5 * _COS4).sum(axis=1))
    vecs = FAMILIES[FoldModel.TWOPAIR].vector(r1, r2, np.where(flat, 0.0, rho3), np.where(flat, 0.0, rho4))
    keep = live & ((closure_residuals(g60(), vecs) < fold_models.DEFAULT_TOL) | flat)
    reason = np.where(bad, OUT_OF_RANGE, np.where(off, OFF_CURVE, np.where(keep, SOLVED, NO_COMPLETION)))
    return Solved(vecs[keep], np.flatnonzero(keep), reason)
