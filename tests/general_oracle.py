"""One-row views of the fully general family's relations, and the solve they replaced, kept as the tests' reference.

The library reads all three angles of a drive triple off one back-chain
frame inside ``general_solve``.  These keep the earlier, independent route:
cos rho2 from the hand-typed six-trig polynomial ``general_cos_rho2``
(proved exactly in ``test_weierstrass.py``), rho1 from the same frame read,
and rho3 from a second, five-crease product read as an axis and an angle.
``general_solve_full_closure`` keeps the one-frame read as it was before
``admissible_region`` fed it a separable back chain: B from three crease
rotations per row and closure checked on all six creases.
"""

import math

import numpy as np

from rigidfold.core_geometry import check_fold_angle, closure_residuals, g60, rotation_products, wrap_angles
from rigidfold.fold_models import (
    _C3,
    DEFAULT_TOL,
    NO_SOLUTION,
    OUT_OF_RANGE,
    ROUNDOFF,
    SOLVED,
    Solved,
    _drive_columns,
    _P3,
    _turn,
)


def general_cos_rho2(s4, c4, s5, c5, s6, c6):
    """cos(rho2) forced by the drives' sines and cosines; elementwise on arrays."""
    return 0.25 * (
        1.0 + c6 - 2.0 * s4 * s5 - 2.0 * c6 * s4 * s5 - 2.0 * s5 * s6
        + c5 * (1.0 + c6 - 4.0 * s4 * s6)
        + c4 * (1.0 - 3.0 * c6 + c5 * (1.0 + c6) - 2.0 * s5 * s6)
    )


def _rho2_branches(rho4, rho5, rho6) -> tuple[np.ndarray, np.ndarray]:
    """(r, exists): rho2 = +/-r where a branch exists; r = 0 is one branch."""
    rhs = general_cos_rho2(np.sin(rho4), np.cos(rho4), np.sin(rho5), np.cos(rho5), np.sin(rho6), np.cos(rho6))
    return np.arccos(np.clip(rhs, -1.0, 1.0)), np.abs(rhs) <= 1.0 + ROUNDOFF


def general_c3_image(rho1: float, rho2: float) -> np.ndarray:
    """Third crease direction after folding the first two creases."""
    check_fold_angle(rho1, "rho1")
    check_fold_angle(rho2, "rho2")
    (r1, r2), _ = _drive_columns(rho1, rho2)
    return rotation_products(g60(), np.stack([r1, r2], axis=1), creases=(0, 1))[0] @ _C3


def general_rho2(rho4: float, rho5: float, rho6: float) -> list[float]:
    """The 0, 1 or 2 values of rho2 compatible with the three drive angles."""
    for name, x in zip(("rho4", "rho5", "rho6"), (rho4, rho5, rho6)):
        check_fold_angle(x, name)
    r, exists = _rho2_branches(*_drive_columns(rho4, rho5, rho6)[0])
    if not exists[0]:
        return []
    r = float(r[0])
    return [r] if r == 0.0 else [r, -r]


def _rho1(rho2, back) -> np.ndarray:
    """rho1 turning the forward image of the third crease onto the back chain."""
    v1 = (math.sqrt(3.0) / 2.0) * np.cos(0.5 * rho2) ** 2
    v2 = (math.sqrt(3.0) / 2.0) * np.sin(rho2)
    return wrap_angles(np.arctan2(back[:, 2], back[:, 1]) - np.arctan2(v2, v1))


def _rho3(rho1, rho2, rho4, rho5, rho6) -> np.ndarray:
    """Angle of R3 = (R1 R2)^T (R4 R5 R6)^T about the third crease."""
    M = rotation_products(g60(), -np.stack([rho2, rho1, rho6, rho5, rho4], axis=1), creases=(1, 0, 5, 4, 3))
    w0 = 0.5 * (M[:, 2, 1] - M[:, 1, 2])
    w1 = 0.5 * (M[:, 0, 2] - M[:, 2, 0])
    return np.arctan2(w0 * _C3[0] + w1 * _C3[1], 0.5 * (M[:, 0, 0] + M[:, 1, 1] + M[:, 2, 2] - 1.0))


def general_solve_reference(rho4, rho5, rho6, tol: float = DEFAULT_TOL) -> Solved:
    """``general_solve`` as it was before the one-frame read, with the same guards and reasons."""
    (r4, r5, r6), bad = _drive_columns(rho4, rho5, rho6)
    r, exists = _rho2_branches(r4, r5, r6)
    back = rotation_products(g60(), -np.stack([r6, r5, r4], axis=1), creases=(5, 4, 3)) @ _C3
    exists &= ~bad & (np.hypot(back[:, 1], back[:, 2]) >= ROUNDOFF)
    keep = np.stack([exists, exists & (r != 0.0)], axis=1)
    drive, branch = np.nonzero(keep)
    rho2 = np.where(branch == 0, r[drive], -r[drive])
    r4, r5, r6 = r4[drive], r5[drive], r6[drive]
    rho1 = _rho1(rho2, back[drive])
    vecs = np.stack([rho1, rho2, _rho3(rho1, rho2, r4, r5, r6), r4, r5, r6], axis=1)
    closes = closure_residuals(g60(), vecs) < tol
    reason = np.where(bad, OUT_OF_RANGE, NO_SOLUTION)
    reason[drive[closes]] = SOLVED
    return Solved(vecs[closes], drive[closes], reason)


def general_solve_full_closure(rho4, rho5, rho6, tol: float = DEFAULT_TOL) -> Solved:
    """``general_solve`` with B from three crease rotations per row and closure from all six."""
    (r4, r5, r6), bad = _drive_columns(rho4, rho5, rho6)
    B = rotation_products(g60(), -np.stack([r6, r5, r4], axis=1), creases=(5, 4, 3))
    back = B @ _C3
    cos2 = (1.0 - 4.0 * back[:, 0]) / 3.0
    r = np.arccos(np.clip(cos2, -1.0, 1.0))
    exists = ~bad & (np.abs(cos2) <= 1.0 + ROUNDOFF)
    exists &= np.hypot(back[:, 1], back[:, 2]) >= ROUNDOFF  # nearer the first crease, rho1 is free
    r[1.0 - cos2 <= ROUNDOFF] = 0.0  # a double root: one row, not two split by roundoff
    keep = np.stack([exists, exists & (r != 0.0)], axis=1)
    drive, branch = np.nonzero(keep)  # row-major: drive order, + branch first
    rho2 = np.where(branch == 0, r[drive], -r[drive])
    back, row = back[drive], B[drive, 0]  # row = B^T c1
    rho1 = _turn(rho2, back[:, 1], back[:, 2])
    rho3 = _turn(rho2, (row * _P3).sum(axis=1), row[:, 2])
    vecs = np.stack([rho1, rho2, rho3, r4[drive], r5[drive], r6[drive]], axis=1)
    closes = closure_residuals(g60(), vecs) < tol
    reason = np.where(bad, OUT_OF_RANGE, NO_SOLUTION)
    reason[drive[closes]] = SOLVED
    return Solved(vecs[closes], drive[closes], reason)
