"""One-row views of the fully general family's relations, kept as the tests' reference.

The library computes both inside ``general_solve`` for whole drive batches;
these evaluate one angle pair or one drive triple through the same private
steps, so the tests can check the relations one state at a time.
"""

import numpy as np

from rigidfold.core_geometry import g60, rotation_products
from rigidfold.fold_models import _C3, _drive_columns, _rho2_branches


def general_c3_image(rho1: float, rho2: float) -> np.ndarray:
    """Third crease direction after folding the first two creases."""
    (r1, r2), _ = _drive_columns(rho1, rho2, names=("rho1", "rho2"))
    return rotation_products(g60(), np.stack([r1, r2], axis=1), creases=(0, 1))[0] @ _C3


def general_rho2(rho4: float, rho5: float, rho6: float) -> list[float]:
    """The 0, 1 or 2 values of rho2 compatible with the three drive angles."""
    r, exists = _rho2_branches(*_drive_columns(rho4, rho5, rho6, names=("rho4", "rho5", "rho6"))[0])
    if not exists[0]:
        return []
    r = float(r[0])
    return [r] if r == 0.0 else [r, -r]
