"""The four sector-domain checks that ``FoldMode`` replaced, kept as the tests' reference oracle.

Each family once bounded alpha and beta with a check of its own; ``FoldMode``
now asks only that every sector of the family's layout be > 0.  The
differential test requires both to accept the same (alpha, beta), except
at one ulp from alpha + beta = pi, where ``alpha + beta < pi`` and
``pi - alpha - beta > 0`` round differently.
"""

import math

from rigidfold.fold_models import FoldModel
from rigidfold.tolerances import ROUNDOFF

PI = math.pi


def degree4(alpha: float, beta: float) -> bool:
    return 0.0 < alpha < PI and 0.0 < beta < PI


def trifold(alpha: float, beta: float) -> bool:
    return 0.0 < beta < 2.0 * PI / 3.0


def bowtie(alpha: float, beta: float) -> bool:
    return 0.0 < beta < PI / 2.0


def wedge(alpha: float, beta: float) -> bool:
    return alpha > 0.0 and beta > 0.0 and alpha + beta < PI


def fixed_60(alpha: float, beta: float) -> bool:
    return not (abs(alpha - PI / 3) > ROUNDOFF or abs(beta - PI / 3) > ROUNDOFF)


ACCEPTS = {
    FoldModel.DEGREE4: degree4,
    FoldModel.TRIFOLD: trifold,
    FoldModel.BOWTIE: bowtie,
    FoldModel.OPPOSITES: wedge,
    FoldModel.IGLOO2DOF: wedge,
    FoldModel.IGLOO1DOF: wedge,
    FoldModel.TWOPAIR: fixed_60,
    FoldModel.FULLY_GENERAL: fixed_60,
    FoldModel.ALMOST_GENERAL: fixed_60,
}
