"""Each public validator refuses its bad input with its own error type and message."""

import math
import re

import numpy as np
import pytest

from rigidfold.config_space import Samples
from rigidfold.core_geometry import closure_residual, folded_frames, folded_geometry, g60
from rigidfold.errors import DomainError, OutOfRangeError, SingularParameterError
from rigidfold.fold_models import (
    FoldMode,
    FoldModel,
    bowtie_multiplier,
    bowtie_pattern,
    degree4_multipliers,
    igloo_pattern,
    opposites_pattern,
    pleat_multiplier,
)
from rigidfold.second_order_rigidity import first_order_matrix, second_order_matrix, solve_modes
from rigidfold.symmetry_enumeration import canonical_form, enumerate_patterns

PI = math.pi
SECTORS = "needs every sector > 0: alpha=2.0, beta=1.5 give sectors [2.0, 1.5, -0.3584073464102069"
VELOCITIES = "expected 6 velocities, got shape (5,)"


@pytest.mark.parametrize("call, error, message", [
    (lambda: opposites_pattern(2.0, 1.5), OutOfRangeError, "opposites " + SECTORS + ", 2.0, 1.5, -0.358"),
    (lambda: igloo_pattern(2.0, 1.5), OutOfRangeError, "igloo " + SECTORS + ", -0.358"),
    (lambda: pleat_multiplier(0.0), OutOfRangeError, "pleat sector must lie in (0, pi), got 0.0"),
    (lambda: pleat_multiplier(PI), OutOfRangeError, f"pleat sector must lie in (0, pi), got {PI}"),
    (lambda: bowtie_pattern(0.5, 3), OutOfRangeError, "mode must be 1 or 2, got 3"),
    (lambda: bowtie_multiplier(0.5, 3), OutOfRangeError, "mode must be 1 or 2, got 3"),
    (lambda: bowtie_pattern(0.5, 1.0), OutOfRangeError, "bowtie mode must be 1 or 2, got 1.0"),
    (lambda: bowtie_multiplier(0.5, 1.0), OutOfRangeError, "bowtie mode must be 1 or 2, got 1.0"),
    (lambda: FoldMode(FoldModel.FULLY_GENERAL, 1, math.nan), OutOfRangeError, "general has fixed 60-degree sectors"),
    (lambda: FoldMode(FoldModel.TWOPAIR, 1, PI / 3, math.nan), OutOfRangeError, "twopair has fixed 60-degree sectors"),
    (lambda: FoldMode(FoldModel.ALMOST_GENERAL, 1, math.nan, math.nan), OutOfRangeError,
     "almost-general has fixed 60-degree sectors"),
    (lambda: degree4_multipliers(PI - 1e-13, 1e-13), SingularParameterError, "degenerate sector pair alpha="),
    (lambda: closure_residual(g60(), [[0.0] * 6]), DomainError, "folding angles must form a 1-d sequence"),
    (lambda: closure_residual(g60(), [0.0] * 5), DomainError, "expected 6 folding angles, got 5"),
    (lambda: closure_residual(g60(), [0.0] * 5 + [math.nan]), DomainError, "folding angles must be finite"),
    (lambda: closure_residual(g60(), [math.inf] + [0.0] * 5), DomainError, "folding angles must be finite"),
    (lambda: folded_geometry(g60(), [math.nan] * 6), DomainError, "folding angles must be finite"),
    (lambda: folded_geometry(g60(), [0.0] * 5 + [-math.inf]), DomainError, "folding angles must be finite"),
    (lambda: folded_frames(g60(), [0.0] * 6), DomainError, "folding-angle rows must form a 2-d array"),
    (lambda: Samples(np.zeros((2, 6)), np.zeros(1), np.zeros(2, dtype=bool), [0, 0]), ValueError,
     "sample columns differ in length"),
    (lambda: canonical_form([1] * 5), OutOfRangeError, "expected 6 labels, got 5"),
    (lambda: enumerate_patterns(0), OutOfRangeError, "k must be in 1..6, got 0"),
    (lambda: enumerate_patterns(7), OutOfRangeError, "k must be in 1..6, got 7"),
    (lambda: first_order_matrix(g60(), [0.0] * 5), OutOfRangeError, VELOCITIES),
    (lambda: second_order_matrix(g60(), [0.0] * 5), OutOfRangeError, VELOCITIES),
    (lambda: solve_modes(g60(), [(1,) * 5]), OutOfRangeError, "coloring length 5 != 6 creases"),
], ids=["opposites_pattern", "igloo_pattern", "pleat_multiplier-0", "pleat_multiplier-pi", "bowtie_pattern",
        "bowtie_multiplier", "bowtie_pattern-float", "bowtie_multiplier-float", "FoldMode-general-nan",
        "FoldMode-twopair-nan", "FoldMode-almost-general-nan", "degree4_multipliers", "closure_residual-2d",
        "closure_residual-5", "closure_residual-nan", "closure_residual-inf", "folded_geometry-nan",
        "folded_geometry-inf",
        "folded_frames-1d", "Samples", "canonical_form", "enumerate_patterns-0", "enumerate_patterns-7",
        "first_order_matrix", "second_order_matrix", "solve_modes"])
def test_a_public_validator_refuses_its_bad_input(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
