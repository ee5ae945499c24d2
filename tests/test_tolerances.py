"""Every threshold lives in ``rigidfold.tolerances``, and each has 10x headroom.

The sensitivity test moves one constant by a factor of 10 either way,
wherever the package holds it, and checks that the census, the sweeps and
the trace do not notice.  One guard keeps exponent literals out of every
other module, so a new threshold has to be named there too; another keeps
tolerances out of defaults, so every reader sees a moved constant.
"""

import ast
import contextlib
import importlib
import tokenize
from pathlib import Path

import numpy as np
import pytest

import rigidfold
from rigidfold import tolerances
from rigidfold.cli import _table_text
from rigidfold.config_space import samples_to_obj, sweep_model, trace_implicit_curve
from rigidfold.core_geometry import _shared_layout, g60
from rigidfold.fold_models import (
    FoldMode,
    FoldModel,
    resch_fold,
    trifold_drive_limit,
    two_pair_curve_gradient,
    two_pair_curve_residual,
)
from rigidfold.second_order_rigidity import solve_modes
from rigidfold.symmetry_enumeration import classify_g60, enumerate_patterns

SRC = Path(rigidfold.__file__).parent
MODULES = [rigidfold] + [importlib.import_module(f"rigidfold.{p.stem}") for p in sorted(SRC.glob("*.py"))
                         if p.stem != "__init__"]
NAMES = [name for name in vars(tolerances) if name.isupper()]
CENSUS = (Path(__file__).resolve().parent / "data" / "table.txt").read_text()
GRIDS = (FoldModel.OPPOSITES, FoldModel.IGLOO2DOF, FoldModel.ALMOST_GENERAL)
CRITERION_3 = [(model, 32 if model in GRIDS else 1000) for model in FoldModel]
RESCH_DRIVES = np.linspace(-1.0, 1.0, 9) * trifold_drive_limit(np.pi / 3.0)
PATTERNS = [p for k in range(1, 7) for p in enumerate_patterns(k)]


@contextlib.contextmanager
def _rebound(name: str, value: float):
    """``name`` set to ``value`` in every module that imports it.

    The shared sector layouts are dropped on entry and on exit, so every pattern read inside is built,
    and checked, under ``value``, and none checked under it outlives the block.
    """
    original = getattr(tolerances, name)
    modules = [m for m in MODULES if vars(m).get(name) is original]
    for m in modules:
        setattr(m, name, value)
    _shared_layout.cache_clear()
    try:
        yield
    finally:
        for m in modules:
            setattr(m, name, original)
        _shared_layout.cache_clear()


def _counts(model: FoldModel, n: int, obj: bool = False) -> tuple[int, ...]:
    """Sample and valid counts of a sweep, and with ``obj`` the samples its obj export skips."""
    mode = FoldMode(model)
    samples = sweep_model(mode, n)
    skipped = (samples_to_obj(samples, mode.pattern)[1],) if obj else ()
    return len(samples), int(samples.valid.sum()), *skipped


def _observed() -> dict:
    """What the census, the sweeps, the trace and the resch patch give, plus one reader of each
    tolerance those leave unread: ray counts and obj skips."""
    return {
        "census": _table_text(classify_g60()),
        "rays": [len(sol.velocities) for sol in solve_modes(g60(), PATTERNS)],
        "sweeps": [_counts(model, 4 if model in GRIDS else 16, obj=True) for model in FoldModel],
        "criterion 3": [_counts(model, n) for model, n in CRITERION_3],
        "trace": len(trace_implicit_curve(two_pair_curve_residual, (0.0, 0.0), step=0.2,
                                          gradient=two_pair_curve_gradient).samples),
        "central-difference trace": len(trace_implicit_curve(two_pair_curve_residual, (0.0, 0.0)).samples),
        "resch": [len(resch_fold(t)) for t in RESCH_DRIVES.tolist()],  # raises where a vertex does not close
    }


@pytest.fixture(scope="module")
def baseline() -> dict:
    seen = _observed()
    assert seen["census"] == CENSUS
    assert seen["trace"] == 46
    return seen


def test_the_public_tolerances_are_importable_where_they_were():
    from rigidfold import config_space, core_geometry, fold_models

    assert core_geometry.TRIANGLE_EPS is tolerances.TRIANGLE_EPS
    assert core_geometry.DEFAULT_TOL is fold_models.DEFAULT_TOL is config_space.DEFAULT_TOL is tolerances.DEFAULT_TOL
    assert len(NAMES) <= 9


def test_no_function_holds_a_tolerance_as_a_default():
    """A default is bound once, at import, where moving the constant does not reach it: every
    function, method and lambda in the package reads its tolerances when called."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = filter(None, node.args.defaults + node.args.kw_defaults)  # None: a keyword with no default
                found += [f"{path.name}:{d.lineno}" for d in defaults
                          if any(getattr(n, "id", getattr(n, "attr", None)) in NAMES for n in ast.walk(d))]
    assert found == []


@pytest.mark.parametrize("factor", [10.0, 0.1])
@pytest.mark.parametrize("name", NAMES)
def test_a_tolerance_moved_tenfold_changes_nothing(baseline, name, factor):
    with _rebound(name, getattr(tolerances, name) * factor):
        assert _observed() == baseline


def test_no_module_but_tolerances_writes_an_exponent_literal():
    """Docstrings and comments are STRING and COMMENT tokens; only numbers in code are read."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                text = tok.string.lower()
                if tok.type == tokenize.NUMBER and "e" in text and not text.startswith("0x"):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert found == []

