"""Bracelet-coloring enumeration, canonical forms, and the mode table."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rigidfold import symmetry_enumeration
from rigidfold.config_space import make_samples, sweep_model
from rigidfold.core_geometry import folded_geometry, g60, self_intersects
from rigidfold.errors import OutOfRangeError
from rigidfold.fold_models import FAMILIES, REASON_ERRORS, FoldMode, FoldModel
from rigidfold.tolerances import DEFAULT_TOL
from rigidfold.symmetry_enumeration import (
    NAMED_PATTERNS,
    NAMED_REPRESENTATIVES,
    ColorPattern,
    Table1Row,
    canonical_form,
    classify_g60,
    enumerate_patterns,
)

_DIHEDRAL = [lambda i, r=r: (i + r) % 6 for r in range(6)] + [
    lambda i, r=r: (r - i) % 6 for r in range(6)
]


def orbit_census():
    """Independent count of colorings up to rotation, reflection, relabeling.

    A coloring is reduced to the partition of crease positions it induces,
    which quotients out relabeling; orbits under the 12 position maps are
    then collected directly, with no shared code with the package.
    """
    partitions = set()
    for labels in itertools.product(range(6), repeat=6):
        blocks = {}
        for pos, lab in enumerate(labels):
            blocks.setdefault(lab, set()).add(pos)
        partitions.add(frozenset(frozenset(b) for b in blocks.values()))
    orbits = set()
    for part in partitions:
        orbit = frozenset(
            frozenset(frozenset(g(i) for i in block) for block in part) for g in _DIHEDRAL
        )
        orbits.add(orbit)
    census = {}
    for orbit in orbits:
        k = len(next(iter(orbit)))
        census[k] = census.get(k, 0) + 1
    return census


def test_enumeration_matches_independent_orbit_census():
    census = orbit_census()
    assert sum(census.values()) == 37
    for k in range(1, 7):
        assert len(enumerate_patterns(k)) == census[k]
    assert [census[k] for k in range(1, 7)] == [1, 7, 14, 11, 3, 1]


# Creases of the flat 60-degree vertex, written out here so the closure check
# below shares no code with the package's rotation helpers.
_CREASES_60 = [
    np.array([math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0), 0.0]) for k in range(6)
]


def _hat(u):
    return np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])


def _rodrigues_closure(rho):
    """P - I for the Rodrigues product around the 60-degree vertex, and dP/drho_j."""
    K = [_hat(u) for u in _CREASES_60]
    R = [np.eye(3) + math.sin(t) * k + (1.0 - math.cos(t)) * (k @ k) for k, t in zip(K, rho)]
    prefix = [np.eye(3)]
    for r in R:
        prefix.append(prefix[-1] @ r)
    suffix = [np.eye(3)]
    for r in reversed(R):
        suffix.insert(0, r @ suffix[0])
    # d(R_j)/d(rho_j) = K_j R_j, so dP/drho_j = R_0..R_{j-1} K_j R_j..R_5
    grads = [prefix[j] @ K[j] @ suffix[j] for j in range(6)]
    return prefix[6] - np.eye(3), grads


@pytest.mark.parametrize("root", [math.sqrt(7.0), -math.sqrt(7.0)], ids=["plus", "minus"])
def test_111232_folds_rigidly_to_one_radian(root):
    """111232, rho = (a, a, a, b, c, b), folds rigidly out to a = 1 rad.

    First order gives c = 2a - b; second order on that plane gives
    b^2 - 4ab - 3a^2 = 0, i.e. the rays b = (2 +/- sqrt(7)) a.  Each ray is
    followed by Newton's method in (b, c) at fixed a (least squares on the
    nine entries of P - I), and every step must close, keep the three
    classes apart, and not self-intersect.  This is the evidence behind the
    foldable 111232 entry of the census.
    """
    G = g60()
    slope = 2.0 + root
    path = [(0.0, 0.0, 0.0)]
    for a in np.linspace(0.02, 1.0, 50):
        if len(path) == 1:
            b, c = slope * a, (2.0 - slope) * a
        else:
            (_, b0, c0), (_, b1, c1) = path[-2], path[-1]
            b, c = 2.0 * b1 - b0, 2.0 * c1 - c0
        for _ in range(20):
            rho = [a, a, a, b, c, b]
            res, grads = _rodrigues_closure(rho)
            if np.linalg.norm(res) < 1e-14:
                break
            J = np.stack([(grads[3] + grads[5]).ravel(), grads[4].ravel()], axis=1)
            db, dc = np.linalg.lstsq(J, -res.ravel(), rcond=None)[0]
            b, c = b + db, c + dc
        rho = [a, a, a, b, c, b]
        assert np.linalg.norm(_rodrigues_closure(rho)[0]) <= 1e-12, (a, b, c)
        assert max(abs(b), abs(c)) < math.pi, (a, b, c)
        assert min(abs(a - b), abs(b - c), abs(a - c)) > 0.5 * a, (a, b, c)
        assert not self_intersects(G, folded_geometry(G, rho)), (a, b, c)
        path.append((a, b, c))


def test_enumerated_patterns_are_canonical_and_distinct():
    seen = set()
    for k in range(1, 7):
        for pat in enumerate_patterns(k):
            assert canonical_form(pat.classes).classes == pat.classes
            assert len(set(pat.classes)) == k
            assert pat.classes not in seen
            seen.add(pat.classes)


@given(st.lists(st.integers(0, 5), min_size=6, max_size=6))
def test_canonical_form_is_dihedral_invariant(labels):
    base = canonical_form(tuple(x + 1 for x in labels))
    for g in _DIHEDRAL:
        image = tuple(labels[g(i)] + 1 for i in range(6))
        assert canonical_form(image).classes == base.classes
    # idempotent
    assert canonical_form(base.classes).classes == base.classes


def test_named_representatives_canonicalize_to_table_keys():
    assert canonical_form((1, 2, 2, 1, 2, 2)).classes == (1, 1, 2, 1, 1, 2)
    assert canonical_form((1, 2, 3, 4, 3, 2)).classes == (1, 2, 1, 3, 4, 3)
    for rep, name in NAMED_REPRESENTATIVES.items():
        assert NAMED_PATTERNS[canonical_form(rep).classes] == name


def test_each_named_family_coloring_is_its_census_key():
    """The census names a pattern after the family whose coloring it is: each named
    family's canonical coloring is the key ``classify_g60`` names it by.  The 1-DOF
    igloo shares the igloo's coloring and degree-4 has none, so neither adds a name."""
    names = {
        FoldModel.TRIFOLD: "trifold",
        FoldModel.BOWTIE: "bow tie",
        FoldModel.OPPOSITES: "opposites",
        FoldModel.IGLOO2DOF: "igloo",
        FoldModel.TWOPAIR: "two pair",
        FoldModel.ALMOST_GENERAL: "almost general",
        FoldModel.FULLY_GENERAL: "fully general",
    }
    census = {p.classes: name for row in classify_g60() for p, name, _ in row.foldable_patterns}
    for model, name in names.items():
        assert census[canonical_form(FAMILIES[model].coloring).classes] == name, model
    assert sorted(filter(None, census.values())) == sorted(names.values())
    igloo = FAMILIES[FoldModel.IGLOO2DOF].coloring
    assert canonical_form(FAMILIES[FoldModel.IGLOO1DOF].coloring) == canonical_form(igloo)
    assert FAMILIES[FoldModel.DEGREE4].coloring is None
    assert NAMED_PATTERNS == {
        (1, 2, 1, 2, 1, 2): "trifold",
        (1, 1, 2, 1, 1, 2): "bow tie",
        (1, 2, 3, 1, 2, 3): "opposites",
        (1, 2, 1, 3, 4, 3): "igloo",
        (1, 1, 2, 2, 3, 4): "two pair",
        (1, 1, 2, 3, 4, 5): "almost general",
        (1, 2, 3, 4, 5, 6): "fully general",
    }


def _seeded_record(fam, mode, rng):
    """One seeded batch of 64 drives inside the family's own drive range, failed drives skipped, judged on
    the family's own pattern as ``sweep_model`` judges its rows; twopair's batch is its node loop at 29 points,
    a count the default sweep does not take."""
    if fam.loop is not None:
        drives = fam.loop(29)
    else:
        bound = fam.limit(mode.alpha, mode.beta) if len(fam.drives) == 1 else math.pi
        drives = rng.uniform(-bound, bound, (64, len(fam.drives)))
    return make_samples(mode.pattern, *fam.rows(mode, drives, skip=tuple(REASON_ERRORS)))


def test_the_vertex_symmetry_group_maps_family_rows_to_family_rows():
    """The 12 relabellings of the equal-sector vertex, each with and without negating every angle,
    map the rows of every 60-degree family and mode to states that close below DEFAULT_TOL and keep
    the verdict the family recorded for the row: the sweep rows, with rows at +/-pi, and one fixed seeded batch."""
    modes = [(fam, mode) for model, fam in FAMILIES.items() for mode in (FoldMode(model, m) for m in fam.modes)
             if mode.pattern.n == 6]
    rng = np.random.default_rng(34)
    default = [sweep_model(mode, 40 if len(fam.drives) == 1 or fam.loop is not None else 12) for fam, mode in modes]
    seeded = [_seeded_record(fam, mode, rng) for fam, mode in modes]
    relabel = np.array([[g(i) for i in range(6)] for g in symmetry_enumeration._DIHEDRAL])
    assert len(modes) == 11 and len(relabel) == 12
    for records, count in ((default, 824), (seeded, 737)):
        rho, valid = np.concatenate([r.rho for r in records]), np.concatenate([r.valid for r in records])
        assert len(rho) == count and 0 < valid.sum() < len(valid)
        images = np.concatenate([rho[:, relabel], -rho[:, relabel]], axis=1).reshape(-1, 6)  # row i: 24i..24i+23
        judged = make_samples(g60(), images, [0] * len(images))
        assert (judged.residual < DEFAULT_TOL).all()
        assert np.array_equal(judged.valid, np.repeat(valid, 24))
    assert (np.abs(np.concatenate([r.rho for r in default])) == math.pi).any()


def test_color_pattern_validation_and_str():
    assert str(ColorPattern((1, 2, 1, 3, 4, 3))) == "121343"
    with pytest.raises(OutOfRangeError):
        ColorPattern((2, 1, 1, 1, 1, 1))  # labels must appear in order
    with pytest.raises(OutOfRangeError):
        ColorPattern((1, 3, 1, 1, 1, 1))  # label 2 skipped
    with pytest.raises(OutOfRangeError):
        ColorPattern((1, 2, 3))


def test_classification_table():
    """Full frozen classification of the equilateral degree-6 vertex."""
    start = time.perf_counter()
    rows = classify_g60()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert [r.k for r in rows] == [1, 2, 3, 4, 5, 6]
    assert [r.pattern_count for r in rows] == [1, 7, 14, 11, 3, 1]

    foldable = {
        str(p): (name, dof)
        for row in rows
        for p, name, dof in row.foldable_patterns
    }
    assert foldable == {
        "112112": ("bow tie", 1),
        "121212": ("trifold", 1),
        "111232": (None, 1),
        "123123": ("opposites", 2),
        "112234": ("two pair", 1),
        "121343": ("igloo", 2),
        "112345": ("almost general", 2),
        "123456": ("fully general", 3),
    }
    assert [len(r.foldable_patterns) for r in rows] == [0, 2, 2, 2, 1, 1]


def test_classify_g60_is_fast():
    """The census decides every cone exactly, with no random cone samples."""
    classify_g60()  # builds the cached pattern enumeration
    start = time.perf_counter()
    classify_g60()
    assert time.perf_counter() - start < 0.04


def test_rows_are_table1row_instances():
    rows = classify_g60()
    assert all(isinstance(r, Table1Row) for r in rows)
    # foldable patterns listed in lexicographic order inside each row
    for r in rows:
        names = [str(p) for p, _, _ in r.foldable_patterns]
        assert names == sorted(names)
