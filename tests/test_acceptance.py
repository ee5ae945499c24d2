"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (run with -s to see them all) and
then asserts.  Expected values are frozen; nothing here adapts to what the
code happens to return.
"""

import functools
import math
import time

import numpy as np
import pytest

from general_oracle import general_c3_image, general_rho2
from rigidfold.config_space import (
    _central_gradient,
    _correct,
    admissible_region,
    make_sample,
    sweep_model,
    trace_implicit_curve,
)
from rigidfold.core_geometry import closure_residual, g60, self_intersects
from rigidfold.errors import NoSolutionError
from rigidfold.fold_models import (
    FAMILIES,
    FoldMode,
    FoldModel,
    bowtie,
    general_fold,
    igloo_1dof,
    opposites_pattern,
    resch_fold,
    trifold_drive_limit,
    trifold_multiplier,
    two_pair_complete,
    two_pair_curve_residual,
)
from rigidfold.second_order_rigidity import ray_class_values, symmetric_mode_solve
from rigidfold.symmetry_enumeration import canonical_form, classify_g60

PI = math.pi
SQRT3 = math.sqrt(3.0)
G = g60()


def report(n: int, ok: bool, detail: str):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def test_criterion_1_classification_table():
    t0 = time.perf_counter()
    rows = classify_g60()
    elapsed = time.perf_counter() - t0

    # The reference table had 10 four-color classes and one foldable
    # three-coloring.  Up to the 12 dihedral maps and renaming of colors
    # there are 11 four-color classes (111234 112134 112234 112324 112334
    # 112342 121234 121314 121324 121343 123124; see the independent
    # orbit_census in test_symmetry_enumeration.py), and 111232, igloo with
    # classes 1 and 2 merged, folds rigidly along b = (2 +/- sqrt(7)) a
    # (test_111232_folds_rigidly_to_one_radian there).  The values below
    # are corrected to those counts.
    problems = []
    counts = [r.pattern_count for r in rows]
    if counts != [1, 7, 14, 11, 3, 1]:
        problems.append(f"pattern counts {counts} != [1, 7, 14, 11, 3, 1]")
    foldable_counts = [len(r.foldable_patterns) for r in rows]
    if foldable_counts != [0, 2, 2, 2, 1, 1]:
        problems.append(f"foldable counts {foldable_counts} != [0, 2, 2, 2, 1, 1]")

    expected = {
        (1, 2, 1, 2, 1, 2): ("trifold", 1),
        (1, 2, 2, 1, 2, 2): ("bow tie", 1),
        (1, 1, 1, 2, 3, 2): (None, 1),
        (1, 2, 3, 1, 2, 3): ("opposites", 2),
        (1, 2, 3, 4, 3, 2): ("igloo", 2),
        (1, 1, 2, 2, 3, 4): ("two pair", 1),
        (1, 1, 2, 3, 4, 5): ("almost general", 2),
        (1, 2, 3, 4, 5, 6): ("fully general", 3),
    }
    found = {p.classes: (name, dof) for row in rows for p, name, dof in row.foldable_patterns}
    for rep, want in expected.items():
        canon = canonical_form(rep)
        got = found.get(canon.classes)
        if got != want:
            problems.append(f"{want[0] or canon}: got {got}, want {want}")
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.1f}s >= 10s")

    known = {canonical_form(rep).classes for rep in expected}
    extra = sorted(
        str(p) for row in rows for p, name, _ in row.foldable_patterns
        if name is None and p.classes not in known
    )
    detail = "; ".join(problems) if problems else f"table reproduced in {elapsed:.2f}s"
    if problems and extra:
        detail += f"; enumeration also finds unnamed foldable pattern(s) {extra}"
    report(1, not problems, detail)
    assert not problems, detail


def test_criterion_2_trifold_multiplier():
    sol = symmetric_mode_solve(G, (1, 2, 1, 2, 1, 2))
    ratios = sorted(ray_class_values((1, 2, 1, 2, 1, 2), v)[1] / ray_class_values((1, 2, 1, 2, 1, 2), v)[0]
                    for v in sol.velocities)
    ray_err = max(abs(ratios[0] + (2.0 + SQRT3)), abs(ratios[1] + (2.0 - SQRT3)))
    mult_err = abs(trifold_multiplier(PI / 3.0) + (2.0 + SQRT3))
    ok = sol.foldable and len(ratios) == 2 and ray_err < 1e-9 and mult_err < 1e-12
    report(2, ok, f"ray error {ray_err:.1e} (tol 1e-9), multiplier error {mult_err:.1e} (tol 1e-12)")
    assert ok


def test_criterion_3_universal_closure():
    plan = [
        (FoldModel.DEGREE4, 1, 1000),
        (FoldModel.TRIFOLD, 1, 1000),
        (FoldModel.BOWTIE, 1, 1000),
        (FoldModel.IGLOO1DOF, 1, 1000),
        (FoldModel.OPPOSITES, 1, 32),
        (FoldModel.IGLOO2DOF, 1, 32),
        (FoldModel.TWOPAIR, 1, 1000),
        (FoldModel.FULLY_GENERAL, 1, 1000),
        (FoldModel.ALMOST_GENERAL, 1, 32),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    worst_model = ""
    for model, mode, n in plan:
        result = sweep_model(FoldMode(model, mode, PI / 3.0, PI / 3.0), n)
        assert len(result) >= 1000
        if model is FoldModel.TWOPAIR:  # every (rho1, rho2) drive row a distinct state of the curve
            assert len(np.unique([s.rho[[0, 2]] for s in result], axis=0)) == len(result)
        peak = max(s.residual for s in result)
        if peak > worst:
            worst, worst_model = peak, model.value
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    report(3, ok, f"9 models, worst residual {worst:.1e} ({worst_model}), {elapsed:.1f}s")
    assert ok


def test_criterion_4_degeneration_identities():
    drives = np.linspace(-3.0, 3.0, 101)

    gap = max(abs(bowtie(PI / 3.0, 1, d) - bowtie(PI / 3.0, 2, d)) for d in drives)

    # wedge pattern with the middle sector forced by beta = pi - 2*alpha:
    # tying two of the three angles must reproduce the bow-tie maps
    relation_worst = 0.0
    for alpha in (0.5, 0.9):
        beta = PI - 2.0 * alpha
        pat = opposites_pattern(alpha, beta)
        sa, sb, sg = math.sin(alpha), math.sin(beta), math.sin(alpha + beta)
        for r in drives:
            curves = [
                (r, r, bowtie(alpha, 2, r)),
                (r, bowtie(alpha, 2, r), r),
                (bowtie(alpha, 1, r), r, r),
            ]
            for rho1, rho2, rho3 in curves:
                t1, t2, t3 = (math.tan(x / 2.0) for x in (rho1, rho2, rho3))
                rel = sa * t1 * t2 + sb * t2 * t3 + sg * t1 * t3
                relation_worst = max(relation_worst, abs(rel))
                rho = FAMILIES[FoldModel.OPPOSITES].vector(rho1, rho2, rho3)
                closure = closure_residual(pat, rho)
                relation_worst = max(relation_worst, closure)

    rho1_worst = 0.0
    rho2_worst = 0.0
    for alpha in (0.6, 1.1):
        for mode in (1, 2):
            for d in drives:
                r1, r2, _ = igloo_1dof(alpha, PI / 2.0, mode, d)
                rho1_worst = max(rho1_worst, abs(r1))
                rho2_worst = max(rho2_worst, min(abs(r2 - d / 2.0), abs(r2 + d / 2.0)))

    ok = gap < 1e-10 and relation_worst < 1e-9 and rho1_worst < 1e-10 and rho2_worst < 1e-9
    report(4, ok, f"mode gap {gap:.1e}, wedge relation {relation_worst:.1e}, "
                  f"rho1 {rho1_worst:.1e}, rho2 offset {rho2_worst:.1e}")
    assert ok


def test_criterion_5_two_pair_curve():
    trace = trace_implicit_curve(two_pair_curve_residual, (0.0, 0.0))
    near = [i for i, s in enumerate(trace.samples) if float(np.linalg.norm(s.rho)) < 0.03]
    recrossed = any(20 < i < len(trace.samples) - 20 for i in near)
    figure_eight = trace.closed and len(trace.samples) > 400 and recrossed

    axis = np.linspace(-PI, PI, 101)
    sym = max(
        abs(two_pair_curve_residual(x, y) - two_pair_curve_residual(y, x))
        for x in axis for y in axis
    )

    pat, fam = g60(), FAMILIES[FoldModel.TWOPAIR]
    blue_ok = True
    for s in trace.samples:
        comps = two_pair_complete(float(s.rho[0]), float(s.rho[1]))
        if not comps:
            blue_ok = False
            break
        for r3, r4 in comps:
            smp = make_sample(pat, fam.vector(s.rho[0], s.rho[1], r3, r4))
            if smp.residual >= 1e-8 or not smp.valid:
                blue_ok = False

    seed, _ = _correct(two_pair_curve_residual, np.array([-1.7999, -2.0473]), 1e-10,
                       functools.partial(_central_gradient, two_pair_curve_residual))
    red_ok = False
    for r3, r4 in two_pair_complete(float(seed[0]), float(seed[1])):
        vec = fam.vector(seed[0], seed[1], r3, r4)
        smp = make_sample(pat, vec)
        state_intersects = not smp.valid and smp.residual < 1e-8
        red_ok = red_ok or state_intersects

    ok = figure_eight and sym < 1e-10 and blue_ok and red_ok
    report(5, ok, f"figure-eight {figure_eight} ({len(trace.samples)} samples), swap symmetry "
                  f"{sym:.1e}, blue valid {blue_ok}, red closes-but-intersects {red_ok}")
    assert ok


def test_criterion_6_general_kinematics():
    rng = np.random.default_rng(0)

    x_err = 0.0
    for _ in range(100):
        r1, r2 = rng.uniform(-PI, PI, 2)
        x = general_c3_image(r1, r2)[0]
        x_err = max(x_err, abs(x - (1.0 - 3.0 * math.cos(r2)) / 4.0))

    branch_failures = 0
    # one fixed batch of draws, so the test cannot hang; at least 100 of them have two branches
    two_branch = [d for d in rng.uniform(-PI, PI, (140, 3)) if len(general_rho2(*d)) == 2]
    for d in two_branch:
        try:
            sols = general_fold(*d)
        except NoSolutionError:
            branch_failures += 1
            continue
        if len(sols) != 2 or any(closure_residual(G, v) >= 1e-8 for v in sols):
            branch_failures += 1

    masks = {r6: admissible_region(r6, grid_n=41) for r6 in (0.0, 0.4, 0.8)}
    center = 20  # grid_n is odd so (0, 0) is the middle cell
    nonempty = all(m.mask.any() for m in masks.values())
    origin_ok = all(m.mask[center, center] for m in masks.values())
    vals = list(masks.values())
    distinct = all(
        not np.array_equal(vals[i].mask, vals[j].mask)
        for i in range(3) for j in range(i + 1, 3)
    )

    ok = x_err < 1e-12 and len(two_branch) >= 100 and branch_failures == 0 and nonempty and origin_ok and distinct
    report(6, ok, f"x identity {x_err:.1e}, branch failures {branch_failures}/{len(two_branch)}, masks "
                  f"nonempty {nonempty}, distinct {distinct}, origin admissible {origin_ok}")
    assert ok


def test_criterion_7_seven_vertex_patch():
    limit = trifold_drive_limit(PI / 3.0)
    worst = 0.0
    symmetric = True
    for t in np.linspace(-limit, limit, 50):
        states = resch_fold(float(t))
        for vec in states.values():
            worst = max(worst, closure_residual(G, vec))
        symmetric = symmetric and np.array_equal(states["r2"], states["r3"])
        symmetric = symmetric and np.array_equal(states["r3"], states["r4"])
    ok = worst < 1e-6 and symmetric
    report(7, ok, f"50-point sweep, worst vertex residual {worst:.1e}, "
                  f"igloo triple identical {symmetric}")
    assert ok


def test_criterion_8_second_order_consistency():
    checked = 0
    violations = []
    for row in classify_g60():
        for pattern, name, _ in row.foldable_patterns:
            sol = symmetric_mode_solve(G, pattern.classes)
            for vv in sol.velocities:
                # a ray is a direction; unit max-norm keeps t*v in the
                # asymptotic regime regardless of the reported scale
                v = vv.as_array()
                v = v / np.abs(v).max()
                res2 = closure_residual(G, 1e-2 * v)
                res3 = closure_residual(G, 1e-3 * v)
                checked += 1
                if res2 < 1e-13:  # the ray is an exact line; nothing to bound
                    continue
                ratio2 = res2 / 1e-6
                ratio3 = res3 / 1e-9
                if ratio3 > 2.0 * ratio2:  # residual/t^3 must not grow as t -> 0
                    violations.append(f"{pattern} ratio {ratio3 / ratio2:.2f}")
    ok = checked > 0 and not violations
    report(8, ok, f"{checked} rays checked" + (f"; violations {violations}" if violations else ""))
    assert ok
