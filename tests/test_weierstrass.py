"""Exact certificates for the Weierstrass (t = tan(rho/2)) relations of the families.

The relation is derived here from the crease rotations themselves, not
re-typed: closure R1 R2 R3 R4 R5 R6 = I gives A = R1 R2 R3 R4 = R6^T R5^T,
and since R5 fixes u4 and R6 fixes u5, u5^T A u4 = u5^T u4 = cos 60 = 1/2
whatever rho3 and rho4 are.  The fully general family's cos rho2 comes
from the same closure read along the first and third creases.  Every
identity below is proved in exact rational arithmetic.
"""

import math

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from general_oracle import general_cos_rho2  # noqa: E402
from rigidfold import fold_models  # noqa: E402
from rigidfold.config_space import trace_implicit_curve  # noqa: E402
from rigidfold.core_geometry import g60, rotation_products  # noqa: E402
from rigidfold.fold_models import (  # noqa: E402
    _C3,
    _P3,
    _TWO_PAIR_P,
    _TWO_PAIR_TURN,
    bowtie_multiplier,
    bowtie_pattern,
    degree4_multipliers,
    degree4_pattern,
    general_solve,
    two_pair_curve_gradient,
    two_pair_curve_residual,
    two_pair_quartic,
)

t1, t2 = sp.symbols("t1 t2", real=True)
CREASES = [sp.Matrix([sp.cos(k * sp.pi / 3), sp.sin(k * sp.pi / 3), 0]) for k in range(6)]


def rotation(u, t):
    """Rodrigues' rotation about u by rho = 2 atan(t): c I + s [u]x + (1 - c) u u^T in tan-half form."""
    c, s = (1 - t**2) / (1 + t**2), 2 * t / (1 + t**2)
    cross = sp.Matrix([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return c * sp.eye(3) + s * cross + (1 - c) * u * u.T


@pytest.fixture(scope="module")
def relation():
    """(numerator, denominator) of u5^T A u4 - 1/2, A the product of the first four rotations."""
    a = rotation(CREASES[0], t1) * rotation(CREASES[1], t1) * rotation(CREASES[2], t2) * rotation(CREASES[3], t2)
    return sp.fraction(sp.cancel((CREASES[5].T * a * CREASES[4])[0] - sp.Rational(1, 2)))


@pytest.fixture(scope="module")
def P():
    """P(t1, t2) from the stored coefficient matrix: sum of _TWO_PAIR_P[i, j] t1^i t2^j."""
    return sum(int(c) * t1**i * t2**j for (i, j), c in np.ndenumerate(_TWO_PAIR_P))


def test_symbolic_rotations_are_the_kernels():
    rho = np.array([[0.3, -1.1, 0.7, 2.0]])
    want = rotation_products(g60(), rho, creases=(0, 1, 2, 3))[0]
    got = sp.eye(3)
    for k, r in enumerate(rho[0]):
        got = got * rotation(CREASES[k], sp.Float(math.tan(r / 2.0), 30))
    assert np.abs(np.array(got.evalf(), dtype=float) - want).max() < 1e-14
    assert np.abs(np.array(sp.Matrix.hstack(*CREASES).T.evalf(), dtype=float) - g60().creases).max() < 1e-15


def test_relation_is_three_halves_P_over_its_denominator(relation, P):
    """P is built from the stored coefficients, so this also pins them to the derived relation."""
    num, den = relation
    assert sp.expand(num - 3 * P) == 0
    assert sp.expand(den - 2 * (1 + t1**2) ** 2 * (1 + t2**2) ** 2) == 0


def test_coefficient_function_rows_are_P(P):
    for k in range(-3, 4):  # exact in floats for small integers
        want = sp.Poly(P.subs(t1, k), t2).all_coeffs()
        want = [0] * (5 - len(want)) + want
        assert two_pair_quartic(np.array([float(k)]))[0].tolist() == [float(c) for c in want]


def test_curve_residual_is_minus_128_P_over_its_denominator(monkeypatch, P):
    """The program's own residual expression, evaluated on symbols, equals -128 P / den."""
    r1, r2 = sp.symbols("r1 r2", real=True)
    monkeypatch.setattr(fold_models, "math", type("symbolic", (), {"cos": staticmethod(sp.cos)}))
    expr = sp.expand_trig(sp.nsimplify(two_pair_curve_residual(r1, r2), rational=True))  # its floats are integers
    half = {sp.cos(r1): (1 - t1**2) / (1 + t1**2), sp.sin(r1): 2 * t1 / (1 + t1**2),
            sp.cos(r2): (1 - t2**2) / (1 + t2**2), sp.sin(r2): 2 * t2 / (1 + t2**2)}
    assert sp.cancel(expr.subs(half) + 128 * P / ((1 + t1**2) ** 2 * (1 + t2**2) ** 2)) == 0


def test_node_slopes_are_four_plus_minus_root_fifteen(P):
    poly = sp.Poly(P, t1, t2)
    assert all(i + j >= 2 for i, j in poly.monoms())  # (0, 0) is a singular point
    cone = sum(c * t1**i * t2**j for (i, j), c in poly.terms() if i + j == 2)
    m = sp.symbols("m")
    assert set(sp.solve(sp.expand(cone.subs(t2, m * t1) / t1**2), m)) == {4 - sp.sqrt(15), 4 + sp.sqrt(15)}


def test_P_is_swap_symmetric(P):
    assert sp.expand(P - P.subs({t1: t2, t2: t1}, simultaneous=True)) == 0


def test_turning_value_is_the_outermost_root_of_the_discriminant(P):
    disc = sp.Poly(sp.discriminant(P, t2), t1)
    lo, hi = (sp.Rational(math.tan((_TWO_PAIR_TURN + d) / 2.0)) for d in (-1e-12, 1e-12))
    assert disc.eval(lo) * disc.eval(hi) < 0  # a root of disc_t2(P) lies within 1e-12 of R*
    assert max(disc.real_roots()) <= hi  # and it is the largest one
    walk = trace_implicit_curve(two_pair_curve_residual, (0.0, 0.0), step=0.02, gradient=two_pair_curve_gradient)
    assert abs(max(abs(s.rho[0]) for s in walk.samples) - _TWO_PAIR_TURN) < 1e-6


def test_general_cos_rho2_is_the_first_crease_component_of_the_back_chain():
    """Closure gives R1 R2 R3 = R6^T R5^T R4^T.  Applied to c3, which R3 fixes,
    and read along c1, which R1 fixes: c1.R2 c3 = c1.R6^T R5^T R4^T c3 (what
    ``general_solve`` reads).  The left side is linear in cos rho2; solving
    for it gives exactly the oracle's six-trig expression, run on symbols."""
    t4, t5, t6, cos2 = sp.symbols("t4 t5 t6 cos2", real=True)
    back = (CREASES[0].T * rotation(CREASES[5], -t6) * rotation(CREASES[4], -t5)
            * rotation(CREASES[3], -t4) * CREASES[2])[0]
    forward = (CREASES[0].T * rotation(CREASES[1], t2) * CREASES[2])[0]
    forward = sp.cancel(forward.subs(t2, sp.sqrt((1 - cos2) / (1 + cos2))))  # even in t2
    assert sp.Poly(forward, cos2).degree() == 1
    [solved] = sp.solve(sp.Eq(forward, back), cos2)

    def sin_cos(t):
        return 2 * t / (1 + t**2), (1 - t**2) / (1 + t**2)

    program = sp.nsimplify(general_cos_rho2(*sin_cos(t4), *sin_cos(t5), *sin_cos(t6)), rational=True)
    assert sp.cancel(solved - program) == 0


def test_first_crease_component_of_the_forward_chain_is_linear_in_cos_rho2():
    """c1.R2(rho2) c3 = 1/4 - 3/4 cos rho2: ``general_solve`` reads cos rho2 = (1 - 4 c1.B c3)/3."""
    forward = (CREASES[0].T * rotation(CREASES[1], t2) * CREASES[2])[0]
    cos2 = (1 - t2**2) / (1 + t2**2)
    assert sp.cancel(forward - (sp.Rational(1, 4) - sp.Rational(3, 4) * cos2)) == 0
    assert sp.cancel((1 - 4 * forward) / 3 - cos2) == 0


def test_mirror_swapping_c1_and_c3_carries_the_rho1_read_to_the_rho3_read():
    """The reflection S across the plane normal to c1 - c3 swaps c1 and c3 and
    fixes c2 and e_z, so S R2 S = R2^T and R2^T c1 = S R2 c3.  With p = S e_y
    (the program's ``_P3``), the components of R2^T c1 along (p, e_z) are
    those of R2 c3 along (e_y, e_z), which ``_turn`` writes as
    sqrt(3)/2 (cos^2(rho2/2), sin rho2); and (c3, p, -e_z) is right-handed, so
    an angle about c3 is read in (p, -e_z) with both signs flipped."""
    c1, c2, c3 = CREASES[:3]
    ey, ez = sp.Matrix([0, 1, 0]), sp.Matrix([0, 0, 1])
    n = c1 - c3
    S = sp.eye(3) - 2 * n * n.T / n.dot(n)
    p = S * ey
    assert [sp.simplify(v) for v in (S * c1 - c3, S * c2 - c2, S * ez - ez)] == [sp.zeros(3, 1)] * 3
    assert sp.simplify(p - sp.Matrix([sp.nsimplify(x, [sp.sqrt(3)]) for x in _P3])) == sp.zeros(3, 1)
    assert sp.simplify(c3.cross(p) + ez) == sp.zeros(3, 1) and sp.simplify(p.dot(c3)) == 0
    forward = rotation(c2, t2) * c3  # R2 c3
    backward = rotation(c2, -t2) * c1  # R2^T c1
    assert (S * forward - backward).applyfunc(sp.cancel) == sp.zeros(3, 1)
    assert sp.cancel(backward.dot(p) - forward.dot(ey)) == 0
    assert sp.cancel(backward.dot(ez) - forward.dot(ez)) == 0
    half = sp.sqrt(3) / 2
    assert sp.cancel(forward.dot(ey) - half / (1 + t2**2)) == 0  # sqrt(3)/2 cos^2(rho2/2)
    assert sp.cancel(forward.dot(ez) - half * 2 * t2 / (1 + t2**2)) == 0  # sqrt(3)/2 sin rho2


def test_general_branches_satisfy_the_first_crease_matching():
    """The matching condition holds numerically on every closing general branch."""
    rng = np.random.default_rng(11)
    sol = general_solve(*rng.uniform(-math.pi, math.pi, (3, 200)))
    assert len(sol.drive) > 100
    rho = sol.vectors
    forward = rotation_products(g60(), rho[:, 1:2], creases=(1,)) @ _C3
    back = rotation_products(g60(), -rho[:, [5, 4, 3]], creases=(5, 4, 3)) @ _C3
    assert np.abs(forward[:, 0] - back[:, 0]).max() < 1e-14


# --- degree-4 multipliers ------------------------------------------------------
#
# Sectors (pi - beta, alpha, beta, pi - alpha) with tan(alpha/2) = 1/2 and
# tan(beta/2) = 1/3 put every crease at a rational point of the unit circle,
# so the closure of each mode is an identity of rational functions of t.

HALF_ALPHA, HALF_BETA = sp.Rational(1, 2), sp.Rational(1, 3)
P4 = (1 - HALF_ALPHA * HALF_BETA) / (1 + HALF_ALPHA * HALF_BETA)  # 5/7
Q4 = (HALF_ALPHA - HALF_BETA) / (HALF_ALPHA + HALF_BETA)  # 1/5


def _degree4_creases():
    """Creases 1 to 4, each the last turned about z by the sector between them."""
    creases = [sp.Matrix([1, 0, 0])]
    for half in (1 / HALF_BETA, HALF_ALPHA, HALF_BETA):  # tan of half of pi - beta, alpha, beta
        creases.append(rotation(sp.Matrix([0, 0, 1]), half) * creases[-1])
    return creases


def _closure(creases, tangents):
    product = sp.eye(3)
    for u, tangent in zip(creases, tangents):
        product = (product * rotation(u, tangent)).applyfunc(sp.cancel)
    return product


def test_degree4_multipliers_are_the_half_angle_ratios():
    alpha, beta = 2.0 * math.atan(0.5), 2.0 * math.atan(1.0 / 3.0)
    p, q = degree4_multipliers(alpha, beta)
    assert (P4, Q4) == (sp.Rational(5, 7), sp.Rational(1, 5))
    assert abs(p - 5.0 / 7.0) < 1e-15 and abs(q - 0.2) < 1e-15
    creases = np.array(sp.Matrix.hstack(*_degree4_creases()).T, dtype=float)
    assert np.abs(creases - degree4_pattern(alpha, beta).creases).max() < 1e-15


def test_degree4_modes_close_exactly():
    """Mode 1 (p t, t, -p t, t) and mode 2 (t, q t, t, -q t) multiply to I for every t."""
    creases = _degree4_creases()
    t = sp.symbols("t", real=True)
    assert _closure(creases, (P4 * t, t, -P4 * t, t)) == sp.eye(3)
    assert _closure(creases, (t, Q4 * t, t, -Q4 * t)) == sp.eye(3)
    assert _closure(creases, (Q4 * t, t, -Q4 * t, t)) != sp.eye(3)  # the other multiplier does not close mode 1


# --- bow tie multipliers -------------------------------------------------------
#
# cos(beta) = 3/5 and sin(beta) = 4/5 put every crease of both bow tie
# patterns at a rational point of the unit circle: the sectors are
# (pi - 2 beta, beta, beta) twice for mode 1 and (beta, pi - 2 beta, beta)
# twice for mode 2, and cos(2 beta) = -7/25, sin(2 beta) = 24/25.

COS_B, SIN_B = sp.Rational(3, 5), sp.Rational(4, 5)
BOWTIE = {1: sp.Rational(-3, 5), 2: sp.Rational(-5, 11)}  # -cos(beta), -1/(1 + 2 cos(beta))


def _bowtie_creases(mode):
    """The six creases, each the last turned about z by the sector between them."""
    turn = {"beta": sp.Matrix([[COS_B, -SIN_B, 0], [SIN_B, COS_B, 0], [0, 0, 1]])}
    turn["pi - 2 beta"] = sp.Matrix([[-COS_B**2 + SIN_B**2, -2 * SIN_B * COS_B, 0],
                                     [2 * SIN_B * COS_B, -COS_B**2 + SIN_B**2, 0], [0, 0, 1]])
    sectors = ["pi - 2 beta", "beta", "beta"] if mode == 1 else ["beta", "pi - 2 beta", "beta"]
    creases = [sp.Matrix([1, 0, 0])]
    for sector in (sectors * 2)[:-1]:
        creases.append(turn[sector] * creases[-1])
    return creases


def test_bowtie_multipliers_are_minus_three_fifths_and_minus_five_elevenths():
    beta = math.acos(0.6)
    for mode, m in BOWTIE.items():
        assert abs(bowtie_multiplier(beta, mode) - float(m)) < 1e-15
        creases = np.array(sp.Matrix.hstack(*_bowtie_creases(mode)).T, dtype=float)
        assert np.abs(creases - bowtie_pattern(beta, mode).creases).max() < 1e-15


def test_bowtie_modes_close_exactly():
    """Rows (rho1, rho1, rho2, rho1, rho1, rho2) with tan(rho2/2) = m tan(rho1/2) multiply to I
    for every t = tan(rho1/2), each mode with its own multiplier m and not with the other's."""
    t = sp.symbols("t", real=True)
    for mode, m in BOWTIE.items():
        assert _closure(_bowtie_creases(mode), (t, t, m * t, t, t, m * t)) == sp.eye(3)
    assert _closure(_bowtie_creases(1), (t, t, BOWTIE[2] * t, t, t, BOWTIE[2] * t)) != sp.eye(3)


# --- igloo half-angle fraction ---------------------------------------------------

def test_igloo_fraction_is_the_first_crease_turned_by_the_second_and_third(monkeypatch):
    """On ``igloo_pattern(alpha, beta)`` (creases at 0, alpha, alpha + beta) with
    A = R2(rho2) R3(rho3), ``_igloo_fraction`` is the (y, z) of A c1, and its
    flipped call for rho4 is minus the (y, z) of A^T c1.  The two pairs have one
    length, because c1.A c1 = c1.A^T c1, so the two 0/0 tests of ``_igloo_rows``
    test one quantity.  The program's expression runs on symbols and every
    sine and cosine is written in its half-angle tangent."""
    a, b, r2, r3, ta, tb, t3 = sp.symbols("a b r2 r3 ta tb t3", real=True)
    trig = type("symbolic", (), {"sin": staticmethod(sp.sin), "cos": staticmethod(sp.cos)})
    monkeypatch.setattr(fold_models, "math", trig)
    monkeypatch.setattr(fold_models, "np", trig)
    rho1_pair = fold_models._igloo_fraction(a, b, r2, r3)
    rho4_pair = fold_models._igloo_fraction(sp.pi - a - b, b, r3, r2)
    monkeypatch.undo()
    half = {}
    for angle, t in ((a, ta), (b, tb), (r2, t2), (r3, t3)):
        half[sp.sin(angle)], half[sp.cos(angle)] = 2 * t / (1 + t**2), (1 - t**2) / (1 + t**2)

    def rational(expr):
        return sp.expand_trig(expr).subs(half)

    def vanishes(expr):  # the numerator over one common denominator (a product of 1 + t^2) expands to 0
        return sp.expand(sp.together(expr).as_numer_denom()[0]) == 0

    c1 = sp.Matrix([1, 0, 0])
    c2 = sp.Matrix([rational(sp.cos(a)), rational(sp.sin(a)), 0])
    c3 = sp.Matrix([rational(sp.cos(a + b)), rational(sp.sin(a + b)), 0])
    forward = rotation(c2, t2) * rotation(c3, t3) * c1  # A c1
    backward = rotation(c3, -t3) * rotation(c2, -t2) * c1  # A^T c1
    assert all(vanishes(rational(x) - y) for x, y in zip(rho1_pair, forward[1:]))
    assert all(vanishes(rational(x) + y) for x, y in zip(rho4_pair, backward[1:]))
    assert vanishes(forward[0] - backward[0])

    alpha, beta = 1.0, 0.8
    angles = np.array([0.0, alpha, alpha + beta])
    assert np.abs(fold_models.igloo_pattern(alpha, beta).creases[:3, :2]
                  - np.column_stack([np.cos(angles), np.sin(angles)])).max() < 1e-15
