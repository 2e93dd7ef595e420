import random
from fractions import Fraction

import pytest

from ncburgers.fields import test as tfield

from ncburgers.fields import DerivationTag, FieldExpr, d_total, der, jet
from ncburgers.hierarchy import EquationFamily, hierarchy_member, recursion_operator
from ncburgers.operators import (
    apply_op,
    mirror_op,
    op_comm,
    op_d,
    op_derinv,
    op_left,
    op_probe_equal,
    op_right,
)
from ncburgers.oracle import eval_field, eval_frechet_dual, make_scene
from ncburgers.variational import frechet_field, frechet_op, lie_bracket, member_operator

from conftest import random_field

M = DerivationTag.MIRROR
r, rx, rxx = jet("r"), jet("r", 1), jet("r", 2)
V, W = tfield("V"), tfield("W")


def member(n):
    return hierarchy_member(EquationFamily.MIRROR, n).rhs


def test_frechet_of_base():
    assert frechet_field(r, "V", "r") == V


def test_frechet_second_member():
    k2 = member(2)
    expected = tfield("V", 2) + (tfield("V", 1) * r).scale(2) + (rx * V).scale(2)
    assert frechet_field(k2, "V", "r") == expected


def test_frechet_third_member_against_product_rule():
    # independent expansion: differentiate term by term by hand
    k3 = member(3)
    v1, v2, v3 = tfield("V", 1), tfield("V", 2), tfield("V", 3)
    expected = (
        v3
        + (v2 * r).scale(3)
        + (rxx * V).scale(3)
        + (v1 * rx).scale(3)
        + (rx * v1).scale(3)
        + (v1 * r * r).scale(3)
        + (rx * V * r).scale(3)
        + (rx * r * V).scale(3)
    )
    assert frechet_field(k3, "V", "r") == expected


def test_frechet_linearity():
    rng = random.Random(41)
    for _ in range(40):
        k1 = random_field(rng, symbols=("r",))
        k2 = random_field(rng, symbols=("r",))
        a, b = Fraction(3, 2), Fraction(-2)
        lhs = frechet_field(k1.scale(a) + k2.scale(b), "V", "r")
        rhs = frechet_field(k1, "V", "r").scale(a) + frechet_field(k2, "V", "r").scale(b)
        assert lhs == rhs


def test_frechet_commutes_with_d_total():
    rng = random.Random(43)
    for _ in range(40):
        k = random_field(rng, symbols=("r",))
        assert frechet_field(d_total(k), "V", "r") == d_total(frechet_field(k, "V", "r"))


def test_frechet_direction_capture_rejected():
    with pytest.raises(ValueError):
        frechet_field(V * r, "V", "r")


def test_frechet_matches_dual_number_oracle():
    rng = random.Random(47)
    scene = make_scene(101, 3, 2)
    for _ in range(25):
        k = random_field(rng, symbols=("r",))
        dk = frechet_field(k, "V", "r")
        for x0 in scene.points:
            assert eval_field(dk, scene, x0) == eval_frechet_dual(k, scene, "r", "V", x0)


def test_frechet_op_of_recursion_operator():
    # R_V + L_{V_x} ID^-1 + L_{r_x} ID^-1 C_V ID^-1
    phi = recursion_operator(EquationFamily.MIRROR, "expanded")
    dphi = frechet_op(phi, "V", "r")
    expected = (
        op_right(V)
        + op_left(tfield("V", 1)) * op_derinv(M)
        + op_left(rx) * op_derinv(M) * op_comm(V) * op_derinv(M)
    )
    assert op_probe_equal(dphi, expected)


def test_frechet_op_eta_presentation():
    # R_V + L_{ID V} ID^-1 + L_{[r,V]} ID^-1 + L_{r_x} ID^-1 C_V ID^-1
    phi = recursion_operator(EquationFamily.MIRROR, "expanded")
    dphi = frechet_op(phi, "V", "r")
    eta_form = (
        op_right(V)
        + op_left(der(M, V)) * op_derinv(M)
        + op_left(r * V - V * r) * op_derinv(M)
        + op_left(rx) * op_derinv(M) * op_comm(V) * op_derinv(M)
    )
    assert op_probe_equal(dphi, eta_form)


def test_frechet_op_of_constant_operator():
    assert frechet_op(op_d(), "V", "r").is_zero()


def _applied_frechet_cases():
    idi = op_derinv(M)
    lr = op_left(r) * idi * op_right(rx)
    cases = {}
    for family in (EquationFamily.MIRROR, EquationFamily.DIRECT):
        for form in ("expanded", "factored"):
            cases["Phi %s %s" % (family.value, form)] = (recursion_operator(family, form), family.base)
        cases["Phi^2 %s" % family.value] = (recursion_operator(family) ** 2, family.base)
    cases["IDinv C[r] IDinv"] = (idi * op_comm(r) * idi, "r")
    cases["L[r] IDinv R[r_x]"] = (lr, "r")
    cases["its mirror image"] = (mirror_op(lr), "s")
    return cases


@pytest.mark.parametrize("name", sorted(_applied_frechet_cases()))
def test_frechet_field_of_an_applied_operator_is_its_frechet_op_applied(name):
    # the derivative of P sigma along V is P'[V] sigma, term for term: the
    # rule for an antiderivative atom, (ID^-1 b)' = ID^-1 b' + sign ID^-1 [V, ID^-1 b],
    # is frechet_op's (ID^-1)' = ID^-1 C_V ID^-1 applied to the body b
    P, base = _applied_frechet_cases()[name]
    sigma = tfield("sigma")
    assert frechet_field(apply_op(P, sigma), "V", base) == apply_op(frechet_op(P, "V", base), sigma)


def test_member_operator_matches_field_frechet():
    for n in (1, 2, 3):
        k = member(n)
        kop = member_operator(k, "r")
        assert apply_op(kop, V) == frechet_field(k, "V", "r")


def test_lie_bracket_antisymmetry():
    rng = random.Random(53)
    for _ in range(20):
        k = random_field(rng, symbols=("r",))
        g = random_field(rng, symbols=("r",))
        assert lie_bracket(k, g, "r") == -lie_bracket(g, k, "r")
        assert lie_bracket(k, k, "r").is_zero()


def test_lie_bracket_first_members_commute():
    assert lie_bracket(member(1), member(2), "r").is_zero()
    assert lie_bracket(member(2), member(3), "r").is_zero()


def test_lie_bracket_jacobi_identity():
    rng = random.Random(59)
    for _ in range(6):
        a = random_field(rng, symbols=("r",), max_terms=2, max_len=2, max_order=1)
        b = random_field(rng, symbols=("r",), max_terms=2, max_len=2, max_order=1)
        c = random_field(rng, symbols=("r",), max_terms=2, max_len=2, max_order=1)
        total = (
            lie_bracket(a, lie_bracket(b, c, "r"), "r")
            + lie_bracket(b, lie_bracket(c, a, "r"), "r")
            + lie_bracket(c, lie_bracket(a, b, "r"), "r")
        )
        assert total.is_zero()
