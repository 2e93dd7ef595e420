import pytest

from ncburgers.fields import FieldExpr, Jet, cole_hopf_context, jet
from ncburgers.hierarchy import (
    EquationFamily,
    cole_hopf_identities,
    hierarchy_member,
    recursion_operator,
    reduce_commutative,
)
from ncburgers.lang import parse_field, parse_op, print_field, print_op
from ncburgers.operators import apply_op, op_probe_equal

MIR = EquationFamily.MIRROR
DIR = EquationFamily.DIRECT
HEAT = EquationFamily.HEAT


@pytest.mark.parametrize(
    "family,n,text",
    [
        (MIR, 1, "r_x"),
        (MIR, 2, "r_xx + 2 r_x r"),
        (MIR, 3, "r_xxx + 3 r_xx r + 3 r_x r_x + 3 r_x r r"),
        (DIR, 1, "s_x"),
        (DIR, 2, "s_xx + 2 s s_x"),
        (DIR, 3, "s_xxx + 3 s s_xx + 3 s_x s_x + 3 s s s_x"),
    ],
)
def test_low_members(family, n, text):
    assert hierarchy_member(family, n).rhs == parse_field(text)


@pytest.mark.parametrize("n", range(1, 6))
def test_heat_members_are_plain_derivatives(n):
    assert hierarchy_member(HEAT, n).rhs == FieldExpr.from_atom(Jet("u", n))


def test_index_bounds():
    with pytest.raises(ValueError):
        hierarchy_member(MIR, 0)
    assert hierarchy_member(MIR, 9).index == 9


@pytest.mark.parametrize("family", [MIR, DIR])
def test_recursion_operator_forms_agree(family):
    assert op_probe_equal(
        recursion_operator(family, "factored"), recursion_operator(family, "expanded")
    )


def test_heat_operator_is_trivial():
    from ncburgers.operators import op_d

    assert recursion_operator(HEAT, "factored") == op_d()
    assert recursion_operator(HEAT, "expanded") == op_d()


def test_mirror_operator_text_forms():
    exp = parse_op("D + R[r] + L[r_x] IDinv")
    fac = parse_op("(D - C[r]) (D + R[r]) IDinv")
    assert op_probe_equal(exp, recursion_operator(MIR, "expanded"))
    assert op_probe_equal(fac, recursion_operator(MIR, "expanded"))


def test_direct_operator_text_forms():
    exp = parse_op("D + L[s] + R[s_x] DDinv")
    fac = parse_op("(D + C[s]) (D + L[s]) DDinv")
    assert op_probe_equal(exp, recursion_operator(DIR, "expanded"))
    assert op_probe_equal(fac, recursion_operator(DIR, "expanded"))


@pytest.mark.parametrize("family", [MIR, DIR])
@pytest.mark.parametrize("n", range(1, 6))
def test_generation_path_agreement(family, n):
    # the operator route: n-1 applications of the recursion operator to the
    # first jet, every antiderivative eliminated on the way
    phi = recursion_operator(family, "expanded")
    cur = FieldExpr.from_atom(Jet(family.base, 1))
    for _ in range(n - 1):
        cur = apply_op(phi, cur)
        assert not cur.contains_integral()
    assert cur == hierarchy_member(family, n).rhs


@pytest.mark.parametrize("n", range(1, 6))
def test_mirror_direct_word_reversal(n):
    mirror = hierarchy_member(MIR, n).rhs
    direct = hierarchy_member(DIR, n).rhs
    reversed_renamed = FieldExpr(
        {
            tuple(Jet("s", a.order) for a in reversed(w)): c
            for w, c in mirror.terms.items()
        }
    )
    assert reversed_renamed == direct


@pytest.mark.parametrize("family", [MIR, DIR, HEAT])
@pytest.mark.parametrize("n", range(1, 7))
def test_members_integral_free_and_homogeneous(family, n):
    rhs = hierarchy_member(family, n).rhs
    assert not rhs.contains_integral()
    # a bare symbol weighs 1, and each x-derivative adds 1
    weights = {sum(a.order + 1 for a in w) for w in rhs.terms}
    assert weights == {n + 1}


def test_reduce_commutative_recursion_operators():
    red_phi = reduce_commutative(recursion_operator(MIR, "expanded"))
    red_psi = reduce_commutative(recursion_operator(DIR, "expanded"))
    assert red_phi == red_psi
    assert print_op(red_phi) == "D + v + v_x Dinv"
    assert op_probe_equal(red_phi, parse_op("D + v + v_x Dinv"))


@pytest.mark.parametrize("n", range(1, 5))
def test_commutative_collapse_of_members(n):
    a = reduce_commutative(hierarchy_member(MIR, n).rhs)
    b = reduce_commutative(hierarchy_member(DIR, n).rhs)
    assert a == b
    assert a.jet_symbols() == {"v"}


def test_commutative_second_member_is_scalar_burgers():
    collapsed = reduce_commutative(hierarchy_member(MIR, 2).rhs)
    assert collapsed == parse_field("v_xx + 2 v v_x")


def test_commutative_reduction_of_an_antiderivative():
    # the body reduces too, and the tag becomes plain
    assert reduce_commutative(parse_field("IDinv[r V]")) == parse_field("Dinv[v V]")


def test_reduce_commutative_merges_adjacent_multiplications():
    # L_a L_b = L_ab for commuting a, b; R becomes L first, and D splits a run
    assert reduce_commutative(parse_op("L[s_x] L[s] - L[s] L[s_x]")).is_zero()
    assert reduce_commutative(parse_op("L[s] R[r_x] + 2 r C[s] L[r]")) == parse_op("L[v v_x]")
    merged = reduce_commutative(parse_op("L[s_x] D L[s] L[r]"))
    assert merged == parse_op("L[v_x] D L[v v]")
    assert print_op(merged) == "v_x D (v v)"


def test_reduce_commutative_zero():
    assert reduce_commutative(FieldExpr.zero()).is_zero()


def test_commutative_scene_value_matches_scalar_burgers():
    # K2 with a commuting scene r = p(x) I equals (p'' + 2 p' p) I
    from fractions import Fraction

    from ncburgers.oracle import MatrixScene, eval_field

    def scalar_matrix(c):
        return tuple(tuple(c if i == j else Fraction(0) for j in range(d)) for i in range(d))

    p = (Fraction(2), Fraction(1, 2), Fraction(3))  # 2 + x/2 + 3x^2
    d = 2
    poly = tuple(map(scalar_matrix, p))
    scene = MatrixScene(0, d, 2, {"r": poly}, (Fraction(1), Fraction(-2)))
    k2 = hierarchy_member(MIR, 2).rhs
    for x0 in scene.points:
        val = eval_field(k2, scene, x0)
        pp = p[1] + 2 * p[2] * x0
        ppp = 2 * p[2]
        scalar = ppp + 2 * pp * (p[0] + p[1] * x0 + p[2] * x0 * x0)
        assert val == scalar_matrix(scalar)


@pytest.mark.parametrize("family", [MIR, DIR])
def test_cole_hopf_identity_list(family):
    ids = cole_hopf_identities(family)
    assert len(ids) == 6
    for name, lhs, rhs in ids:
        assert op_probe_equal(lhs, rhs, cole_hopf_context()), name


def test_cole_hopf_trivial_context():
    # u = 1 means the substituted field vanishes and every identity is D = D
    from ncburgers.fields import Context
    from ncburgers.operators import op_d

    ctx = Context(FieldExpr.zero())
    assert op_probe_equal(op_d(), op_d(), ctx)
