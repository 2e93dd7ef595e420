from ncburgers.fields import test as tfield
import random

import pytest

from ncburgers.fields import (
    Context,
    DEFAULT_CONTEXT,
    DerivationTag,
    FieldExpr,
    Integral,
    InverseSymbol,
    Jet,
    NestingLimitExceeded,
    TestField as Probe,
    cole_hopf_context,
    commutator,
    d_total,
    default_context,
    der,
    jet,
)
from ncburgers.hierarchy import (
    EquationFamily,
    cole_hopf_identities,
    hierarchy_member,
    recursion_operator,
)
from ncburgers.lang import parse_op
from ncburgers.operators import (
    OpComm,
    OpD,
    OpDer,
    OpDerInv,
    OpExpr,
    OpLeft,
    OpRight,
    _apply_atom,
    apply_op,
    normal_op,
    op_comm,
    op_d,
    op_der,
    op_derinv,
    op_left,
    op_probe_equal,
    op_right,
)
from ncburgers.reduction import derinv
from ncburgers.variational import frechet_op, member_operator

from conftest import random_field
from test_invariants import _subst_direction_op

M = DerivationTag.MIRROR
r, rx = jet("r"), jet("r", 1)
sigma = tfield("sigma")


def test_apply_expanded_recursion_operator():
    phi = op_d() + op_right(r) + op_left(rx) * op_derinv(M)
    out = apply_op(phi, sigma)
    expected = tfield("sigma", 1) + sigma * r + rx * derinv(M, sigma)
    assert out == expected


def _apply_per_word(P, f, ctx):
    """Reference action: each word's atoms applied right to left, one word
    at a time, and the results summed."""

    def act(word):
        cur = f
        for atom in reversed(word):
            cur = _apply_atom(atom, cur, ctx)
        return cur

    return FieldExpr.sum((act(word), c) for word, c in P.terms.items())


def _reference_operators():
    """Strong-symmetry defect operators (n = 2..4), products of the recursion
    operator, its Frechet derivative and member operators, and the Cole-Hopf
    identities' lhs - rhs, of both families."""
    out = []
    for family in (EquationFamily.MIRROR, EquationFamily.DIRECT):
        phi = recursion_operator(family, "expanded")
        dphi = frechet_op(phi, "V", family.base)
        for n in (2, 3, 4):
            member = hierarchy_member(family, n).rhs
            k_op = member_operator(member, family.base)
            dphi_at_member = _subst_direction_op(dphi, "V", member)
            out.append(dphi_at_member - (k_op * phi - phi * k_op))
        k_op = member_operator(hierarchy_member(family, 2).rhs, family.base)
        out += [
            phi ** 2 - phi.scale(2) + (phi ** 0).scale(3),
            phi * dphi - dphi * phi,
            k_op * phi ** 2 - recursion_operator(family, "factored") * dphi,
        ]
        out += [lhs - rhs for _, lhs, rhs in cole_hopf_identities(family)]
    return out


@pytest.mark.parametrize(
    "ctx",
    [DEFAULT_CONTEXT, default_context(1), cole_hopf_context()],
    ids=["default", "depth-1", "cole-hopf"],
)
def test_apply_op_matches_the_per_word_reference(ctx):
    # grouping words by their leftmost atom must change no value, and no
    # outcome of the nesting bound
    for P in _reference_operators():
        outcomes = []
        for apply in (apply_op, _apply_per_word):
            try:
                outcomes.append(apply(P, sigma, ctx))
            except NestingLimitExceeded:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1]


def test_apply_commutator_on_base_is_zero():
    assert apply_op(op_comm(r), r).is_zero()


def test_factored_equals_expanded():
    phi_fac = op_der(M) * (op_d() + op_right(r)) * op_derinv(M)
    phi_exp = op_d() + op_right(r) + op_left(rx) * op_derinv(M)
    assert apply_op(phi_fac, sigma) == apply_op(phi_exp, sigma)
    assert op_probe_equal(phi_fac, phi_exp)


def test_commutator_expands():
    assert op_probe_equal(op_comm(r), op_left(r) - op_right(r))


def test_d_derinv_order_matters():
    assert not op_probe_equal(op_d() * op_derinv(M), op_derinv(M) * op_d())


def test_left_multiplications_merge():
    rng = random.Random(31)
    for _ in range(40):
        a = random_field(rng)
        b = random_field(rng)
        assert op_probe_equal(op_left(a) * op_left(b), op_left(a * b))
        assert op_probe_equal(op_right(a) * op_right(b), op_right(b * a))
        assert op_probe_equal(op_left(a) * op_right(b), op_right(b) * op_left(a))


def test_derivation_commutation_with_multiplications():
    rng = random.Random(37)
    for _ in range(25):
        a = random_field(rng, symbols=("r",))
        lhs = op_der(M) * op_left(a) - op_left(a) * op_der(M)
        assert op_probe_equal(lhs, op_left(der(M, a)))
        rhs = op_der(M) * op_right(a) - op_right(a) * op_der(M)
        assert op_probe_equal(rhs, op_right(der(M, a)))


def test_d_with_mirror_derivation_commutator():
    # [ID, D] applied to a probe equals the commutator with r_x
    lhs = op_der(M) * op_d() - op_d() * op_der(M)
    assert op_probe_equal(lhs, op_comm(rx))


def test_normal_op_expands_and_merges():
    raw = op_comm(r) * op_left(rx)
    canon = normal_op(raw)
    assert op_probe_equal(raw, canon)
    # no commutator atoms survive
    from ncburgers.operators import OpComm

    assert not any(isinstance(a, OpComm) for w in canon.terms for a in w)


def test_normal_op_cancels_derivation_against_inverse():
    # multiplication by the unit word drops out like the identity
    for unit in ("Id", "L[1]", "R[1]"):
        one = parse_op(unit)
        assert normal_op(op_der(M) * one * op_derinv(M)) == OpExpr.identity(), unit
        assert normal_op(op_derinv(M) * one * op_der(M)) == OpExpr.identity(), unit


def test_normal_op_stops_at_the_round_budget(monkeypatch):
    phi_cubed = recursion_operator(EquationFamily.MIRROR, "expanded") ** 3
    assert normal_op(phi_cubed).terms
    monkeypatch.setattr(Context, "reduce_rounds", 20)
    with pytest.raises(NestingLimitExceeded, match="reduce_rounds = 20"):
        normal_op(phi_cubed)


def test_op_power_and_identity():
    phi = op_d() + op_right(r)
    assert op_probe_equal(phi ** 0, OpExpr.identity())
    assert op_probe_equal(phi ** 2, phi * phi)


def test_op_power_rejects_negative_exponents():
    phi = recursion_operator(EquationFamily.MIRROR, "expanded")
    with pytest.raises(ValueError, match="nonnegative"):
        phi ** -1


WORD = (Jet("r", 1), Probe("V", 0))
OP_ATOMS = [OpD(), OpDer(M), OpDerInv(M), OpLeft(WORD), OpRight(WORD), OpComm(WORD)]


def test_op_atoms_are_rank_led_tuples_hashed_in_c():
    for rank, atom in enumerate(OP_ATOMS):
        assert type(atom).__hash__ is tuple.__hash__
        assert atom[0] == rank and hash(atom) == hash(tuple(atom))
    assert [OpDer(M).tag, OpDerInv(M).tag, OpLeft(WORD).word] == [M, M, WORD]


def test_op_atom_kinds_with_one_payload_stay_apart():
    assert len({OpLeft(WORD): 1, OpRight(WORD): 2, OpComm(WORD): 3}) == 3
    assert len({OpDer(M): 1, OpDerInv(M): 2}) == 2
    for a in OP_ATOMS:
        for b in OP_ATOMS:
            assert (a == b) == (a is b)


def test_op_atoms_never_equal_field_atoms_or_words():
    field_atoms = [Jet("r", 1), Probe("V", 0), InverseSymbol(), Integral(M, jet("r"))]
    field_words = [(a,) for a in field_atoms] + [WORD, ()]
    op_atoms = OP_ATOMS + [OpLeft((a,)) for a in field_atoms] + [OpDer(DerivationTag.PLAIN)]
    for a in op_atoms:
        assert all(a != f for f in field_atoms + field_words)


def test_probe_equality_respects_scaling():
    phi = op_d() + op_right(r)
    assert not op_probe_equal(phi, phi.scale(2))


def test_shallow_probe_tells_left_products_apart():
    # L_r L_V multiplies by r V, not by V r: the probe difference is nonzero
    # before any reduction, so the shallow test returns False at once
    assert not op_probe_equal(op_left(r) * op_left(tfield("V")), op_left(tfield("V") * r), deep=False)


def test_probe_must_be_fresh():
    # with sigma inside L and R both sides would act as sigma sigma
    with pytest.raises(ValueError, match="sigma"):
        op_probe_equal(op_left(sigma), op_right(sigma))
    with pytest.raises(ValueError, match="sigma"):
        op_probe_equal(op_d(), op_comm(r * derinv(M, sigma)))
