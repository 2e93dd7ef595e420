"""Cross-module consistency checks tying the symbolic engine to the oracle."""

from ncburgers.fields import test as tfield

from ncburgers.fields import (
    DEFAULT_CONTEXT,
    DerivationTag,
    FieldExpr,
    Integral,
    jet,
    rename_tests,
    subst_test,
)
from ncburgers.hierarchy import EquationFamily, hierarchy_member, recursion_operator, reduce_commutative
from ncburgers.operators import (
    OpComm,
    OpExpr,
    OpLeft,
    OpRight,
    _mult_op,
    apply_op,
    op_comm,
    op_d,
    op_derinv,
    op_probe_equal,
)
from ncburgers.oracle import check_zero, default_scenes
from ncburgers.variational import frechet_op, member_operator
from ncburgers.verify import hereditary_bilinear

M = DerivationTag.MIRROR
MIR = EquationFamily.MIRROR
DIR = EquationFamily.DIRECT


def _local_part(e: FieldExpr) -> FieldExpr:
    return FieldExpr(
        {w: c for w, c in e.terms.items() if not any(isinstance(a, Integral) for a in w)}
    )


def _subst_direction_op(P: OpExpr, name: str, replacement: FieldExpr, ctx=DEFAULT_CONTEXT) -> OpExpr:
    """Substitute a field for the direction symbol inside operator atoms: the
    composed route's Phi'[X], from ``frechet_op(Phi, name, base)``."""

    def atom_value(atom) -> OpExpr:
        if isinstance(atom, (OpLeft, OpRight, OpComm)):
            sub = subst_test(FieldExpr.from_word(atom.word), name, replacement, ctx)
            return _mult_op(type(atom), sub)
        return OpExpr.from_atoms(atom)

    return P.map_atoms(atom_value)


def _raw_strong_symmetry_defect(family, member):
    """apply_op(Phi'[K] - (K' Phi - Phi K'), sigma) with K' composed as an operator."""
    phi = recursion_operator(family, "expanded")
    dphi = frechet_op(phi, "V", family.base)
    dphi_at = _subst_direction_op(dphi, "V", member)
    kop = member_operator(member, family.base)
    return apply_op(dphi_at - (kop * phi - phi * kop), tfield("sigma"))


def _bilinear_op(family):
    """Phi Phi'[V] - Phi'[Phi V], composed as an operator; B(V,W) is its value at W."""
    phi = recursion_operator(family, "expanded")
    dphi = frechet_op(phi, "V", family.base)
    return phi * dphi - _subst_direction_op(dphi, "V", apply_op(phi, tfield("V")))


def test_local_part_of_raw_defects_is_scene_zero():
    scenes = default_scenes(6)
    for family in (MIR, DIR):
        for n in (1, 2):
            raw = _raw_strong_symmetry_defect(family, hierarchy_member(family, n).rhs)
            assert check_zero(_local_part(raw), scenes).passed


def test_bracket_of_d_with_inverse_derivation():
    # [D, ID^-1] = ID^-1 C_{r_x} ID^-1
    idi = op_derinv(M)
    lhs = op_d() * idi - idi * op_d()
    rhs = idi * op_comm(jet("r", 1)) * idi
    assert op_probe_equal(lhs, rhs)


def test_commutative_collapse_of_bilinear_local_part():
    # the scalar reduction of the local part of B(V,W) is symmetric term by
    # term, with no integration by parts involved
    b = hereditary_bilinear(MIR)
    local = _local_part(b)
    collapsed = reduce_commutative(local)
    swapped = reduce_commutative(rename_tests(collapsed, {"V": "W", "W": "V"}))
    assert swapped == collapsed
    assert not collapsed.is_zero()
