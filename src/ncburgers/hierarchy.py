"""Recursion operators, hierarchy generation, commutative reduction and the
Cole-Hopf operator identities.

Three equation families are supported:

* mirror  -- r_t = r_xx + 2 r_x r, recursion operator
             (D - C_r)(D + R_r)(D - C_r)^-1  =  D + R_r + L_{r_x} ID^-1
* direct  -- s_t = s_xx + 2 s s_x, recursion operator
             (D + C_s)(D + L_s)(D + C_s)^-1  =  D + L_s + R_{s_x} DD^-1
* heat    -- u_t = u_xx with the trivial recursion operator D.

Hierarchy members come from the compact form K_n = ID (ID + L_r)^{n-1} r,
which stays free of antiderivatives; the operator route Phi^{n-1} r_x is
kept as a cross-check.

Every direct construction (recursion operator, members, Cole-Hopf
identities) is the mirror image of the mirror one: words reversed, r and s
swapped, ID and DD swapped (``fields.mirror_image``, ``operators.mirror_op``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple, Union

from .fields import (
    Context,
    DEFAULT_CONTEXT,
    DerivationTag,
    FieldExpr,
    Integral,
    Jet,
    TestField,
    Word,
    cole_hopf_context,
    d_total,
    der,
    jet,
    mirror_image,
    uinv,
    word_key,
)
from .operators import (
    OpD,
    OpDer,
    OpDerInv,
    OpExpr,
    OpLeft,
    OpRight,
    apply_op,
    mirror_op,
    op_comm,
    op_d,
    op_der,
    op_derinv,
    op_left,
    op_right,
)

_MIRROR = DerivationTag.MIRROR


class EquationFamily(enum.Enum):
    MIRROR = "mirror"
    DIRECT = "direct"
    HEAT = "heat"

    @property
    def base(self) -> str:
        return self.tag.base or "u"

    @property
    def tag(self) -> DerivationTag:
        return DerivationTag.PLAIN if self is EquationFamily.HEAT else DerivationTag(self.value)


@dataclass(frozen=True)
class HierarchyMember:
    family: EquationFamily
    index: int
    rhs: FieldExpr


def recursion_operator(family: EquationFamily, form: str = "expanded") -> OpExpr:
    """The family's recursion operator, in factored or expanded form."""
    if form not in ("factored", "expanded"):
        raise ValueError("form must be 'factored' or 'expanded'")
    if family == EquationFamily.HEAT:
        return op_d()
    if family == EquationFamily.DIRECT:
        return mirror_op(recursion_operator(EquationFamily.MIRROR, form))
    r, rx = jet("r"), jet("r", 1)
    if form == "factored":
        return op_der(_MIRROR) * (op_d() + op_right(r)) * op_derinv(_MIRROR)
    return op_d() + op_right(r) + op_left(rx) * op_derinv(_MIRROR)


def _mirror_member(n: int, ctx: Context) -> FieldExpr:
    """K_n = ID (ID + L_r)^{n-1} r."""
    g = r = jet("r")
    for _ in range(n - 1):
        g = der(_MIRROR, g, ctx) + r * g
    return der(_MIRROR, g, ctx)


def hierarchy_member(
    family: EquationFamily, n: int, ctx: Context = DEFAULT_CONTEXT
) -> HierarchyMember:
    """n-th hierarchy member via the compact derivation form."""
    if n < 1:
        raise ValueError("hierarchy index starts at 1")
    if family == EquationFamily.HEAT:
        rhs = FieldExpr.from_atom(Jet("u", n))
    elif family == EquationFamily.MIRROR:
        rhs = _mirror_member(n, ctx)
    else:
        rhs = mirror_image(_mirror_member(n, ctx))
    if rhs.contains_integral():
        raise AssertionError("hierarchy member %d is not antiderivative-free" % n)
    return HierarchyMember(family, n, rhs)


def hierarchy_cross_check(
    family: EquationFamily, n: int, ctx: Context = DEFAULT_CONTEXT
) -> bool:
    """Compare the compact form against n-1 applications of the recursion
    operator to the first jet, eliminating every antiderivative."""
    phi = recursion_operator(family, "expanded")
    cur = FieldExpr.from_atom(Jet(family.base, 1))
    for _ in range(n - 1):
        cur = apply_op(phi, cur, ctx)
        if cur.contains_integral():
            return False
    return cur == hierarchy_member(family, n, ctx).rhs


# ---------------------------------------------------------------------------
# commutative reduction


def _reduce_word_commutative(word: Word) -> Word:
    atoms = []
    for atom in word:
        if isinstance(atom, Jet):
            atoms.append(Jet("v", atom.order))
        elif isinstance(atom, TestField):
            atoms.append(atom)
        elif isinstance(atom, Integral):
            atoms.append(Integral(DerivationTag.PLAIN, reduce_commutative(atom.body)))
        else:
            raise ValueError("formal inverses have no commutative reduction")
    atoms.sort(key=lambda a: word_key((a,)))
    return tuple(atoms)


def reduce_commutative(e: Union[FieldExpr, OpExpr]) -> Union[FieldExpr, OpExpr]:
    """Collapse to the scalar (commuting) case: base symbols become v, word
    factors sort canonically, right multiplication becomes left, and
    adjacent left multiplications merge (L_a L_b = L_ab)."""
    if isinstance(e, FieldExpr):
        reduced = ((FieldExpr.from_word(_reduce_word_commutative(w)), c) for w, c in e.terms.items())
        return FieldExpr.sum(reduced)

    def atom_value(atom) -> OpExpr:
        if isinstance(atom, (OpD, OpDer)):
            return op_d()
        if isinstance(atom, OpDerInv):
            return op_derinv(DerivationTag.PLAIN)
        if isinstance(atom, (OpLeft, OpRight)):
            return OpExpr.from_atoms(OpLeft(_reduce_word_commutative(atom.word)))
        return OpExpr.zero()  # commutators vanish in the scalar case

    def merge_left(word) -> OpExpr:
        atoms = []
        for atom in word:
            if atoms and isinstance(atom, OpLeft) and isinstance(atoms[-1], OpLeft):
                atom = OpLeft(_reduce_word_commutative(atoms.pop().word + atom.word))
            atoms.append(atom)
        return OpExpr.from_atoms(*atoms)

    return OpExpr.sum((merge_left(w), c) for w, c in e.map_atoms(atom_value).terms.items())


# ---------------------------------------------------------------------------
# Cole-Hopf operator identities


# each mirror identity and the name of its direct mirror image
_COLE_HOPF_NAMES = {
    "D R_u = R_u (D + R_r)": "D L_u = L_u (D + L_s)",
    "L_u D L_uinv = D - L_r": "R_u D R_uinv = D - R_s",
    "(D - L_r) R_u = R_u (D - C_r)": "(D - R_s) L_u = L_u (D + C_s)",
    "L_u (D + R_r) = (D - C_r) L_u": "R_u (D + L_s) = (D + C_s) R_u",
    "R_uinv D R_u = D + R_r": "L_uinv D L_u = D + L_s",
    "T D T^-1 = recursion operator": "T D T^-1 = recursion operator",
}


def cole_hopf_identities(
    family: EquationFamily, integral_depth: int = 4
) -> List[Tuple[str, OpExpr, OpExpr, Context]]:
    """The five transformation-operator identities plus the conjugation
    identity T D T^-1 = recursion operator, under the Cole-Hopf substitution,
    each with its context (nesting bound ``integral_depth``)."""
    if family == EquationFamily.HEAT:
        raise ValueError("the heat family has no Cole-Hopf identities")
    if family == EquationFamily.DIRECT:
        return [
            (_COLE_HOPF_NAMES[name], mirror_op(lhs), mirror_op(rhs), ctx)
            for name, lhs, rhs, ctx in cole_hopf_identities(EquationFamily.MIRROR, integral_depth)
        ]
    ctx = cole_hopf_context(integral_depth)
    u, ui = jet("u"), uinv()
    sub = ctx.field  # r = u_x u^-1
    T = (op_d() - op_comm(sub)) * op_right(ui)
    T_inv = op_right(u) * op_derinv(_MIRROR)
    target = op_d() + op_right(sub) + op_left(d_total(sub, ctx)) * op_derinv(_MIRROR)
    sides = [
        (op_d() * op_right(u), op_right(u) * (op_d() + op_right(sub))),
        (op_left(u) * op_d() * op_left(ui), op_d() - op_left(sub)),
        ((op_d() - op_left(sub)) * op_right(u), op_right(u) * (op_d() - op_comm(sub))),
        (op_left(u) * (op_d() + op_right(sub)), (op_d() - op_comm(sub)) * op_left(u)),
        (op_right(ui) * op_d() * op_right(u), op_d() + op_right(sub)),
        (T * op_d() * T_inv, target),
    ]
    return [(name, lhs, rhs, ctx) for name, (lhs, rhs) in zip(_COLE_HOPF_NAMES, sides)]
