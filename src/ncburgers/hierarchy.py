"""Recursion operators, hierarchy generation, commutative reduction and the
Cole-Hopf operator identities.

Three equation families are supported:

* mirror  -- r_t = r_xx + 2 r_x r, recursion operator
             (D - C_r)(D + R_r)(D - C_r)^-1  =  D + R_r + L_{r_x} ID^-1
* direct  -- s_t = s_xx + 2 s s_x, recursion operator
             (D + C_s)(D + L_s)(D + C_s)^-1  =  D + L_s + R_{s_x} DD^-1
* heat    -- u_t = u_xx with the trivial recursion operator D.

Hierarchy members come from the compact form K_n = ID (ID + L_r)^{n-1} r
(direct: DD (DD + R_s)^{n-1} s), which stays free of antiderivatives; the
operator route Phi^{n-1} r_x is kept as a cross-check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple, Union

from .fields import (
    Context,
    DEFAULT_CONTEXT,
    DerivationTag,
    FieldExpr,
    Integral,
    Jet,
    TestField,
    Word,
    add_into,
    cole_hopf_context,
    d_total,
    der,
    jet,
    uinv,
    word_key,
)
from .operators import (
    OpComm,
    OpD,
    OpDer,
    OpDerInv,
    OpExpr,
    OpLeft,
    OpRight,
    apply_op,
    op_comm,
    op_d,
    op_der,
    op_derinv,
    op_left,
    op_right,
)

class EquationFamily(enum.Enum):
    MIRROR = "mirror"
    DIRECT = "direct"
    HEAT = "heat"

    @property
    def base(self) -> str:
        return {"mirror": "r", "direct": "s", "heat": "u"}[self.value]

    @property
    def tag(self) -> DerivationTag:
        return {
            "mirror": DerivationTag.MIRROR,
            "direct": DerivationTag.DIRECT,
            "heat": DerivationTag.PLAIN,
        }[self.value]


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
    if family == EquationFamily.MIRROR:
        r, rx = jet("r"), jet("r", 1)
        if form == "factored":
            return op_der(family.tag) * (op_d() + op_right(r)) * op_derinv(family.tag)
        return op_d() + op_right(r) + op_left(rx) * op_derinv(family.tag)
    s, sx = jet("s"), jet("s", 1)
    if form == "factored":
        return op_der(family.tag) * (op_d() + op_left(s)) * op_derinv(family.tag)
    return op_d() + op_left(s) + op_right(sx) * op_derinv(family.tag)


def hierarchy_member(
    family: EquationFamily, n: int, ctx: Context = DEFAULT_CONTEXT
) -> HierarchyMember:
    """n-th hierarchy member via the compact derivation form."""
    if n < 1:
        raise ValueError("hierarchy index starts at 1")
    base = jet(family.base)
    if family == EquationFamily.HEAT:
        rhs = FieldExpr.from_atom(Jet("u", n))
    else:
        g = base
        for _ in range(n - 1):
            step = der(family.tag, g, ctx)
            g = step + (base * g if family == EquationFamily.MIRROR else g * base)
        rhs = der(family.tag, g, ctx)
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
    factors sort canonically, left and right multiplication merge."""
    if isinstance(e, FieldExpr):
        acc: Dict[Word, Fraction] = {}
        for word, coeff in e.terms.items():
            add_into(acc, _reduce_word_commutative(word), coeff)
        return FieldExpr._raw(acc)

    acc_op: Dict[tuple, Fraction] = {}
    for word, coeff in e.terms.items():
        new_word: List = []
        for atom in word:
            if isinstance(atom, (OpD, OpDer)):
                new_word.append(OpD())
            elif isinstance(atom, OpDerInv):
                new_word.append(OpDerInv(DerivationTag.PLAIN))
            elif isinstance(atom, (OpLeft, OpRight)):
                new_word.append(OpLeft(_reduce_word_commutative(atom.word)))
            elif isinstance(atom, OpComm):
                new_word = None
                break
            else:
                raise ValueError("unknown operator atom %r" % (atom,))
        if new_word is None:
            continue  # commutators vanish in the scalar case
        add_into(acc_op, tuple(new_word), coeff)
    return OpExpr._raw(acc_op)


# ---------------------------------------------------------------------------
# Cole-Hopf operator identities


def cole_hopf_substitution(family: EquationFamily) -> FieldExpr:
    """The Cole-Hopf image of the base symbol: u_x u^-1 (mirror), u^-1 u_x (direct)."""
    u1, ui = jet("u", 1), uinv()
    if family == EquationFamily.MIRROR:
        return u1 * ui
    if family == EquationFamily.DIRECT:
        return ui * u1
    raise ValueError("the heat family has no Cole-Hopf substitution")


def cole_hopf_identities(
    family: EquationFamily, integral_depth: int = 4
) -> List[Tuple[str, OpExpr, OpExpr, Context]]:
    """The five transformation-operator identities plus the conjugation
    identity T D T^-1 = recursion operator, under the Cole-Hopf substitution,
    each with its context (nesting bound ``integral_depth``)."""
    if family == EquationFamily.HEAT:
        raise ValueError("the heat family has no Cole-Hopf identities")
    ctx = cole_hopf_context(family.tag, integral_depth)
    u, ui = jet("u"), uinv()
    sub = cole_hopf_substitution(family)
    sub_x = d_total(sub, ctx)
    tag = family.tag

    if family == EquationFamily.MIRROR:
        T = (op_d() - op_comm(sub)) * op_right(ui)
        T_inv = op_right(u) * op_derinv(tag)
        target = op_d() + op_right(sub) + op_left(sub_x) * op_derinv(tag)
        ids = [
            ("D R_u = R_u (D + R_r)", op_d() * op_right(u), op_right(u) * (op_d() + op_right(sub))),
            ("L_u D L_uinv = D - L_r", op_left(u) * op_d() * op_left(ui), op_d() - op_left(sub)),
            (
                "(D - L_r) R_u = R_u (D - C_r)",
                (op_d() - op_left(sub)) * op_right(u),
                op_right(u) * (op_d() - op_comm(sub)),
            ),
            (
                "L_u (D + R_r) = (D - C_r) L_u",
                op_left(u) * (op_d() + op_right(sub)),
                (op_d() - op_comm(sub)) * op_left(u),
            ),
            (
                "R_uinv D R_u = D + R_r",
                op_right(ui) * op_d() * op_right(u),
                op_d() + op_right(sub),
            ),
        ]
    else:
        T = (op_d() + op_comm(sub)) * op_left(ui)
        T_inv = op_left(u) * op_derinv(tag)
        target = op_d() + op_left(sub) + op_right(sub_x) * op_derinv(tag)
        ids = [
            ("D L_u = L_u (D + L_s)", op_d() * op_left(u), op_left(u) * (op_d() + op_left(sub))),
            ("R_u D R_uinv = D - R_s", op_right(u) * op_d() * op_right(ui), op_d() - op_right(sub)),
            (
                "(D - R_s) L_u = L_u (D + C_s)",
                (op_d() - op_right(sub)) * op_left(u),
                op_left(u) * (op_d() + op_comm(sub)),
            ),
            (
                "R_u (D + L_s) = (D + C_s) R_u",
                op_right(u) * (op_d() + op_left(sub)),
                (op_d() + op_comm(sub)) * op_right(u),
            ),
            (
                "L_uinv D L_u = D + L_s",
                op_left(ui) * op_d() * op_left(u),
                op_d() + op_left(sub),
            ),
        ]
    ids.append(("T D T^-1 = recursion operator", T * op_d() * T_inv, target))
    return [(name, lhs, rhs, ctx) for name, lhs, rhs in ids]
