"""Directional (Gateaux/Frechet) derivatives and the Lie bracket of flows.

The directional derivative of a field expression K(r) along V replaces jets
of the base symbol by jets of V one factor at a time.  For operator-valued
functions the product rule applies over compositions, with

    (L_f)' = L_{f'},   D' = 0,
    ID'         = -C_V            (mirror),    DD'    = +C_V  (direct),
    (ID^-1)'    = ID^-1 C_V ID^-1,             (DD^-1)' = -DD^-1 C_V DD^-1,

the last line being the usual derivative of an operator inverse.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Tuple

from .fields import (
    Context,
    DEFAULT_CONTEXT,
    FieldExpr,
    Integral,
    Jet,
    commutator,
    subst_test,
    test,
)
from .operators import (
    OpD,
    OpDer,
    OpDerInv,
    OpExpr,
    _mult_op,
    op_comm,
    op_d,
    op_derinv,
    op_left,
    op_right,
)
from .reduction import derinv


def _frechet_atom(direction: str, base: str, ctx: Context, atom) -> Optional[FieldExpr]:
    """``frechet_field``'s derivative of one atom."""
    if isinstance(atom, Jet) and atom.symbol == base:
        return test(direction, atom.order)
    if isinstance(atom, Integral):
        tag = atom.tag
        body = atom.body.leibniz(partial(_frechet_atom, direction, base, ctx))
        if tag.base == base:
            # the tagged derivation itself depends on the base symbol
            body = body + commutator(test(direction), FieldExpr.from_atom(atom)).scale(tag.sign)
        return derinv(tag, body, ctx)
    return None


def frechet_field(
    K: FieldExpr, direction: str, base: str, ctx: Context = DEFAULT_CONTEXT
) -> FieldExpr:
    """Directional derivative of K along the test field ``direction``.

    The direction symbol must not already occur in K.  Jets of the base
    symbol turn into jets of the direction, one factor at a time;
    antiderivative atoms differentiate through the inverse rule.
    """
    if direction in K.test_names():
        raise ValueError("direction %r already occurs in the expression" % direction)
    return K.leibniz(partial(_frechet_atom, direction, base, ctx))


def frechet_op(P: OpExpr, direction: str, base: str) -> OpExpr:
    """Directional derivative of an operator expression along ``direction``.

    This operator form is what the tests compare against and what the
    benchmark's tracer table names; the verifier differentiates the field
    P sigma instead (``frechet_field``), which gives P'[V] sigma term for term.
    """
    dirf = test(direction)

    def datom(atom) -> Optional[OpExpr]:
        if isinstance(atom, (OpD, OpDer, OpDerInv)):
            if isinstance(atom, OpD) or atom.tag.base != base:
                return None  # independent of base: D, the plain tag, the other family's tag
            if isinstance(atom, OpDer):
                return op_comm(dirf).scale(-atom.tag.sign)
            return (op_derinv(atom.tag) * op_comm(dirf) * op_derinv(atom.tag)).scale(atom.tag.sign)
        dword = frechet_field(FieldExpr.from_word(atom.word), direction, base)
        return _mult_op(type(atom), dword)

    return P.leibniz(datom)


def member_operator(K: FieldExpr, base: str) -> OpExpr:
    """The directional derivative of K as an operator: K'(r)[V] = member_operator(K) V.

    Requires K free of antiderivatives; each jet occurrence contributes a
    left-prefix, right-suffix multiplication around the matching power of D.
    This operator form is what the tests compare against and what the
    benchmark's tracer table names; the verifier applies K' by substitution
    (``frechet_field`` then ``subst_test``) instead.
    """
    if K.contains_integral():
        raise ValueError("member operator needs an antiderivative-free expression")

    def pieces():
        for word, coeff in K.terms.items():
            for i, atom in enumerate(word):
                if not (isinstance(atom, Jet) and atom.symbol == base):
                    continue
                piece = OpExpr.identity()
                if word[:i]:
                    piece = piece * op_left(FieldExpr.from_word(word[:i]))
                if word[i + 1 :]:
                    piece = piece * op_right(FieldExpr.from_word(word[i + 1 :]))
                yield piece * op_d() ** atom.order, coeff

    return OpExpr.sum(pieces())


def lie_bracket_halves(K: FieldExpr, G: FieldExpr, base: str) -> Tuple[FieldExpr, FieldExpr]:
    """The two halves K'[G] and G'[K] of the Lie bracket, unreduced.  Both
    are antiderivative-free, so each can be evaluated in a matrix scene."""
    if K.contains_integral() or G.contains_integral():
        raise ValueError("lie_bracket needs antiderivative-free expressions")
    kd = subst_test(frechet_field(K, "V", base), "V", G)
    gd = subst_test(frechet_field(G, "V", base), "V", K)
    return kd, gd


def lie_bracket(K: FieldExpr, G: FieldExpr, base: str) -> FieldExpr:
    """Commutator of evolution vector fields: K'[G] - G'[K], unreduced (both
    halves are antiderivative-free, so already in normal form)."""
    kd, gd = lie_bracket_halves(K, G, base)
    return kd - gd
