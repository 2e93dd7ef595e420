"""Machine verification of the algebraic claims.

A claim is checked by assembling its defect (an operator or field
expression that the claim asserts is zero), applying it to fresh probe
fields where needed, and normalizing with the bounded integration-by-parts
reducer.  The outcome is a :class:`VerificationReport` whose status is

* ``proved-zero``  -- the defect normalized to the structural zero,
* ``nonzero``      -- a nonzero normal form survived,
* ``inconclusive`` -- the reducer hit its nesting/round bounds.

Probe discipline: ``sigma`` for operator probes, ``V`` then ``W`` for the
bilinear hereditary form; a probe is rejected if it already occurs in the
inputs.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .fields import (
    Context,
    DEFAULT_CONTEXT,
    FieldExpr,
    NestingLimitExceeded,
    der,
    jet,
    rename_tests,
    subst_test,
    test,
)
from .hierarchy import (
    EquationFamily,
    cole_hopf_identities,
    hierarchy_member,
    recursion_operator,
)
from .lang import print_field
from .operators import (
    OpComm,
    OpExpr,
    OpLeft,
    OpRight,
    _mult_op,
    apply_op,
    op_comm,
    op_derinv,
    op_left,
    op_right,
)
from .reduction import deep_reduce
from .variational import frechet_op, lie_bracket, member_operator


class Status(enum.Enum):
    PROVED_ZERO = "proved-zero"
    NONZERO = "nonzero"
    INCONCLUSIVE = "inconclusive"


@dataclass
class VerificationReport:
    claim: str
    status: Status
    defect: Optional[FieldExpr] = None
    terms_before: int = 0
    terms_after: int = 0
    log: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == Status.PROVED_ZERO

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "claim": self.claim,
            "status": self.status.value,
            "defect": None if self.defect is None else print_field(self.defect),
            "terms_before": self.terms_before,
            "terms_after": self.terms_after,
            "log": list(self.log),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _finish(claim: str, defect: FieldExpr, ctx: Context, log: List[str]) -> VerificationReport:
    before = len(defect.terms)
    log.append("ibp nesting depth bound: %d" % ctx.integral_depth)
    log.append("defect terms before reduction: %d" % before)
    try:
        reduced = deep_reduce(defect, ctx)
    except NestingLimitExceeded as exc:
        log.append("reduction stopped: %s" % exc)
        return VerificationReport(claim, Status.INCONCLUSIVE, defect, before, before, log)
    after = len(reduced.terms)
    log.append("defect terms after reduction: %d" % after)
    status = Status.PROVED_ZERO if reduced.is_zero() else Status.NONZERO
    return VerificationReport(claim, status, reduced, before, after, log)


def strong_symmetry_defect(
    family: EquationFamily,
    member: FieldExpr,
    ctx: Context = DEFAULT_CONTEXT,
) -> VerificationReport:
    """Defect of the strong-symmetry condition Phi'[K] = [K', Phi] for one
    candidate flow K of the family."""
    if member.contains_integral():
        raise ValueError("strong symmetry check needs an antiderivative-free member")
    claim = "strong-symmetry[%s]" % family.value
    log: List[str] = []
    phi = recursion_operator(family, "expanded")
    base = family.base
    probe = test("sigma")
    if "sigma" in member.test_names():
        raise ValueError("probe symbol sigma already occurs in the member")

    try:
        dphi = frechet_op(phi, "V", base, ctx)
        dphi_at_member = _subst_direction_op(dphi, "V", member, ctx)
        k_op = member_operator(member, base)
        defect_op = dphi_at_member - (k_op * phi - phi * k_op)
        log.append("operator defect words: %d" % len(defect_op.terms))
        defect = apply_op(defect_op, probe, ctx)
    except NestingLimitExceeded as exc:
        log.append("defect assembly stopped: %s" % exc)
        return VerificationReport(claim, Status.INCONCLUSIVE, None, 0, 0, log)
    return _finish(claim, defect, ctx, log)


def _subst_direction_op(P: OpExpr, name: str, replacement: FieldExpr, ctx: Context) -> OpExpr:
    """Substitute a field for the direction symbol inside operator atoms."""

    def atom_value(atom) -> OpExpr:
        if isinstance(atom, (OpLeft, OpRight, OpComm)):
            sub = subst_test(FieldExpr.from_word(atom.word), name, replacement, ctx)
            return _mult_op(type(atom), sub)
        return OpExpr.from_atoms(atom)

    return P.map_atoms(atom_value)


def strong_symmetry_member(
    family: EquationFamily, n: int, ctx: Context = DEFAULT_CONTEXT
) -> VerificationReport:
    member = hierarchy_member(family, n, ctx=ctx).rhs
    report = strong_symmetry_defect(family, member, ctx)
    report.claim = "strong-symmetry[%s, n=%d]" % (family.value, n)
    return report


def s_split(
    family: EquationFamily, direction: str = "V", ctx: Context = DEFAULT_CONTEXT
) -> List[Tuple[str, OpExpr]]:
    """Split S_j = Phi Phi'_j[V] - Phi'_j[Phi V] along the four natural
    pieces of the Frechet derivative of the recursion operator.

    Mirror pieces: R_V, L_{ID V} ID^-1, L_{[r,V]} ID^-1, L_{r_x} ID^-1 C_V ID^-1.
    The direct family uses the left/right mirror images.
    """
    if family == EquationFamily.HEAT:
        raise ValueError("the heat recursion operator has a vanishing derivative")
    tag = family.tag
    phi = recursion_operator(family, "expanded")
    V = test(direction)
    phi_v = apply_op(phi, V, ctx)

    if family == EquationFamily.MIRROR:
        pieces = [
            ("R", lambda f: op_right(f)),
            ("L_der", lambda f: op_left(der(tag, f, ctx)) * op_derinv(tag)),
            (
                "L_comm",
                lambda f: op_left(jet("r") * f - f * jet("r")) * op_derinv(tag),
            ),
            (
                "nonlocal",
                lambda f: op_left(jet("r", 1)) * op_derinv(tag) * op_comm(f) * op_derinv(tag),
            ),
        ]
    else:
        pieces = [
            ("L", lambda f: op_left(f)),
            ("R_der", lambda f: op_right(der(tag, f, ctx)) * op_derinv(tag)),
            (
                "R_comm",
                lambda f: op_right(f * jet("s") - jet("s") * f) * op_derinv(tag),
            ),
            (
                "nonlocal",
                lambda f: (
                    op_right(jet("s", 1)) * op_derinv(tag) * op_comm(f) * op_derinv(tag)
                ).scale(-1),
            ),
        ]

    out = []
    for j, (name, make) in enumerate(pieces, start=1):
        s_j = phi * make(V) - make(phi_v)
        out.append(("S%d:%s" % (j, name), s_j))
    return out


def hereditary_defect(
    family: EquationFamily, ctx: Context = DEFAULT_CONTEXT
) -> VerificationReport:
    """Symmetrized hereditary defect B(V,W) - B(W,V) with
    B(V,W) = (Phi Phi'[V] - Phi'[Phi V]) W."""
    claim = "hereditary[%s]" % family.value
    log: List[str] = []
    try:
        bilinear = _bilinear(family, ctx)
    except NestingLimitExceeded as exc:
        log.append("defect assembly stopped: %s" % exc)
        return VerificationReport(claim, Status.INCONCLUSIVE, None, 0, 0, log)
    log.append("bilinear form B(V,W) terms: %d" % len(bilinear.terms))
    swapped = rename_tests(bilinear, {"V": "W", "W": "V"})
    return _finish(claim, bilinear - swapped, ctx, log)


def _bilinear(family: EquationFamily, ctx: Context) -> FieldExpr:
    """B(V,W) = (Phi Phi'[V] - Phi'[Phi V]) W, before reduction."""
    phi = recursion_operator(family, "expanded")
    dphi = frechet_op(phi, "V", family.base, ctx)
    phi_v = apply_op(phi, test("V"), ctx)
    dphi_at_phi_v = _subst_direction_op(dphi, "V", phi_v, ctx)
    return apply_op(phi * dphi - dphi_at_phi_v, test("W"), ctx)


def hereditary_bilinear(
    family: EquationFamily, ctx: Context = DEFAULT_CONTEXT
) -> FieldExpr:
    """The canonicalized bilinear form B(V,W) itself, for fixture comparison."""
    return deep_reduce(_bilinear(family, ctx), ctx)


def flow_members(
    family: EquationFamily, m: int, n: int, ctx: Context = DEFAULT_CONTEXT
) -> Tuple[FieldExpr, FieldExpr]:
    """The m-th and n-th hierarchy members, the flows a commutation claim is about."""
    top = max(m, n, 8)
    return hierarchy_member(family, m, top, ctx).rhs, hierarchy_member(family, n, top, ctx).rhs


def flow_commutation(
    family: EquationFamily, m: int, n: int, ctx: Context = DEFAULT_CONTEXT
) -> VerificationReport:
    """Lie bracket of the m-th and n-th hierarchy members."""
    claim = "flow-commutation[%s, m=%d, n=%d]" % (family.value, m, n)
    km, kn = flow_members(family, m, n, ctx)
    defect = lie_bracket(km, kn, family.base, ctx)
    return _finish(claim, defect, ctx, [])


def verify_cole_hopf(family: EquationFamily) -> List[VerificationReport]:
    """Check the five transformation-operator identities and the conjugation
    identity under the Cole-Hopf substitution."""
    reports = []
    for name, lhs, rhs, ctx in cole_hopf_identities(family):
        claim = "cole-hopf[%s] %s" % (family.value, name)
        probe = test("sigma")
        defect = apply_op(lhs - rhs, probe, ctx)
        reports.append(_finish(claim, defect, ctx, []))
    return reports
