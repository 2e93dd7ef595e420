"""Machine verification of the algebraic claims.

A claim is checked by assembling its defect (an operator or field
expression that the claim asserts is zero), applying it to fresh probe
fields where needed, and normalizing with the bounded integration-by-parts
reducer.  The outcome is a :class:`VerificationReport` whose status is

* ``proved-zero``  -- the defect normalized to the structural zero,
* ``nonzero``      -- a nonzero normal form survived,
* ``inconclusive`` -- the reducer hit its nesting/round bounds.

Both structural claims are fields built from ``apply_op(Phi, .)``,
``frechet_field`` and ``subst_test``; no operator is differentiated.
Phi'[X] Y is the derivative of Phi Y along V with X put in for V, and
K'[X] the derivative of K along sigma with X put in for sigma.  This is
exact: ``frechet_field`` takes (ID^-1 b)' = ID^-1 (b' + sign [V, ID^-1 b]),
the operator rule (ID^-1)' = ID^-1 C_V ID^-1 applied to b, and ``subst_test``
integrates a changed body again with ``derinv``, which is linear.  So each
field equals its composed operator applied to the probe, term for term.

Probe discipline: ``sigma`` for operator probes (and as the direction of
K'), ``V`` then ``W`` for the bilinear hereditary form; a probe is rejected
if it already occurs in the inputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .fields import (
    Context,
    DEFAULT_CONTEXT,
    FieldExpr,
    NestingLimitExceeded,
    cole_hopf_context,
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
from .operators import OpExpr, apply_op, mirror_op, op_comm, op_derinv, op_left, op_right
from .oracle import MatrixScene, check_equal
from .reduction import deep_reduce
from .variational import frechet_field, lie_bracket_halves


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


def _check(
    claim: str, ctx: Context, assemble: Callable[[List[str]], FieldExpr]
) -> VerificationReport:
    """Assemble a claim's defect (``assemble`` may append to the log) and
    reduce it.  A bound that runs out in either phase makes the report
    inconclusive and names the phase."""
    log: List[str] = []
    defect, before, phase = None, 0, "defect assembly"
    try:
        defect = assemble(log)
        before = len(defect.terms)
        log.append("ibp nesting depth bound: %d" % ctx.integral_depth)
        log.append("defect terms before reduction: %d" % before)
        phase = "reduction"
        reduced = deep_reduce(defect, ctx)
    except NestingLimitExceeded as exc:
        log.append("%s stopped: %s" % (phase, exc))
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
    candidate flow K of the family, applied to the probe sigma.

    The defect (Phi'[K] - K' Phi + Phi K') sigma is assembled as the field
    Phi'[K] sigma - K'[Phi sigma] + Phi(K'[sigma]), never as a composed
    operator (see the module docstring)."""
    if member.contains_integral():
        raise ValueError("strong symmetry check needs an antiderivative-free member")
    if "sigma" in member.test_names():
        raise ValueError("probe symbol sigma already occurs in the member")
    claim = "strong-symmetry[%s]" % family.value
    return _check(claim, ctx, lambda log: _strong_symmetry_field(family, member, ctx, log))


def _strong_symmetry_field(
    family: EquationFamily, member: FieldExpr, ctx: Context, log: List[str]
) -> FieldExpr:
    """Phi'[K] sigma - K'[Phi sigma] + Phi(K'[sigma]) for K = ``member``,
    before reduction, with the pieces' term counts appended to ``log``.
    Phi sigma is computed once: Phi'[K] sigma is its derivative along V with
    K put in for V, and K'[Phi sigma] puts it in for sigma, the direction of
    K', which K does not hold."""
    phi = recursion_operator(family, "expanded")
    phi_sigma = apply_op(phi, test("sigma"), ctx)
    dphi_sigma = subst_test(frechet_field(phi_sigma, "V", family.base, ctx), "V", member, ctx)
    k_sigma = frechet_field(member, "sigma", family.base, ctx)
    k_phi_sigma = subst_test(k_sigma, "sigma", phi_sigma, ctx)
    phi_k_sigma = apply_op(phi, k_sigma, ctx)
    log.append(
        "defect piece terms: Phi'[K] sigma %d, K'[Phi sigma] %d, Phi(K'[sigma]) %d"
        % (len(dphi_sigma.terms), len(k_phi_sigma.terms), len(phi_k_sigma.terms))
    )
    return dphi_sigma - k_phi_sigma + phi_k_sigma


def strong_symmetry_member(
    family: EquationFamily, n: int, ctx: Context = DEFAULT_CONTEXT
) -> VerificationReport:
    member = hierarchy_member(family, n).rhs
    report = strong_symmetry_defect(family, member, ctx)
    report.claim = "strong-symmetry[%s, n=%d]" % (family.value, n)
    return report


# a direct piece is named after its mirror piece with L and R exchanged
_SWAP_LR = str.maketrans("LR", "RL")


def s_split(family: EquationFamily) -> List[Tuple[str, OpExpr]]:
    """Split S_j = Phi Phi'_j[V] - Phi'_j[Phi V] along the four natural
    pieces of the Frechet derivative of the recursion operator.

    Mirror pieces: R_V, L_{ID V} ID^-1, L_{[r,V]} ID^-1, L_{r_x} ID^-1 C_V ID^-1.
    The direct split is the mirror image of the mirror one.
    """
    if family == EquationFamily.HEAT:
        raise ValueError("the heat recursion operator has a vanishing derivative")
    if family == EquationFamily.DIRECT:
        mirrored = s_split(EquationFamily.MIRROR)
        return [(name.translate(_SWAP_LR), mirror_op(s_j)) for name, s_j in mirrored]
    tag = family.tag
    phi = recursion_operator(family, "expanded")
    V = test("V")
    phi_v = apply_op(phi, V)
    r = jet("r")
    pieces = [
        ("R", op_right),
        ("L_der", lambda f: op_left(der(tag, f)) * op_derinv(tag)),
        ("L_comm", lambda f: op_left(r * f - f * r) * op_derinv(tag)),
        ("nonlocal", lambda f: op_left(jet("r", 1)) * op_derinv(tag) * op_comm(f) * op_derinv(tag)),
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

    def assemble(log: List[str]) -> FieldExpr:
        bilinear = _bilinear(family, ctx)
        log.append("bilinear form B(V,W) terms: %d" % len(bilinear.terms))
        return bilinear - rename_tests(bilinear, {"V": "W", "W": "V"})

    return _check("hereditary[%s]" % family.value, ctx, assemble)


def _bilinear(family: EquationFamily, ctx: Context) -> FieldExpr:
    """B(V,W) = Phi(Phi'[V] W) - Phi'[Phi V] W, before reduction, with
    Phi'[V] W the derivative of Phi W along V and Phi'[Phi V] W the same
    field with Phi V put in for V."""
    phi = recursion_operator(family, "expanded")
    dphi_w = frechet_field(apply_op(phi, test("W"), ctx), "V", family.base, ctx)
    phi_v = apply_op(phi, test("V"), ctx)
    return apply_op(phi, dphi_w, ctx) - subst_test(dphi_w, "V", phi_v, ctx)


def hereditary_bilinear(family: EquationFamily) -> FieldExpr:
    """The canonicalized bilinear form B(V,W) itself, for fixture comparison."""
    return deep_reduce(_bilinear(family, DEFAULT_CONTEXT))


def flow_commutation(
    family: EquationFamily,
    m: int,
    n: int,
    ctx: Context = DEFAULT_CONTEXT,
    scenes: Optional[Sequence[MatrixScene]] = None,
) -> VerificationReport:
    """Lie bracket K'[G] - G'[K] of the m-th and n-th hierarchy members.

    With ``scenes``, a proved claim is also put to the exact matrix oracle,
    which evaluates K'[G] and G'[K] separately and makes the claim nonzero
    if they differ.  They cannot differ today: the halves hold no
    antiderivatives, which ``deep_reduce`` keeps as they are, so a proved
    claim's halves are the same expression term for term, both built by
    ``frechet_field`` and ``subst_test``.  A scene list with no point raises
    ``ValueError``."""
    claim = "flow-commutation[%s, m=%d, n=%d]" % (family.value, m, n)
    halves: List[FieldExpr] = []

    def assemble(log: List[str]) -> FieldExpr:
        km, kn = hierarchy_member(family, m).rhs, hierarchy_member(family, n).rhs
        halves.extend(lie_bracket_halves(km, kn, family.base))
        return halves[0] - halves[1]

    report = _check(claim, ctx, assemble)
    if report.ok and scenes is not None:
        oracle = check_equal(*halves, scenes)
        report.log.append(
            "oracle K'[G] vs G'[K] scenes: %d, points: %d, passed: %s"
            % (len(scenes), oracle.points, oracle.passed)
        )
        if not oracle.passed:
            report.log.append("oracle failed at %s" % oracle.first_failure)
            report.status = Status.NONZERO
    return report


def verify_cole_hopf(family: EquationFamily, integral_depth: int = 4) -> List[VerificationReport]:
    """Check the five transformation-operator identities and the conjugation
    identity under the Cole-Hopf substitution, nesting antiderivatives at
    most ``integral_depth`` deep."""
    ctx = cole_hopf_context(integral_depth)
    reports = []
    for name, lhs, rhs in cole_hopf_identities(family):
        claim = "cole-hopf[%s] %s" % (family.value, name)
        reports.append(_check(claim, ctx, lambda log: apply_op(lhs - rhs, test("sigma"), ctx)))
    return reports
