import json
import pathlib

import pytest

from ncburgers.fields import test as tfield

from ncburgers.fields import (
    DEFAULT_CONTEXT,
    DerivationTag,
    FieldExpr,
    Integral,
    default_context,
    der,
    jet,
    word_key,
)
from ncburgers.hierarchy import EquationFamily, hierarchy_member
from ncburgers.operators import (
    OpExpr,
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
from ncburgers.oracle import check_zero, default_scenes
from ncburgers.reduction import deep_reduce
from ncburgers.verify import (
    Status,
    _bilinear,
    _strong_symmetry_field,
    flow_commutation,
    hereditary_bilinear,
    hereditary_defect,
    s_split,
    strong_symmetry_defect,
    strong_symmetry_member,
    verify_cole_hopf,
)
from test_invariants import _bilinear_op, _raw_strong_symmetry_defect, _subst_direction_op
from ncburgers import operators, reduction, variational
from ncburgers.reduction import derinv

MIR = EquationFamily.MIRROR
DIR = EquationFamily.DIRECT
M = DerivationTag.MIRROR

r, rx = jet("r"), jet("r", 1)
V = tfield("V")


def test_every_antiderivative_of_the_papers_proofs_is_certified(monkeypatch):
    # each derinv call of the strong-symmetry (members 1-7) and hereditary
    # proofs of both families is checked against its derivative, which uses
    # none of the reducer's memos, splits or coordinate images; the plain
    # tag integrates each integrand first, since the tags share those memos
    checked = []

    def certified(tag, f, ctx=DEFAULT_CONTEXT):
        for t in (DerivationTag.PLAIN, tag):
            out = derinv(t, f, ctx)
            assert der(t, out, ctx) == f, (t, f)
        checked.append(tag)
        return out

    for module in (reduction, operators, variational):
        monkeypatch.setattr(module, "derinv", certified)
    for family in (MIR, DIR):
        assert all(strong_symmetry_member(family, n).ok for n in range(1, 8))
        assert hereditary_defect(family).ok
    # so that a proof that stops calling derinv cannot hollow the test out
    assert len(checked) >= 300, len(checked)


@pytest.mark.parametrize("family", [MIR, DIR])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_strong_symmetry_members(family, n):
    report = strong_symmetry_member(family, n)
    assert report.status == Status.PROVED_ZERO
    assert report.defect is not None and report.defect.is_zero()


def test_strong_symmetry_square_is_not_a_symmetry():
    report = strong_symmetry_defect(MIR, r * r)
    assert report.status == Status.NONZERO
    assert not report.defect.is_zero()
    local = FieldExpr(
        {w: c for w, c in report.defect.terms.items() if not any(isinstance(a, Integral) for a in w)}
    )
    assert not local.is_zero()
    oracle = check_zero(local, default_scenes(6))
    # the defect has a genuinely nonzero local part in generic scenes
    assert not oracle.passed


@pytest.mark.parametrize("family", [MIR, DIR])
def test_strong_symmetry_field_equals_the_composed_operator_route(family):
    # the reference composes K' with Phi as operators and applies the whole
    # defect operator to sigma; the verifier's field must be the same
    # expression, and reduce to the same report
    members = [hierarchy_member(family, n).rhs for n in range(1, 7)]
    controls = [r * r, jet("r", 2) + r * r, rx.scale(3) * r]
    for k in members + controls:
        raw = _raw_strong_symmetry_defect(family, k)
        assert _strong_symmetry_field(family, k, DEFAULT_CONTEXT, []) == raw
        reduced = deep_reduce(raw)
        report = strong_symmetry_defect(family, k)
        status = Status.PROVED_ZERO if reduced.is_zero() else Status.NONZERO
        assert report.status == status
        assert (report.terms_before, report.terms_after) == (len(raw.terms), len(reduced.terms))
    assert strong_symmetry_defect(family, controls[0]).status == Status.NONZERO


@pytest.mark.parametrize(
    "member,before,after", [(rx + V * r, 9, 6), (jet("r", 2) + tfield("V", 1), 27, 24)]
)
def test_strong_symmetry_of_a_member_holding_v(member, before, after):
    # V is Phi's derivative direction; a member may hold it, and the
    # direction of K' must not collide with it either
    report = strong_symmetry_defect(MIR, member)
    assert report.status == Status.NONZERO
    assert (report.terms_before, report.terms_after) == (before, after)


def test_strong_symmetry_defect_scale_invariance():
    member = hierarchy_member(MIR, 2).rhs
    a = strong_symmetry_defect(MIR, member)
    b = strong_symmetry_defect(MIR, member.scale(7))
    assert a.status == b.status == Status.PROVED_ZERO


def test_single_derivative_shortcut():
    # treating the mirror derivation as base-independent:
    # ID L_{r_x} ID^-1 + ID (ID + L_r) - ID^2 (ID + L_r) ID^-1 normalizes to 0
    ido, idi = op_der(M), op_derinv(M)
    shortcut = ido * op_left(rx) * idi + ido * (ido + op_left(r)) - ido * ido * (
        ido + op_left(r)
    ) * idi
    assert deep_reduce(apply_op(shortcut, tfield("sigma"))).is_zero()


def _mirror_tables():
    idi = op_derinv(M)
    ido = op_der(M)
    veta = der(M, V)
    retaeta = der(M, rx)
    iv = FieldExpr.from_atom(Integral(M, V))
    s1 = (
        -op_right(r * V)
        - op_right(rx * iv)
        + op_right(V) * ido
        + op_left(r) * op_right(V)
        + op_left(rx) * idi * op_right(V)
    )
    s2 = (
        op_left(veta)
        - op_left(rx * V).scale(2) * idi
        - op_left(retaeta * iv) * idi
        + op_left(rx) * idi * op_left(veta) * idi
    )
    s3 = (
        op_left(r * V)
        - op_left(V * r)
        + op_left(rx * V) * idi
        - op_left(V * rx) * idi
        + op_left(rx * iv * r) * idi
        - op_left(r * rx * iv) * idi
        + op_left(rx) * idi * op_left(r * V) * idi
        - op_left(rx) * idi * op_left(V * r) * idi
    )
    s4 = (
        op_left(rx * V) * idi
        - op_left(rx) * op_right(V) * idi
        + op_left(rx) * idi * op_right(veta) * idi
        + op_left(rx) * idi * op_right(r * V) * idi
        + op_left(retaeta) * idi * op_left(V) * idi
        - op_left(rx) * idi * op_left(veta) * idi
        - op_left(retaeta) * idi * op_right(V) * idi
        + op_left(r * rx) * idi * op_left(V) * idi
        - op_left(r * rx) * idi * op_right(V) * idi
        - op_left(rx) * idi * op_left(r * V) * idi
        - op_left(rx) * idi * op_left(rx * iv) * idi
        + op_left(rx) * idi * op_left(rx) * idi * op_left(V) * idi
        - op_left(rx) * idi * op_left(rx) * idi * op_right(V) * idi
        + op_left(rx) * idi * op_right(rx * iv) * idi
    )
    return [s1, s2, s3, s4]


def test_s_split_matches_published_tables():
    computed = s_split(MIR)
    tables = _mirror_tables()
    for (name, sj), table in zip(computed, tables):
        assert op_probe_equal(sj, table), name
        # canonicalized term multisets coincide
        assert normal_op(sj) == normal_op(table), name


def test_s_split_contains_expected_display_terms():
    # spot checks: R_V ID appears in the first split, -2 r_x V ID^-1 in the second
    from ncburgers.operators import OpD, OpDerInv, OpLeft, OpRight
    from ncburgers.fields import Jet, TestField

    computed = dict(s_split(MIR))
    s1 = normal_op(computed["S1:R"])
    keys = set(s1.terms)
    assert ((OpRight((TestField("V", 0),)), OpD())) in keys
    s2 = normal_op(computed["S2:L_der"])
    word = (OpLeft((Jet("r", 1), TestField("V", 0))), OpDerInv(M))
    assert s2.terms.get(word) == -2


def test_s_split_sum_is_full_defect():
    for family in (MIR, DIR):
        total = OpExpr.zero()
        for _, sj in s_split(family):
            total = total + sj
        assert op_probe_equal(total, _bilinear_op(family))


def test_s_split_collapses_when_base_vanishes():
    # with r = 0 the third and fourth pieces act as zero on any probe
    from ncburgers.fields import Context, subst_jets

    pieces = s_split(MIR)
    for name, sj in pieces[2:]:
        probe = apply_op(sj, tfield("sigma"))
        collapsed = subst_jets(probe, "r", FieldExpr.zero())
        assert deep_reduce(collapsed).is_zero(), name


@pytest.mark.parametrize("family", [MIR, DIR])
def test_hereditary_defect(family):
    report = hereditary_defect(family)
    assert report.status == Status.PROVED_ZERO
    assert report.terms_before > 0


@pytest.mark.parametrize("family", [MIR, DIR])
def test_nesting_bound_boundary(family):
    # one derinv call receives the merged tails of a whole group of operator
    # words, and the bound sees that merged input: depth 1 stops every claim
    # below, depth 2 proves each one
    def reports(ctx):
        return [strong_symmetry_member(family, n, ctx) for n in (1, 2, 3, 4)] + [
            hereditary_defect(family, ctx)
        ]

    for report in reports(default_context(1)):
        assert report.status == Status.INCONCLUSIVE, report.claim
        assert any("exceeded depth 1" in line for line in report.log), report.log
    for report in reports(default_context(2)):
        assert report.status == Status.PROVED_ZERO, report.claim


@pytest.mark.parametrize("family", [MIR, DIR])
def test_bilinear_field_equals_the_composed_operator_route(family):
    # Phi(Phi'[V] W) - Phi'[Phi V] W, with Phi'[X] W the derivative of Phi W
    # along V at X, is the composed operator applied to W, term for term
    assert _bilinear(family, DEFAULT_CONTEXT) == apply_op(_bilinear_op(family), tfield("W"))


@pytest.mark.parametrize("family", [MIR, DIR])
def test_reduced_terms_come_in_word_key_order_whatever_the_assembly(family):
    b = jet(family.base)
    field = _strong_symmetry_field(family, b * b, DEFAULT_CONTEXT, [])
    defects = [
        strong_symmetry_defect(family, b * b).defect,
        deep_reduce(_raw_strong_symmetry_defect(family, b * b)),
        deep_reduce(FieldExpr(dict(reversed(list(field.terms.items()))))),
    ]
    bilinears = [hereditary_bilinear(family), deep_reduce(apply_op(_bilinear_op(family), tfield("W")))]
    for reduced in (defects, bilinears):
        first = list(reduced[0].terms.items())
        assert first and [w for w, _ in first] == sorted(reduced[0].terms, key=word_key)
        for other in reduced[1:]:
            assert list(other.terms.items()) == first


def test_hereditary_bilinear_is_symmetric_in_canonical_form():
    from ncburgers.fields import rename_tests

    b = hereditary_bilinear(MIR)
    assert rename_tests(b, {"V": "W", "W": "V"}) == b
    assert len(b.terms) > 0


@pytest.mark.parametrize("family", [MIR, DIR])
@pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (2, 3)])
def test_flow_commutation(family, m, n):
    report = flow_commutation(family, m, n)
    assert report.status == Status.PROVED_ZERO


def test_flow_commutation_oracle_extends_the_log():
    bare = flow_commutation(MIR, 2, 3)
    assert bare.ok and not any("oracle" in line for line in bare.log)
    checked = flow_commutation(MIR, 2, 3, scenes=default_scenes(2))
    assert checked.ok
    assert checked.log == bare.log + ["oracle K'[G] vs G'[K] scenes: 2, points: 6, passed: True"]
    with pytest.raises(ValueError, match="scene point"):
        flow_commutation(MIR, 2, 3, scenes=[])


def test_flow_commutation_diagonal_trivial():
    report = flow_commutation(MIR, 2, 2)
    assert report.status == Status.PROVED_ZERO


@pytest.mark.parametrize("family", [MIR, DIR])
def test_cole_hopf_reports(family):
    reports = verify_cole_hopf(family)
    assert len(reports) == 6
    for rep in reports:
        assert rep.status == Status.PROVED_ZERO, rep.claim


GOLDEN_REPORTS = pathlib.Path(__file__).parent / "golden_reports.jsonl"


def _golden_reports():
    """Strong symmetry n=1..5, three nonzero controls and hereditariness for
    both families at nesting depths 4 and 1, then Cole-Hopf at depth 4."""
    for depth in (4, 1):
        ctx = default_context(depth)
        for family in (MIR, DIR):
            for n in range(1, 6):
                yield strong_symmetry_member(family, n, ctx)
            b = jet(family.base)
            for control in (b * b, jet(family.base, 2) + b * b, jet(family.base, 1).scale(3) * b):
                yield strong_symmetry_defect(family, control, ctx)
            yield hereditary_defect(family, ctx)
    for family in (MIR, DIR):
        yield from verify_cole_hopf(family, 4)


def test_reports_match_the_golden_fixture():
    # frozen from the reports of an earlier engine; a change to any status,
    # normal form, term count or log line shows here byte for byte
    lines = "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in _golden_reports())
    assert lines == GOLDEN_REPORTS.read_text()


def test_report_serialization_round_trip():
    report = strong_symmetry_member(MIR, 1)
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["status"] == "proved-zero"
    assert doc["schema"] == 1
    assert "terms_before" in doc and "log" in doc


@pytest.mark.parametrize("family", [MIR, DIR])
@pytest.mark.parametrize("n", [4, 5])
def test_strong_symmetry_higher_members(family, n):
    # the hereditary property propagates the claim up the whole hierarchy;
    # spot-check well past the low-order fixtures
    report = strong_symmetry_member(family, n)
    assert report.status == Status.PROVED_ZERO


def test_wrong_operator_fails_hereditariness():
    # left multiplication in place of right multiplication breaks the claim,
    # guarding against a reducer that proves everything zero
    from ncburgers.fields import rename_tests
    from ncburgers.variational import frechet_op

    wrong = op_d() + op_left(r) + op_left(rx) * op_derinv(M)
    dwrong = frechet_op(wrong, "V", "r")
    wv = apply_op(wrong, V)
    dw_at = _subst_direction_op(dwrong, "V", wv)
    bilinear = apply_op(wrong * dwrong - dw_at, tfield("W"))
    defect = deep_reduce(bilinear - rename_tests(bilinear, {"V": "W", "W": "V"}))
    assert not defect.is_zero()


def test_trivial_operator_fails_strong_symmetry_of_second_flow():
    from ncburgers.hierarchy import hierarchy_member
    from ncburgers.variational import member_operator

    k2 = hierarchy_member(MIR, 2).rhs
    kop = member_operator(k2, "r")
    defect_op = OpExpr.zero() - (kop * op_d() - op_d() * kop)
    defect = deep_reduce(apply_op(defect_op, tfield("sigma")))
    assert not defect.is_zero()
