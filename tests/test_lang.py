import random
from fractions import Fraction

import pytest

from ncburgers.fields import test as tfield

from ncburgers import fields, lang, reduction
from ncburgers.fields import DerivationTag, FieldExpr, Integral, Jet, d_total, jet, uinv
from ncburgers.hierarchy import EquationFamily, hierarchy_member, recursion_operator
from ncburgers.lang import (
    ParseError,
    parse_field,
    parse_op,
    print_expr,
    print_field,
    print_op,
)
from ncburgers.operators import (
    OpExpr,
    op_comm,
    op_d,
    op_der,
    op_derinv,
    op_left,
    op_probe_equal,
    op_right,
)
from ncburgers.reduction import derinv

from conftest import random_field, random_nonlocal_field

M = DerivationTag.MIRROR


def test_parse_second_member():
    assert parse_field("r_xx + 2 r_x r") == hierarchy_member(EquationFamily.MIRROR, 2).rhs


def test_parse_cancellation():
    assert parse_field("r - r").is_zero()


def test_parse_nonlocal_two_words():
    e = parse_field("r_x IDinv[V] - IDinv[V] r_x")
    expected = jet("r", 1) * derinv(M, tfield("V")) - derinv(M, tfield("V")) * jet("r", 1)
    assert e == expected
    assert len(e.terms) == 2


def test_parse_rational_coefficients_and_parens():
    e = parse_field("3/2 (r + r_x) r")
    assert e == (jet("r") * jet("r") + jet("r", 1) * jet("r")).scale(
        __import__("fractions").Fraction(3, 2)
    )


def test_parse_total_derivative():
    assert parse_field("D(r r)") == jet("r", 1) * jet("r") + jet("r") * jet("r", 1)


def test_parse_uinv():
    e = parse_field("u_x uinv")
    from ncburgers.fields import InverseSymbol, Jet

    assert e == FieldExpr.from_word((Jet("u", 1), InverseSymbol("u")))


def test_print_third_member_fixture():
    k3 = hierarchy_member(EquationFamily.MIRROR, 3).rhs
    assert print_field(k3) == "r_xxx + 3 r_xx r + 3 r_x r_x + 3 r_x r r"


def test_print_zero():
    assert print_field(FieldExpr.zero()) == "0"


def test_print_latex_compiles_style():
    k2 = hierarchy_member(EquationFamily.MIRROR, 2).rhs
    assert print_field(k2, "latex") == "r_{xx} + 2 r_{x} r"
    nonlocal_expr = jet("r", 1) * derinv(M, tfield("sigma"))
    txt = print_field(nonlocal_expr, "latex")
    assert r"\mathrm{ID}^{-1}" in txt and r"\sigma" in txt


def test_print_eta_coordinates():
    k2 = hierarchy_member(EquationFamily.MIRROR, 2).rhs
    assert print_field(k2, "eta") == "r r_eta + r_eta r + r_etaeta"


@pytest.mark.parametrize(
    "src, x_text, eta_text",
    [
        (
            "IDinv[r_x V r] + IDinv[V r] r",
            "-IDinv[r V_x r - r r V r + r V r r] - IDinv[r V r_x] + IDinv[V r] r + r V r",
            "-IDinv[r V r_eta] - IDinv[r V_eta r] + IDinv[V r] r + r V r",
        ),
        (
            "DDinv[s W s_x] s",
            "-DDinv[s_x W s] s - DDinv[s W_x s + s s W s - s W s s] s + s W s s",
            "-DDinv[s W_eta s] s - DDinv[s_eta W s] s + s W s s",
        ),
        ("IDinv[V IDinv[r V]]", "IDinv[V IDinv[r V]]", "IDinv[V IDinv[r V]]"),
    ],
)
def test_print_antiderivatives_golden(src, x_text, eta_text):
    e = parse_field(src)
    assert print_field(e) == x_text
    assert print_field(e, "eta") == eta_text


@pytest.mark.parametrize(
    "src, eta_text",
    [
        # no r or s jet: the tag of the field's antiderivatives, else plain
        ("V_xx", "V_etaeta"),
        ("V W_x", "V W_eta"),
        ("Dinv[V] V_x", "Dinv[V] V_eta"),
        ("DDinv[V] V_x", "-DDinv[V] s V + DDinv[V] V s + DDinv[V] V_eta"),
        ("IDinv[V] V_x", "IDinv[V] r V - IDinv[V] V r + IDinv[V] V_eta"),  # as before
    ],
)
def test_print_eta_without_base_jets(src, eta_text):
    assert print_field(parse_field(src), "eta") == eta_text


@pytest.mark.parametrize(
    "src, message",
    [
        ("r uinv", "uinv cannot be written in ID eta coordinates"),
        ("r DDinv[s V]", "DDinv[s V] cannot be written in ID eta coordinates"),
    ],
)
def test_print_eta_names_the_atom_it_cannot_write(src, message):
    with pytest.raises(ValueError) as info:
        print_field(parse_field(src), "eta")
    assert str(info.value) == message


def test_print_eta_orders_nested_bodies_as_fraction_text():
    # eta words are ordered by their text, which embeds nested bodies with
    # each coefficient written as a Fraction: Fraction(1, 2) sorts before
    # Fraction(3, 1), while a bare 3 would sort first
    def nested(c):
        body = FieldExpr({(fields.Jet("r"), fields.TestField("V")): c})
        inner = FieldExpr.from_atom(Integral(M, body))
        return FieldExpr.from_atom(Integral(M, inner * jet("r")))

    e = nested(3) + nested(Fraction(1, 2))
    assert print_field(e, "eta") == "IDinv[IDinv[1/2 r V] r] + IDinv[IDinv[3 r V] r]"


def test_round_trip_property():
    rng = random.Random(71)
    for _ in range(120):
        e = random_nonlocal_field(rng, symbols=("r",), tests=("V", "W"))
        assert parse_field(print_field(e)) == e


def test_round_trip_depth_includes_nested_antiderivatives():
    inner = derinv(M, tfield("V"))
    e = derinv(M, jet("r", 1) * inner) * jet("r")
    assert parse_field(print_field(e)) == e


def test_parse_op_expanded_form():
    phi = parse_op("D + R[r] + L[r_x] IDinv")
    assert op_probe_equal(phi, recursion_operator(EquationFamily.MIRROR, "expanded"))


def test_parse_op_zero_operator():
    assert op_probe_equal(parse_op("C[r] - L[r] + R[r]"), parse_op("0"))


def test_parse_op_factored_form():
    fac = parse_op("(D - C[r]) (D + R[r]) IDinv")
    exp = parse_op("D + R[r] + L[r_x] IDinv")
    assert op_probe_equal(fac, exp)


def test_parse_op_bare_fields_are_left_multiplication():
    assert op_probe_equal(parse_op("r_x IDinv"), parse_op("L[r_x] IDinv"))


def test_op_print_round_trip():
    for family in (EquationFamily.MIRROR, EquationFamily.DIRECT):
        for form in ("expanded", "factored"):
            P = recursion_operator(family, form)
            assert parse_op(print_op(P)) == P


def test_every_printed_operator_reads_back_as_itself():
    # both recursion operators in both forms, the s_split pieces and both
    # sides of the Cole-Hopf identities, in both families
    from ncburgers.fields import InverseSymbol
    from ncburgers.hierarchy import cole_hopf_identities
    from ncburgers.operators import OpLeft
    from ncburgers.verify import s_split

    families = (EquationFamily.MIRROR, EquationFamily.DIRECT)
    ops = [recursion_operator(family, form) for family in families for form in ("expanded", "factored")]
    for family in families:
        ops += [s_j for _, s_j in s_split(family)]
        ops += [side for _, lhs, rhs in cole_hopf_identities(family) for side in (lhs, rhs)]
    assert len(ops) == 36
    for P in ops:
        assert parse_op(print_op(P)) == P, print_op(P)
    # in operator text D is the operator, not the field derivative D(r V)
    P = op_d() * op_left(parse_field("r V"))
    assert print_op(P) == "D (r V)"
    assert parse_op("D (r V)") == P
    assert parse_op("L[D(r V)]") == op_left(parse_field("r_x V + r V_x"))
    # a printed word keeps its u u^-1 pair
    P = OpExpr.from_atoms(OpLeft((Jet("u"), InverseSymbol("u"), Jet("r"))))
    assert print_op(P) == "(u uinv r)" and parse_op("(u uinv r)") == P


def test_print_expr_dispatch():
    assert print_expr(jet("r")) == "r"
    assert print_expr(parse_op("D")) == "D"
    with pytest.raises(TypeError):
        print_expr(42)


def test_repr_is_the_printed_text():
    f = parse_field("r_x IDinv[r V] - 1/2 uinv")
    P = recursion_operator(EquationFamily.DIRECT, "factored")
    assert repr(f) == print_field(f) == "-1/2 uinv + r_x IDinv[r V]"
    assert repr(P) == print_op(P)


def test_print_op_rejects_unknown_modes():
    phi = recursion_operator(EquationFamily.MIRROR, "expanded")
    for mode in ("eta", "bogus"):
        with pytest.raises(ValueError, match="unknown print mode"):
            print_op(phi, mode)
        with pytest.raises(ValueError, match="unknown print mode"):
            print_expr(phi, mode)
    with pytest.raises(ValueError, match="unknown print mode"):
        print_field(jet("r"), "bogus")


def test_print_op_orders_all_six_atom_kinds():
    # length first, then D, tagged derivations, inverses, L, R, C; tags by
    # value (direct, mirror, plain) and multiplication words by word_key
    DIR, PLAIN = DerivationTag.DIRECT, DerivationTag.PLAIN
    r, s, V = jet("r"), jet("s"), tfield("V")
    P = (
        op_d() + op_der(DIR) + op_der(M) + op_derinv(DIR) + op_derinv(M) + op_derinv(PLAIN)
        + op_left(r) + op_left(jet("r", 1) * r) + op_right(V) + op_comm(r)
        + op_d() * op_comm(s) - (op_right(s) * op_d()).scale(Fraction(1, 2))
    )
    assert print_op(P) == (
        "D + DD + ID + DDinv + IDinv + Dinv + r + (r_x r) + R[V] + C[r] + D C[s] - 1/2 R[s] D"
    )
    assert print_op(P, "latex") == (
        r"D + \mathbb{D} + \mathrm{ID} + \mathbb{D}^{-1} + \mathrm{ID}^{-1} + D^{-1} + r"
        r" + (r_{x} r) + R_{V} + C_{r} + D C_{s} - \tfrac{1}{2} R_{s} D"
    )
    assert parse_op(print_op(P)) == P


def test_diagnostics_have_positions():
    src = "r_x + \n q r"
    with pytest.raises(ParseError) as info:
        parse_field(src)
    diag = info.value.diagnostic
    assert diag.line == 2
    assert 1 <= diag.column <= len(src.splitlines()[1]) + 1
    assert "unknown symbol" in diag.message


def test_unknown_symbol_reported():
    with pytest.raises(ParseError, match="unknown symbol"):
        parse_field("banana")


def test_missing_factor_messages():
    with pytest.raises(ParseError, match="expected a field factor"):
        parse_field("r + )")
    with pytest.raises(ParseError, match="expected an operator factor"):
        parse_op("D + ]")
    assert parse_field("2") == FieldExpr.unit().scale(2)
    assert parse_op("-1/2") == OpExpr.identity().scale(Fraction(-1, 2))


FIELD_EXPECTED = ("r", "s", "u", "v", "V", "W", "sigma", "uinv")
FACTOR_EXPECTED = ("identifier", "(", "IDinv[")
OP_EXPECTED = ("D", "ID", "IDinv", "L[") + FIELD_EXPECTED


@pytest.mark.parametrize(
    "parse, src, diagnostic",
    [
        (parse_field, "r_x + \n q r", (2, 2, "unknown symbol 'q'", FIELD_EXPECTED)),
        (parse_field, "r + )", (1, 5, "expected a field factor", FACTOR_EXPECTED)),
        (parse_op, "D + ]", (1, 5, "expected an operator factor", ("D", "ID", "IDinv", "L[", "identifier"))),
        (parse_field, "r r ]", (1, 5, "trailing input", ())),
        (parse_field, "IDinv r", (1, 1, "unknown symbol 'IDinv'", FIELD_EXPECTED)),
        (parse_field, "(r + s", (1, 7, "unexpected end of input", (")",))),
        (parse_field, "IDinv[r V", (1, 10, "unexpected end of input", ("]",))),
        (parse_field, "r ? s", (1, 3, "unexpected character '?'", ())),
        (parse_field, "r\n\n  ?", (3, 3, "unexpected character '?'", ())),
        (parse_field, "", (1, 1, "expected a field factor", FACTOR_EXPECTED)),
        (parse_field, "D(", (1, 3, "expected a field factor", FACTOR_EXPECTED)),
        (parse_op, "L[", (1, 3, "expected a field factor", FACTOR_EXPECTED)),
        (parse_field, "r _", (1, 3, "unexpected character '_'", ())),
        (parse_field, "uinv_x", (1, 1, "unknown symbol 'uinv_x'", FIELD_EXPECTED)),
        (parse_field, "IDinv[r] ]", (1, 10, "trailing input", ())),
        (parse_field, "q", (1, 1, "unknown symbol 'q'", FIELD_EXPECTED)),
        (parse_field, "r + q", (1, 5, "unknown symbol 'q'", FIELD_EXPECTED)),
        (parse_field, "(q)", (1, 2, "unknown symbol 'q'", FIELD_EXPECTED)),
        (parse_field, "r q", (1, 3, "unknown symbol 'q'", FIELD_EXPECTED)),
        (parse_field, "2 r sigmaa", (1, 5, "unknown symbol 'sigmaa'", FIELD_EXPECTED)),
        (parse_field, "r_xq", (1, 4, "unknown symbol 'q'", FIELD_EXPECTED)),
        (parse_field, "D(r) q", (1, 6, "unknown symbol 'q'", FIELD_EXPECTED)),
        (parse_field, "IDinv[r] q", (1, 10, "unknown symbol 'q'", FIELD_EXPECTED)),
        (parse_op, "D q", (1, 3, "unknown symbol 'q'", OP_EXPECTED)),
        (parse_op, "ID q", (1, 4, "unknown symbol 'q'", OP_EXPECTED)),
        (parse_op, "Id q", (1, 4, "unknown symbol 'q'", OP_EXPECTED)),
        (parse_op, "L[r] q", (1, 6, "unknown symbol 'q'", OP_EXPECTED)),
        (parse_op, "IDinv q", (1, 7, "unknown symbol 'q'", OP_EXPECTED)),
        (parse_op, "D ]", (1, 3, "trailing input", ())),
        (parse_op, "D + q", (1, 5, "unknown symbol 'q'", OP_EXPECTED)),
        (parse_op, "2 q", (1, 3, "unknown symbol 'q'", OP_EXPECTED)),
        (parse_op, "(q)", (1, 2, "unknown symbol 'q'", OP_EXPECTED)),
    ],
)
def test_diagnostics_pinned(parse, src, diagnostic):
    with pytest.raises(ParseError) as info:
        parse(src)
    d = info.value.diagnostic
    assert (d.line, d.column, d.message, d.expected) == diagnostic


@pytest.mark.parametrize(
    "parse, src, column",
    [(parse_field, "r + 3/0 s", 5), (parse_field, "1/0 r", 1), (parse_op, "3/0", 1), (parse_op, "D - 0/0", 5)],
)
def test_zero_denominator_is_a_parse_error(parse, src, column):
    with pytest.raises(ParseError) as info:
        parse(src)
    d = info.value.diagnostic
    assert (d.line, d.column) == (1, column)
    assert "zero denominator" in d.message


def test_atom_runs_and_groups_build_the_same_words():
    r, s, u, V = jet("r"), jet("s"), jet("u"), tfield("V")
    r1, s1 = jet("r", 1), jet("s", 1)
    assert parse_field("r (s + V) r_x") == r * (s + V) * r1
    # u u^-1 pairs cancel across the group's edges: r + u s
    e = parse_field("u (uinv r + s) uinv u")
    assert e == u * (uinv() * r + s) * uinv() * u
    assert e == FieldExpr.from_word((Jet("r"),)) + FieldExpr.from_word((Jet("u"), Jet("s")))
    assert parse_field("u uinv r uinv u") == r
    assert parse_field("2") == FieldExpr.unit().scale(2)
    assert parse_field("-1/2") == FieldExpr.unit().scale(Fraction(-1, 2))
    assert parse_field("- - r") == r
    assert parse_field("+ - + r - - s") == s - r
    assert parse_field("r D(r s) V") == r * d_total(r * s) * V
    assert parse_field("r IDinv[r IDinv[V] s] s_x") == r * derinv(M, r * derinv(M, V) * s) * s1
    assert parse_field("0 IDinv[V] r") == FieldExpr.zero()


@pytest.mark.parametrize("src, word, coeff", [("3/3 r", (Jet("r"),), 1), ("-4/2 s", (Jet("s"),), -2), ("6/3", (), 2)])
def test_whole_rationals_parse_to_int_coefficients(src, word, coeff):
    terms = parse_field(src).terms
    assert terms == {word: coeff}
    assert type(terms[word]) is int


def test_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse_field("r r ]")


def test_printer_deterministic():
    rng = random.Random(73)
    for _ in range(30):
        e = random_field(rng, symbols=("r", "s"), tests=("V",))
        assert print_field(e) == print_field(FieldExpr(dict(e.terms)))


@pytest.mark.parametrize("mode", ["x", "latex"])
def test_print_modes_never_crash_on_corpus(mode):
    rng = random.Random(79)
    for _ in range(40):
        e = random_nonlocal_field(rng, symbols=("r",), tests=("V",))
        assert isinstance(print_field(e, mode), str)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_hypothesis(seed):
    rng = random.Random(seed)
    e = random_nonlocal_field(rng, symbols=("r", "s"), tests=("V", "W"))
    assert parse_field(print_field(e)) == e


def test_round_trip_nested_antiderivatives():
    r0, v = jet("r"), tfield("V")
    e = derinv(M, r0 * derinv(M, r0 * derinv(M, r0 * v)))
    from ncburgers.fields import expr_nesting

    assert expr_nesting(e) >= 3
    assert parse_field(print_field(e)) == e


def _reference_print_key(w):
    """The printing order as a separate pass: ``word_key`` with every jet
    order negated, at every depth (the order before keys and texts were built
    together)."""
    keys = []
    for a in w:
        if isinstance(a, (fields.Jet, fields.TestField)):
            keys.append((0 if isinstance(a, fields.Jet) else 1, a[1], -a.order))
        elif isinstance(a, fields.InverseSymbol):
            keys.append((2, a.base, 0))
        else:
            body = sorted((_reference_print_key(bw), c) for bw, c in a.body.terms.items())
            keys.append((3, a.tag.value, tuple(body)))
    return (len(w), tuple(keys))


def _reference_print(e, latex):
    """Two-pass printer: sort the words by ``_reference_print_key``, then
    print each antiderivative body again through this function."""

    def atom_text(a):
        if not isinstance(a, Integral):
            return lang._atom_text(a, latex)
        inner = _reference_print(a.body, latex)
        if latex:
            return r"%s\!\left(%s\right)" % (lang._DERINV_LATEX[a.tag], inner)
        return "%s[%s]" % (lang._DERINV_NAMES[a.tag], inner)

    words = sorted(e.terms.items(), key=lambda kv: _reference_print_key(kv[0]))
    return lang._join_terms([(None, c, " ".join(map(atom_text, w))) for w, c in words], latex)


def _printer_corpus():
    """300 conftest draws: both antiderivative tags, Cole-Hopf u^-1 words in
    a third of them, and a nested antiderivative added to every fourth."""
    rng = random.Random(2032)
    kws = (
        dict(symbols=("r", "s"), tests=("V", "W")),
        dict(symbols=("r",), tests=("V",), cole_hopf=True),
        dict(symbols=("r", "u"), tests=("sigma",)),
    )
    corpus = []
    for i in range(300):
        kw = kws[i % 3]
        e = random_nonlocal_field(rng, **kw)
        if i % 4 == 0:
            small = dict(kw, max_terms=2, max_len=2)
            tag = rng.choice([M, DerivationTag.DIRECT, DerivationTag.PLAIN])
            inner = derinv(tag, random_field(rng, **small))
            e = e + derinv(tag, random_field(rng, **dict(small, max_terms=1)) * inner)
        corpus.append(e)
    return corpus


def test_one_pass_printer_matches_the_two_pass_reference():
    from ncburgers.fields import expr_nesting

    corpus = _printer_corpus()
    for e in corpus:
        for mode in ("x", "latex"):
            assert print_field(e, mode) == _reference_print(e, mode == "latex")
    # the corpus reaches what the printer must order
    assert sum(e.contains_integral() for e in corpus) == 155
    assert sum(expr_nesting(e) >= 2 for e in corpus) == 53
    assert sum(any(type(a) is fields.InverseSymbol for a in e.atoms()) for e in corpus) == 39
    assert {a.tag for e in corpus for a in e.atoms() if isinstance(a, Integral)} == set(DerivationTag)


def test_parse_edge_cases_match_field_arithmetic():
    r, u, V = jet("r"), jet("u"), tfield("V")
    assert parse_field("(2) r") == FieldExpr.unit().scale(2) * r
    assert parse_field("r (3/2 V) r") == r * V.scale(Fraction(3, 2)) * r
    assert parse_field("u (uinv) r") == u * uinv() * r == r  # the junction cancels
    assert parse_field("-(r) (r)") == -(r * r)
    assert parse_field("(0 r) V") == FieldExpr.zero() == r.scale(0) * V
    assert parse_field("IDinv[V] IDinv[V]") == derinv(M, V) * derinv(M, V)
    assert parse_field("r (V + r) IDinv[r_x]") == r * (V + r) * derinv(M, jet("r", 1))


def test_parsing_printed_antiderivatives_makes_no_product(monkeypatch):
    # every group of the printed text is one antiderivative atom, so each
    # term is one word; products inside derinv are not the parser's
    products, inside = [], []
    mul = FieldExpr.__mul__

    def counting_mul(a, b):
        if not inside:
            products.append((a, b))
        return mul(a, b)

    def quiet_derinv(tag, body):
        inside.append(tag)
        try:
            return derinv(tag, body)
        finally:
            inside.pop()

    corpus = [e for e in _printer_corpus()[:60] if e.contains_integral()]
    texts = [print_field(e) for e in corpus]
    monkeypatch.setattr(FieldExpr, "__mul__", counting_mul)
    monkeypatch.setattr(lang, "derinv", quiet_derinv)
    assert [parse_field(t) for t in texts] == corpus
    assert len(corpus) == 31 and not products
    parse_field("r (V + r) V")
    assert len(products) == 2


def test_each_antiderivative_is_printed_once(monkeypatch):
    joins = []
    join = lang._join_terms
    monkeypatch.setattr(lang, "_join_terms", lambda rows, latex: joins.append(rows) or join(rows, latex))
    r, V = jet("r"), tfield("V")
    I = FieldExpr.from_atom(Integral(M, r * V * jet("r", 1) + jet("r", 2) * V))
    e = I + r * I + I * V + jet("r", 1) * I * r + (V * I).scale(3)
    assert len(e.terms) == 5 and len({a for a in e.atoms() if isinstance(a, Integral)}) == 1
    for mode in ("x", "latex"):
        joins.clear()
        assert print_field(e, mode) == _reference_print(e, mode == "latex")
        assert len(joins) == 1 + 1 + 6  # the body, the field, and the reference's 1 + 5 bodies


def test_an_antiderivative_in_several_operator_words_is_printed_once(monkeypatch):
    joins = []
    join = lang._join_terms
    monkeypatch.setattr(lang, "_join_terms", lambda rows, latex: joins.append(rows) or join(rows, latex))
    P = parse_op("L[IDinv[r V]] R[IDinv[r V]] + C[IDinv[r V] r] D")
    assert print_op(P) == "IDinv[r V] R[IDinv[r V]] + C[IDinv[r V] r] D"
    for mode in ("x", "latex"):
        joins.clear()
        print_op(P, mode)
        assert len(joins) == 2  # the body and the operator


def _antiderivatives(f):
    """Every antiderivative atom of ``f`` as printed: each occurrence, at every depth."""
    for w in f.terms:
        for a in w:
            if isinstance(a, Integral):
                yield a
                yield from _antiderivatives(a.body)


def _one_atom(body):
    """Whether ``body`` is one word of one atom, as when derinv's split wraps
    a word's last factor; the body of a rejected word has no such word."""
    return len(body.terms) == 1 and len(next(iter(body.terms))) == 1


def test_parsing_printed_antiderivatives_reads_the_body_word_memo(monkeypatch):
    # derinv remembers the antiderivative it wraps around each rejected word
    # as the integral of its body, so parsing printed text reads every body
    # of more than one atom from the memo; a one-atom body is the split's
    # wrapped last factor, which derinv never remembers, so it is integrated
    # once beforehand.  Then no word at all is converted to eta coordinates.
    memo = reduction._Antiderivatives
    rng = random.Random(43)
    kw = dict(symbols=("r",), tests=("V",), max_terms=2, max_len=2, max_order=1)
    eta_words = []
    image = reduction._word_image

    def recorded(tag, cls, w):
        if cls is reduction.EtaExpr:
            eta_words.append(w)
        return image(tag, cls, w)

    read = 0
    for tag in (M, DerivationTag.DIRECT, DerivationTag.PLAIN):
        for _ in range(5):
            e = derinv(tag, random_field(rng, **kw) * derinv(tag, random_field(rng, **kw)))
            atoms = list(_antiderivatives(e))
            for a in atoms:
                if _one_atom(a.body):
                    derinv(a.tag, a.body)
            text = print_field(e)
            before = memo.cache_info()
            monkeypatch.setattr(reduction, "_word_image", recorded)
            assert parse_field(text) == e
            monkeypatch.setattr(reduction, "_word_image", image)
            after = memo.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (len(atoms), 0)
            assert eta_words == []
            read += sum(not _one_atom(a.body) for a in atoms)
    assert read >= 50, read


def test_round_trip_takes_the_full_route_too(monkeypatch):
    # the round-trip draws parse printed bodies mostly from the derinv memo;
    # parsed again with the memo empty and holding nothing, every body goes
    # through the x -> eta conversion and must give the same field
    memo = reduction._Antiderivatives
    rng = random.Random(71)
    draws = [random_nonlocal_field(rng, symbols=("r",), tests=("V", "W")) for _ in range(120)]
    r0, v = jet("r"), tfield("V")
    draws.append(derinv(M, r0 * derinv(M, r0 * derinv(M, r0 * v))))
    texts = [print_field(e) for e in draws]
    by_memo = [parse_field(t) for t in texts]
    monkeypatch.setattr(memo, "maxsize", 0)
    by_conversion = []
    for t in texts:
        memo.cache_clear()
        by_conversion.append(parse_field(t))
        assert memo.cache_info().hits == 0
    assert by_conversion == by_memo == draws
    assert sum(1 for e in draws for _ in _antiderivatives(e)) >= 100
