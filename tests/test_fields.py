import random
from fractions import Fraction

import pytest

from ncburgers.fields import test as tfield
from hypothesis import given, settings
from hypothesis import strategies as st

from ncburgers.fields import (
    DerivationTag,
    FieldExpr,
    Integral,
    InverseSymbol,
    Jet,
    TestField as Probe,
    _cancel_uinv,
    commutator,
    d_total,
    der,
    jet,
    normal_field,
    rename_tests,
    subst_jets,
    subst_test,
        uinv,
)
from ncburgers.operators import OpD, OpDerInv, OpExpr, OpLeft
from ncburgers.reduction import derinv

from conftest import random_field

M = DerivationTag.MIRROR
DIR = DerivationTag.DIRECT
P = DerivationTag.PLAIN

r = jet("r")
rx = jet("r", 1)
rxx = jet("r", 2)
sigma = tfield("sigma")


def test_combine_cancellation():
    assert FieldExpr.sum(((rx, 1), (rx, -1))).is_zero()


def test_combine_second_member():
    assert FieldExpr.sum(((rxx, 1), (rx * r, 2))) == rxx + (rx * r).scale(2)


def test_combine_scaling_property():
    rng = random.Random(7)
    for _ in range(50):
        e = random_field(rng)
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        scaled = FieldExpr.sum(((e, q), (FieldExpr.zero(), 1)))
        assert scaled == FieldExpr({w: q * c for w, c in e.terms.items()})


def test_mul_not_commutative():
    assert rx * r != r * rx
    assert (rx * r).terms.keys() == {(Jet("r", 1), Jet("r", 0))}


def test_mul_builds_third_member_tail():
    assert rx * (r * r) == FieldExpr.from_word((Jet("r", 1), Jet("r", 0), Jet("r", 0)))


def test_mul_associative_property():
    rng = random.Random(11)
    for _ in range(50):
        a, b, c = (random_field(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_d_total_jet_shift():
    assert d_total(r) == rx


def test_d_total_leibniz():
    assert d_total(r * r) == rx * r + r * rx


def test_d_total_antiderivative():
    iv = derinv(M, sigma)
    assert d_total(iv) == sigma + r * iv - iv * r


def test_der_mirror_on_base():
    assert der(M, r) == rx


def test_der_inverse_pair():
    assert der(M, derinv(M, sigma)) == sigma


def test_der_mirror_on_square():
    # the commutator of r with r^2 cancels
    assert der(M, r * r) == rx * r + r * rx


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([M, DIR, P]))
def test_derivation_law(seed, tag):
    rng = random.Random(seed)
    a = random_field(rng, symbols=("r", "s"), tests=("V",))
    b = random_field(rng, symbols=("r", "s"), tests=("V",))
    assert der(tag, a * b) == der(tag, a) * b + a * der(tag, b)


def test_normal_field_leibniz_zero():
    assert normal_field(d_total(r * r) - rx * r - r * rx).is_zero()


def test_normal_field_unwraps_inverse_pair():
    raw = FieldExpr.from_atom(Integral(M, der(M, rx * tfield("V"))))
    assert normal_field(raw) == rx * tfield("V")


def test_normal_field_idempotent_property():
    rng = random.Random(13)
    from conftest import random_nonlocal_field

    for _ in range(60):
        e = random_nonlocal_field(rng, symbols=("r",), tests=("V",))
        once = normal_field(e)
        assert normal_field(once) == once


def test_normalization_is_congruence():
    rng = random.Random(17)
    from conftest import random_nonlocal_field

    for _ in range(40):
        a = random_nonlocal_field(rng, symbols=("r",), tests=("V",))
        b = random_nonlocal_field(rng, symbols=("r",), tests=("V",))
        assert normal_field(a * b) == normal_field(normal_field(a) * normal_field(b))


def test_uinv_cancellation():
    u = jet("u")
    assert (u * uinv()) == FieldExpr.unit()
    assert (uinv() * u) == FieldExpr.unit()
    assert (rx * u * uinv() * r) == rx * r


def _cancel_uinv_by_rescan(word):
    """Reference: delete the leftmost u u^-1 or u^-1 u pair and rescan from
    the start, until none is left."""
    factors = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if (
                isinstance(a, Jet)
                and a.order == 0
                and isinstance(b, InverseSymbol)
                and b.base == a.symbol
            ) or (
                isinstance(a, InverseSymbol)
                and isinstance(b, Jet)
                and b.order == 0
                and b.symbol == a.base
            ):
                del factors[i : i + 2]
                changed = True
                break
    return tuple(factors)


def test_uinv_cancellation_matches_rescanning():
    rng = random.Random(4711)
    atoms = [Jet("u"), InverseSymbol("u"), Jet("u", 1), Probe("V"), Jet("r")]
    cancelled = 0
    for _ in range(12000):
        word = tuple(rng.choice(atoms) for _ in range(rng.randint(0, 10)))
        expected = _cancel_uinv_by_rescan(word)
        assert _cancel_uinv(word) == expected, word
        cancelled += expected != word
    assert cancelled > 2000


def test_uinv_derivative():
    ui = uinv()
    assert d_total(ui) == -(ui * jet("u", 1) * ui)


def test_subst_jets():
    e = rxx + rx * r
    sub = subst_jets(e, "r", jet("v"))
    assert sub == jet("v", 2) + jet("v", 1) * jet("v")


def test_subst_test_substitutes_derivatives():
    e = tfield("V", 1) * r
    assert subst_test(e, "V", rx) == rxx * r


def test_rename_tests_swap():
    e = tfield("V") * tfield("W", 1)
    assert rename_tests(e, {"V": "W", "W": "V"}) == tfield("W") * tfield("V", 1)
    # words that a rename makes equal are added, not overwritten
    assert rename_tests(tfield("V") + tfield("W"), {"V": "W"}) == tfield("W").scale(2)


def test_zero_handling():
    assert FieldExpr.zero().is_zero()
    assert not (r + rx).is_zero()
    assert (r - r).is_zero()


def _random_words(rng, atoms):
    return [tuple(rng.choice(atoms) for _ in range(rng.randint(0, 3))) for _ in range(6)]


@pytest.mark.parametrize(
    "cls, atoms",
    [
        (FieldExpr, (Jet("r"), Jet("r", 1), Jet("s"))),
        (OpExpr, (OpD(), OpLeft((Jet("r"),)), OpDerInv(M))),
    ],
)
def test_linear_combination_core(cls, atoms):
    rng = random.Random(29)
    for _ in range(40):
        words = _random_words(rng, atoms)
        pairs = [
            (cls({w: Fraction(rng.randint(-3, 3), rng.randint(1, 2))}), Fraction(rng.randint(-2, 2)))
            for w in words
        ]
        forward, backward = cls.zero(), cls.zero()
        for e, c in pairs:
            forward = forward + e.scale(c)
        for e, c in reversed(pairs):
            backward = backward + e.scale(c)
        # summation order does not matter
        assert forward == backward and hash(forward) == hash(backward)
        # sum over (expr, coeff) pairs equals repeated +
        assert cls.sum(pairs) == forward
        # cancellation leaves no zero-coefficient terms behind
        assert (forward - forward).is_zero() and (forward - forward).terms == {}
        assert forward.scale(0).is_zero() and forward.scale(0).terms == {}
        y = cls.sum(pairs[:2])
        assert (forward + y) - y == forward
        assert all(c != 0 for c in ((forward + y) - y).terms.values())
    other = OpExpr if cls is FieldExpr else FieldExpr
    assert cls({(): 1}).terms == other({(): 1}).terms
    assert cls({(): 1}) != other({(): 1})


def test_atoms_of_different_kinds_never_merge():
    body = FieldExpr.from_atom(Probe("V"))
    pairs = [
        (Jet("V"), Probe("V")),
        (Jet("V", 2), Probe("V", 2)),
        (Jet("u"), InverseSymbol("u")),
        (Integral(P, body), Integral(M, body)),
        (Integral(M, body), Integral(DIR, body)),
    ]
    for a, b in pairs:
        assert a != b and {a: 1, b: 2} == {b: 2, a: 1} and len({a, b}) == 2
        assert len(FieldExpr.from_atom(a) + FieldExpr.from_atom(b)) == 2
    assert Jet("V", 2) == Jet("V", 2) and hash(Probe("V", 1)) == hash(Probe("V", 1))
    assert (Jet("r", 3).symbol, Jet("r", 3).order) == ("r", 3)
    assert (Probe("W").name, Probe("W").order, InverseSymbol().base) == ("W", 0, "u")
    assert (Integral(M, body).tag, Integral(M, body).body) == (M, body)
