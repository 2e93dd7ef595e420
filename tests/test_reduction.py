import random

import pytest

from ncburgers.fields import test as tfield

from ncburgers.fields import (
    Context,
    DerivationTag,
    FieldExpr,
    Integral,
    NestingLimitExceeded,
    commutator,
    d_total,
    der,
    jet,
    )
from ncburgers import fields, reduction
from ncburgers.reduction import deep_reduce, derinv

from conftest import random_field, random_nonlocal_field

M = DerivationTag.MIRROR
DIR = DerivationTag.DIRECT
P = DerivationTag.PLAIN

r, rx = jet("r"), jet("r", 1)
sigma = tfield("sigma")


def test_derinv_exact_second_member():
    k2 = jet("r", 2) + (rx * r).scale(2)
    assert derinv(M, k2) == rx + r * r


def test_derinv_probe_atom():
    out = derinv(M, sigma)
    assert out == FieldExpr.from_atom(Integral(M, sigma))


def test_derinv_left_right_inverse():
    rng = random.Random(3)
    for _ in range(40):
        e = random_field(rng, symbols=("r",), tests=("V",))
        for tag in (M, DIR, P):
            assert der(tag, derinv(tag, e)) == e


def test_derinv_of_exact_images_round_trip():
    # constants are killed by the derivation, so generate none
    rng = random.Random(5)
    for _ in range(40):
        e = random_field(rng, symbols=("r",), tests=("V", "W"), allow_empty_word=False)
        for tag in (M, DIR, P):
            assert derinv(tag, der(tag, e)) == e


def test_derinv_unchanged_after_cache_clear():
    rng = random.Random(13)
    cases = [
        (tag, random_nonlocal_field(rng, symbols=("r", "s"), tests=("V",)))
        for _ in range(15)
        for tag in (M, DIR, P)
    ]
    before = [derinv(tag, e) for tag, e in cases]
    caches = (
        reduction._greedy_key, reduction._x_jet_to_eta, reduction._eta_jet_to_x, fields._mirror_atom
    )
    for cache in caches:
        cache.cache_clear()
        assert cache.cache_info().currsize == 0
    assert [derinv(tag, e) for tag, e in cases] == before
    assert all(cache.cache_info().currsize > 0 for cache in caches)


def test_derinv_is_deterministic():
    rng = random.Random(9)
    e = random_field(rng, symbols=("r",), tests=("V",))
    assert derinv(M, e) == derinv(M, e)


def test_derinv_linearity():
    rng = random.Random(12)
    for _ in range(30):
        a = random_field(rng, symbols=("r",))
        b = random_field(rng, symbols=("r",))
        assert derinv(M, a + b) == derinv(M, a) + derinv(M, b)


def test_plain_tag_is_classic_integration():
    # D^-1 of u_xx recovers u_x with no corrections
    assert derinv(P, jet("u", 2)) == jet("u", 1)


def test_deep_reduce_identifies_ibp_presentations():
    # ID^-1([D, ID^-1] sigma) style identity:
    # r IDinv[sigma] - IDinv[r sigma] equals IDinv[r_x IDinv[sigma]]
    i_sigma = derinv(M, sigma)
    lhs = r * i_sigma - derinv(M, r * sigma)
    rhs = derinv(M, rx * i_sigma)
    assert deep_reduce(lhs - rhs).is_zero()


def test_deep_reduce_keeps_local_expressions():
    rng = random.Random(21)
    for _ in range(30):
        e = random_field(rng, symbols=("r", "s"), tests=("V",))
        assert deep_reduce(e) == e


def test_deep_reduce_value_preserved_under_derivation():
    rng = random.Random(23)
    for _ in range(20):
        e = random_field(rng, symbols=("r",), tests=("V",))
        mixed = rx * derinv(M, e) - derinv(M, rx * e)
        reduced = deep_reduce(mixed)
        # both presentations must have the same mirror derivative
        assert der(M, reduced) == der(M, mixed)


def test_nesting_bound_reported():
    ctx = Context(r, integral_depth=1)
    inner = derinv(M, sigma, ctx)
    with pytest.raises(NestingLimitExceeded):
        derinv(M, inner, ctx)


def test_commutator_with_derinv_not_commutative():
    # [D, ID^-1] != 0: the two compositions applied to sigma differ
    left = d_total(derinv(M, sigma))
    right = derinv(M, d_total(sigma))
    assert not deep_reduce(left - right).is_zero()


def test_deep_reduce_consistent_across_presentations():
    # a word and the antiderivative of its derivative are one value and must
    # share a canonical form
    rng = random.Random(99)
    for _ in range(40):
        f = random_field(rng, symbols=("r",), tests=("V",), max_terms=2, max_len=2, max_order=1)
        a = rx * derinv(M, f)
        b = derinv(M, der(M, a))
        assert deep_reduce(a) == deep_reduce(b)
        assert deep_reduce(a - b).is_zero()
