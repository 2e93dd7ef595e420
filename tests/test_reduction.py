import importlib
import pkgutil
import random
from fractions import Fraction
from functools import partial

import pytest

from ncburgers.fields import test as tfield

from ncburgers.fields import (
    Context,
    DEFAULT_CONTEXT,
    DerivationTag,
    FieldExpr,
    Integral,
    Jet,
    NestingLimitExceeded,
    TestField as Probe,
    commutator,
    d_total,
    der,
    jet,
    )
import ncburgers
from ncburgers import fields, reduction, verify
from ncburgers.hierarchy import EquationFamily, hierarchy_member, recursion_operator
from ncburgers.lang import parse_field, print_field
from ncburgers.operators import apply_op
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


def _package_caches():
    """Every cache among the module attributes of the package: an object
    whose ``cache_clear`` is bound to it, as a ``functools`` cache's is."""
    caches = {}
    for info in pkgutil.iter_modules(ncburgers.__path__):
        module = importlib.import_module("ncburgers." + info.name)
        for value in vars(module).values():
            if getattr(getattr(value, "cache_clear", None), "__self__", None) is value:
                caches[id(value)] = value
    return list(caches.values())


# the paper's eight claims in the order of the proofs benchmark: the mirror
# family first, so that the direct claims come second
_PAPERS_CLAIMS = [
    claim
    for family in (EquationFamily.MIRROR, EquationFamily.DIRECT)
    for claim in (
        partial(verify.strong_symmetry_member, family, 5),
        partial(verify.hereditary_defect, family),
        partial(verify.strong_symmetry_member, family, 6),
        partial(verify.strong_symmetry_member, family, 7),
    )
]


def test_derinv_unchanged_after_cache_clear():
    rng = random.Random(13)
    cases = [
        (tag, random_nonlocal_field(rng, symbols=("r", "s"), tests=("V",)))
        for _ in range(15)
        for tag in (M, DIR, P)
    ]
    before = [derinv(tag, e) for tag, e in cases]
    caches = _package_caches()
    assert reduction._split_word in caches and fields._mirror_atom in caches
    assert reduction._Antiderivatives in caches
    for cache in caches:
        cache.cache_clear()
        assert cache.cache_info().currsize == 0
    assert [derinv(tag, e) for tag, e in cases] == before
    assert all(cache.cache_info().currsize > 0 for cache in caches)


def test_package_caches_are_bounded():
    # an unbounded memo grows for as long as its process runs
    assert isinstance(fields._mirror_atom.cache_info().maxsize, int)
    assert all(isinstance(cache.cache_info().maxsize, int) for cache in _package_caches())


def test_the_papers_proofs_compute_each_memo_entry_once():
    # the direct claims reduce the mirror images of the mirror claims'
    # fields, so a memo too small for their shared words rebuilds them
    for cache in _package_caches():
        cache.cache_clear()
    assert all(claim().ok for claim in _PAPERS_CLAIMS)
    for cache in (reduction._word_image, reduction._split_word, fields._mirror_atom):
        info = cache.cache_info()
        assert 0 < info.misses == info.currsize, (cache.__name__, info)


def _coefficients(f):
    """Every coefficient of ``f``, antiderivative bodies included."""
    for w, c in f.terms.items():
        yield c
        for a in w:
            if isinstance(a, Integral):
                yield from _coefficients(a.body)


def _assert_exact(f):
    """No float anywhere, and every whole coefficient a plain int."""
    for c in _coefficients(f):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def test_coefficients_stay_exact():
    rng = random.Random(21)
    phi = recursion_operator(EquationFamily.MIRROR)
    halves = 0
    for _ in range(40):
        e = random_field(rng, symbols=("r", "s"), tests=("V",))
        halves += any(type(c) is Fraction for c in e.terms.values())
        _assert_exact(e)
        for tag in (M, DIR, P):
            _assert_exact(derinv(tag, e))
        _assert_exact(apply_op(phi, e))
        _assert_exact(deep_reduce(random_nonlocal_field(rng, symbols=("r",), tests=("V",))))
    assert halves  # the inputs did carry non-whole coefficients


@pytest.mark.parametrize(
    "terms",
    [
        # the greedy split divides 3/2 by the leading image coefficient 1:
        # the Fraction path of its exact division
        {(Jet("r", 1),): Fraction(3, 2)},
        # in eta coordinates the halves add up to whole coefficients
        {
            (fields.TestField("V", 1),): Fraction(1, 2),
            (Jet("r"), fields.TestField("V")): Fraction(1, 2),
            (fields.TestField("V"), Jet("r")): Fraction(-1, 2),
        },
    ],
)
def test_derinv_fraction_coefficients_round_trip(terms):
    e = FieldExpr(terms)
    out = derinv(M, e)
    _assert_exact(out)
    assert any(type(c) is Fraction for c in out.terms.values())
    assert der(M, out) == e


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


LINEARITY_SHAPES = (
    {"symbols": ("r",), "tests": ("V",)},
    {"symbols": ("r", "s"), "tests": ("V", "W")},
    {"symbols": ("r",), "tests": ("V",), "cole_hopf": True},
)


@pytest.mark.parametrize(
    "make_context", [fields.default_context, fields.cole_hopf_context], ids=["default", "cole-hopf"]
)
def test_derinv_is_linear_in_every_context(make_context):
    # under the Cole-Hopf substitution too, each word is integrated on its own
    ctx = make_context(6)
    rng = random.Random(26)
    evaluated = sharing = 0
    for shape in LINEARITY_SHAPES * 10:
        a, b = random_nonlocal_field(rng, **shape), random_nonlocal_field(rng, **shape)
        sharing += bool(a.terms.keys() & b.terms.keys())
        for tag in (M, DIR, P):
            assert derinv(tag, a + b, ctx) == derinv(tag, a, ctx) + derinv(tag, b, ctx)
            evaluated += 1
    assert (evaluated, sharing) == (90, 12)


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


def _round_trip(tag, f):
    return reduction._image(tag, FieldExpr, reduction._image(tag, reduction.EtaExpr, f))


@pytest.mark.parametrize("tag", [M, DIR, P])
def test_eta_coordinates_round_trip_on_jets(tag):
    # x -> eta -> x is the identity on every jet
    for atom in [kind(name, k) for kind, name in ((Jet, "r"), (Jet, "s"), (Probe, "V"))
                 for k in range(7)]:
        assert _round_trip(tag, FieldExpr.from_atom(atom)) == FieldExpr.from_atom(atom), atom


@pytest.mark.parametrize("tag", [M, DIR, P])
def test_eta_coordinates_round_trip_on_antiderivatives(tag):
    # x -> eta -> x is the identity on nested antiderivatives of the tag
    rng = random.Random(41)
    nested = 0
    kw = dict(symbols=("r", "s"), tests=("V",), max_terms=2, max_len=2, max_order=1)
    for _ in range(30):
        inner = derinv(tag, random_field(rng, **kw))
        g = derinv(tag, random_field(rng, **kw) * inner)
        nested += fields.expr_nesting(g) >= 2
        assert _round_trip(tag, g) == g
    assert nested >= 10, nested


@pytest.mark.parametrize("tag", [M, DIR, P])
def test_nesting_bound_is_exact(tag):
    # derinv succeeds at exactly the nesting of its result and not one below,
    # in the standard context and on the Cole-Hopf path alike
    rng = random.Random(43)
    nestings = set()
    for make_context in (fields.default_context, fields.cole_hopf_context):
        for _ in range(20):
            f = random_nonlocal_field(rng, symbols=("r", "s"), tests=("V",))
            g = derinv(tag, f, make_context(6))
            k = fields.expr_nesting(g)
            nestings.add(k)
            assert derinv(tag, f, make_context(k)) == g
            if k >= 1:
                with pytest.raises(NestingLimitExceeded, match="depth %d" % (k - 1)):
                    derinv(tag, f, make_context(k - 1))
    assert {0, 1, 2} <= nestings


def test_greedy_key_breaks_ties_by_word_key():
    # equal ranks (-1,) and equal antiderivative mass 1: word_key decides
    def plain_integral(*atoms):
        return (Integral(P, reduction.EtaExpr({atoms: 1})),)

    w1 = plain_integral(Jet("r"), Jet("s", 3), Probe("W", 2))
    w2 = plain_integral(Jet("r"), Jet("s", 1), Probe("W", 4))
    assert reduction._greedy_key(w1)[:2] == reduction._greedy_key(w2)[:2]
    assert reduction._greedy_key(w1) > reduction._greedy_key(w2)


def _atom_sort(a):
    # the eta atom order from before eta words were field words
    if a[0] == "j":
        return (0, a[1], a[2])
    if a[0] == "t":
        return (1, a[1], a[2])
    return (2, tuple(sorted((_word_sort(w), c) for w, c in a.body.terms.items())))


def _word_sort(w):
    return (len(w), tuple(_atom_sort(a) for a in w))


def _random_eta_word(rng, depth=2):
    atoms = []
    for _ in range(rng.randint(0, 4)):
        if depth and rng.random() < 0.25:
            body = {
                _random_eta_word(rng, depth - 1): Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2))
                for _ in range(rng.randint(1, 2))
            }
            atoms.append(Integral(P, reduction.EtaExpr(body)))
        else:
            kind = rng.choice((Jet, Probe))
            atoms.append(kind(rng.choice("rsV"), rng.randint(0, 3)))
    return tuple(atoms)


def test_word_key_orders_eta_words_as_before():
    rng = random.Random(37)
    words = [_random_eta_word(rng) for _ in range(2000)]
    assert sum(any(isinstance(a, Integral) for a in w) for w in words) > 200
    assert sorted(words, key=fields.word_key) == sorted(words, key=_word_sort)


# Unbounded, the split of this field's mirror inverse rejects 16,829 words,
# and ``derinv`` returns 16,856 terms after seconds of work and 220 MB.
BLOW_UP = "- V_xxx s r_xxx + 3/2 r_xxx s_xxx V_xxx r_x"


def test_split_reject_bound_stops_a_blow_up():
    bound = "rejected more than split_rejects = %d words" % Context.split_rejects
    with pytest.raises(NestingLimitExceeded, match=bound):
        derinv(M, parse_field(BLOW_UP))
    # a claim that meets such a field is inconclusive and says why
    report = verify._check("blow-up", DEFAULT_CONTEXT, lambda log: derinv(M, parse_field(BLOW_UP)))
    assert report.status is verify.Status.INCONCLUSIVE
    assert any(bound in line for line in report.log), report.log


def test_split_memo_changes_no_split(monkeypatch):
    # the eta inputs of every split derinv makes on random nonlocal fields
    rng = random.Random(47)
    inputs, split = [], reduction._greedy_split
    with monkeypatch.context() as m:
        m.setattr(reduction, "_greedy_split", lambda f: inputs.append(f) or split(f))
        for _ in range(20):
            for tag in (M, DIR, P):
                derinv(tag, random_nonlocal_field(rng, symbols=("r", "s"), tests=("V",)))
    assert len(inputs) >= 50
    for f in inputs:
        g, h = split(f)
        # f = E(g) + h, and the greedy step rejects every word of h
        E_g = reduction.EtaExpr._raw(g).leibniz(fields._d_atom)
        assert E_g + reduction.EtaExpr._raw(h) == f
        assert all(reduction._step(w) is None for w in h)

    with monkeypatch.context() as m:
        m.setattr(reduction, "_split_word", reduction._split_word.__wrapped__)
        expected = [split(f) for f in inputs]
    reduction._split_word.cache_clear()
    assert [split(f) for f in inputs] == expected  # cold cache
    assert reduction._split_word.cache_info().hits > 0
    assert [split(f) for f in inputs] == expected  # warm cache


def test_an_endless_split_is_inconclusive(monkeypatch):
    # a fake step whose image always holds one more word, further down the
    # greedy order
    def endless(w):
        (a,) = w
        return w, {w: 1, (Jet(a[1], a[2] - 1),): 1}

    monkeypatch.setattr(reduction, "_step", endless)
    reduction._split_word.cache_clear()
    reduction._Antiderivatives.cache_clear()  # a remembered result would make no split
    try:
        with pytest.raises(NestingLimitExceeded, match="recursion limit"):
            derinv(P, r)
    finally:
        reduction._split_word.cache_clear()


def test_the_nesting_bound_is_read_from_the_split(monkeypatch):
    # the change of coordinates keeps nesting, so a result nested too deep is
    # refused before any of its x images is built
    f = parse_field("IDinv[V] r V + r_x IDinv[V r] V")
    images, word_image = [], reduction._word_image
    monkeypatch.setattr(reduction, "_word_image", lambda tag, cls, w: images.append(cls) or word_image(tag, cls, w))
    with pytest.raises(NestingLimitExceeded, match="nesting exceeded depth 1"):
        derinv(M, f, Context(r, integral_depth=1))
    assert reduction.EtaExpr in images and FieldExpr not in images
    assert fields.expr_nesting(derinv(M, f, Context(r, integral_depth=2))) == 2


def test_deep_reduce_stops_at_the_pass_budget(monkeypatch):
    # the word needs a second pass, so one pass cannot reach the fixed point
    f = parse_field("r IDinv[r V] V_x")
    assert deep_reduce(f).terms
    monkeypatch.setattr(Context, "reduce_passes", 1)
    with pytest.raises(NestingLimitExceeded, match="did not reach a fixed point"):
        deep_reduce(f)


def test_negative_nesting_depth_is_rejected():
    with pytest.raises(ValueError, match="negative"):
        Context(r, integral_depth=-1)


def _full_step(w):
    # the greedy step ranked in full: build E(u) and compare its leading word
    if not w:
        return None
    for i, a in enumerate(w):
        if reduction._rank(a) >= 1:
            u = w[:i] + (type(a)(a[1], a[2] - 1),) + w[i + 1 :]
            break
    else:
        u = w[:-1] + (Integral(P, reduction._eta_word(w[-1:])),)
    image = reduction._eta_word(u).leibniz(fields._d_atom).terms
    return (u, image) if image and max(image, key=reduction._greedy_key) == w else None


def _eta_integral(*words):
    return Integral(P, reduction.EtaExpr({w: 1 for w in words}))


R0, R1, R2, S0, V0 = Jet("r"), Jet("r", 1), Jet("r", 2), Jet("s"), Probe("V")
# (word, whether the greedy step accepts it)
HAND_WORDS = [
    ((R0, R1), False),  # an order-0 jet before a positive jet
    ((V0, S0, R2), False),
    ((_eta_integral((R0,)), R0), False),  # an order-0 jet as the last atom
    ((_eta_integral((_eta_integral((R0,)),)), S0), True),
    ((_eta_integral((R1,)), R1), False),  # the body's word beats w
    ((_eta_integral((_eta_integral((R0,)),)), R1), True),  # w wins
    ((_eta_integral((_eta_integral((R0,)), S0)), R2, R0), True),
    ((R0,), True),  # a single atom
    ((R2,), True),
    ((_eta_integral((R0, S0)),), True),
    ((R1, R0, V0), True),  # the pivot comes first
]


def test_step_shape_rules_agree_with_the_full_step(monkeypatch):
    rng = random.Random(53)
    seen, split_word = set(), reduction._split_word
    with monkeypatch.context() as m:
        m.setattr(reduction, "_split_word", lambda w: seen.add(w) or split_word(w))
        for tag in (M, DIR, P):
            for _ in range(20):
                derinv(tag, random_nonlocal_field(rng, symbols=("r", "s"), tests=("V",)))
    words = sorted(seen, key=fields.word_key)
    assert len(words) >= 300
    # the random words are accepted and rejected both with a leading
    # antiderivative, so ranked in full, and without one, so by shape
    outcomes = {(_full_step(w) is not None, len(w) > 1 and type(w[0]) is Integral) for w in words}
    assert outcomes == {(False, False), (True, False), (False, True), (True, True)}
    for w, accepted in HAND_WORDS:
        assert (_full_step(w) is not None) == accepted, w
    for w in words + [w for w, _ in HAND_WORDS]:
        step = reduction._step(w)
        assert step == _full_step(w), w
        # an accepted word leads E(u) with coefficient 1, so _split_word divides by nothing
        assert step is None or step[1][w] == 1, w


def _count_calls(monkeypatch, name):
    calls, f = [], getattr(reduction, name)
    monkeypatch.setattr(reduction, name, lambda *args: calls.append(args) or f(*args))
    return calls


def test_step_rejects_by_shape_without_building_the_image(monkeypatch):
    d_atom_calls = _count_calls(monkeypatch, "_d_atom")
    key_calls = _count_calls(monkeypatch, "_greedy_key")
    assert reduction._step((R0, R1)) is None
    assert key_calls == [] and d_atom_calls == []


def test_step_accepts_a_first_pivot_without_ranking(monkeypatch):
    key_calls = _count_calls(monkeypatch, "_greedy_key")
    u, image = reduction._step((R2, R0, V0))
    assert u == (R1, R0, V0) and image[(R2, R0, V0)] == 1
    assert key_calls == []


@pytest.mark.parametrize("tag", [M, DIR, P])
def test_words_with_an_unchanged_tail_keep_the_value_of_their_derivative(tag):
    # a mixed word whose tail is its own value is worth derinv(tag, der(tag, w)):
    # led by a jet or test field, that is the word itself, decided from its
    # shape; led by an antiderivative, it is computed (a direct word is led
    # by its last atom)
    rng = random.Random(61)
    kw = dict(symbols=("r", "s"), tests=("V",), max_terms=2, max_len=2, max_order=1)
    jets = [kind(name, k) for kind, name in ((Jet, "r"), (Jet, "s"), (Probe, "V")) for k in range(3)]
    checked, rewritten = {"jet": 0, "antiderivative": 0}, 0
    for _ in range(150):
        inner = derinv(tag, random_field(rng, **kw))
        outer = derinv(tag, random_field(rng, **kw) * inner)
        integrals = [a for f in (inner, outer) for w in f.terms for a in w if type(a) is Integral]
        if not integrals:
            continue
        lead = rng.choice(jets if rng.random() < 0.5 else integrals)
        atoms = [lead, rng.choice(integrals)] + [rng.choice(jets + integrals) for _ in range(rng.randint(0, 1))]
        word = tuple(reversed(atoms) if tag is DIR else atoms)
        tail = FieldExpr.from_word(word[:-1] if tag is DIR else word[1:])
        if deep_reduce(tail) != tail:
            continue
        f = FieldExpr.from_word(word)
        expected = derinv(tag, der(tag, f))
        assert reduction._canon_word(word, DEFAULT_CONTEXT, {}) == expected, word
        if type(lead) is Integral:
            checked["antiderivative"] += 1
            rewritten += expected != f
        else:
            checked["jet"] += 1
            assert deep_reduce(f) == expected == f, word
    assert min(checked.values()) >= 15, checked
    # so the test fails if the shape rule takes words led by an antiderivative
    assert rewritten >= 1


def test_a_direct_word_whose_rewrites_cycle_reduces():
    # three words of the first pass's result rewrite into each other, but the
    # sum is the pass's fixed point, and the form returned keeps its value
    c = ("V_xx V + s_x V V + 2 s V_x V - 2 V_x s V - V s_x V + s s V V - 2 s V s V"
         " + V s s V")
    text = "V_x DDinv[V_x DDinv[C] + s V DDinv[C] - V s DDinv[C]]".replace("C", c)
    word = parse_field(text)
    assert [len(w) for w in word.terms] == [2] and print_field(word) == text
    for tag, f in ((DIR, word), (M, fields.mirror_image(word))):
        reduced = deep_reduce(f)
        assert len(reduced.terms) == 9
        assert deep_reduce(reduced) == reduced
        assert der(tag, reduced) == der(tag, f)


def test_the_shape_rule_keeps_the_nesting_bound(monkeypatch):
    # r_x ID^-1[r ID^-1[sigma]]: a word led by a jet, nested two deep
    word = rx * derinv(M, r * derinv(M, sigma))
    assert len(word.terms) == 1 and fields.expr_nesting(word) == 2
    with pytest.raises(NestingLimitExceeded, match="depth 1"):
        deep_reduce(word, Context(r, integral_depth=1))
    calls = _count_calls(monkeypatch, "derinv")
    assert deep_reduce(word, Context(r, integral_depth=2)) == word
    assert calls == []


@pytest.mark.parametrize(
    "body",
    [FieldExpr.from_word((fields.InverseSymbol("u"), Probe("sigma"))), FieldExpr.from_atom(Integral(P, sigma))],
    ids=["uinv", "plain-antiderivative"],
)
def test_a_word_without_an_eta_image_keeps_its_old_value(body):
    # u^-1, or an antiderivative of another tag, inside the body: derinv wraps
    # the derivative's words that have no eta image, as before the shape rule
    word = FieldExpr.from_word((R0, Integral(M, body)))
    expected = derinv(M, der(M, word))
    assert expected != word
    assert deep_reduce(word) == expected


def test_fixed_defect_words_make_no_derinv_call(monkeypatch):
    member = hierarchy_member(EquationFamily.MIRROR, 5).rhs
    defect = verify._strong_symmetry_field(EquationFamily.MIRROR, member, DEFAULT_CONTEXT, [])
    fixed = FieldExpr._raw({w: c for w, c in defect.terms.items() if len(w) == 2})
    assert len(fixed.terms) == 47
    assert all(w[0] == Jet("r", 1) and type(w[1]) is Integral for w in fixed.terms)
    calls = _count_calls(monkeypatch, "derinv")
    assert deep_reduce(fixed) == fixed
    assert calls == []
    # every other word of the defect is rewritten, one call each
    assert deep_reduce(defect).is_zero()
    assert len(calls) == len(defect.terms) - 47


def test_deep_reduce_commutes_with_the_mirror_image():
    # a direct word is read from the right, so the direct reduction is the
    # mirror image of the mirror one (plain words are read from the left in
    # both, so they stay out)
    rng = random.Random(67)
    kw = dict(symbols=("r", "s"), tests=("V",), max_terms=2, max_len=2, max_order=1)
    rewritten = 0
    for _ in range(30):
        f = random_field(rng, **kw) * derinv(M, random_field(rng, **kw)) * random_field(rng, **kw)
        reduced = deep_reduce(f)
        rewritten += reduced != f
        assert deep_reduce(fields.mirror_image(f)) == fields.mirror_image(reduced)
    assert rewritten >= 10, rewritten


def _check_antiderivatives():
    """Every entry (tag, f) -> (result, nesting) of the ``derinv`` memo,
    checked against ``derinv`` recomputed with the memo empty, and its
    nesting against the result's.  Returns how many entries were checked,
    after asserting that none was evicted."""
    memo = reduction._Antiderivatives
    entries = list(memo._entries.items())
    assert len(entries) == memo.cache_info().currsize < memo.maxsize
    memo.cache_clear()
    size, memo.maxsize = memo.maxsize, 0  # each recomputation neither reads nor keeps an entry
    for (tag, f), (result, nesting) in entries:
        assert derinv(tag, f) == result, (tag, f)
        assert nesting == fields.expr_nesting(result), (tag, f)
    memo.maxsize = size
    assert memo.cache_info().currsize == 0
    return len(entries)


def test_the_body_word_memo_agrees_with_the_conversion(monkeypatch):
    # room for every entry written, so that each one is checked
    monkeypatch.setattr(reduction._Antiderivatives, "maxsize", 4096)
    reduction._Antiderivatives.cache_clear()
    assert all(claim().ok for claim in _PAPERS_CLAIMS)
    proofs = _check_antiderivatives()
    rng = random.Random(37)
    integrated = 0
    for _ in range(100):
        e = random_nonlocal_field(rng, symbols=("r", "s"), tests=("V",), max_terms=3, max_len=2)
        for tag in (M, DIR, P):
            try:
                derinv(tag, e)
            except NestingLimitExceeded:  # a split that raises stores nothing
                continue
            integrated += 1
    draws = _check_antiderivatives()
    assert integrated >= 290 and proofs >= 500 and draws >= 1000, (integrated, proofs, draws)


def test_the_direct_claims_reuse_the_mirror_claims_results():
    # a proofs pass but for its Cole-Hopf identities, whose context reads no
    # memo: the direct inverse is the mirror image of the mirror inverse of
    # the mirror image, so the direct claims integrate what the mirror ones did
    memo = reduction._Antiderivatives
    memo.cache_clear()
    shallow = fields.default_context(1)
    assert all(claim().ok for claim in _PAPERS_CLAIMS)
    controls = [verify.strong_symmetry_member(EquationFamily.MIRROR, 7, shallow)]
    for family, base in ((EquationFamily.MIRROR, "r"), (EquationFamily.DIRECT, "s")):
        controls.append(verify.strong_symmetry_defect(family, jet(base) * jet(base)))
        controls.append(verify.hereditary_defect(family, shallow))
    assert [report.status.value for report in controls] == ["inconclusive"] + ["nonzero", "inconclusive"] * 2
    info = memo.cache_info()
    assert info.hits >= 150 and info.currsize < info.maxsize, info  # and nothing was evicted


def test_each_claim_alone_reads_nothing_from_the_memo():
    # every hit crosses claims, so a single claim gains nothing from the
    # memo, and its report is the one it gives after the other claims ran
    memo = reduction._Antiderivatives
    memo.cache_clear()
    reports = [claim() for claim in _PAPERS_CLAIMS]
    for claim, report in zip(_PAPERS_CLAIMS, reports):
        memo.cache_clear()
        assert claim() == report
        assert memo.cache_info().hits == 0, report.claim


def test_a_shallow_context_that_reads_a_deep_entry_still_raises():
    # the memo keeps each result's nesting, so a context whose depth bound
    # it exceeds raises as the full route does, whatever wrote the entry
    f = parse_field("IDinv[V] r V + r_x IDinv[V r] V")
    memo = reduction._Antiderivatives
    memo.cache_clear()
    out = derinv(M, f, Context(r, integral_depth=4))
    assert fields.expr_nesting(out) == 2
    for tag, e in ((M, f), (DIR, fields.mirror_image(f))):
        hits = memo.cache_info().hits
        with pytest.raises(NestingLimitExceeded, match="nesting exceeded depth 1"):
            derinv(tag, e, Context(r, integral_depth=1))
        assert memo.cache_info().hits == hits + 1
        assert derinv(tag, e, Context(r, integral_depth=2)) == (out if tag is M else fields.mirror_image(out))
        assert memo.cache_info().hits == hits + 2


def test_the_body_word_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(reduction._Antiderivatives, "maxsize", 8)
    reduction._Antiderivatives.cache_clear()
    rng = random.Random(41)
    for _ in range(30):
        derinv(M, random_nonlocal_field(rng, symbols=("r",), tests=("V", "W")))
        assert reduction._Antiderivatives.cache_info().currsize <= 8
    assert reduction._Antiderivatives.cache_info().currsize == 8


def test_the_body_word_memo_is_read_only_in_a_standard_context():
    # under the Cole-Hopf substitution no word has an eta image, so a body
    # the default context wrote must not be read there
    ch = fields.cole_hopf_context()
    e = derinv(M, rx * tfield("V") * r)
    body = max((a.body for w in e.terms for a in w if isinstance(a, Integral)), key=len)
    assert len(body) == 3
    assert derinv(M, body) == FieldExpr.from_atom(Integral(M, body))
    before = reduction._Antiderivatives.cache_info()
    assert before.currsize > 0
    read = [derinv(M, body, ch), derinv(DIR, fields.mirror_image(body), ch)]
    assert reduction._Antiderivatives.cache_info() == before
    reduction._Antiderivatives.cache_clear()
    assert [derinv(M, body, ch), derinv(DIR, fields.mirror_image(body), ch)] == read
    # each word becomes its own antiderivative
    assert read[0] == FieldExpr.sum(
        (FieldExpr.from_atom(Integral(M, FieldExpr.from_word(w))), c) for w, c in body.terms.items()
    )
    assert read[1] == fields.mirror_image(read[0])
