"""Word products and atom substitution against the routes they replaced.

``LinearCombination.__mul__`` builds a product in one pass when no two
products meet and ``_canon`` has nothing to do; ``map_atoms`` expands each
word as one n-ary product.  Both are checked here against the binary
accumulate loop and the left fold of binary products they replaced, kept
below as test helpers, on random fields that reach u u^-1 cancellation
where two words meet.  Atoms and expressions must also survive ``copy``,
``deepcopy`` and ``pickle``, in this process and in another one.
"""

import copy
import gc
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

import ncburgers
from ncburgers.fields import test as probe
from ncburgers.fields import (
    DerivationTag,
    FieldExpr,
    Integral,
    InverseSymbol,
    Jet,
    LinearCombination,
    NestingLimitExceeded,
    TestField as Probe,
    _d_atom,
    _rat,
    d_total,
    jet,
    normal_field,
    rename_tests,
    subst_jets,
    subst_test,
    uinv,
)
from ncburgers.hierarchy import reduce_commutative
from ncburgers.lang import parse_field, print_field
from ncburgers.operators import (
    OpComm,
    OpD,
    OpDer,
    OpDerInv,
    OpExpr,
    OpLeft,
    OpRight,
    op_comm,
    op_d,
    op_derinv,
    op_left,
    op_right,
)
from ncburgers.reduction import EtaExpr
from ncburgers.variational import frechet_field

from conftest import random_field, random_nonlocal_field

M = DerivationTag.MIRROR
r, s, u, ux, ui = jet("r"), jet("s"), jet("u"), jet("u", 1), uinv()


def mul_by_accumulation(a, b):
    """The product as the binary accumulate loop built it: every word through
    ``_canon``, coefficients summed in place, zeros dropped at the end."""
    canon = a._canon
    acc = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            w = w1 + w2 if canon is None else canon(w1 + w2)
            acc[w] = acc.get(w, 0) + c1 * c2
    return type(a)._raw({w: _rat(c) for w, c in acc.items() if c})


def map_atoms_by_products(e, atom_value):
    """``map_atoms`` as the left fold of binary products it was, with a kept
    atom (``None``) standing for itself."""

    def value(atom):
        v = atom_value(atom)
        return e._raw({(atom,): 1}) if v is None else v

    one = e._raw({(): 1})
    return type(e).sum(
        (reduce(mul_by_accumulation, map(value, word), one), c) for word, c in e.terms.items()
    )


def assert_same_product(a, b):
    got, want = a * b, mul_by_accumulation(a, b)
    assert type(got) is type(want) and got == want
    assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())
    if len(want) == len(a) * len(b):  # no two products met: the loop's order
        assert list(got.terms) == list(want.terms)
    return got


# ---------------------------------------------------------------------------
# products


def test_colliding_words_take_the_accumulate_loop():
    got = assert_same_product(r + r * r, r * r + r)
    assert got.terms == {(Jet("r"),) * 3: 2, (Jet("r"),) * 2: 1, (Jet("r"),) * 4: 1}


def test_cancelling_products_drop_their_word():
    assert assert_same_product(r + s, r - s) == r * r - r * s + s * r - s * s
    assert assert_same_product(r * s + s * r, r).terms.keys() == {
        (Jet("r"), Jet("s"), Jet("r")),
        (Jet("s"), Jet("r"), Jet("r")),
    }
    assert (r + s) * (r - r) == FieldExpr.zero()


def test_whole_fraction_products_end_as_int():
    half = Fraction(1, 2)
    a, b = r.scale(half) + s.scale(Fraction(2, 3)), s.scale(2) + r.scale(Fraction(3, 2))
    got = assert_same_product(a, b)
    rs, sr, rr = (Jet("r"), Jet("s")), (Jet("s"), Jet("r")), (Jet("r"), Jet("r"))
    assert got.terms[rs] == 1 and type(got.terms[rs]) is int
    assert got.terms[sr] == 1 and type(got.terms[sr]) is int
    assert got.terms[rr] == Fraction(3, 4)
    assert type((r.scale(half) * r.scale(half) * r.scale(4)).terms[rr + (Jet("r"),)]) is int


def test_junction_cancellation_cascades():
    assert assert_same_product(r * u * u, ui * ui * s) == r * s
    assert assert_same_product(r * ui, u * s) == r * s
    assert assert_same_product(ux * ui, u * r) == ux * r
    assert assert_same_product(u + ui, ui + u) == FieldExpr.scalar(2) + u * u + ui * ui
    # u^-1 inside a factor, away from the junction, leaves the fast path open
    assert not FieldExpr._junction_canon((ui * r * u).terms, s.terms)
    got = assert_same_product(ui * r * u, s)
    assert got == FieldExpr.from_word((InverseSymbol(), Jet("r"), Jet("u"), Jet("s")))


def test_operator_and_eta_products():
    ops = [
        op_d() + op_left(r * s),
        op_comm(r).scale(Fraction(1, 2)) + op_derinv(M),
        op_right(s) - op_d(),
        op_d() + op_d() * op_d(),  # squared, D D D arises twice
    ]
    for a in ops:
        for b in ops:
            assert_same_product(a, b)
    eta = [
        EtaExpr._raw({(Jet("r"),): 1, (Jet("r", 1), Jet("r")): Fraction(1, 3)}),
        EtaExpr._raw({(): 3, (Jet("r"),): -1}),
    ]
    for a in eta:
        for b in eta:
            assert_same_product(a, b)


def test_random_products_match_the_accumulate_loop():
    rng = random.Random(2201)
    kw = dict(symbols=("r", "s"), tests=("V",), max_terms=5, max_len=4, max_den=4, cole_hopf=True)
    junctions = 0
    for _ in range(400):
        a, b = random_field(rng, **kw), random_field(rng, **kw)
        assert_same_product(a, b)
        junctions += FieldExpr._junction_canon(a.terms, b.terms)
    assert junctions > 100  # the cancelling route is reached, not only the fast path


# ---------------------------------------------------------------------------
# atom substitution


@pytest.fixture
def old_map_atoms(monkeypatch):
    """Run a function with ``map_atoms`` replaced by the binary-product fold."""

    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(LinearCombination, "map_atoms", map_atoms_by_products)
            return fn(*args)

    return run


def _random_cases(seed, count=60):
    """Random fields with antiderivatives, test fields and u^-1, each with a
    small random replacement."""
    rng = random.Random(seed)
    kw = dict(
        symbols=("r",), tests=("V", "W"), max_terms=3, max_len=3, max_order=1, cole_hopf=True
    )
    for _ in range(count):
        f = random_nonlocal_field(rng, **kw)
        yield f, random_field(rng, **dict(kw, max_terms=2, max_len=2))


def _same(old_map_atoms, fn, *args):
    """``fn(*args)`` gives the same printed result, or raises the same bound,
    along both routes."""

    def outcome(run):
        try:
            return print_field(run(fn, *args))
        except NestingLimitExceeded as exc:
            return str(exc)

    assert outcome(lambda fn, *a: fn(*a)) == outcome(old_map_atoms)


def test_normal_field_matches_the_product_fold(old_map_atoms):
    integrals = 0
    for f, _ in _random_cases(2203):
        integrals += f.contains_integral()
        _same(old_map_atoms, normal_field, f)
    assert integrals > 10


def test_subst_test_matches_the_product_fold(old_map_atoms):
    for f, g in _random_cases(2204):
        _same(old_map_atoms, subst_test, f, "V", g)
        _same(old_map_atoms, subst_jets, f, "u", ui)


def test_rename_tests_matches_the_product_fold(old_map_atoms):
    swap = {"V": "W", "W": "V"}
    for f, _ in _random_cases(2205):
        _same(old_map_atoms, rename_tests, f, swap)


def test_map_atoms_values_each_distinct_atom_once():
    f = r * probe("V") * r * ui + probe("V") * r + r * r * r
    seen = Counter()

    def value(atom):
        seen[atom] += 1
        return r + s if atom == Jet("r") else None

    want = map_atoms_by_products(f, lambda a: r + s if a == Jet("r") else None)
    assert f.map_atoms(value) == want
    assert seen == Counter({Jet("r"): 1, Probe("V"): 1, InverseSymbol(): 1})


def test_leibniz_differentiates_each_distinct_atom_once():
    f = r * probe("V") * r * ui + probe("V") * r + r * r * r
    seen = Counter()

    def derivative(atom):
        seen[atom] += 1
        return _d_atom(atom)

    assert f.leibniz(derivative) == d_total(f)
    assert seen == Counter({Jet("r"): 1, Probe("V"): 1, InverseSymbol(): 1})


def test_substitution_callbacks_leave_no_reference_cycles():
    # each call's state, for subst_test the replacement and its derivatives,
    # is freed by reference counting, not left to the cyclic collector
    rng = random.Random(2207)
    cases = [random_nonlocal_field(rng, symbols=("r", "s"), tests=("V",)) for _ in range(40)]
    cases = [f for f in cases if f.contains_integral()]
    assert len(cases) > 5
    flags, saved = gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for f in cases:
            subst_test(f, "V", r * s + probe("V", 1))
            rename_tests(f, {"V": "W"})
            frechet_field(f, "W", "r")
        gc.collect()
        cyclic = len(gc.garbage) - saved
    finally:
        gc.set_debug(flags)
        del gc.garbage[saved:]
    assert cyclic == 0


def test_map_atoms_keeps_atoms_valued_none():
    rng = random.Random(2206)
    for _ in range(50):
        f = random_nonlocal_field(rng, symbols=("r", "s"), tests=("V",), cole_hopf=True)
        kept = f.map_atoms(lambda atom: None)
        assert kept == f and list(kept.terms.items()) == list(f.terms.items())


def test_map_atoms_cancels_where_values_meet():
    # the pairs form only once the word is assembled, and cancel in cascade
    f = u * r * ui + r * u - ux
    value = lambda atom: ui * s * u if atom == Jet("r") else None  # noqa: E731
    assert f.map_atoms(value) == s + ui * s * u * u - ux
    assert f.map_atoms(value) == map_atoms_by_products(f, value)
    assert subst_jets(r * u + ux, "r", ui) == FieldExpr.unit() + ux


def test_a_zero_value_drops_the_word(old_map_atoms):
    f = r * s + s + r * r
    assert f.map_atoms(lambda atom: FieldExpr.zero() if atom == Jet("s") else None) == r * r
    # commutators vanish in the scalar case, and take their words with them
    P = op_comm(r) * op_d() + op_d() + op_left(r) * op_comm(s) + op_right(s) * op_derinv(M)
    got = reduce_commutative(P)
    assert got == op_d() + op_left(jet("v")) * op_derinv(DerivationTag.PLAIN)
    assert got == old_map_atoms(reduce_commutative, P)


def test_parse_sums_terms_in_order():
    f = parse_field("r + s - r + 2 r r + V - s")
    assert f == (r * r).scale(2) + probe("V")
    assert list(f.terms) == [(Jet("r"), Jet("r")), (Probe("V"),)]


# ---------------------------------------------------------------------------
# copying and pickling

WORD = (Jet("r", 1), Probe("V"))
ATOMS = [
    Jet("r", 1),
    Probe("V", 2),
    InverseSymbol(),
    Integral(M, jet("r", 1) * probe("V") - r),
    OpD(),
    OpDer(M),
    OpDerInv(DerivationTag.DIRECT),
    OpLeft(WORD),
    OpRight(WORD),
    OpComm(WORD),
]
# a field holding an antiderivative, built the same way in a second process
FIELD_SRC = (
    "FieldExpr.from_atom(Integral(M, jet('r', 1) * probe('V'))) * jet('s')"
    " + r.scale(Fraction(1, 2)) * ui"
)
COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


def _field():
    return eval(FIELD_SRC)


@pytest.mark.parametrize("how", sorted(COPIERS))
def test_atoms_copy_and_pickle_to_themselves(how):
    for atom in ATOMS:
        got = COPIERS[how](atom)
        assert type(got) is type(atom) and got == atom and tuple(got) == tuple(atom)
        assert hash(got) == hash(atom)


@pytest.mark.parametrize("how", sorted(COPIERS))
def test_expressions_copy_and_pickle_to_themselves(how):
    f = _field()
    hash(f)
    P = op_left(r * s) * op_derinv(M) + op_d()
    for e in (f, P, EtaExpr._raw({(Jet("r", 1),): Fraction(2, 3)})):
        got = COPIERS[how](e)
        assert type(got) is type(e) and got == e and hash(got) == hash(e)
    assert pickle.loads(pickle.dumps(f))._hash is None


def test_a_pickled_field_hashes_afresh_in_another_process():
    f = _field()
    hash(f)  # cache this process's hash before pickling
    seed = str(int(os.environ.get("PYTHONHASHSEED", "0").replace("random", "0")) + 1)
    src = os.path.dirname(os.path.dirname(ncburgers.__file__))
    child = (
        "import pickle, sys\n"
        "from fractions import Fraction\n"
        "from ncburgers.fields import DerivationTag, FieldExpr, Integral, jet, uinv\n"
        "from ncburgers.fields import test as probe\n"
        "M, r, ui = DerivationTag.MIRROR, jet('r'), uinv()\n"
        "f = pickle.loads(sys.stdin.buffer.read())\n"
        "table = {f: 'found'}\n"
        "print(table[%s], hash('ncburgers'))\n" % FIELD_SRC
    )
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", child],
        input=pickle.dumps(f),
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr.decode()
    found, child_hash = out.stdout.decode().split()
    assert found == "found"
    assert int(child_hash) != hash("ncburgers")  # the child really hashes differently
