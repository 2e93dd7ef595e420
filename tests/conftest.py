import random
from fractions import Fraction

import pytest

from ncburgers.fields import DerivationTag, FieldExpr, InverseSymbol, Jet, TestField, jet
from ncburgers.reduction import derinv


def random_field(
    rng: random.Random,
    symbols=("r",),
    tests=(),
    max_terms=4,
    max_len=3,
    max_order=2,
    allow_empty_word=True,
    max_den=2,
    cole_hopf=False,
) -> FieldExpr:
    """Small random field expression over jets and test fields; with
    ``cole_hopf`` its words also draw u, u_x and u^-1, so that products of
    such fields cancel u u^-1 pairs where two words meet."""
    atoms = [Jet(s, k) for s in symbols for k in range(max_order + 1)]
    atoms += [TestField(t, k) for t in tests for k in range(max_order + 1)]
    if cole_hopf:
        atoms += [Jet("u"), Jet("u", 1), InverseSymbol("u")]
    acc = {}
    for _ in range(rng.randint(1, max_terms)):
        length = rng.randint(0 if allow_empty_word else 1, max_len)
        word = tuple(rng.choice(atoms) for _ in range(length))
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, max_den))
        acc[word] = acc.get(word, Fraction(0)) + coeff
    return FieldExpr(acc)


def random_nonlocal_field(rng: random.Random, **kw) -> FieldExpr:
    """Random field that may contain antiderivative atoms, produced the way
    the engine itself produces them."""
    base = random_field(rng, **kw)
    if rng.random() < 0.5:
        return base
    tag = rng.choice([DerivationTag.MIRROR, DerivationTag.PLAIN])
    wrapped = derinv(tag, random_field(rng, **kw))
    return base + wrapped * random_field(rng, max_terms=1, max_len=1, **{
        k: v for k, v in kw.items() if k in ("symbols", "tests", "cole_hopf")
    })


@pytest.fixture
def rng():
    return random.Random(20240817)
