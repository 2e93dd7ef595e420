"""Byte-identity of the engine's outputs on random fields.

Each named operation has one SHA-256 digest over the ``print_field`` text of
every result it gives on the draws below, or ``inconclusive: <message>`` where
a bound ran out.  A change meant to keep every output byte for byte must keep
every digest; a change meant to alter some outputs must say which digests
moved and why.  To recompute them, print ``_digest(name)`` for each name.

The target of ``subst_test`` is the local draw only: substituting into
antiderivative bodies has no size bound, so a nonlocal target can exhaust
memory instead of ending inconclusive.  No digest covers ``derinv`` or
``apply_op`` in the Cole-Hopf context.
"""

import hashlib
import random
from functools import lru_cache, partial

import pytest

from ncburgers.fields import (
    DEFAULT_CONTEXT,
    DerivationTag,
    NestingLimitExceeded,
    cole_hopf_context,
    d_total,
    default_context,
    der,
    mirror_image,
    normal_field,
    rename_tests,
    subst_test,
)
from ncburgers.hierarchy import EquationFamily, recursion_operator
from ncburgers.lang import print_field
from ncburgers.operators import apply_op
from ncburgers.reduction import deep_reduce, derinv
from ncburgers.variational import frechet_field

from conftest import random_field, random_nonlocal_field

SEEDS = range(7)
SHAPES = (
    {"symbols": ("r",), "tests": ("V",)},
    {"symbols": ("r", "s"), "tests": ("V", "W")},
    {"symbols": ("r",), "tests": ("V",), "cole_hopf": True},
)


@lru_cache(maxsize=None)
def _draws():
    """(f, g) per seed and shape: a field that may hold antiderivatives and a
    local one, drawn from one generator per seed."""
    out = []
    for seed in SEEDS:
        rng = random.Random(seed)
        for shape in SHAPES:
            f = random_nonlocal_field(rng, **shape)
            out.append((f, random_field(rng, **shape)))
    return tuple(out)


def _each(fn):
    """``fn`` applied to both draws."""
    return lambda f, g: (partial(fn, f), partial(fn, g))


OPERATIONS = {
    **{
        "derinv %s depth %d" % (tag.value, depth): _each(partial(derinv, tag, ctx=default_context(depth)))
        for tag in DerivationTag
        for depth in (4, 1)
    },
    "deep_reduce": _each(deep_reduce),
    "normal_field": _each(normal_field),
    "d_total": _each(d_total),
    **{
        "der %s %s" % (tag.value, name): _each(partial(der, tag, ctx=ctx))
        for tag in DerivationTag
        for name, ctx in (("default", DEFAULT_CONTEXT), ("cole-hopf", cole_hopf_context()))
    },
    **{
        "apply_op %s recursion operator" % family.value: _each(partial(apply_op, recursion_operator(family)))
        for family in (EquationFamily.MIRROR, EquationFamily.DIRECT)
    },
    "frechet_field": _each(lambda x: frechet_field(x, "sigma", "r")),
    "rename_tests": _each(lambda x: rename_tests(x, {"V": "W", "W": "V"})),
    "mirror_image": _each(mirror_image),
    "subst_test": lambda f, g: (partial(subst_test, g, "V", f),),
}

DIGESTS = {
    "apply_op direct recursion operator": "9ade36f7e10f58c62f1012f2bbecf21afbf56be1b0bc391528e488ef4c806b79",
    "apply_op mirror recursion operator": "637bc8baa1667640e7baf2c076c7af3d302fa45edb7d254072fa5041aa87e8ff",
    "d_total": "9166a7af914bd3bcd2d8943c4be24ed06205837d29fc77c2734812feb1b9ccc4",
    "deep_reduce": "d43b3510bdc49b01ad1a3d47d65f6b85c16bd9415d7b39516adc2f397a749774",
    "der direct cole-hopf": "0bbc6ef58131a7fb0cf63d7606045227c554601528d5d0d3757bdfb4433c2206",
    "der direct default": "3e5801eb637ddb2ddeb4916367908994a4b6f2e20686ca501585ce4615805c9c",
    "der mirror cole-hopf": "66815fdc017fef36bf3a02e13de6ce121b92aeb3b936453d504c78da235ba70f",
    "der mirror default": "d7997272d08b1aaa681df0e9d05b866118e52e8ef1c9b68f3c1985933ce1f979",
    "der plain cole-hopf": "c31e80735ea016975bf022096f5d21314d816a4985a6a5b32f7ab08dab888c81",
    "der plain default": "9166a7af914bd3bcd2d8943c4be24ed06205837d29fc77c2734812feb1b9ccc4",
    "derinv direct depth 1": "edd355db65895729512ba04712ba700797c1447299b29dc86feedb94070e641a",
    "derinv direct depth 4": "582202563a8f7763d1e077d4ec1254279525091993efa3897d1e92d595d9aa77",
    "derinv mirror depth 1": "2e486be0849d524f6e66ef5101955193a64ea016b008ebd1da137f3dc92adf77",
    "derinv mirror depth 4": "6490b4d14eaeffcee6eb342d2e08eab3042bc8143ddebc09ec90fc080db1b423",
    "derinv plain depth 1": "6695cb7fb4fdf70c5dd86d173ab1fcfaaa99ec0bf684ee8b4333bcfca0d66429",
    "derinv plain depth 4": "e28227ab825122b96139e32174a133e60120a1490f2fe4342ef54728d8805f95",
    "frechet_field": "56124d425c627659d89b03c26b1699737a74c19163fa989012f5f27ef4e7acd7",
    "mirror_image": "0459bfcc9cac0e0891ba9834dc4cccc93b2e7445c2c755008b8c30c18e26ea21",
    "normal_field": "2efdae7f5a9b3ea48a707cc73008fa6b418eb27df902df606b66502ff363d0e0",
    "rename_tests": "4ab161914a7ab2ccac0c74cf8647027edaa30bee77a168f14f9a6023e2821198",
    "subst_test": "efb80c67ae36b1c0fbac5b6221e03bddcc7845075f5fd152004a8887fc08b514",
}


def _text(result) -> str:
    try:
        return print_field(result())
    except NestingLimitExceeded as exc:
        return "inconclusive: %s" % exc


def _digest(name: str) -> str:
    h = hashlib.sha256()
    for f, g in _draws():
        for result in OPERATIONS[name](f, g):
            h.update(_text(result).encode() + b"\n")
    return h.hexdigest()


def test_every_operation_has_a_digest():
    assert len(_draws()) == len(SEEDS) * len(SHAPES) == 21
    assert sorted(DIGESTS) == sorted(OPERATIONS)


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_output_digest(name):
    assert _digest(name) == DIGESTS[name]
