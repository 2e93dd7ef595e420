"""The mirror image: an involution checked against the matrix oracle, and
the direct family it derives, pinned to text."""

import random
from dataclasses import replace

import pytest

from ncburgers.fields import (
    Context,
    DerivationTag,
    FieldExpr,
    Integral,
    InverseSymbol,
    Jet,
    ZERO,
    _mirror_atom,
    cole_hopf_context,
    commutator,
    default_context,
    der,
    d_total,
    jet,
    mirror_image,
    mirror_word,
    test as tfield,
)
from ncburgers.hierarchy import EquationFamily, cole_hopf_identities
from ncburgers.lang import parse_field, print_field, print_op
from ncburgers.operators import (
    OpComm,
    OpExpr,
    apply_op,
    mirror_op,
    normal_op,
    op_comm,
    op_d,
    op_der,
    op_left,
    op_right,
)
from ncburgers.oracle import default_scenes, eval_field
from ncburgers.reduction import derinv
from ncburgers.verify import s_split

from conftest import random_field, random_nonlocal_field

M = DerivationTag.MIRROR
DIR = DerivationTag.DIRECT
SCENES = default_scenes(5)


def _mirror_scene(scene):
    """Every matrix transposed, r and s exchanged."""
    swap = {"r": "s", "s": "r"}
    assignment = {
        swap.get(name, name): tuple(tuple(zip(*c)) for c in poly)
        for name, poly in scene.assignment.items()
    }
    return replace(scene, assignment=assignment)


def _transposes(pairs) -> bool:
    """Each (f, g) pair: g in the mirrored scene is f's value transposed, at
    every point of every scene."""
    for scene in SCENES:
        mirrored = _mirror_scene(scene)
        for x0 in scene.points:
            for f, g in pairs:
                if eval_field(g, mirrored, x0) != tuple(zip(*eval_field(f, scene, x0))):
                    return False
    return True


def _local_fields(seed, count):
    rng = random.Random(seed)
    return [random_field(rng, symbols=("r", "s"), tests=("V",)) for _ in range(count)]


_LOCAL_OPS = [
    op_d(),
    op_der(M),
    op_der(DIR),
    op_left(jet("r") * jet("s", 1)),
    op_right(jet("s") * tfield("W")),
    op_comm(jet("r", 1) * jet("s")),
    op_der(M) * op_comm(jet("r")) + op_left(jet("s")) * op_der(DIR),
]


def test_mirror_image_is_an_involution():
    rng = random.Random(31)
    for _ in range(30):
        f = random_nonlocal_field(rng, symbols=("r", "s"), tests=("V",))
        assert mirror_image(mirror_image(f)) == f


def test_tag_rules_mirror():
    swap = {None: None, "r": "s", "s": "r"}
    for tag in DerivationTag:
        assert tag.mirror.mirror is tag
        assert tag.mirror.sign == -tag.sign
        assert tag.mirror.base == swap[tag.base]
        assert DerivationTag(tag.value) is tag
    assert [t.sign for t in DerivationTag] == [0, 1, -1]
    assert repr(M) == "MIRROR" and M.base == "r"


def test_bracket_mirrors_between_the_tagged_derivations():
    rng = random.Random(24)
    for ctx in (default_context(), cole_hopf_context()):
        for _ in range(30):
            f = random_nonlocal_field(rng, symbols=("r", "s"), tests=("V",))
            assert ctx.bracket(DerivationTag.PLAIN, f) is ZERO
            assert mirror_image(ctx.bracket(M, f)) == ctx.bracket(DIR, mirror_image(f))


def test_context_is_its_own_mirror_image():
    chopf = cole_hopf_context()
    for ctx, twin in (
        (default_context(), Context(jet("r"))),
        (default_context(1), Context(jet("r"), integral_depth=1)),
        (chopf, cole_hopf_context()),
    ):
        assert ctx.tag_fields[DIR] == mirror_image(ctx.tag_fields[M])
        assert ctx == twin and hash(ctx) == hash(twin)
    assert default_context(1) != default_context() and chopf != default_context()


def test_mirror_image_of_antiderivative():
    body = jet("r") * tfield("V")
    f = FieldExpr.from_word((Integral(M, body), Integral(DerivationTag.PLAIN, body)))
    expected = FieldExpr.from_word(
        (Integral(DerivationTag.PLAIN, tfield("V") * jet("s")), Integral(DIR, tfield("V") * jet("s")))
    )
    assert mirror_image(f) == expected


def test_mirror_image_transposes_matrix_values():
    fields = _local_fields(17, 12)
    assert _transposes([(f, mirror_image(f)) for f in fields])


def test_mirror_op_transposes_operator_action():
    fields = _local_fields(19, 3)
    pairs = [
        (apply_op(P, f), apply_op(mirror_op(P), mirror_image(f)))
        for P in _LOCAL_OPS
        for f in fields
    ]
    assert _transposes(pairs)


def test_mirror_without_reversal_fails_the_oracle():
    def unreversed(f):
        return FieldExpr({tuple(map(_mirror_atom, w)): c for w, c in f.terms.items()})

    f = jet("r") * jet("s", 1) + tfield("V") * jet("r")
    assert not _transposes([(f, unreversed(f))])


def test_mirror_op_without_negated_commutator_fails_the_oracle():
    def unsigned(P):
        def atom_value(a):
            if isinstance(a, OpComm):
                return OpExpr.from_atoms(OpComm(mirror_word(a.word)))
            return mirror_op(OpExpr.from_atoms(a))

        return P.map_atoms(atom_value)

    f = jet("r") * tfield("V")
    P = op_comm(jet("r"))
    assert _transposes([(apply_op(P, f), apply_op(mirror_op(P), mirror_image(f)))])
    assert not _transposes([(apply_op(P, f), apply_op(unsigned(P), mirror_image(f)))])


def test_mirror_image_exchanges_tagged_derivations():
    rng = random.Random(23)
    ctx = default_context()
    for _ in range(20):
        f = random_nonlocal_field(rng, symbols=("r", "s"), tests=("V",))
        g = mirror_image(f)
        assert d_total(g, ctx) == mirror_image(d_total(f, ctx))
        assert der(DIR, g, ctx) == mirror_image(der(M, f, ctx))
        assert derinv(M, g, ctx) == mirror_image(derinv(DIR, f, ctx))


# printed when the direct family was still written out by hand; deriving
# it by the mirror image leaves every text unchanged
DIRECT_COLE_HOPF = [
    ("D L_u = L_u (D + L_s)", "D u", "u D + u (uinv u_x)"),
    ("R_u D R_uinv = D - R_s", "R[u] D R[uinv]", "D - R[uinv u_x]"),
    ("(D - R_s) L_u = L_u (D + C_s)", "D u - R[uinv u_x] u", "u D + u C[uinv u_x]"),
    ("R_u (D + L_s) = (D + C_s) R_u", "R[u] D + R[u] (uinv u_x)", "D R[u] + C[uinv u_x] R[u]"),
    ("L_uinv D L_u = D + L_s", "uinv D u", "D + (uinv u_x)"),
    (
        "T D T^-1 = recursion operator",
        "D uinv D u DDinv + C[uinv u_x] uinv D u DDinv",
        "D + (uinv u_x) + R[uinv u_xx] DDinv - R[uinv u_x uinv u_x] DDinv",
    ),
]

DIRECT_S_SPLIT = [
    ("S1:L", "-(DDinv[V] s_x) + V D + R[s_x] DDinv V"),
    (
        "S2:R_der",
        "R[V_x] + R[s V] - R[V s] - 2 R[V s_x] DDinv - R[DDinv[V] s_xx] DDinv"
        " - R[DDinv[V] s s_x] DDinv + R[DDinv[V] s_x s] DDinv + R[s_x] DDinv R[V_x] DDinv"
        " + R[s_x] DDinv R[s V] DDinv - R[s_x] DDinv R[V s] DDinv",
    ),
    (
        "S3:R_comm",
        "-R[s V] + R[V s] - R[s_x V] DDinv + R[V s_x] DDinv + R[s DDinv[V] s_x] DDinv"
        " - R[DDinv[V] s_x s] DDinv - R[s_x] DDinv R[s V] DDinv + R[s_x] DDinv R[V s] DDinv",
    ),
    (
        "S4:nonlocal",
        "R[V s_x] DDinv - V R[s_x] DDinv + R[s_x] DDinv V_x DDinv + R[s_x] DDinv (s V) DDinv"
        " + R[s_x] DDinv (DDinv[V] s_x) DDinv - R[s_x] DDinv R[V_x] DDinv"
        " - R[s_x] DDinv R[s V] DDinv - R[s_x] DDinv R[DDinv[V] s_x] DDinv"
        " - R[s_xx] DDinv V DDinv + R[s_xx] DDinv R[V] DDinv - R[s s_x] DDinv V DDinv"
        " + R[s s_x] DDinv R[V] DDinv - R[s_x] DDinv R[s_x] DDinv V DDinv"
        " + R[s_x] DDinv R[s_x] DDinv R[V] DDinv",
    ),
]


def test_direct_cole_hopf_identities_text():
    identities = cole_hopf_identities(EquationFamily.DIRECT)
    assert [(name, print_op(lhs), print_op(rhs)) for name, lhs, rhs in identities] == DIRECT_COLE_HOPF
    assert print_field(cole_hopf_context().tag_fields[DIR]) == "uinv u_x"


def test_direct_cole_hopf_context_keeps_the_mirror_field():
    # one context serves both families: a mirror antiderivative still
    # differentiates with r = u_x u^-1 there
    ctx = cole_hopf_context()
    i_v = FieldExpr.from_atom(Integral(M, tfield("V")))
    r = FieldExpr.from_word((Jet("u", 1), InverseSymbol("u")))
    assert d_total(i_v, ctx) == tfield("V") + commutator(r, i_v)


def test_direct_s_split_text():
    assert [(name, print_op(normal_op(sj))) for name, sj in s_split(EquationFamily.DIRECT)] == (
        DIRECT_S_SPLIT
    )


@pytest.mark.parametrize(
    "src, atom",
    [
        ("IDinv[V] s", "IDinv[V]"),
        ("Dinv[V] r", "Dinv[V]"),
        ("DDinv[s W s_x] r", "DDinv["),
        ("uinv u_x", "uinv"),
    ],
)
def test_eta_printing_names_a_foreign_atom(src, atom):
    with pytest.raises(ValueError, match="eta coordinates") as info:
        print_field(parse_field(src), "eta")
    assert str(info.value).startswith(atom)
