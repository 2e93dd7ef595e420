"""Operator expressions: compositions of D, tagged derivations and their
inverses, and multiplication operators, with rational coefficients.

An operator word acts on field expressions from the right end inward, so
``(D, L(r))`` means "multiply by r on the left, then differentiate".
``apply_op`` applies each leftmost atom once, to the sum of the tails of the
words that share it.  That is exact because every atom is linear, except
``derinv`` under the Cole-Hopf substitution: it keeps its whole input as one
antiderivative body, so there it is applied to each word's tail on its own.

The canonical form expands commutator and tagged-derivation atoms over the
D / DerInv / LeftMul / RightMul alphabet, merges adjacent multiplications,
and pushes D to the right past multiplication operators; equality of
operators is decided by probing with a fresh test field (``op_probe_equal``),
which is the ground truth everywhere in this package.

Operator atoms are kind-tagged tuples like the field atoms: each leads with its
rank in the operator order (D 0, Der 1, DerInv 2, Left 3, Right 4, Comm 5),
then its tag or word, so words hash in C and no two kinds are ever equal.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional, Tuple, Union

from .fields import (
    Context,
    DEFAULT_CONTEXT,
    DerivationTag,
    FieldExpr,
    LinearCombination,
    NestingLimitExceeded,
    Rat,
    TestField,
    Word,
    _AtomTuple,
    add_into,
    commutator,
    d_total,
    der,
    mirror_word,
    word_key,
)
from .reduction import _standard_field, deep_reduce, derinv


class OpD(_AtomTuple):
    """Total x-derivative."""

    __slots__ = ()

    def __new__(cls):
        return tuple.__new__(cls, (0,))


class OpDer(_AtomTuple):
    """Tagged derivation: D (plain), D - [r, .] (mirror), D + [s, .] (direct)."""

    __slots__ = ()
    tag = property(itemgetter(1))

    def __new__(cls, tag: DerivationTag):
        return tuple.__new__(cls, (1, tag))


class OpDerInv(_AtomTuple):
    """Formal inverse of the tagged derivation."""

    __slots__ = ()
    tag = property(itemgetter(1))

    def __new__(cls, tag: DerivationTag):
        return tuple.__new__(cls, (2, tag))


class OpLeft(_AtomTuple):
    """Left multiplication by a single word (scalars live in coefficients)."""

    __slots__ = ()
    word = property(itemgetter(1))

    def __new__(cls, word: Word):
        return tuple.__new__(cls, (3, word))


class OpRight(_AtomTuple):
    __slots__ = ()
    word = property(itemgetter(1))

    def __new__(cls, word: Word):
        return tuple.__new__(cls, (4, word))


class OpComm(_AtomTuple):
    """Commutator with a word; expands to OpLeft - OpRight."""

    __slots__ = ()
    word = property(itemgetter(1))

    def __new__(cls, word: Word):
        return tuple.__new__(cls, (5, word))


OpAtom = Union[OpD, OpDer, OpDerInv, OpLeft, OpRight, OpComm]
OpWord = Tuple[OpAtom, ...]


def _op_atom_key(a: OpAtom):
    """The rank, then the payload by value: a tag's value, a word's word_key."""
    rank = a[0]
    return (rank, *(p.value if rank < 3 else word_key(p) for p in a[1:]))


def op_word_key(w: OpWord):
    return (len(w), tuple(_op_atom_key(a) for a in w))


class OpExpr(LinearCombination):
    """Linear combination of operator words; the product is composition,
    (P * Q) f = P(Q(f))."""

    __slots__ = ()

    @staticmethod
    def identity() -> "OpExpr":
        return OpExpr({(): 1})

    @staticmethod
    def from_atoms(*atoms: OpAtom) -> "OpExpr":
        return OpExpr({tuple(atoms): 1})

    def __pow__(self, n: int) -> "OpExpr":
        if n < 0:
            raise ValueError("an operator power needs a nonnegative exponent, not %d" % n)
        out = OpExpr.identity()
        for _ in range(n):
            out = out * self
        return out


# -- constructors ------------------------------------------------------------


def op_d() -> OpExpr:
    return OpExpr.from_atoms(OpD())


def op_der(tag: DerivationTag) -> OpExpr:
    return OpExpr.from_atoms(OpDer(tag))


def op_derinv(tag: DerivationTag) -> OpExpr:
    return OpExpr.from_atoms(OpDerInv(tag))


def _mult_op(cls, f: FieldExpr) -> OpExpr:
    return OpExpr._raw({(cls(w),): c for w, c in f.terms.items()})


def op_left(f: FieldExpr) -> OpExpr:
    return _mult_op(OpLeft, f)


def op_right(f: FieldExpr) -> OpExpr:
    return _mult_op(OpRight, f)


def op_comm(f: FieldExpr) -> OpExpr:
    return _mult_op(OpComm, f)


def _mirror_op_atom(atom: OpAtom) -> OpExpr:
    if isinstance(atom, (OpDer, OpDerInv)):
        return OpExpr.from_atoms(type(atom)(atom.tag.mirror))
    if isinstance(atom, OpD):
        return OpExpr.from_atoms(atom)
    image = {OpLeft: OpRight, OpRight: OpLeft, OpComm: OpComm}[type(atom)](mirror_word(atom.word))
    return OpExpr._raw({(image,): -1 if isinstance(atom, OpComm) else 1})


def mirror_op(P: OpExpr) -> OpExpr:
    """The operator conjugated by ``fields.mirror_image``: L_w and R_w* swap,
    C_w becomes -C_w*, and the mirror and direct tags swap, so that
    ``apply_op(mirror_op(P), mirror_image(f))`` is ``mirror_image(apply_op(P, f))``
    in the mirrored context."""
    return P.map_atoms(_mirror_op_atom)


# -- application -------------------------------------------------------------


def _apply_atom(atom: OpAtom, f: FieldExpr, ctx: Context) -> FieldExpr:
    if isinstance(atom, OpD):
        return d_total(f, ctx)
    if isinstance(atom, OpDer):
        return der(atom.tag, f, ctx)
    if isinstance(atom, OpDerInv):
        return derinv(atom.tag, f, ctx)
    if isinstance(atom, OpLeft):
        return FieldExpr.from_word(atom.word) * f
    if isinstance(atom, OpRight):
        return f * FieldExpr.from_word(atom.word)
    return commutator(FieldExpr.from_word(atom.word), f)


def apply_op(P: OpExpr, f: FieldExpr, ctx: Context = DEFAULT_CONTEXT) -> FieldExpr:
    """Structural action of an operator expression on a field expression.

    The words are walked as a prefix trie: those sharing a leftmost atom,
    which acts last, are grouped, and the atom is applied once to the sum
    of the group's tails applied to f.  This is exact because D, the tagged
    derivations, the multiplications and ``derinv`` in a standard context
    are linear.  Where the context's commutator field is not the base jet
    (the Cole-Hopf substitution) ``derinv`` keeps its whole input as one
    antiderivative body, so there each inverse is applied per word.
    """
    return _apply_terms(P.terms.items(), f, ctx)


def _apply_terms(terms, f: FieldExpr, ctx: Context) -> FieldExpr:
    """The sum of c * w(f) over the (w, c) pairs, each leftmost atom applied
    once to the sum of its words' tails."""
    parts, groups = [], {}
    for word, c in terms:
        if word:
            groups.setdefault(word[0], []).append((word[1:], c))
        else:
            parts.append((f, c))
    for atom, tails in groups.items():
        if isinstance(atom, OpDerInv) and not _standard_field(atom.tag, ctx):
            parts.extend((_apply_atom(atom, _apply_terms(((t, 1),), f, ctx), ctx), c) for t, c in tails)
        else:
            parts.append((_apply_atom(atom, _apply_terms(tails, f, ctx), ctx), 1))
    return FieldExpr.sum(parts)


# -- canonical form ----------------------------------------------------------


def _rewrite(word: OpWord, i: int, coeff: Rat, ctx: Context) -> Optional[list]:
    """One rewrite step at position ``i`` of ``word``: the (word, coeff)
    pairs that replace it, or None when no rule applies there."""
    atom = word[i]
    pre, post = word[:i], word[i + 1 :]
    if isinstance(atom, OpComm):
        return [
            (pre + (OpLeft(atom.word),) + post, coeff),
            (pre + (OpRight(atom.word),) + post, -coeff),
        ]
    if isinstance(atom, OpDer):
        out = [(pre + (OpD(),) + post, coeff)]
        sign = atom.tag.sign
        for w, c in ctx.tag_field(atom.tag).terms.items() if sign else ():
            out.append((pre + (OpLeft(w),) + post, -sign * coeff * c))
            out.append((pre + (OpRight(w),) + post, sign * coeff * c))
        return out
    if isinstance(atom, (OpLeft, OpRight)) and atom.word == ():
        return [(pre + post, coeff)]
    if not post:
        return None
    nxt, rest = post[0], post[1:]
    if isinstance(atom, OpLeft) and isinstance(nxt, OpLeft):
        return [(pre + (OpLeft(atom.word + nxt.word),) + rest, coeff)]
    if isinstance(atom, OpRight) and isinstance(nxt, OpRight):
        return [(pre + (OpRight(nxt.word + atom.word),) + rest, coeff)]
    if isinstance(atom, OpRight) and isinstance(nxt, OpLeft):
        return [(pre + (nxt, atom) + rest, coeff)]
    if isinstance(atom, OpD) and isinstance(nxt, (OpLeft, OpRight)):
        out = [(pre + (nxt, atom) + rest, coeff)]
        for w, c in d_total(FieldExpr.from_word(nxt.word), ctx).terms.items():
            out.append((pre + (type(nxt)(w),) + rest, coeff * c))
        return out
    if isinstance(atom, OpDerInv) and isinstance(nxt, OpDer) and atom.tag == nxt.tag:
        return [(pre + rest, coeff)]
    if {type(atom), type(nxt)} == {OpD, OpDerInv}:
        # D = Der(tag) + sign*C(field), so D DerInv = Id + sign*C(field) DerInv
        # and DerInv D = Id + sign*DerInv C(field)
        inv = nxt if isinstance(nxt, OpDerInv) else atom
        sign = inv.tag.sign
        out = [(pre + rest, coeff)]
        for w, c in ctx.tag_field(inv.tag).terms.items() if sign else ():
            for mult, s in ((OpLeft(w), sign), (OpRight(w), -sign)):
                pair = (mult, inv) if inv is nxt else (inv, mult)
                out.append((pre + pair + rest, s * coeff * c))
        return out
    return None


def normal_op(P: OpExpr, ctx: Context = DEFAULT_CONTEXT) -> OpExpr:
    """Canonical operator form over the D/DerInv/Left/Right alphabet.

    Commutators and tagged derivations are expanded, adjacent multiplications
    merged (with left factors sorted before right ones, which commute with
    them), D pushed rightward past multiplications, and D cancelled against
    an adjacent matching inverse using the context's commutator field.
    """
    pending = [(tuple(w), c) for w, c in P.terms.items()]
    done: dict = {}
    budget = ctx.reduce_rounds
    while pending:
        budget -= 1
        if budget < 0:
            raise NestingLimitExceeded(
                "operator normalization exceeded reduce_rounds = %d rewrites" % ctx.reduce_rounds
            )
        word, coeff = pending.pop()
        if coeff == 0:
            continue
        for i in range(len(word)):
            out = _rewrite(word, i, coeff, ctx)
            if out is not None:
                pending.extend(out)
                break
        else:
            add_into(done, word, coeff)
    return OpExpr._raw(done)


PROBE = "sigma"


def op_probe_equal(
    P: OpExpr, Q: OpExpr, ctx: Context = DEFAULT_CONTEXT, deep: bool = True
) -> bool:
    """Ground-truth operator equality: act on a fresh probe field and
    normalize the difference to zero.  Raises ValueError when the probe
    already occurs in a multiplication word of P or Q."""
    mult = [a.word for w in (*P.terms, *Q.terms) for a in w if isinstance(a, (OpLeft, OpRight, OpComm))]
    if any(PROBE in FieldExpr.from_word(word).test_names() for word in mult):
        raise ValueError("probe symbol %s already occurs in the operators" % PROBE)
    probe = FieldExpr.from_atom(TestField(PROBE, 0))
    diff = apply_op(P - Q, probe, ctx)
    if diff.is_zero():
        return True
    if not deep:
        return False
    return deep_reduce(diff, ctx).is_zero()
