"""Non-commutative field expressions.

A field expression is a rational-linear combination of words, where a word
is an ordered tuple of atoms (jets of a base symbol, test fields, formal
antiderivatives, or the formal inverse of ``u``).  Multiplication is word
concatenation and is not commutative.  Coefficients are exact rationals: a
whole coefficient is a plain ``int`` and any other a
:class:`fractions.Fraction` (see :func:`_rat`); there is no floating point
anywhere in the symbolic layer.

The arithmetic of such combinations lives in one place,
:class:`LinearCombination` with the in-place accumulator :func:`add_into`;
field expressions, operator expressions (``operators.OpExpr``) and the
eta-coordinate expressions of ``reduction`` (``reduction.EtaExpr``) all
use it.

There is one atom vocabulary.  Each atom is a tuple led by a kind letter, so
words hash and compare at C speed; ``operators`` builds its atoms the same
way, led by their rank.  The eta words of ``reduction`` are field words whose
jets are eta jets and whose antiderivatives are ``PLAIN`` ones of eta bodies,
so the eta derivation E is this module's D on one atom (``_d_atom``) under
the Leibniz rule, and the eta order is :func:`word_key`.

Derivations come in three flavours, selected by :class:`DerivationTag`:

* ``PLAIN``   -- the total x-derivative ``D``,
* ``MIRROR``  -- ``D - [r, .]``, written ``ID``,
* ``DIRECT``  -- ``D + [s, .]``, written ``DD``.

A :class:`Context` holds one commutator field, the mirror one (``r`` by
default; the Cole-Hopf checks replace it by ``u_x u^-1``).  The direct field
is its mirror image and the plain field is zero.

The direct family is the left/right mirror image of the mirror family, and
every direct construction is derived through :func:`mirror_image`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from operator import itemgetter
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, Optional, Tuple, Union

Rat = Union[int, Fraction]


class DerivationTag(enum.Enum):
    """A tagged derivation and its rules: ``sign`` in der(tag, f) = D f - sign *
    [field, f] (see :meth:`Context.bracket`), ``base`` the symbol conventionally
    attached to the tag and ``mirror`` the tag of the mirror-image derivation."""

    PLAIN = "plain", 0, None
    MIRROR = "mirror", 1, "r"
    DIRECT = "direct", -1, "s"

    def __new__(cls, value: str, sign: int, base: Optional[str]):
        tag = object.__new__(cls)
        tag._value_, tag.sign, tag.base = value, sign, base
        return tag

    # members are singletons; Enum's own hash rehashes the name at every lookup
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # keep reprs short in defect logs
        return self.name


DerivationTag.PLAIN.mirror = DerivationTag.PLAIN
DerivationTag.MIRROR.mirror, DerivationTag.DIRECT.mirror = DerivationTag.DIRECT, DerivationTag.MIRROR


class _AtomTuple(tuple):
    __slots__ = ()

    def __getnewargs__(self):  # copy and pickle rebuild an atom from its payload
        return self[1:]


# each atom kind leads with its own letter, which keeps Jet("V") and
# TestField("V") apart
class Jet(_AtomTuple):
    """A jet variable: ``symbol`` differentiated ``order`` times in x."""

    __slots__ = ()
    symbol = property(itemgetter(1))
    order = property(itemgetter(2))

    def __new__(cls, symbol: str, order: int = 0):
        return tuple.__new__(cls, ("j", symbol, order))


class TestField(_AtomTuple):
    """An arbitrary direction/probe field (V, W or sigma) and its jets."""

    __slots__ = ()
    name = property(itemgetter(1))
    order = property(itemgetter(2))

    def __new__(cls, name: str, order: int = 0):
        return tuple.__new__(cls, ("t", name, order))


class InverseSymbol(_AtomTuple):
    """Formal inverse ``u^-1``; only meaningful in a Cole-Hopf context."""

    __slots__ = ()
    base = property(itemgetter(1))

    def __new__(cls, base: str = "u"):
        return tuple.__new__(cls, ("u", base))


class Integral(_AtomTuple):
    """Formal antiderivative atom: ``DerInv(tag)`` applied to a body.

    The body is a full field expression, stored exactly as the canonical
    splitting pass produced it (see ``reduction.derinv``); bodies are in
    normal form and are never an exact derivative of anything the splitter
    can recognize.  In eta coordinates (``reduction``) the tag is ``PLAIN``
    and the body an eta expression.
    """

    __slots__ = ()
    tag = property(itemgetter(1))
    body = property(itemgetter(2))

    def __new__(cls, tag: DerivationTag, body: "FieldExpr"):
        return tuple.__new__(cls, ("i", tag, body))


Atom = Union[Jet, TestField, InverseSymbol, Integral]
Word = Tuple[Atom, ...]


def word_key(w: Word):
    """Canonical total order on words: length first, then atom by atom,
    antiderivatives by tag and then by their sorted body terms."""
    keys = []
    for a in w:
        if isinstance(a, Jet):
            keys.append((0, a.symbol, a.order))
        elif isinstance(a, TestField):
            keys.append((1, a.name, a.order))
        elif isinstance(a, InverseSymbol):
            keys.append((2, a.base, 0))
        else:
            body = sorted((word_key(bw), c) for bw, c in a.body.terms.items())
            keys.append((3, a.tag.value, tuple(body)))
    return (len(w), tuple(keys))


def _cancel_uinv(word: Word) -> Word:
    """Apply u u^-1 -> 1 and u^-1 u -> 1 until no adjacent pair remains."""
    for a in word:
        if type(a) is InverseSymbol:
            break
    else:
        return word
    # free reduction: one left-to-right pass with a stack
    out: list = []
    for a in word:
        if out and _inverse_pair(out[-1], a):
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def _inverse_pair(a: Atom, b: Atom) -> bool:
    """Whether ``a b`` is ``u u^-1`` or ``u^-1 u`` for one base u."""
    if isinstance(a, InverseSymbol):
        a, b = b, a
    return isinstance(b, InverseSymbol) and a == Jet(b.base)


# ---------------------------------------------------------------------------
# the linear-combination core


def _rat(c: Rat) -> Rat:
    """``c`` as an exact coefficient: the ``int`` when it is whole, otherwise
    a :class:`~fractions.Fraction`.  Products and sums of ints stay ints, so
    the common case never pays for Fraction arithmetic."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def add_into(acc: dict, word, coeff) -> None:
    """Add ``coeff`` to the coefficient of ``word`` in ``acc``, in place,
    dropping the word when its coefficient cancels to zero."""
    cur = acc.get(word)
    if cur is not None:
        coeff += cur
    if coeff:
        acc[word] = coeff if type(coeff) is int else _rat(coeff)
    elif cur is not None:
        del acc[word]


class LinearCombination:
    """Immutable linear combination of words with nonzero exact coefficients
    (:func:`_rat`), held in ``terms``.

    A subclass may set ``_canon`` to a canonicalizer that every word passes
    through on construction and in products (see ``__mul__``).  Combinations
    of different classes are never equal, even when their terms are.
    """

    __slots__ = ("terms", "_hash")
    _canon: Optional[Callable[[tuple], tuple]] = None

    def __init__(self, terms: Optional[Mapping] = None):
        acc: dict = {}
        canon = self._canon
        if terms:
            for word, coeff in terms.items():
                word = tuple(word)
                add_into(acc, word if canon is None else canon(word), _rat(coeff))
        self.terms = acc
        self._hash = None

    @classmethod
    def _raw(cls, acc: dict):
        """Trusted constructor: canonical words, :func:`_rat` coefficients, no zeros."""
        self = object.__new__(cls)
        self.terms = acc
        self._hash = None
        return self

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def sum(cls, pairs: Iterable[Tuple["LinearCombination", Rat]]):
        """The sum of ``c * e`` over ``(e, c)`` pairs, accumulated in place."""
        acc: dict = {}
        for e, c in pairs:
            for w, k in e.terms.items():
                add_into(acc, w, c * k)
        return cls._raw(acc)

    def map_atoms(self, atom_value: Callable):
        """Substitute ``atom_value(atom)`` for every atom: an expression of this
        class, or None to keep the atom.  Each word becomes the product of its
        atoms' values; each distinct atom is valued once per call, and ``_canon``
        runs once per output word, but not on a word kept whole (canonical already)."""
        canon, values, acc = self._canon, {}, {}
        for word, c in self.terms.items():
            part, start = [((), c)], 0  # the product of the atoms before ``start``
            for i, atom in enumerate(word):
                v = values[atom] if atom in values else values.setdefault(atom, atom_value(atom))
                if v is not None:
                    run, start = word[start:i], i + 1
                    part = [(w + run + vw, k * vk) for w, k in part for vw, vk in v.terms.items()]
            for w, k in part:
                w += word[start:]
                add_into(acc, canon(w) if canon is not None and start else w, k)
        return self._raw(acc)

    def leibniz(self, atom_derivative: Callable):
        """The derivation that takes each atom to ``atom_derivative(atom)``,
        an expression of this class or None for zero, and each word to the
        sum over its positions given by the Leibniz rule.  Each distinct atom is
        differentiated once per call."""
        canon, values, acc = self._canon, {}, {}
        for word, c in self.terms.items():
            for i, atom in enumerate(word):
                d = values[atom] if atom in values else values.setdefault(atom, atom_derivative(atom))
                if d is None:
                    continue
                pre, post = word[:i], word[i + 1 :]
                for dw, dc in d.terms.items():
                    w = pre + dw + post
                    add_into(acc, w if canon is None else canon(w), c * dc)
        return self._raw(acc)

    # -- linear / ring structure -------------------------------------------

    def __add__(self, other):
        if not other.terms:
            return self
        acc = dict(self.terms)
        for w, c in other.terms.items():
            add_into(acc, w, c)
        return self._raw(acc)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._raw({w: -c for w, c in self.terms.items()})

    def scale(self, c: Rat):
        c = _rat(c)
        if not c:
            return self.zero()
        return self._raw({w: _rat(c * k) for w, k in self.terms.items()})

    def __mul__(self, other):
        """Words concatenate and coefficients multiply.  Unless the subclass's
        ``_junction_canon(left, right)`` says ``_canon`` may change a product,
        one comprehension hashes each word once; when no two products met, only
        a whole ``Fraction`` product needs converting, else they accumulate."""
        a, b, canon = self.terms, other.terms, self._canon
        if canon is None or not self._junction_canon(a, b):
            acc = {w1 + w2: c1 * c2 for w1, c1 in a.items() for w2, c2 in b.items()}
            if len(acc) == len(a) * len(b):
                for w, c in acc.items():
                    if type(c) is not int and c.denominator == 1:
                        acc[w] = c.numerator
                return self._raw(acc)
        acc = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                w = w1 + w2
                add_into(acc, w if canon is None else canon(w), c1 * c2)
        return self._raw(acc)

    def __reduce__(self):  # pickled without the per-process hash
        return self._raw, (self.terms,)

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self.terms.items()))
        return h

    def __repr__(self) -> str:
        # the printer imports this module
        from .lang import print_expr

        return print_expr(self)


class FieldExpr(LinearCombination):
    """Linear combination of field words; u u^-1 pairs cancel on construction."""

    __slots__ = ()
    _canon = staticmethod(_cancel_uinv)

    @staticmethod
    def _junction_canon(left: Mapping, right: Mapping) -> bool:
        # both factors are free-reduced, so u u^-1 or u^-1 u can only form at the
        # junction, where the u^-1 ends a word of ``left`` or starts one of ``right``
        for w in left:
            if w and type(w[-1]) is InverseSymbol:
                return True
        for w in right:
            if w and type(w[0]) is InverseSymbol:
                return True
        return False

    @staticmethod
    def unit() -> "FieldExpr":
        return FieldExpr({(): 1})

    @staticmethod
    def from_word(word: Iterable[Atom], coeff: Rat = 1) -> "FieldExpr":
        return FieldExpr({tuple(word): coeff})

    @staticmethod
    def from_atom(atom: Atom) -> "FieldExpr":
        # a single atom has no u u^-1 pair to cancel
        return FieldExpr._raw({(atom,): 1})

    def atoms(self) -> Iterator[Atom]:
        """Every atom of every word, descending into antiderivative bodies."""
        for w in self.terms:
            for a in w:
                yield a
                if isinstance(a, Integral):
                    yield from a.body.atoms()

    def contains_integral(self) -> bool:
        return any(isinstance(a, Integral) for a in self.atoms())

    def jet_symbols(self) -> set:
        return {a.symbol for a in self.atoms() if isinstance(a, Jet)}

    def test_names(self) -> set:
        return {a.name for a in self.atoms() if isinstance(a, TestField)}


ZERO = FieldExpr.zero()


def jet(symbol: str, order: int = 0) -> FieldExpr:
    return FieldExpr.from_atom(Jet(symbol, order))


def test(name: str, order: int = 0) -> FieldExpr:
    return FieldExpr.from_atom(TestField(name, order))


def uinv() -> FieldExpr:
    return FieldExpr.from_atom(InverseSymbol())


def commutator(a: FieldExpr, b: FieldExpr) -> FieldExpr:
    return a * b - b * a


# ---------------------------------------------------------------------------
# contexts


@dataclass(frozen=True)
class Context:
    """Evaluation context: the mirror commutator field plus a rewrite bound.

    ``field`` is the commutator field of the mirror derivation; the direct
    derivation's is its mirror image and the plain derivation's is zero, so
    a context is its own mirror image.  ``integral_depth`` bounds the
    nesting of antiderivative atoms a single reduction is allowed to
    create; exceeding it raises :class:`NestingLimitExceeded` so a
    verification can report itself as inconclusive instead of looping; a
    negative depth raises ``ValueError``.  So do the fixed budgets:
    ``split_rejects`` words in the running rejected part of one greedy split
    (each one an antiderivative atom of the result), ``reduce_rounds``
    rewrites in one ``operators.normal_op``, and ``reduce_passes`` passes of
    ``deep_reduce`` in search of one that returns its input.
    """

    field: FieldExpr
    integral_depth: int = 4
    reduce_rounds: ClassVar[int] = 200000
    split_rejects: ClassVar[int] = 4096
    reduce_passes: ClassVar[int] = 80

    def __post_init__(self):
        if self.integral_depth < 0:
            raise ValueError("integral_depth must not be negative, not %d" % self.integral_depth)

    @cached_property
    def tag_fields(self) -> Mapping[DerivationTag, FieldExpr]:
        return {
            DerivationTag.PLAIN: ZERO,
            DerivationTag.MIRROR: self.field,
            DerivationTag.DIRECT: mirror_image(self.field),
        }

    def bracket(self, tag: DerivationTag, f: FieldExpr) -> FieldExpr:
        """The commutator term of the tagged derivation, sign * [field, f]."""
        if not tag.sign:
            return ZERO
        return commutator(self.tag_fields[tag], f).scale(tag.sign)


def default_context(integral_depth: int = 4) -> Context:
    return Context(jet("r"), integral_depth)


DEFAULT_CONTEXT = default_context()


def cole_hopf_context(integral_depth: int = 4) -> Context:
    """Context of the Cole-Hopf substitution r = u_x u^-1, and therefore
    s = u^-1 u_x."""
    return Context(FieldExpr.from_word((Jet("u", 1), InverseSymbol("u"))), integral_depth)


# ---------------------------------------------------------------------------
# the mirror image


# Bounded so that a long-lived process does not keep every antiderivative
# atom it ever mirrored.  2048 entries hold all of one proofs benchmark pass
# (508 atoms) and of the direct strong-symmetry claim at n = 9 (1,058).
@lru_cache(maxsize=2048)
def _mirror_atom(atom: Atom) -> Atom:
    if isinstance(atom, Jet) and atom.symbol in ("r", "s"):
        return Jet("s" if atom.symbol == "r" else "r", atom.order)
    if isinstance(atom, Integral):
        return Integral(atom.tag.mirror, mirror_image(atom.body))
    return atom


def mirror_word(word: Word) -> Word:
    """The word read backwards, each atom mirrored."""
    return tuple(map(_mirror_atom, reversed(word)))


def mirror_image(f: FieldExpr) -> FieldExpr:
    """Reverse every word, swap r with s and the mirror with the direct
    antiderivatives, descending into antiderivative bodies; u, u^-1 and
    test fields are their own images.  This involution commutes with D and
    takes der(MIRROR, f) to der(DIRECT, mirror_image(f)) in the mirrored
    context."""
    return FieldExpr._raw({mirror_word(w): c for w, c in f.terms.items()})


class NestingLimitExceeded(Exception):
    """Raised when a rewrite would nest antiderivatives past the bound."""


# ---------------------------------------------------------------------------
# derivations


def _derinv(tag: DerivationTag, f: FieldExpr, ctx: Context) -> FieldExpr:
    # reduction imports this module, so its derinv is looked up at call time
    from .reduction import derinv

    return derinv(tag, f, ctx)


def _d_atom(atom: Atom, ctx: Context = DEFAULT_CONTEXT) -> FieldExpr:
    """D on one atom; ``leibniz`` extends it to words.  On an eta atom (see
    ``reduction``) it is the eta derivation E: jets rise and a ``PLAIN``
    antiderivative gives its body."""
    kind = type(atom)
    if kind is Jet or kind is TestField:
        return FieldExpr.from_atom(kind(atom[1], atom[2] + 1))
    if kind is InverseSymbol:
        # d(u^-1) = -u^-1 u_x u^-1
        return FieldExpr.from_word(
            (InverseSymbol(atom.base), Jet(atom.base, 1), InverseSymbol(atom.base)),
            -1,
        )
    # antiderivative: der(tag, I) = body forces d(I) = body + sign * [field, I]
    return atom.body + ctx.bracket(atom.tag, FieldExpr.from_atom(atom))


def d_total(f: FieldExpr, ctx: Context = DEFAULT_CONTEXT) -> FieldExpr:
    """Total x-derivative: Leibniz over words, jet orders shifted up."""
    return f.leibniz(lambda atom: _d_atom(atom, ctx))


def der(tag: DerivationTag, f: FieldExpr, ctx: Context = DEFAULT_CONTEXT) -> FieldExpr:
    """The tagged derivation: D, D - [r, .] or D + [s, .]."""
    return d_total(f, ctx) - ctx.bracket(tag, f)


def normal_field(f: FieldExpr) -> FieldExpr:
    """Canonical form of a field expression in the default context.

    Construction already keeps expressions flattened and collected, so this
    re-normalizes antiderivative bodies (unwrapping any body that has become
    an exact derivative) and re-cancels u u^-1 pairs.  Idempotent.
    """

    def atom_value(atom: Atom) -> Optional[FieldExpr]:
        if isinstance(atom, Integral):
            return _derinv(atom.tag, normal_field(atom.body), DEFAULT_CONTEXT)
        return None

    return f.map_atoms(atom_value)


# ---------------------------------------------------------------------------
# substitution


def _subst_atom(key: tuple, derivs: list, ctx: Context, atom: Atom) -> Optional[FieldExpr]:
    """``_subst``'s value of one atom; ``derivs`` holds the replacement's
    x-derivatives computed so far."""
    if atom[:2] == key:
        while len(derivs) <= atom.order:
            derivs.append(d_total(derivs[-1], ctx))
        return derivs[atom.order]
    if isinstance(atom, Integral):
        body = atom.body.map_atoms(partial(_subst_atom, key, derivs, ctx))
        if body != atom.body:
            return _derinv(atom.tag, body, ctx)
    return None


def _subst(f: FieldExpr, target: Atom, replacement: FieldExpr, ctx: Context) -> FieldExpr:
    """Replace every jet of the order-0 atom ``target`` (a jet or a test
    field) by the matching x-derivative of ``replacement``; antiderivatives
    whose body changes are integrated again canonically."""
    return f.map_atoms(partial(_subst_atom, target[:2], [replacement], ctx))


def subst_jets(f: FieldExpr, symbol: str, replacement: FieldExpr) -> FieldExpr:
    """Replace every jet of ``symbol`` by the matching derivative of ``replacement``."""
    return _subst(f, Jet(symbol), replacement, DEFAULT_CONTEXT)


def subst_test(
    f: FieldExpr, name: str, replacement: FieldExpr, ctx: Context = DEFAULT_CONTEXT
) -> FieldExpr:
    """Replace every jet of test field ``name`` by derivatives of ``replacement``."""
    return _subst(f, TestField(name), replacement, ctx)


def _rename_atom(mapping: Mapping[str, str], atom: Atom) -> Optional[FieldExpr]:
    if isinstance(atom, TestField) and atom.name in mapping:
        return FieldExpr.from_atom(TestField(mapping[atom.name], atom.order))
    if isinstance(atom, Integral):
        return FieldExpr.from_atom(Integral(atom.tag, atom.body.map_atoms(partial(_rename_atom, mapping))))
    return None


def rename_tests(f: FieldExpr, mapping: Mapping[str, str]) -> FieldExpr:
    """Simultaneously rename test fields, e.g. swap V and W.  Antiderivative
    bodies are renamed in place, not integrated again."""
    return f.map_atoms(partial(_rename_atom, mapping))


def expr_nesting(f: FieldExpr) -> int:
    """Maximum nesting depth of antiderivative atoms: the number of levels of
    bodies, each level's distinct atoms read once."""
    depth, atoms = 0, {a for w in f.terms for a in w if type(a) is Integral}
    while atoms:
        depth += 1
        atoms = {a for i in atoms for w in i.body.terms for a in w if type(a) is Integral}
    return depth
