"""Canonical handling of formal antiderivatives.

The tagged derivation (``ID`` for mirror, ``DD`` for direct) acts on jets of
its base symbol like an ordinary jet-raising derivation once expressions are
rewritten in the matching "eta" coordinates: the order-k eta jet of a symbol
is its k-fold tagged derivative.  Eta words are field words over the same
atoms (``fields.Jet``, ``fields.TestField``), with each antiderivative a
``PLAIN`` one of an eta body, and in that basis the derivation E is the
plain D of the free algebra (``fields._d_atom`` under the Leibniz rule):

    E(eta-jet k)              = eta-jet k+1
    E(PLAIN antiderivative I) = body of I

with no commutator corrections.  So ``derinv(tag)`` is the plain inverse
conjugated by the x <-> eta change of coordinates: one map for both
directions, memoized per word prefix.  Applying it reduces to
integrating a free-algebra polynomial with respect to D.  The split
f = E(g) + h is linear, so it is the sum of the splits of f's words, and
each word's split is memoized.  A word's split is greedy: construct the one
preimage candidate u (lower the outermost positive jet, or wrap the
innermost factor in a fresh antiderivative), accept it only if the leading
word of E(u) under a fixed term order (outermost jets first) is exactly the
word w being eliminated, so that E(u) is w plus later words in that order,
and split the rest of E(u).  Most words are decided from their shape alone,
with no ranking: a word with an order-0 jet or test field before the atom the
candidate changes is rejected before E(u) is built, because raising that
atom gives a word of E(u) that outranks it; a word whose first atom is the
one changed is accepted, because every other word of E(u) keeps the lowered
atom there.  Only a changed atom behind antiderivatives needs the full
leading-word test.  Rejected words freeze into antiderivative atoms; an
exact derivative therefore unwraps completely while anything else splits
into an integrated part plus irreducible atoms, deterministically.  A split
whose running rejected part holds more than ``Context.split_rejects`` words
raises :class:`NestingLimitExceeded`, so an input whose inverse would blow
up into thousands of atoms makes a verification inconclusive within
seconds; so does a split that recurses past Python's recursion limit.  The
splitter reads words from the left, in the mirror convention, for the mirror
and plain tags; the direct inverse is the mirror image
(``fields.mirror_image``) of the mirror inverse of the mirror image.
The nesting bound is checked once per call, on the split, before any x
image is built: the change of coordinates keeps nesting.

``derinv`` remembers its results.  Wherever ``_standard_field`` holds, a
result depends on the tag and the input alone, up to the nesting bound, so
the bounded memo ``_Antiderivatives`` maps ``(tag, f)`` to the result and its
nesting; a hit in a context whose ``integral_depth`` that nesting exceeds
raises the error the full route would, and a split that raises stores
nothing.  The direct claims of the paper integrate the mirror images of what
the mirror claims integrated, so they read it.  An antiderivative wrapped
around a rejected eta word w is remembered too, as ``derinv`` of its body,
the x image B of w: the change of coordinates is an isomorphism there, so
the eta image of B is w, whose split is w alone.  A later ``derinv`` of B (a
printed body parsed again, or ``fields.normal_field`` integrating a body once
more) reads it, and each such atom is built once.  In any other context the
memo is neither read nor written.

``deep_reduce`` extends this to products mixing antiderivative atoms with
further factors: every such word is replaced by the antiderivative of its
own tagged derivative (its tail first: the word without its first atom, or
without its last for a direct word, which reads as the mirror image of a
mirror word), which lines up the integration-by-parts presentations of one
value.  A word whose tail stays as it is and whose lead is a jet or test
field is that antiderivative already, so it is decided from its shape, with
no ``der`` or ``derinv``: every eta word of it is eta_k v, and E(eta_k v) =
eta_(k+1) v + eta_k E(v), whose first word the greedy step accepts at its
first atom with preimage eta_k v, while the split of the rest cancels that
of eta_k E(v) by linearity, so g is the word and h is 0.  The rule needs an
eta image for every atom at every depth (no ``u^-1`` and no antiderivative
of another tag) and a nesting within ``Context.integral_depth``; any other
word takes the full route, which wraps the atoms without an image or raises
the nesting error.  The rule also skips the split's transient rejected part,
which could trip ``split_rejects`` only with a body of more than 4,096
words.  Passes stop when one returns its input, the fixed point of the
sum rather than of each word: the x image of one fixed eta word can be
several words that rewrite into one another.  This is the engine's bounded
integration-by-parts strategy; it raises :class:`NestingLimitExceeded`
instead of looping when the nesting depth or pass budget is exhausted.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Optional, Tuple

from .fields import (
    Atom,
    Context,
    DEFAULT_CONTEXT,
    DerivationTag,
    FieldExpr,
    Integral,
    InverseSymbol,
    Jet,
    LinearCombination,
    NestingLimitExceeded,
    TestField,
    Word,
    _d_atom,
    add_into,
    commutator,
    der,
    expr_nesting,
    mirror_image,
    word_key,
)

_PLAIN = DerivationTag.PLAIN


class EtaExpr(LinearCombination):
    """Linear combination of eta words: field words whose jets are eta jets
    and whose antiderivatives are ``PLAIN`` ones of eta bodies."""

    __slots__ = ()

    def __repr__(self) -> str:
        # eta printing sorts words by this text, so coefficients keep the
        # Fraction text (``Fraction(1, 1)``) whatever their type
        terms = sorted(self.terms.items(), key=lambda kv: word_key(kv[0]))
        return repr(tuple((w, Fraction(c)) for w, c in terms))


def _eta_word(w: Word) -> EtaExpr:
    return EtaExpr._raw({w: 1})


class _ForeignAtom(Exception):
    """Word contains an atom (the exception's argument) the eta basis cannot
    express."""


def _rank(a: Atom) -> int:
    return -1 if type(a) is Integral else a.order


def _mass(w: Word) -> int:
    """Antiderivatives in a word, each counting one plus its heaviest body word."""
    return sum(1 + max(map(_mass, a.body.terms), default=0) for a in w if type(a) is Integral)


def _greedy_key(w: Word):
    """Processing order: highest jets first, fewest antiderivatives next."""
    return (tuple(map(_rank, w)), -_mass(w), word_key(w))


def _step(w: Word) -> Optional[Tuple[Word, dict]]:
    """The greedy step for w: its preimage candidate u and the terms of E(u),
    or None when w is rejected.

    The pivot is the atom u changes: w's leftmost positive jet, or its last
    atom when it has none.  Two shape rules decide most words without
    ranking E(u), and both are exact.  A word with an order-0 atom before
    the pivot is rejected before E(u) is built: u keeps that atom, raising
    it makes a word of E(u) that agrees with w before it and outranks w
    there, and no other Leibniz term makes that word, so it stays in E(u)
    and beats w.  A word whose pivot is its first atom is accepted unranked:
    every other word of E(u) keeps u's pivot, a rank below w's, so w leads.
    Only a pivot behind antiderivatives needs the full test.  Raising the
    pivot (in the wrap case, E of the new antiderivative) is the one term
    that yields w, so an accepted w's E(u) is w plus later words."""
    if not w:
        return None
    last = len(w) - 1
    # the leading word of E(u) raises u's leftmost raisable factor, so the
    # candidate preimage lowers the leftmost positive jet
    for i, a in enumerate(w):
        if _rank(a) >= 1:
            u = w[:i] + (type(a)(a[1], a[2] - 1),) + w[i + 1 :]
            break
        if i < last and type(a) is not Integral:
            return None  # an order-0 atom before the pivot
    else:
        # nothing left to lower: wrap the innermost (last) factor
        u = w[:-1] + (Integral(_PLAIN, _eta_word(w[-1:])),)
    image = _eta_word(u).leibniz(_d_atom).terms
    return (u, image) if i == 0 or max(image, key=_greedy_key) == w else None


def _add_splits(pairs, g: dict, h: dict) -> Tuple[dict, dict]:
    """Add c * split(w) to g and h for each (w, c) in pairs, bounding the
    running rejected part h by ``Context.split_rejects`` words."""
    for w, c in pairs:
        w_g, w_h = _split_word(w)
        for x, k in w_g:
            add_into(g, x, c * k)
        for x, k in w_h:
            add_into(h, x, c * k)
        if len(h) > Context.split_rejects:
            raise NestingLimitExceeded(
                "antiderivative splitting rejected more than split_rejects = %d words"
                % Context.split_rejects
            )
    return g, h


# A word's split reads the word alone, not its coefficient or the context.
# Over one pass of the proofs benchmark 1,024 entries hit 80% of 3,949
# calls and never fill (809 misses), and over one of the properties
# benchmark they hit 31% of 7,370, missing 5,076 times; a ``derinv`` that
# ``_Antiderivatives`` answers splits nothing.
@lru_cache(maxsize=1024)
def _split_word(w: Word) -> Tuple[tuple, tuple]:
    """split(w) = (g, h): w = E(g) + h with h made of rejected words, as
    shared tuples of (word, coefficient) pairs.  E(u) is w plus words after
    w in greedy order, so the recursion on those words terminates."""
    step = _step(w)
    if step is None:
        return (), ((w, 1),)
    u, image = step
    rest = ((iw, -ic) for iw, ic in image.items() if iw != w)
    g, h = _add_splits(rest, {u: 1}, {})
    return tuple(g.items()), tuple(h.items())


def _greedy_split(f: EtaExpr) -> Tuple[dict, dict]:
    """Split f = E(g) + h with h made of words the greedy scheme rejects: the
    sum of c * split(w) over the terms c w of f."""
    try:
        return _add_splits(f.terms.items(), {}, {})
    except RecursionError:
        raise NestingLimitExceeded("antiderivative splitting exceeded the recursion limit") from None


# ---------------------------------------------------------------------------
# the x <-> eta change of coordinates
#
# One algebra isomorphism and its inverse, both valid only where
# ``_standard_field(tag, ctx)`` holds: then the tag's commutator field is the
# base jet, a word of both coordinates, so each value depends on its memo key
# alone.  Toward eta the x-derivative is E + sign*[base, .]; toward x the eta
# derivation E is ``der(tag, .)`` = D - sign*[base, .].  Antiderivatives of
# ``tag`` in x and ``PLAIN`` ones in eta map to each other through bodies.


# Sized to one proofs benchmark pass, whose 1,950 words fit in 2048 entries.
# An LRU a little smaller than a working set that recurs in a cycle evicts
# each word just before its next use, so it misses on nearly every call of
# the cycle: at 1024 entries the pass missed 3,038 times, not 1,950.  Bounded
# because an unbounded memo keeps every word of every field reduced in the
# process: one properties pass uses 6,208 words, 3,879 of them once (most
# bodies come back through ``_Antiderivatives``), for 3.7 MB more in-process
# peak memory than 1024 entries (2048 cost 0.3 MB, 3072 cost 1.2 MB).
@lru_cache(maxsize=2048)
def _word_image(tag: DerivationTag, cls: type, w: Word) -> LinearCombination:
    """A word's image in ``cls`` coordinates, ``EtaExpr`` for eta and
    ``FieldExpr`` for x: the image of ``w[:-1]`` times that of its last atom,
    so words share their prefixes.  An atom the change of coordinates cannot
    express raises ``_ForeignAtom``."""
    if not w:
        return cls._raw({(): 1})
    if len(w) > 1:
        return _word_image(tag, cls, w[:-1]) * _word_image(tag, cls, w[-1:])
    atom = w[0]
    to_eta = cls is EtaExpr
    kind = type(atom)
    if kind is Jet or kind is TestField:
        if atom[2] == 0:
            return cls._raw({w: 1})
        f = _word_image(tag, cls, (kind(atom[1], atom[2] - 1),))
        df = f.leibniz(_d_atom)
        if not tag.sign:
            return df
        return df + commutator(cls._raw({(Jet(tag.base),): 1}), f).scale(tag.sign if to_eta else -tag.sign)
    if kind is Integral and atom[1] is (tag if to_eta else _PLAIN):
        body = _image(tag, cls, atom[2])
        return cls._raw({(Integral(_PLAIN if to_eta else tag, body),): 1})
    raise _ForeignAtom(atom)


def _image(tag: DerivationTag, cls: type, f: LinearCombination) -> LinearCombination:
    """An expression's image in ``cls`` coordinates."""
    return cls.sum((_word_image(tag, cls, w), c) for w, c in f.terms.items())


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _Antiderivatives:
    """The process's one memo of ``_derinv`` results, this class itself, from
    ``(tag, f)`` to ``(derinv(tag, f), nesting)`` (see the module docstring),
    with the ``cache_info()`` and ``cache_clear()`` of a ``functools`` cache.
    A hit moves its entry to the back, and a new entry past ``maxsize``
    evicts the front one, both in O(1).

    Sized to one proofs benchmark pass, which keeps 468 antiderivatives and
    137 results: at 1,024 entries it hits 157 times and evicts nothing, and
    at 512 evictions cut its hits to 85.  A properties pass hits 3,274 of its
    3,464 calls, and 3,281 unbounded, for 3.6 MB more peak memory."""

    maxsize = 1024
    hits = misses = 0
    _entries: OrderedDict = OrderedDict()

    @classmethod
    def get(cls, key) -> Optional[Tuple[FieldExpr, int]]:
        entry = cls._entries.get(key)
        if entry is None:
            cls.misses += 1
        else:
            cls.hits += 1
            cls._entries.move_to_end(key)
        return entry

    @classmethod
    def put(cls, key, entry: Tuple[FieldExpr, int]) -> None:
        entries = cls._entries
        entries[key] = entry
        if len(entries) > cls.maxsize:
            entries.popitem(last=False)

    @classmethod
    def cache_info(cls) -> _CacheInfo:
        return _CacheInfo(cls.hits, cls.misses, cls.maxsize, len(cls._entries))

    @classmethod
    def cache_clear(cls) -> None:
        cls._entries.clear()
        cls.hits = cls.misses = 0


def _standard_field(tag: DerivationTag, ctx: Context) -> bool:
    return tag is DerivationTag.PLAIN or ctx.field == DEFAULT_CONTEXT.field


def derinv(
    tag: DerivationTag, f: FieldExpr, ctx: Context = DEFAULT_CONTEXT
) -> FieldExpr:
    """Apply the formal inverse derivation canonically.

    Exact derivatives unwrap completely; anything else splits into an
    integrated part plus antiderivative atoms with irreducible bodies.  A
    word without an eta image, and every word in a context whose commutator
    field is not the plain base jet (the Cole-Hopf substitution), becomes
    its own antiderivative atom, so ``derinv`` is linear in every context.
    The direct inverse is the mirror image of the mirror one.  In a standard
    context the result is read from ``_Antiderivatives`` when an earlier call
    integrated the same input under the same tag, or wrapped an
    antiderivative around it as a rejected word's body; one nested deeper
    than ``ctx.integral_depth`` raises, as the full route does.
    """
    if tag == DerivationTag.DIRECT:
        return mirror_image(_derinv(DerivationTag.MIRROR, mirror_image(f), ctx))
    return _derinv(tag, f, ctx)


def _derinv(tag: DerivationTag, f: FieldExpr, ctx: Context) -> FieldExpr:
    """``derinv`` for the mirror and plain tags."""
    standard = _standard_field(tag, ctx)
    if standard:
        entry = _Antiderivatives.get((tag, f))
        if entry is not None:
            result, depth = entry
            if depth > ctx.integral_depth:
                raise NestingLimitExceeded("antiderivative nesting exceeded depth %d" % ctx.integral_depth)
            return result
    foreign, eta_terms = {}, []
    for w, c in f.terms.items():
        try:
            if standard:  # else no word has an eta image
                eta_terms.append((_word_image(tag, EtaExpr, w), c))
                continue
        except _ForeignAtom:
            pass
        foreign[w] = c
    g, h = _greedy_split(EtaExpr.sum(eta_terms))
    # the change of coordinates keeps nesting; a rejected or foreign word is wrapped once more
    wrapped = EtaExpr._raw({**h, **foreign})
    depth = max(expr_nesting(EtaExpr._raw(g)), 1 + expr_nesting(wrapped) if wrapped.terms else 0)
    if depth > ctx.integral_depth:
        raise NestingLimitExceeded("antiderivative nesting exceeded depth %d" % ctx.integral_depth)
    result = FieldExpr.sum(chain(
        ((_word_image(tag, FieldExpr, w), c) for w, c in g.items()),
        ((FieldExpr.from_atom(Integral(tag, FieldExpr.from_word(w))), c) for w, c in foreign.items()),
        ((_antiderivative(tag, w), c) for w, c in h.items()),
    ))
    if standard:
        _Antiderivatives.put((tag, f), (result, depth))
    return result


def _antiderivative(tag: DerivationTag, w: Word) -> FieldExpr:
    """The x antiderivative of the rejected eta word w, its body the x image
    B of w, built once: it is also ``derinv(tag, B)``, which
    ``_Antiderivatives`` remembers."""
    key = (tag, _word_image(tag, FieldExpr, w))
    entry = _Antiderivatives._entries.get(key)
    if entry is None:
        atom = FieldExpr.from_atom(Integral(tag, key[1]))
        # B nests as deep as w: the change of coordinates keeps nesting
        entry = (atom, 1 + expr_nesting(_eta_word(w)))
        _Antiderivatives.put(key, entry)
    return entry[0]


def _word_tag(word: Word) -> Optional[DerivationTag]:
    """The one antiderivative tag of a word of two or more atoms, else None."""
    tags = {a.tag for a in word if isinstance(a, Integral)}
    return next(iter(tags)) if len(tags) == 1 and len(word) >= 2 else None


def _has_eta_image(tag: DerivationTag, word: Word, cache: dict) -> bool:
    """Whether every atom of ``word``, at every depth, has an eta image: no
    ``u^-1`` and no antiderivative of a tag other than ``tag``.  The verdict
    on each antiderivative of ``tag`` is kept in ``cache`` under the atom,
    which no word equals."""
    return all(
        type(a) is not InverseSymbol
        and (type(a) is not Integral or a[1] is tag and (
            cache[a] if a in cache
            else cache.setdefault(a, all(_has_eta_image(tag, w, cache) for w in a[2].terms))
        ))
        for a in word
    )


def _canon_word(word: Word, ctx: Context, cache: dict) -> FieldExpr:
    """Canonical value of one word, its tail first; a word led by a jet or
    test field whose tail is fixed is kept by shape (see ``deep_reduce``)."""
    if word in cache:
        return cache[word]
    out = FieldExpr.from_word(word)
    tag = _word_tag(word)
    if tag is not None and _standard_field(tag, ctx):
        # a direct word is read from the right, the mirror image of a mirror word
        direct = tag is DerivationTag.DIRECT
        lead, tail = (word[-1], word[:-1]) if direct else (word[0], word[1:])
        if _word_tag(tail) is not None and _canon_word(tail, ctx, cache) != FieldExpr.from_word(tail):
            head = FieldExpr.from_atom(lead)
            out = cache[tail] * head if direct else head * cache[tail]
        elif (
            type(lead) is Integral
            or not _has_eta_image(tag, word, cache)
            or expr_nesting(out) > ctx.integral_depth
        ):
            out = derinv(tag, der(tag, out, ctx), ctx)
    cache[word] = out
    return out


def deep_reduce(f: FieldExpr, ctx: Context = DEFAULT_CONTEXT) -> FieldExpr:
    """Bounded integration-by-parts normalization.

    Every word that multiplies an antiderivative atom by further factors is
    rewritten as the antiderivative of its own tagged derivative, its tail
    (all atoms but the first, or but the last for a direct word) first.
    Each rewrite preserves the value of the word, so the result equals the
    input as an abstract field; passes repeat until one returns its input,
    within the context's pass budget, and the terms of that fixed point
    come in :func:`word_key` order whatever the input's order; its words
    need not be fixed one by one.  A word led by a jet or test field whose
    tail is fixed is kept without a ``derinv`` call, where every atom has an
    eta image and the nesting is within bound: the split of E(eta_k v) =
    eta_(k+1) v + eta_k E(v) is eta_k v (see the module docstring).
    """
    cache: dict = {}
    cur = f
    for _ in range(ctx.reduce_passes):
        nxt = FieldExpr.sum([(_canon_word(word, ctx, cache), coeff) for word, coeff in cur.terms.items()])
        if nxt == cur:
            return FieldExpr._raw({w: cur.terms[w] for w in sorted(cur.terms, key=word_key)})
        cur = nxt
    raise NestingLimitExceeded("deep reduction did not reach a fixed point")
