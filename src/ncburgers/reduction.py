"""Canonical handling of formal antiderivatives.

The tagged derivation (``ID`` for mirror, ``DD`` for direct) acts on jets of
its base symbol like an ordinary jet-raising derivation once expressions are
rewritten in the matching "eta" coordinates: the order-k eta jet of a symbol
is its k-fold tagged derivative.  In that basis the derivation E satisfies

    E(eta-jet k)        = eta-jet k+1
    E(antiderivative I) = body of I

with the plain Leibniz rule and no commutator corrections.  Applying the
formal inverse then reduces to integrating a free-algebra polynomial with
respect to a jet-raising derivation, done greedily: repeatedly take the
largest remaining word under a fixed term order (outermost jets first),
construct the one preimage candidate (lower the outermost positive jet, or
wrap the innermost factor in a fresh antiderivative), and accept it only if
the leading word of its derivative is exactly the word being eliminated.
Rejected words freeze into antiderivative atoms; an exact derivative
therefore unwraps completely while anything else splits into an integrated
part plus irreducible atoms, deterministically.  The splitter reads words
from the left, in the mirror convention, for the mirror and plain tags; the
direct inverse is the mirror image (``fields.mirror_image``) of the mirror
inverse of the mirror image.

``deep_reduce`` extends this to products mixing antiderivative atoms with
further factors: every such word is replaced by the antiderivative of its
own tagged derivative (innermost trailing factors first), which lines up the
integration-by-parts presentations of one value.  This is the engine's
bounded integration-by-parts strategy; it raises
:class:`NestingLimitExceeded` instead of looping when the nesting depth or
round budget is exhausted.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from operator import mul
from typing import Optional, Tuple

from .fields import (
    Context,
    DEFAULT_CONTEXT,
    DerivationTag,
    FieldExpr,
    Integral,
    Jet,
    LinearCombination,
    NestingLimitExceeded,
    TAG_BASE,
    TestField,
    Word,
    _TAG_SIGN,
    add_into,
    commutator,
    der,
    expr_nesting,
    jet,
    mirror_image,
    mirror_word,
)

# eta atoms are plain tuples:
#   ('j', symbol, k)   eta jet of a base symbol
#   ('t', name, k)     eta jet of a test field
#   ('i', body)        antiderivative of the EtaExpr ``body``
EtaAtom = tuple
EtaWord = Tuple[EtaAtom, ...]
_R = jet("r")


class EtaExpr(LinearCombination):
    """Linear combination of eta words."""

    __slots__ = ()

    def sorted_terms(self):
        """The terms in canonical word order."""
        return sorted(self.terms.items(), key=lambda kv: _word_sort(kv[0]))

    def __repr__(self) -> str:
        # eta printing sorts words by this text, so coefficients keep the
        # Fraction text (``Fraction(1, 1)``) whatever their type
        return repr(tuple((w, Fraction(c)) for w, c in self.sorted_terms()))


def _eta_word(w: EtaWord) -> EtaExpr:
    return EtaExpr._raw({w: 1})


class _ForeignAtom(Exception):
    """Word contains an atom (the exception's argument) the eta basis cannot
    express."""


def _atom_sort(a: EtaAtom):
    if a[0] == "j":
        return (0, a[1], a[2])
    if a[0] == "t":
        return (1, a[1], a[2])
    return (2, tuple(sorted((_word_sort(w), c) for w, c in a[1].terms.items())))


def _word_sort(w: EtaWord):
    return (len(w), tuple(_atom_sort(a) for a in w))


def _rank(a: EtaAtom) -> int:
    return a[2] if a[0] in ("j", "t") else -1


def _mass(w: EtaWord) -> int:
    """Antiderivatives in a word, each counting one plus its heaviest body word."""
    return sum(1 + max(map(_mass, a[1].terms), default=0) for a in w if a[0] == "i")


@lru_cache(maxsize=None)
def _greedy_key(w: EtaWord):
    """Processing order: highest jets first, fewest antiderivatives next."""
    return (tuple(map(_rank, w)), -_mass(w), _word_sort(w))


class _ByKeyDesc:
    """Heap entry ordered by descending greedy key."""

    __slots__ = ("key", "word")

    def __init__(self, key, word):
        self.key = key
        self.word = word

    def __lt__(self, other):
        return self.key > other.key


def _E(a: EtaAtom) -> EtaExpr:
    """The jet-raising derivation E on one atom; ``leibniz`` extends it."""
    if a[0] == "i":
        return a[1]
    return _eta_word(((a[0], a[1], a[2] + 1),))


def _candidate(w: EtaWord) -> Optional[EtaWord]:
    if not w:
        return None
    # the leading word of E(u) raises u's leftmost raisable factor, so the
    # candidate preimage lowers the leftmost positive jet
    for i, a in enumerate(w):
        if _rank(a) >= 1:
            return w[:i] + ((a[0], a[1], a[2] - 1),) + w[i + 1 :]
    # nothing left to lower: wrap the innermost (last) factor
    return w[:-1] + (("i", _eta_word(w[-1:])),)


def _greedy_split(f: EtaExpr, rounds: int) -> Tuple[dict, dict]:
    """Split f = E(g) + h with h made of words the greedy scheme rejects."""
    work = dict(f.terms)
    heap = [_ByKeyDesc(_greedy_key(w), w) for w in work]
    heapq.heapify(heap)
    g: dict = {}
    h: dict = {}
    budget = rounds
    while heap:
        w = heapq.heappop(heap).word
        c = work.get(w)
        if c is None:
            continue  # stale entry
        budget -= 1
        if budget < 0:
            raise NestingLimitExceeded("antiderivative splitting exceeded round budget")
        u = _candidate(w)
        done = False
        if u is not None:
            image = _eta_word(u).leibniz(_E).terms
            if image and max(image, key=_greedy_key) == w:
                d = image[w]
                # exact: never a float, an int whenever the quotient is whole
                ratio = c // d if type(c) is int and c % d == 0 else Fraction(c) / d
                add_into(g, u, ratio)
                for iw, ic in image.items():
                    was_present = iw in work
                    add_into(work, iw, -ratio * ic)
                    if iw in work and not was_present:
                        heapq.heappush(heap, _ByKeyDesc(_greedy_key(iw), iw))
                done = True
        if not done:
            add_into(h, w, c)
            del work[w]
    return g, h


# ---------------------------------------------------------------------------
# conversion between x jets and eta jets

@lru_cache(maxsize=None)
def _x_jet_to_eta(tag: DerivationTag, kind: str, name: str, order: int) -> EtaExpr:
    """An x jet in eta coordinates, where the x-derivative is
    E + sign*[base, .], the mirror image of ``fields.der``."""
    if order == 0:
        return _eta_word(((kind, name, 0),))
    f = _x_jet_to_eta(tag, kind, name, order - 1)
    sign = _TAG_SIGN[tag]
    if not sign:
        return f.leibniz(_E)
    return f.leibniz(_E) + commutator(_eta_word((("j", TAG_BASE[tag], 0),)), f).scale(sign)


def _to_eta_atom(tag: DerivationTag, atom) -> EtaExpr:
    if isinstance(atom, Jet):
        return _x_jet_to_eta(tag, "j", atom.symbol, atom.order)
    if isinstance(atom, TestField):
        return _x_jet_to_eta(tag, "t", atom.name, atom.order)
    if isinstance(atom, Integral) and atom.tag == tag:
        return _eta_word((("i", _to_eta_expr(tag, atom.body)),))
    raise _ForeignAtom(atom)


def _to_eta_word(tag: DerivationTag, word: Word) -> EtaExpr:
    if not word:
        return _eta_word(())
    return reduce(mul, [_to_eta_atom(tag, a) for a in word])


def _to_eta_expr(tag: DerivationTag, f: FieldExpr) -> EtaExpr:
    return EtaExpr.sum((_to_eta_word(tag, w), c) for w, c in f.terms.items())


@lru_cache(maxsize=None)
def _eta_jet_to_x(tag: DerivationTag, kind: str, name: str, order: int) -> FieldExpr:
    """An eta jet in x coordinates, computed in the default context.

    Only valid where ``_standard_field(tag, ctx)`` holds: then the tag's
    commutator field is the default one, so the value depends on the key
    alone.
    """
    if order == 0:
        return FieldExpr.from_atom(Jet(name, 0) if kind == "j" else TestField(name, 0))
    return der(tag, _eta_jet_to_x(tag, kind, name, order - 1), DEFAULT_CONTEXT)


# Bounded because an unbounded memo keeps every word of every field reduced
# in the process: 5,938 words and 3.4 MB more peak memory over 1,000 small
# random fields.  A proof's words recur close together, so 1024 entries keep
# its hits (60.8 k against 60.3 k unbounded over the proofs benchmark).
@lru_cache(maxsize=1024)
def _from_eta_word_d(tag: DerivationTag, w: EtaWord, depth: int) -> FieldExpr:
    """An eta word in x coordinates: the value of ``w[:-1]`` times that of
    its last atom, so words share their prefixes.  Antiderivatives nest at
    most ``depth`` deep.

    Only valid where ``_standard_field(tag, ctx)`` holds, like
    ``_eta_jet_to_x``; then the key is everything the value depends on.
    """
    if not w:
        return FieldExpr.unit()
    a = w[-1]
    if a[0] in ("j", "t"):
        last = _eta_jet_to_x(tag, a[0], a[1], a[2])
    else:
        body = FieldExpr.sum((_from_eta_word_d(tag, bw, depth), c) for bw, c in a[1].terms.items())
        last = _integral_atom(tag, body, depth)
    return _from_eta_word_d(tag, w[:-1], depth) * last


def _integral_atom(tag: DerivationTag, body: FieldExpr, depth: int) -> FieldExpr:
    if body.is_zero():
        return body
    atom = Integral(tag, body)
    if 1 + expr_nesting(body) > depth:
        raise NestingLimitExceeded("antiderivative nesting exceeded depth %d" % depth)
    return FieldExpr.from_atom(atom)


def _standard_field(tag: DerivationTag, ctx: Context) -> bool:
    return tag is DerivationTag.PLAIN or ctx.field == _R


def derinv(
    tag: DerivationTag, f: FieldExpr, ctx: Context = DEFAULT_CONTEXT
) -> FieldExpr:
    """Apply the formal inverse derivation canonically.

    Exact derivatives unwrap completely; anything else splits into an
    integrated part plus antiderivative atoms with irreducible bodies.  In a
    context whose commutator field is not the plain base jet (the Cole-Hopf
    substitution), no splitting is attempted and bodies are kept verbatim.
    The direct inverse is the mirror image of the mirror one.
    """
    if tag == DerivationTag.DIRECT:
        return mirror_image(_derinv(DerivationTag.MIRROR, mirror_image(f), ctx))
    return _derinv(tag, f, ctx)


def _derinv(tag: DerivationTag, f: FieldExpr, ctx: Context) -> FieldExpr:
    """``derinv`` for the mirror and plain tags."""
    if f.is_zero():
        return f
    depth = ctx.integral_depth
    if not _standard_field(tag, ctx):
        return _integral_atom(tag, f, depth)

    eta_terms, foreign = [], []
    for w, c in f.terms.items():
        try:
            eta_terms.append((_to_eta_word(tag, w), c))
        except _ForeignAtom:
            foreign.append((_integral_atom(tag, FieldExpr.from_word(w), depth), c))

    g, h = _greedy_split(EtaExpr.sum(eta_terms), ctx.reduce_rounds)
    return FieldExpr.sum(chain(
        ((_from_eta_word_d(tag, w, depth), c) for w, c in g.items()),
        foreign,
        ((_integral_atom(tag, _from_eta_word_d(tag, w, depth), depth), c) for w, c in h.items()),
    ))


def _word_tag(word: Word) -> Optional[DerivationTag]:
    tags = {a.tag for a in word if isinstance(a, Integral)}
    if len(tags) == 1:
        return next(iter(tags))
    return None


def _is_mixed(word: Word) -> bool:
    return len(word) >= 2 and any(isinstance(a, Integral) for a in word)


def _canon_word(word: Word, ctx: Context, cache: dict) -> FieldExpr:
    """Canonical value of one word, rewriting innermost products first."""
    if word in cache:
        return cache[word]
    out = FieldExpr.from_word(word)
    tag = _word_tag(word)
    if _is_mixed(word) and tag is not None and _standard_field(tag, ctx):
        if tag == DerivationTag.DIRECT:
            # a context is its own mirror image, so the mirror word shares the cache
            out = mirror_image(_canon_word(mirror_word(word), ctx, cache))
        else:
            inner = word[1:]
            if _is_mixed(inner) and _canon_word(inner, ctx, cache) != FieldExpr.from_word(inner):
                out = FieldExpr.from_word(word[:1]) * cache[inner]
            else:
                out = derinv(tag, der(tag, out, ctx), ctx)
    cache[word] = out
    return out


def deep_reduce(f: FieldExpr, ctx: Context = DEFAULT_CONTEXT) -> FieldExpr:
    """Bounded integration-by-parts normalization.

    Every word that multiplies an antiderivative atom by further factors is
    rewritten as the antiderivative of its own tagged derivative, innermost
    trailing products first.  Each rewrite preserves the value of the word,
    so the result equals the input as an abstract field; iterated to a fixed
    point within the context's round budget.
    """
    cache: dict = {}
    cur = f
    for _ in range(ctx.reduce_passes):
        vals = [(_canon_word(word, ctx, cache), coeff) for word, coeff in cur.terms.items()]
        if all(val == FieldExpr.from_word(word) for (val, _), word in zip(vals, cur.terms)):
            return cur
        cur = FieldExpr.sum(vals)
    raise NestingLimitExceeded("deep reduction did not reach a fixed point")
