"""Textual expression language: parser, canonical printer, LaTeX emitter.

Field grammar (juxtaposition binds tighter than + and -):

    expr     := term (sign term)*
    term     := sign* rational factor* | sign* factor+
    sign     := "+" | "-"                  (a run multiplies: "- - r" is r)
    rational := digits ("/" digits)?       (the denominator must be nonzero)
    factor   := atom | "(" expr ")" | "IDinv" "[" expr "]" | "DDinv" "[" expr "]"
              | "Dinv" "[" expr "]" | "D" "(" expr ")"
    atom     := ident ("_" "x"+)?

A term's plain atoms and its groups of one nonempty word make one word;
products are taken only at groups of several terms.  An antiderivative group
is not trusted to be canonical: its body goes through ``reduction.derinv``
again, so any text, printed or typed, parses to the same canonical form.  A
body that ``derinv`` wrapped around a rejected word, as in printed canonical
text, is found in ``reduction._BodyWords`` and skips the conversion to eta
coordinates; typed text, a body whose entry has been evicted and a body of
one atom (the split's wrapped last factor, one memoized image) take the full
route.

Reserved identifiers: r, s, u, uinv, v, V, W, sigma.  Operator expressions
reuse the field grammar for multiplication factors; a bare field factor
means left multiplication, matching the convention of dropping the L symbol:

    opfactor := "D" | "ID" | "DD" | "Dinv" | "IDinv" | "DDinv" | "Id"
              | "L" "[" expr "]" | "R" "[" expr "]" | "C" "[" expr "]"
              | "(" opexpr ")" | <field factor>

There ``D`` is the operator (``D(f)`` is field text, as in ``L[D(f)]``), and a
group of one word of left multiplications is one: ``(r V)`` is L[r V].
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import itemgetter
from typing import List, Optional, Tuple

from .fields import (
    Atom,
    DerivationTag,
    FieldExpr,
    Integral,
    InverseSymbol,
    Jet,
    Rat,
    TestField,
    d_total,
)
from .operators import (
    OpExpr,
    OpLeft,
    op_atom_key,
    op_comm,
    op_d,
    op_der,
    op_derinv,
    op_left,
    op_right,
)
from .reduction import EtaExpr, _ForeignAtom, _image, derinv

_DER_NAMES = {
    DerivationTag.MIRROR: "ID",
    DerivationTag.DIRECT: "DD",
    DerivationTag.PLAIN: "D",
}
_DER_LATEX = {
    DerivationTag.MIRROR: r"\mathrm{ID}",
    DerivationTag.DIRECT: r"\mathbb{D}",
    DerivationTag.PLAIN: "D",
}
_DERINV_NAMES = {tag: name + "inv" for tag, name in _DER_NAMES.items()}
_DERINV_LATEX = {tag: name + "^{-1}" for tag, name in _DER_LATEX.items()}

JET_IDENTS = ("r", "s", "u", "v")
TEST_IDENTS = ("V", "W", "sigma")
DERINV_IDENTS = {name: tag for tag, name in _DERINV_NAMES.items()}
# plain D is parsed on its own: an operator, or D(expr) on a field
DER_IDENTS = {name: tag for tag, name in _DER_NAMES.items() if tag != DerivationTag.PLAIN}


@dataclass
class ParseDiagnostic:
    line: int
    column: int
    message: str
    expected: Tuple[str, ...] = ()

    def __str__(self) -> str:
        loc = "line %d, column %d: %s" % (self.line, self.column, self.message)
        if self.expected:
            loc += " (expected %s)" % ", ".join(self.expected)
        return loc


class ParseError(Exception):
    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class _AtomTable(dict):
    """Token -> the atom it names on its own (a jet, a test field or
    ``uinv``), or None; filled as tokens are met."""

    def __missing__(self, text: str) -> Optional[Atom]:
        stem, _, suffix = text.partition("_")
        if stem in JET_IDENTS:
            atom = Jet(stem, len(suffix))
        elif stem in TEST_IDENTS:
            atom = TestField(stem, len(suffix))
        else:
            atom = InverseSymbol("u") if text == "uinv" else None
        self[text] = atom
        return atom


# a number, an identifier or a punctuation mark, after optional space
_TOKEN_RE = re.compile(r"\s*(\d+(?:/\d+)?|[A-Za-z][A-Za-z0-9]*(?:_x+)?|[+\-()\[\]])")


class _Lexer:
    """The tokens of ``src`` as strings, a cursor, and the atoms the tokens
    name.  A token's position is found again only for a diagnostic."""

    def __init__(self, src: str):
        self.src = src
        self.tokens: List[str] = _TOKEN_RE.findall(src)
        self.index = 0
        self.atoms = _AtomTable()
        # tokens hold no space and never overlap, so they cover every other
        # character exactly when their lengths add up
        if len("".join(self.tokens)) != len("".join(src.split())):
            pos = 0
            for m in _TOKEN_RE.finditer(src):
                if m.start() != pos:
                    break
                pos = m.end()
            rest = src[pos:].lstrip()
            raise ParseError(self._diag(len(src) - len(rest), "unexpected character %r" % rest[0]))

    def _diag(self, pos: int, message: str, expected: Tuple[str, ...] = ()) -> ParseDiagnostic:
        line = self.src.count("\n", 0, pos) + 1
        column = pos - (self.src.rfind("\n", 0, pos) + 1) + 1
        return ParseDiagnostic(line, column, message, expected)

    def peek(self, offset: int = 0) -> Optional[str]:
        i = self.index + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def next(self) -> None:
        self.index += 1

    def expect(self, text: str) -> None:
        tok = self.peek()
        if tok != text:
            raise self.error("unexpected %s" % ("end of input" if tok is None else repr(tok)), (text,))
        self.index += 1

    def error(self, message: str, expected: Tuple[str, ...] = ()) -> ParseError:
        """A diagnostic at the cursor's token, or at the end of input."""
        if self.index < len(self.tokens):
            pos = next(islice(_TOKEN_RE.finditer(self.src), self.index, None)).start(1)
        else:
            pos = len(self.src)
        return ParseError(self._diag(pos, message, expected))


def _field_group(lx: _Lexer) -> Optional[FieldExpr]:
    """The next field group; None when the next token starts none, or is a plain atom."""
    text, after = lx.peek(), lx.peek(1)
    if text == "(":
        return _group(lx, _field_group, ")")
    if text in DERINV_IDENTS and after == "[":
        lx.next()
        return derinv(DERINV_IDENTS[text], _group(lx, _field_group, "]"))
    if text == "D" and after == "(":
        lx.next()
        return d_total(_group(lx, _field_group, ")"))
    return None


def _coefficient(lx: _Lexer) -> Tuple[Rat, bool]:
    """The sign run and the optional number that start a term."""
    sign = 1
    tok = lx.peek()
    while tok in ("+", "-"):
        if tok == "-":
            sign = -sign
        lx.next()
        tok = lx.peek()
    if tok is None or not tok[0].isdigit():
        return sign, False
    num, _, den = tok.partition("/")
    if den and not int(den):
        raise lx.error("zero denominator in %r" % tok)
    lx.next()
    return sign * (Fraction(int(num), int(den)) if den else int(num)), True


def _term(lx: _Lexer, factor):
    """A coefficient times the product of the factors ``factor`` parses:
    field factors or operator factors.  Plain atoms and field groups of one
    nonempty word join a run, one word multiplied in at other groups and the end."""
    coeff, explicit = _coefficient(lx)
    is_field = factor is _field_group
    tokens, atoms = lx.tokens, lx.atoms
    out, run = None, []  # the product of the factors before ``run``
    while True:
        if is_field:  # the plain atoms at the cursor; any other token names None
            i = lx.index
            while i < len(tokens) and (a := atoms[tokens[i]]) is not None:
                run.append(a)
                i += 1
            lx.index = i
        if (f := factor(lx)) is None:
            break
        if is_field and len(f.terms) == 1:
            ((w, c),) = f.terms.items()
            if w:
                run += w
                coeff *= c
                continue
        if run:
            word, run = FieldExpr.from_word(run), []
            out = word if out is None else out * word
        out = f if out is None else out * f
    # an identifier that names no atom and starts no factor
    if (tok := lx.peek()) is not None and tok[0].isalpha():
        atoms = sorted(JET_IDENTS) + sorted(TEST_IDENTS) + ["uinv"]
        expected = atoms if is_field else ["D", "ID", "IDinv", "L["] + atoms
        raise lx.error("unknown symbol %r" % tok, tuple(expected))
    if run:  # the coefficient rides on the last word
        word = FieldExpr.from_word(run, coeff)
        return word if out is None else out * word
    if out is not None:
        return out.scale(coeff)
    if explicit:
        return (FieldExpr.unit() if is_field else OpExpr.identity()).scale(coeff)
    if not is_field:
        raise lx.error("expected an operator factor", ("D", "ID", "IDinv", "L[", "identifier"))
    raise lx.error("expected a field factor", ("identifier", "(", "IDinv["))


def _sum_of_terms(lx: _Lexer, factor):
    terms = [(_term(lx, factor), 1)]
    while lx.peek() in ("+", "-"):
        terms.append((_term(lx, factor), 1))
    return terms[0][0] if len(terms) == 1 else type(terms[0][0]).sum(terms)


def _group(lx: _Lexer, factor, close: str):
    """The sum after the opening bracket at the cursor, up to ``close``."""
    lx.next()
    inner = _sum_of_terms(lx, factor)
    lx.expect(close)
    return inner


def _parse(src: str, factor):
    lx = _Lexer(src)
    out = _sum_of_terms(lx, factor)
    if lx.peek() is not None:
        raise lx.error("trailing input")
    return out


def parse_field(src: str) -> FieldExpr:
    """Parse a field expression in the default context; unknown identifiers are an error."""
    return _parse(src, _field_group)


def _op_factor(lx: _Lexer) -> Optional[OpExpr]:
    text, after = lx.peek(), lx.peek(1)
    if text == "(":
        group = _group(lx, _op_factor, ")")
        w = next(iter(group.terms), ())
        if len(w) > 1 and group.terms == {w: 1} and all(isinstance(a, OpLeft) for a in w):
            return OpExpr.from_atoms(OpLeft(sum((a.word for a in w), ())))  # print_op's (r V)
        return group
    if text == "D":
        lx.next()
        return op_d()
    if text == "Id":
        lx.next()
        return OpExpr.identity()
    if text in DER_IDENTS:
        lx.next()
        return op_der(DER_IDENTS[text])
    if text in DERINV_IDENTS and after != "[":
        lx.next()
        return op_derinv(DERINV_IDENTS[text])
    if text in ("L", "R", "C") and after == "[":
        lx.next()
        mult = {"L": op_left, "R": op_right, "C": op_comm}[text]
        return mult(_group(lx, _field_group, "]"))
    if text is not None and lx.atoms[text] is not None:
        lx.next()
        return op_left(FieldExpr.from_atom(lx.atoms[text]))
    field = _field_group(lx)
    return None if field is None else op_left(field)


def parse_op(src: str) -> OpExpr:
    """Parse an operator expression; bare field factors mean left multiplication."""
    return _parse(src, _op_factor)


# ---------------------------------------------------------------------------
# printing


def _atom_text(atom, latex: bool, suffix: str = "x") -> str:
    """The text of a jet, a test field or ``uinv``; a jet's derivative suffix
    is ``x`` or, in eta coordinates, ``eta``."""
    if atom[0] == "u":
        return "%s^{-1}" % atom[1] if latex else "%sinv" % atom[1]
    name = "\\sigma" if (latex and atom[1] == "sigma") else atom[1]
    if atom[2] == 0:
        return name
    return ("%s_{%s}" if latex else "%s_%s") % (name, suffix * atom[2])


def _coeff_text(c: Rat, latex: bool) -> str:
    if latex and c.denominator != 1:
        return r"\tfrac{%d}{%d}" % (c.numerator, c.denominator)
    return str(c)


def _join_terms(rows: List[Tuple[object, Rat, str]], latex: bool) -> str:
    """The text of sorted (key, coefficient, word text) rows."""
    if not rows:
        return "0"
    chunks: List[str] = []
    for i, (_, coeff, body) in enumerate(rows):
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        coeff_txt = "" if (mag == 1 and body) else _coeff_text(mag, latex)
        piece = (coeff_txt + " " + body).strip() if body else coeff_txt
        if i == 0:
            chunks.append(("-" + piece) if sign == "-" else piece)
        else:
            chunks.append(sign + " " + piece)
    return " ".join(chunks)


def _printer(mode: str, eta: Optional[DerivationTag] = None):
    """Sorted (key, coefficient, text) rows of a field or operator expression
    in mode ``x`` or ``latex``; a row's key is (word length, atom keys).

    Each distinct atom's key and text are built once per printer, an
    antiderivative's from its body's rows and a multiplication operator's
    from its word's atoms, so a body is printed once however many words hold
    it.  A field atom's key is ``word_key``'s with jet orders negated
    (highest derivative first, as hierarchy members are written), and an
    operator atom's is ``op_atom_key``.  Given a tag ``eta``, field words are
    eta words: keys are ``word_key``'s own, jets take ``eta`` suffixes and
    antiderivatives are named after the tag."""
    if mode not in ("x", "latex"):
        raise ValueError("unknown print mode %r" % mode)
    latex, memo = mode == "latex", {}
    suffix, sign = ("x", -1) if eta is None else ("eta", 1)
    der_names, inv_names = (_DER_LATEX, _DERINV_LATEX) if latex else (_DER_NAMES, _DERINV_NAMES)

    def atom(a):  # an atom not yet in the memo
        kind = a[0]
        if kind == "i":
            rows, name = terms(a[2]), inv_names[a[1] if eta is None else eta]
            text = (r"%s\!\left(%s\right)" if latex else "%s[%s]") % (name, _join_terms(rows, latex))
            return memo.setdefault(a, ((3, a[1].value, tuple((k, c) for k, c, _ in rows)), text))
        if type(kind) is str:
            key = (2, a[1], 0) if kind == "u" else ("jt".index(kind), a[1], sign * a[2])
            return memo.setdefault(a, (key, _atom_text(a, latex, suffix)))
        if kind < 3:  # D, a tagged derivation or its inverse
            text = "D" if kind == 0 else (der_names if kind == 1 else inv_names)[a[1]]
        else:  # L, R or C of a word
            text = " ".join([(memo.get(b) or atom(b))[1] for b in a[1]]) or "1"
            if kind == 3:
                text = text if len(a[1]) <= 1 else "(%s)" % text
            else:
                text = ("%s_{%s}" if latex else "%s[%s]") % ("RC"[kind - 4], text)
        return memo.setdefault(a, (op_atom_key(a), text))

    def terms(e, one="", order=None):
        """The rows of ``e``, its empty word written ``one``; sorted by key,
        or by ``order`` of their words when one is given."""
        items = e.terms.items() if order is None else sorted(e.terms.items(), key=lambda t: order(t[0]))
        rows = []
        for w, c in items:
            keys, texts = zip(*[memo.get(a) or atom(a) for a in w]) if w else ((), ())
            rows.append(((len(w), keys), c, " ".join(texts) or one))
        return sorted(rows, key=itemgetter(0)) if order is None else rows

    return terms


def print_field(e: FieldExpr, mode: str = "x") -> str:
    """Canonical text for a field expression.

    Modes: ``x`` (round-trips through ``parse_field``), ``latex``, and
    ``eta`` which displays jets of the tagged derivation instead of x-jets.
    """
    if mode == "eta":
        tag, eta = eta_coordinates(e)
        # top-level words in the order of their repr text, bodies in word_key order
        return _join_terms(_printer("x", tag)(eta, order=str), False)
    return _join_terms(_printer(mode)(e), mode == "latex")


def eta_coordinates(e: FieldExpr) -> Tuple[DerivationTag, EtaExpr]:
    """The tag whose eta jets ``e`` is written in (mirror if it holds r, else
    direct if it holds s, else its antiderivatives' tag, else plain) and
    ``e`` in them; a ValueError names an atom they cannot write."""
    symbols = e.jet_symbols()
    if "r" in symbols:
        tag = DerivationTag.MIRROR
    elif "s" in symbols:
        tag = DerivationTag.DIRECT
    else:
        tag = next((a.tag for a in e.atoms() if isinstance(a, Integral)), DerivationTag.PLAIN)
    try:
        return tag, _image(tag, EtaExpr, e)
    except _ForeignAtom as exc:
        text = _printer("x")(FieldExpr.from_atom(exc.args[0]))[0][2]
        raise ValueError("%s cannot be written in %s eta coordinates" % (text, _DER_NAMES[tag])) from None


def print_op(P: OpExpr, mode: str = "x") -> str:
    """Canonical text for an operator expression; left multiplications print
    as bare fields.  Modes: ``x`` and ``latex``."""
    return _join_terms(_printer(mode)(P, r"\mathrm{Id}" if mode == "latex" else "Id"), mode == "latex")


def print_expr(e, mode: str = "x") -> str:
    """Print either kind of expression; dispatches on the value type."""
    if isinstance(e, FieldExpr):
        return print_field(e, mode)
    if isinstance(e, OpExpr):
        return print_op(e, mode)
    raise TypeError("expected a field or operator expression")
