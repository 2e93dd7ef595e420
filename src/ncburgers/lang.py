"""Textual expression language: parser, canonical printer, LaTeX emitter.

Field grammar (juxtaposition binds tighter than + and -):

    expr    := term (("+"|"-") term)*
    term    := [rational] factor+
    factor  := atom | "(" expr ")" | "IDinv" "[" expr "]" | "DDinv" "[" expr "]"
             | "Dinv" "[" expr "]" | "D" "(" expr ")"
    atom    := ident ("_" "x"+)?

Reserved identifiers: r, s, u, uinv, v, V, W, sigma.  Operator expressions
reuse the field grammar for multiplication factors; a bare field factor
means left multiplication, matching the convention of dropping the L symbol:

    opfactor := "D" | "ID" | "DD" | "Dinv" | "IDinv" | "DDinv" | "Id"
              | "L" "[" expr "]" | "R" "[" expr "]" | "C" "[" expr "]"
              | "(" opexpr ")" | <field factor>
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .fields import (
    Context,
    DEFAULT_CONTEXT,
    DerivationTag,
    FieldExpr,
    Integral,
    InverseSymbol,
    Jet,
    Rat,
    TestField,
    d_total,
    print_word_key,
    word_key,
)
from .operators import (
    OpD,
    OpDer,
    OpDerInv,
    OpExpr,
    OpLeft,
    OpRight,
    op_comm,
    op_left,
    op_right,
    op_word_key,
)
from .reduction import EtaExpr, _ForeignAtom, _image, derinv

_DERINV_NAMES = {
    DerivationTag.MIRROR: "IDinv",
    DerivationTag.DIRECT: "DDinv",
    DerivationTag.PLAIN: "Dinv",
}
_DERINV_LATEX = {
    DerivationTag.MIRROR: r"\mathrm{ID}^{-1}",
    DerivationTag.DIRECT: r"\mathbb{D}^{-1}",
    DerivationTag.PLAIN: r"D^{-1}",
}
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


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<ident>[A-Za-z][A-Za-z0-9]*(?:_x+)?)"
    r"|(?P<punct>[+\-()\[\]]))"
)


@dataclass
class _Token:
    kind: str
    text: str
    pos: int


class _Lexer:
    def __init__(self, src: str):
        self.src = src
        self.tokens: List[_Token] = []
        pos = 0
        while pos < len(src):
            m = _TOKEN_RE.match(src, pos)
            if not m or m.end() == pos:
                rest = src[pos:].lstrip()
                if not rest:
                    break
                raise ParseError(self._diag(pos + len(src[pos:]) - len(rest), "unexpected character %r" % rest[0]))
            pos = m.end()
            for kind in ("number", "ident", "punct"):
                text = m.group(kind)
                if text is not None:
                    self.tokens.append(_Token(kind, text, m.start(kind)))
                    break
        self.index = 0

    def _diag(self, pos: int, message: str, expected: Tuple[str, ...] = ()) -> ParseDiagnostic:
        line = self.src.count("\n", 0, pos) + 1
        column = pos - (self.src.rfind("\n", 0, pos) + 1) + 1
        return ParseDiagnostic(line, column, message, expected)

    def peek(self, offset: int = 0) -> Optional[_Token]:
        i = self.index + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def next(self) -> Optional[_Token]:
        tok = self.peek()
        if tok is not None:
            self.index += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.text != text:
            pos = tok.pos if tok else len(self.src)
            raise ParseError(self._diag(pos, "unexpected %s" % (repr(tok.text) if tok else "end of input"), (text,)))
        return self.next()

    def error(self, message: str, expected: Tuple[str, ...] = ()) -> ParseError:
        tok = self.peek()
        pos = tok.pos if tok else len(self.src)
        return ParseError(self._diag(pos, message, expected))


def _split_ident(text: str) -> Tuple[str, int]:
    if "_" in text:
        stem, suffix = text.split("_", 1)
        return stem, len(suffix)
    return text, 0


def _field_atom(lx: _Lexer, ctx: Context) -> Optional[FieldExpr]:
    tok = lx.peek()
    if tok is None:
        return None
    if tok.kind == "punct" and tok.text == "(":
        return _group(lx, ctx, _field_atom, ")")
    if tok.kind != "ident":
        return None
    stem, order = _split_ident(tok.text)
    if stem in DERINV_IDENTS and order == 0:
        after = lx.peek(1)
        if after is not None and after.text == "[":
            lx.next()
            return derinv(DERINV_IDENTS[stem], _group(lx, ctx, _field_atom, "]"), ctx)
        return None
    if stem == "D" and order == 0:
        after = lx.peek(1)
        if after is not None and after.text == "(":
            lx.next()
            return d_total(_group(lx, ctx, _field_atom, ")"), ctx)
        return None
    if stem in JET_IDENTS:
        lx.next()
        return FieldExpr.from_atom(Jet(stem, order))
    if stem in TEST_IDENTS:
        lx.next()
        return FieldExpr.from_atom(TestField(stem, order))
    if stem == "uinv" and order == 0:
        lx.next()
        return FieldExpr.from_atom(InverseSymbol("u"))
    return None


def _coefficient(lx: _Lexer) -> Tuple[Fraction, bool]:
    sign = Fraction(1)
    while True:
        tok = lx.peek()
        if tok is not None and tok.text in ("+", "-"):
            if tok.text == "-":
                sign = -sign
            lx.next()
            continue
        break
    tok = lx.peek()
    if tok is not None and tok.kind == "number":
        lx.next()
        return sign * Fraction(tok.text), True
    return sign, False


def _term(lx: _Lexer, ctx: Context, factor):
    """A coefficient times the product of the factors ``factor`` parses:
    field atoms or operator factors."""
    coeff, explicit = _coefficient(lx)
    is_field = factor is _field_atom
    out = (FieldExpr.unit() if is_field else OpExpr.identity()).scale(coeff)
    found = False
    while (f := factor(lx, ctx)) is not None:
        out, found = out * f, True
    if found or explicit:
        return out
    if not is_field:
        raise lx.error("expected an operator factor", ("D", "ID", "IDinv", "L[", "identifier"))
    tok = lx.peek()
    if tok is not None and tok.kind == "ident":
        raise lx.error(
            "unknown symbol %r" % tok.text,
            tuple(sorted(JET_IDENTS) + sorted(TEST_IDENTS) + ["uinv"]),
        )
    raise lx.error("expected a field factor", ("identifier", "(", "IDinv["))


def _sum_of_terms(lx: _Lexer, ctx: Context, factor):
    acc = _term(lx, ctx, factor)
    while True:
        tok = lx.peek()
        if tok is None or tok.text not in ("+", "-"):
            return acc
        acc = acc + _term(lx, ctx, factor)


def _group(lx: _Lexer, ctx: Context, factor, close: str):
    """The sum after the opening bracket at the cursor, up to ``close``."""
    lx.next()
    inner = _sum_of_terms(lx, ctx, factor)
    lx.expect(close)
    return inner


def _parse(src: str, ctx: Context, factor, zero):
    if src.strip() == "0":
        return zero
    lx = _Lexer(src)
    out = _sum_of_terms(lx, ctx, factor)
    if lx.peek() is not None:
        raise lx.error("trailing input")
    return out


def parse_field(src: str, ctx: Context = DEFAULT_CONTEXT) -> FieldExpr:
    """Parse a field expression; unknown identifiers are an error."""
    return _parse(src, ctx, _field_atom, FieldExpr.zero())


def _op_factor(lx: _Lexer, ctx: Context) -> Optional[OpExpr]:
    tok = lx.peek()
    if tok is None:
        return None
    if tok.kind == "punct" and tok.text == "(":
        return _group(lx, ctx, _op_factor, ")")
    if tok.kind == "ident":
        stem, order = _split_ident(tok.text)
        after = lx.peek(1)
        bracketed = after is not None and after.text == "["
        if stem == "D" and order == 0 and not (after is not None and after.text == "("):
            lx.next()
            return OpExpr.from_atoms(OpD())
        if stem == "Id" and order == 0:
            lx.next()
            return OpExpr.identity()
        if stem in DER_IDENTS and order == 0:
            lx.next()
            return OpExpr.from_atoms(OpDer(DER_IDENTS[stem]))
        if stem in DERINV_IDENTS and order == 0 and not bracketed:
            lx.next()
            return OpExpr.from_atoms(OpDerInv(DERINV_IDENTS[stem]))
        if stem in ("L", "R", "C") and order == 0 and bracketed:
            lx.next()
            mult = {"L": op_left, "R": op_right, "C": op_comm}[stem]
            return mult(_group(lx, ctx, _field_atom, "]"))
    field = _field_atom(lx, ctx)
    if field is not None:
        return op_left(field)
    return None


def parse_op(src: str, ctx: Context = DEFAULT_CONTEXT) -> OpExpr:
    """Parse an operator expression; bare field factors mean left multiplication."""
    return _parse(src, ctx, _op_factor, OpExpr.zero())


# ---------------------------------------------------------------------------
# printing


def _atom_text(atom, latex: bool, suffix: str = "x") -> str:
    """One atom's text; a jet's derivative suffix is ``x`` or, in eta
    coordinates, ``eta``."""
    if isinstance(atom, (Jet, TestField)):
        name = "\\sigma" if (latex and atom[1] == "sigma") else atom[1]
        if atom.order == 0:
            return name
        if latex:
            return "%s_{%s}" % (name, suffix * atom.order)
        return "%s_%s" % (name, suffix * atom.order)
    if isinstance(atom, InverseSymbol):
        return "%s^{-1}" % atom.base if latex else "%sinv" % atom.base
    if isinstance(atom, Integral):
        inner = print_field(atom.body, "latex" if latex else "x")
        if latex:
            return r"%s\!\left(%s\right)" % (_DERINV_LATEX[atom.tag], inner)
        return "%s[%s]" % (_DERINV_NAMES[atom.tag], inner)
    raise ValueError("unknown atom %r" % (atom,))


def _coeff_text(c: Rat, latex: bool) -> str:
    if latex and c.denominator != 1:
        return r"\tfrac{%d}{%d}" % (c.numerator, c.denominator)
    return str(c)


def _join_terms(parts: List[Tuple[Rat, str]], latex: bool) -> str:
    if not parts:
        return "0"
    chunks: List[str] = []
    for i, (coeff, body) in enumerate(parts):
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        coeff_txt = "" if (mag == 1 and body) else _coeff_text(mag, latex)
        piece = (coeff_txt + " " + body).strip() if body else (coeff_txt or "1")
        if i == 0:
            chunks.append(("-" + piece) if sign == "-" else piece)
        else:
            chunks.append(sign + " " + piece)
    return " ".join(chunks)


def print_field(e: FieldExpr, mode: str = "x") -> str:
    """Canonical text for a field expression.

    Modes: ``x`` (round-trips through ``parse_field``), ``latex``, and
    ``eta`` which displays jets of the tagged derivation instead of x-jets.
    """
    if mode == "eta":
        return _print_field_eta(e)
    latex = mode == "latex"
    if mode not in ("x", "latex"):
        raise ValueError("unknown print mode %r" % mode)
    parts = []
    for word, coeff in sorted(e.terms.items(), key=lambda kv: print_word_key(kv[0])):
        body = " ".join(_atom_text(a, latex) for a in word)
        parts.append((coeff, body))
    return _join_terms(parts, latex)


def _print_field_eta(e: FieldExpr) -> str:
    symbols = e.jet_symbols()
    if "r" in symbols:
        tag = DerivationTag.MIRROR
    elif "s" in symbols:
        tag = DerivationTag.DIRECT
    else:  # neither r nor s: the tag of its antiderivatives, else plain
        tag = next((a.tag for a in e.atoms() if isinstance(a, Integral)), DerivationTag.PLAIN)
    try:
        eta = _image(tag, EtaExpr, e)
    except _ForeignAtom as exc:
        raise ValueError(
            "%s cannot be written in %s eta coordinates"
            % (_atom_text(exc.args[0], False), _DER_NAMES[tag])
        ) from None

    def atom_text(a) -> str:
        if not isinstance(a, Integral):
            return _atom_text(a, False, "eta")
        terms = sorted(a.body.terms.items(), key=lambda kv: word_key(kv[0]))
        inner = _join_terms([(c, " ".join(map(atom_text, w))) for w, c in terms], False)
        return "%s[%s]" % (_DERINV_NAMES[tag], inner)

    parts = []
    for word, coeff in sorted(eta.terms.items(), key=lambda kv: str(kv[0])):
        parts.append((coeff, " ".join(atom_text(a) for a in word)))
    return _join_terms(parts, False)


def _op_atom_text(atom, latex: bool) -> str:
    if isinstance(atom, OpD):
        return "D"
    if isinstance(atom, OpDer):
        return _DER_LATEX[atom.tag] if latex else _DER_NAMES[atom.tag]
    if isinstance(atom, OpDerInv):
        return _DERINV_LATEX[atom.tag] if latex else _DERINV_NAMES[atom.tag]
    word_txt = " ".join(_atom_text(a, latex) for a in atom.word) or "1"
    if isinstance(atom, OpLeft):
        return word_txt if len(atom.word) <= 1 else "(%s)" % word_txt
    tagchar = "R" if isinstance(atom, OpRight) else "C"
    if latex:
        return r"%s_{%s}" % (tagchar, word_txt)
    return "%s[%s]" % (tagchar, word_txt)


def print_op(P: OpExpr, mode: str = "x") -> str:
    """Canonical text for an operator expression; left multiplications print
    as bare fields."""
    latex = mode == "latex"
    parts = []
    for word, coeff in sorted(P.terms.items(), key=lambda kv: op_word_key(kv[0])):
        body = " ".join(_op_atom_text(a, latex) for a in word)
        if not body:
            body = r"\mathrm{Id}" if latex else "Id"
        parts.append((coeff, body))
    return _join_terms(parts, latex)


def print_expr(e, mode: str = "x") -> str:
    """Print either kind of expression; dispatches on the value type."""
    if isinstance(e, FieldExpr):
        return print_field(e, mode)
    if isinstance(e, OpExpr):
        return print_op(e, mode)
    raise TypeError("expected a field or operator expression")
