"""Byte-identity of the CLI runs that read the Cole-Hopf identities, the
printed spellings of the derivations and the parse of a literal zero.

One SHA-256 over the argv, exit code, standard output and standard error of
every run below: ``verify strong-symmetry`` for members 1-6,
``verify hereditary`` at nesting depths 4 and 1, ``verify cole-hopf`` in both
output formats, ``hierarchy`` in every form for all three families, and
``reduce --commutative`` on the named operators and on texts with a literal
zero, in text and LaTeX.  To recompute it, print ``_digest()``.
"""

import contextlib
import hashlib
import io

from ncburgers.cli import main

DIGEST = "7fb3df85c779049663ffca6942675f299e3fa555de44b7652637271c264bfcc4"

REDUCE_TEXTS = ("PHI", "PSI", "0", "D(r s) + 0 r", "L[r] IDinv R[r_x]")


def _runs():
    for family in ("mirror", "direct"):
        for n in range(1, 7):
            yield ["verify", "strong-symmetry", "--family", family, "--member", str(n), "--format", "structured"]
        for depth in ("4", "1"):
            yield ["verify", "hereditary", "--family", family, "--ibp-depth", depth, "--format", "structured"]
        for fmt in ("text", "structured"):
            yield ["verify", "cole-hopf", "--family", family, "--format", fmt]
    for family in ("mirror", "direct", "heat"):
        for order in range(1, 6):
            base = ["hierarchy", "--family", family, "--order", str(order)]
            yield base
            yield base + ["--coords", "eta"]
            yield base + ["--format", "latex"]
            yield base + ["--format", "structured"]
    for text in REDUCE_TEXTS:
        for fmt in ("text", "latex"):
            yield ["reduce", "--commutative", "--expr", text, "--format", fmt]


def _digest() -> str:
    h = hashlib.sha256()
    for argv in _runs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        h.update(("%r\n%d\n" % (argv, code)).encode() + out.getvalue().encode() + b"\0" + err.getvalue().encode())
    return h.hexdigest()


def test_cli_digest():
    assert len(list(_runs())) == 90
    assert _digest() == DIGEST
