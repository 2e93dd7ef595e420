"""Byte-identity of ``ncburgers verify commute``, the oracle's log line included.

One SHA-256 over the exit code and standard output of every run below: both
families, every pair m < n <= 4, two oracle scenes, text and structured
output.  To recompute it, print ``_digest()``.
"""

import contextlib
import hashlib
import io

from ncburgers.cli import main

DIGEST = "d8b5e742345cb5a7972c9e6d1d2e5d2db7fa801bcb09d2804d2516633ebc13fe"


def _runs():
    for family in ("mirror", "direct"):
        for m in range(1, 4):
            for n in range(m + 1, 5):
                for fmt in ("text", "structured"):
                    yield [
                        "verify", "commute", "--family", family,
                        "--m", str(m), "--n", str(n), "--scenes", "2", "--format", fmt,
                    ]


def _digest() -> str:
    h = hashlib.sha256()
    for argv in _runs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        h.update(b"%d\n" % code + out.getvalue().encode())
    return h.hexdigest()


def test_verify_commute_digest():
    assert len(list(_runs())) == 24
    assert _digest() == DIGEST
