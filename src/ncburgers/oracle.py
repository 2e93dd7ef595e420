"""Independent validation by exact matrix instantiation.

Symbols are assigned square-matrix-valued polynomials in x with exact
rational entries.  One pass evaluates a field expression in a scene: each
distinct atom goes once per call through one closed form for polynomial
derivatives, and words become matrix products.  The pass carries dual
numbers a + eps b as pairs (a, b), with (a, b)(c, d) = (ac, ad + bc), where
b is nonzero only for the jets of the symbol a directional derivative is
taken along; it returns the value and the eps part side by side.  The
products run on integer matrices that share one positive denominator: a
word's value is the product of its atoms' integer matrices over the product
of their denominators, and a sum is kept over the lcm of its terms'
denominators, so ``Fraction`` entries are built only for a returned value.
The d x d product is written out entry by entry, compiled once per
dimension from its source text, and stays exact integer arithmetic.
A symbolic zero must then evaluate to the zero matrix in every scene, with
no tolerance.  A separate floating-point check feeds an explicit matrix
heat-equation solution through the Cole-Hopf map and measures the residual
of the mirror Burgers equation on a grid; only it needs numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, perm
from operator import mul
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from .fields import Atom, FieldExpr, Jet, Rat, TestField

if TYPE_CHECKING:  # numpy is imported only by the floating-point check below
    import numpy as np

Matrix = Tuple[Tuple[Fraction, ...], ...]
MatPoly = Tuple[Matrix, ...]  # coefficient matrices, lowest power first

SCENE_SYMBOLS = ("r", "s", "u", "v", "V", "W", "sigma")


# ---------------------------------------------------------------------------
# exact integer kernel: a rational matrix is an integer matrix over one
# positive denominator, and Fractions are built only at the public boundary

IntMatrix = Tuple[Tuple[int, ...], ...]


def int_clear(m: Matrix) -> Tuple[IntMatrix, int]:
    """``m`` as (integer matrix, denominator), the denominator being the
    lcm of the entries' denominators."""
    den = lcm(*(x.denominator for row in m for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in m), den


_INT_MUL: Dict[int, Callable[[IntMatrix, IntMatrix], IntMatrix]] = {}


def int_mul_kernel(d: int) -> Callable[[IntMatrix, IntMatrix], IntMatrix]:
    """The product of two d x d integer matrices with every entry written
    out, ``a0_0 * b0_1 + a0_1 * b1_1 + ...``, compiled from its source text
    the first time dimension d is asked for.  Every row and matrix tuple
    ends in a comma, so at d = 1 the names unpack the entry, not the row."""
    kernel = _INT_MUL.get(d)
    if kernel is None:
        def matrix(entry: Callable[[int, int], str]) -> str:
            return "(%s)" % "".join(
                "(%s,), " % ", ".join(entry(i, j) for j in range(d)) for i in range(d)
            )

        source = "def int_mul(a, b):\n    %s = a\n    %s = b\n    return %s\n" % (
            matrix("a{}_{}".format),
            matrix("b{}_{}".format),
            matrix(lambda i, j: " + ".join("a%d_%d * b%d_%d" % (i, k, k, j) for k in range(d))),
        )
        namespace: Dict[str, Callable] = {}
        exec(source, namespace)
        kernel = _INT_MUL[d] = namespace["int_mul"]
    return kernel


def _int_scale(m: IntMatrix, k: int) -> IntMatrix:
    return m if k == 1 else tuple([tuple([k * x for x in row]) for row in m])


def int_add_into(acc: List[List[int]], den: int, m: IntMatrix, m_den: int, coeff: Rat) -> int:
    """Add ``coeff * m / m_den`` to the matrix ``acc / den`` in place and
    return the new denominator, the lcm of ``den`` and the term's."""
    m_den *= coeff.denominator
    new_den = lcm(den, m_den)
    if new_den != den:
        grow = new_den // den
        for row in acc:
            row[:] = [x * grow for x in row]
    factor = coeff.numerator * (new_den // m_den)
    for row, mrow in zip(acc, m):
        row[:] = [x + factor * y for x, y in zip(row, mrow)]
    return new_den


def int_to_fractions(m: Sequence[Sequence[int]], den: int) -> Matrix:
    return tuple(tuple(Fraction(x, den) for x in row) for row in m)


@dataclass(frozen=True)
class MatrixScene:
    """Exact assignment of every symbol to a matrix polynomial in x."""

    seed: int
    dim: int
    degree: int
    assignment: Dict[str, MatPoly]
    points: Tuple[Fraction, ...]

    @cached_property
    def _cleared(self) -> Dict[str, Tuple[Tuple[IntMatrix, ...], int]]:
        """Each symbol's coefficient matrices as integer matrices over one
        denominator."""
        out = {}
        d = self.dim
        for name, poly in self.assignment.items():
            ints, den = int_clear(tuple(row for coeff in poly for row in coeff))
            out[name] = (tuple(ints[k * d:(k + 1) * d] for k in range(len(poly))), den)
        return out

    def jet_value(self, symbol: str, order: int, x0: Fraction) -> Tuple[IntMatrix, int]:
        """The ``order``-th x-derivative at x0 as (integer matrix, least
        denominator): the sum over k >= order of k!/(k-order)! x0^(k-order)
        C_k, zero when order exceeds the degree."""
        coeffs, den = self._cleared[symbol]
        top = len(coeffs) - 1
        if order > top:
            return tuple((0,) * self.dim for _ in range(self.dim)), 1
        # x0^(k-order) = p^(k-order) q^(top-k) / q^(top-order) for x0 = p/q
        p, q = x0.numerator, x0.denominator
        weights = [perm(k, order) * p ** (k - order) * q ** (top - k) for k in range(order, top + 1)]
        den *= q ** (top - order)
        m = [[sum(map(mul, weights, entry)) for entry in zip(*rows)] for rows in zip(*coeffs[order:])]
        g = gcd(den, *(x for row in m for x in row))
        return tuple([tuple([x // g for x in row]) for row in m]), den // g


def make_scene(seed: int, dim: int = 3, degree: int = 2) -> MatrixScene:
    """Deterministic pseudo-random scene; entries are rationals in [-5, 5]
    with denominator at most 4."""
    if dim < 2:
        raise ValueError("non-commutativity needs dimension >= 2")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    rng = random.Random(seed)

    def entry() -> Fraction:
        den = rng.randint(1, 4)
        num = rng.randint(-5 * den, 5 * den)
        return Fraction(num, den)

    def poly() -> MatPoly:
        return tuple(
            tuple(tuple(entry() for _ in range(dim)) for _ in range(dim))
            for _ in range(degree + 1)
        )

    assignment = {name: poly() for name in SCENE_SYMBOLS}
    points = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3))
    return MatrixScene(seed, dim, degree, assignment, points)


def _eval_pass(
    e: FieldExpr, scene: MatrixScene, x0: Fraction, base: str = "", direction: str = ""
) -> Tuple[List[List[int]], int, List[List[int]], int]:
    """The value of ``e`` and the epsilon part of ``e(base + epsilon*direction)``
    as (integer matrix, denominator) each.  Every distinct atom goes once
    through ``scene.jet_value`` to (a, b, denominator), b being None unless
    the atom is a jet of ``base``; a word multiplies these dual pairs as
    (a, b)(c, d) = (ac, ad + bc)."""
    values: Dict[Atom, Tuple[IntMatrix, Optional[IntMatrix], int]] = {}
    d = scene.dim
    times = int_mul_kernel(d)
    acc, eps = [[0] * d for _ in range(d)], [[0] * d for _ in range(d)]
    den = eps_den = 1
    for word, coeff in e.terms.items():
        p = q = None
        prod_den = 1
        for atom in word:
            value = values.get(atom)
            if value is None:
                if not isinstance(atom, (Jet, TestField)):
                    raise ValueError("matrix evaluation is defined only for local expressions")
                a, a_den = scene.jet_value(atom[1], atom.order, x0)
                if isinstance(atom, Jet) and atom[1] == base:
                    b, b_den = scene.jet_value(direction, atom.order, x0)
                    ab_den = lcm(a_den, b_den)
                    value = (_int_scale(a, ab_den // a_den), _int_scale(b, ab_den // b_den), ab_den)
                else:
                    value = (a, None, a_den)
                values[atom] = value
            a, b, a_den = value
            if p is None:
                p, q = a, b
            else:
                q = None if q is None else times(q, a)
                if b is not None:
                    pb = times(p, b)
                    q = pb if q is None else tuple(
                        [tuple([x + y for x, y in zip(rq, rp)]) for rq, rp in zip(q, pb)]
                    )
                p = times(p, a)
            prod_den *= a_den
        if p is None:
            p = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        den = int_add_into(acc, den, p, prod_den, coeff)
        if q is not None:
            eps_den = int_add_into(eps, eps_den, q, prod_den, coeff)
    return acc, den, eps, eps_den


def eval_field(e: FieldExpr, scene: MatrixScene, x0: Fraction) -> Matrix:
    """Exact matrix value of an antiderivative-free field expression."""
    return int_to_fractions(*_eval_pass(e, scene, x0)[:2])


def eval_frechet_dual(
    K: FieldExpr, scene: MatrixScene, base: str, direction: str, x0: Fraction
) -> Matrix:
    """Exact directional derivative of K at the scene's base assignment
    along the scene's direction assignment: the epsilon coefficient of
    K(base + epsilon*dir), with epsilon^2 = 0."""
    return int_to_fractions(*_eval_pass(K, scene, x0, base, direction)[2:])


@dataclass
class ZeroCheckReport:
    passed: bool
    scenes: int
    points: int
    first_failure: str = ""


def check_equal(a: FieldExpr, b: FieldExpr, scenes: Sequence[MatrixScene]) -> ZeroCheckReport:
    """Exact test that ``a`` and ``b`` take the same matrix value in every
    scene at every evaluation point; with no point to evaluate it raises
    ``ValueError`` rather than pass."""
    points = 0
    for scene in scenes:
        for x0 in scene.points:
            points += 1
            (va, da), (vb, db) = _eval_pass(a, scene, x0)[:2], _eval_pass(b, scene, x0)[:2]
            if any(x * db != y * da for ra, rb in zip(va, vb) for x, y in zip(ra, rb)):
                return ZeroCheckReport(
                    False,
                    len(scenes),
                    points,
                    "seed=%d x0=%s" % (scene.seed, x0),
                )
    if not points:
        raise ValueError("the oracle needs at least one scene point")
    return ZeroCheckReport(True, len(scenes), points)


def check_zero(e: FieldExpr, scenes: Sequence[MatrixScene]) -> ZeroCheckReport:
    """Exact zero test over every scene and evaluation point."""
    return check_equal(e, FieldExpr.zero(), scenes)


def default_scenes(count: int = 10, dim: int = 3, degree: int = 2) -> List[MatrixScene]:
    return [make_scene(seed, dim, degree) for seed in range(1, count + 1)]


# ---------------------------------------------------------------------------
# scene serialization (stable text format)


def scene_to_text(scene: MatrixScene) -> str:
    lines = [
        "ncburgers-scene v1",
        "seed %d" % scene.seed,
        "dim %d" % scene.dim,
        "degree %d" % scene.degree,
        "points " + " ".join(str(p) for p in scene.points),
    ]
    for name in sorted(scene.assignment):
        poly = scene.assignment[name]
        for k, coeff in enumerate(poly):
            lines.append("poly %s %d" % (name, k))
            for row in coeff:
                lines.append("  " + " ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def rational_from_text(text: str) -> Fraction:
    """The rational number written ``text``, such as ``-3/4``; a zero
    denominator raises ``ValueError`` like any other malformed number."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def scene_from_text(text: str) -> MatrixScene:
    """Parse a ``scene_to_text`` document.  Every symbol of ``SCENE_SYMBOLS``
    needs one dim x dim coefficient block, dim >= 1, for each power
    0..degree; a document that breaks this raises ``ValueError``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "ncburgers-scene v1":
        raise ValueError("not a scene document (missing 'ncburgers-scene v1' header)")
    header: Dict[str, int] = {}
    points: Tuple[Fraction, ...] = ()
    polys: Dict[str, Dict[int, List[Tuple[Fraction, ...]]]] = {}
    rows: Optional[List[Tuple[Fraction, ...]]] = None
    for ln in lines[1:]:
        head = ln.split()
        if head[0] in ("seed", "dim", "degree") and len(head) == 2:
            header[head[0]] = int(head[1])
        elif head[0] == "points":
            points = tuple(map(rational_from_text, head[1:]))
        elif head[0] == "poly" and len(head) == 3:
            rows = polys.setdefault(head[1], {})[int(head[2])] = []
        elif rows is None:
            raise ValueError("matrix row %r before any 'poly' line" % ln.strip())
        else:
            rows.append(tuple(map(rational_from_text, head)))
    if len(header) < 3:
        raise ValueError("scene document missing seed/dim/degree")
    dim, degree = header["dim"], header["degree"]
    if dim < 1:
        raise ValueError("scene dimension must be at least 1, not %d" % dim)
    for name in SCENE_SYMBOLS:
        if name not in polys:
            raise ValueError("scene document has no 'poly %s' block" % name)
    assignment = {}
    for name, by_power in polys.items():
        if sorted(by_power) != list(range(degree + 1)):
            raise ValueError("poly %s must have the powers 0..%d" % (name, degree))
        for k, block in by_power.items():
            if len(block) != dim or any(len(row) != dim for row in block):
                raise ValueError("poly %s %d is not a %dx%d matrix" % (name, k, dim, dim))
        assignment[name] = tuple(tuple(by_power[k]) for k in range(degree + 1))
    return MatrixScene(header["seed"], dim, degree, assignment, points)


# ---------------------------------------------------------------------------
# Cole-Hopf numeric check


@dataclass
class CHSolution:
    """u(x,t) = I + sum_i A_i exp(k_i x + c_i t) with time rates c_i, by
    default c_i = k_i^2, which makes u a heat-equation solution."""

    dim: int
    amplitudes: List[np.ndarray]
    wave_numbers: List[Fraction]
    rates: Optional[List[Fraction]] = None

    def __post_init__(self):
        import numpy as np

        if len(self.amplitudes) != len(self.wave_numbers):
            raise ValueError("one wave number per amplitude matrix")
        if self.rates is None:
            self.rates = [k * k for k in self.wave_numbers]
        elif len(self.rates) != len(self.wave_numbers):
            raise ValueError("one time rate per wave number")
        self.amplitudes = [np.asarray(a, dtype=float) for a in self.amplitudes]

    def heat_residual_exact(self) -> bool:
        """u_t - u_xx vanishes identically: the coefficient of each
        exponential is A_i (c_i - k_i^2), compared exactly."""
        return all(c == k * k for k, c in zip(self.wave_numbers, self.rates))

    def derivative(self, x: float, t: float, dx: int, dt: int) -> np.ndarray:
        import numpy as np

        out = np.eye(self.dim) if dx == 0 and dt == 0 else np.zeros((self.dim, self.dim))
        for a, k, c in zip(self.amplitudes, self.wave_numbers, self.rates):
            kf, cf = float(k), float(c)
            out = out + a * kf ** dx * cf ** dt * np.exp(kf * x + cf * t)
        return out


@dataclass
class CHResidualReport:
    max_residual: float
    heat_exact: bool
    grid: Tuple[int, int]


def cole_hopf_numeric(
    sol: CHSolution, xs: Sequence[float], ts: Sequence[float]
) -> CHResidualReport:
    """Maximum residual of r_t - r_xx - 2 r_x r with r = u_x u^-1 over the
    grid, computed from closed-form x- and t-derivatives of u."""
    import numpy as np

    if len(xs) == 0 or len(ts) == 0:
        raise ValueError("the Cole-Hopf check needs a nonempty grid")
    worst = 0.0
    for x in xs:
        for t in ts:
            u = sol.derivative(x, t, 0, 0)
            det = np.linalg.det(u)
            if abs(det) < 1e-12:
                raise ValueError("u is singular at grid point (x=%g, t=%g)" % (x, t))
            uinv_m = np.linalg.inv(u)
            ux = sol.derivative(x, t, 1, 0)
            uxx = sol.derivative(x, t, 2, 0)
            uxxx = sol.derivative(x, t, 3, 0)
            r = ux @ uinv_m
            uxx_uinv = uxx @ uinv_m
            r_x = uxx_uinv - r @ r
            r_xx = uxxx @ uinv_m - uxx_uinv @ r - r_x @ r - r @ r_x
            r_t = (sol.derivative(x, t, 1, 1) - r @ sol.derivative(x, t, 0, 1)) @ uinv_m
            residual = r_t - r_xx - 2.0 * (r_x @ r)
            worst = max(worst, float(np.max(np.abs(residual))))
    return CHResidualReport(worst, sol.heat_residual_exact(), (len(xs), len(ts)))
