"""Independent validation by exact matrix instantiation.

Symbols are assigned square-matrix-valued polynomials in x with exact
rational entries; jets evaluate through one closed form for polynomial
derivatives, once per distinct atom per call, and words to matrix products.
The products run on integer matrices that share one positive denominator:
a word's value is the product of its atoms' integer matrices over the
product of their denominators, and a sum is kept over the lcm of its terms'
denominators, so ``Fraction`` entries are built only for a returned value.
Directional derivatives use dual numbers a + eps b as pairs (a, b), with
(a, b)(c, d) = (ac, ad + bc).  A symbolic zero must then evaluate to the
zero matrix in every scene, with no tolerance.  A separate floating-point
check feeds an explicit matrix heat-equation solution through the Cole-Hopf
map and measures the residual of the mirror Burgers equation on a grid;
only it needs numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, perm
from operator import mul
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .fields import DEFAULT_CONTEXT, Atom, FieldExpr, Jet, Rat, TestField
from .variational import lie_bracket_halves

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


def int_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


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


def _atom_symbol(atom: Atom) -> str:
    if isinstance(atom, (Jet, TestField)):
        return atom[1]
    raise ValueError("matrix evaluation is defined only for local expressions")


def _eval_int(e: FieldExpr, scene: MatrixScene, x0: Fraction) -> Tuple[List[List[int]], int]:
    """``eval_field`` as (integer matrix, denominator): each distinct atom
    goes once through ``scene.jet_value``, a word is the product of its
    atoms' integer matrices over the product of their denominators."""
    values: Dict[Atom, Tuple[IntMatrix, int]] = {}
    d = scene.dim
    acc = [[0] * d for _ in range(d)]
    den = 1
    for word, coeff in e.terms.items():
        prod, prod_den = None, 1
        for atom in word:
            value = values.get(atom)
            if value is None:
                value = values[atom] = scene.jet_value(_atom_symbol(atom), atom.order, x0)
            prod = value[0] if prod is None else int_mul(prod, value[0])
            prod_den *= value[1]
        if prod is None:
            prod = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        den = int_add_into(acc, den, prod, prod_den, coeff)
    return acc, den


def eval_field(e: FieldExpr, scene: MatrixScene, x0: Fraction) -> Matrix:
    """Exact matrix value of an antiderivative-free field expression."""
    return int_to_fractions(*_eval_int(e, scene, x0))


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
            (va, da), (vb, db) = _eval_int(a, scene, x0), _eval_int(b, scene, x0)
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


def check_commute(
    K: FieldExpr, G: FieldExpr, base: str, scenes: Sequence[MatrixScene]
) -> ZeroCheckReport:
    """Exact test that the flows K and G commute: the halves K'[G] and G'[K]
    of their Lie bracket are evaluated separately and compared, so the
    verdict does not depend on the symbolic reducer."""
    return check_equal(*lie_bracket_halves(K, G, base, DEFAULT_CONTEXT), scenes)


def default_scenes(count: int = 10, dim: int = 3, degree: int = 2) -> List[MatrixScene]:
    return [make_scene(seed, dim, degree) for seed in range(1, count + 1)]


# ---------------------------------------------------------------------------
# dual-number (nilpotent) directional derivative


def eval_frechet_dual(
    K: FieldExpr, scene: MatrixScene, base: str, direction: str, x0: Fraction
) -> Matrix:
    """Exact directional derivative of K at the scene's base assignment
    along the scene's direction assignment, via nilpotent dual numbers
    (epsilon^2 = 0): the epsilon coefficient of K(base + epsilon*dir).  A
    dual number a + epsilon b is a pair of integer matrices over one
    denominator, multiplied as (a, b)(c, d) = (ac, ad + bc)."""
    # atom -> (a, b or None where b is zero, denominator)
    values: Dict[Atom, Tuple[IntMatrix, Optional[IntMatrix], int]] = {}
    d = scene.dim
    acc = [[0] * d for _ in range(d)]
    den = 1
    for word, coeff in K.terms.items():
        factors = []
        for atom in word:
            value = values.get(atom)
            if value is None:
                name = _atom_symbol(atom)
                a, a_den = scene.jet_value(name, atom.order, x0)
                if isinstance(atom, Jet) and name == base:
                    b, b_den = scene.jet_value(direction, atom.order, x0)
                    ab_den = lcm(a_den, b_den)
                    value = (_int_scale(a, ab_den // a_den), _int_scale(b, ab_den // b_den), ab_den)
                else:
                    value = (a, None, a_den)
                values[atom] = value
            factors.append(value)
        if all(b is None for _, b, _ in factors):
            continue  # no epsilon part
        p, q, prod_den = factors[0]
        last = len(factors) - 1
        for i, (a, b, a_den) in enumerate(factors[1:], 1):
            q = None if q is None else int_mul(q, a)
            if b is not None:
                pb = int_mul(p, b)
                q = pb if q is None else tuple(
                    [tuple([x + y for x, y in zip(rq, rp)]) for rq, rp in zip(q, pb)]
                )
            if i < last:  # the last a-part is not needed
                p = int_mul(p, a)
            prod_den *= a_den
        den = int_add_into(acc, den, q, prod_den, coeff)
    return int_to_fractions(acc, den)


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


def scene_from_text(text: str) -> MatrixScene:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "ncburgers-scene v1":
        raise ValueError("not a scene document (missing 'ncburgers-scene v1' header)")
    seed = dim = degree = None
    points: Tuple[Fraction, ...] = ()
    polys: Dict[str, Dict[int, List[Tuple[Fraction, ...]]]] = {}
    current: Tuple[str, int] = ("", -1)
    for ln in lines[1:]:
        stripped = ln.strip()
        head = stripped.split()
        if head[0] == "seed":
            seed = int(head[1])
        elif head[0] == "dim":
            dim = int(head[1])
        elif head[0] == "degree":
            degree = int(head[1])
        elif head[0] == "points":
            points = tuple(Fraction(tok) for tok in head[1:])
        elif head[0] == "poly":
            current = (head[1], int(head[2]))
            polys.setdefault(current[0], {})[current[1]] = []
        else:
            polys[current[0]][current[1]].append(tuple(Fraction(tok) for tok in head))
    if seed is None or dim is None or degree is None:
        raise ValueError("scene document missing seed/dim/degree")
    assignment = {}
    for name, by_power in polys.items():
        assignment[name] = tuple(
            tuple(by_power[k]) for k in range(max(by_power) + 1)
        )
    return MatrixScene(seed, dim, degree, assignment, points)


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
