"""Independent validation by exact matrix instantiation.

Symbols are assigned square-matrix-valued polynomials in x with exact
rational entries; jets evaluate through one closed form for polynomial
derivatives, once per distinct atom per call, and words to matrix products.
Directional derivatives use dual numbers a + eps b as block matrices
[[a, b], [0, a]].  A symbolic zero must then evaluate to the zero matrix in
every scene, with no tolerance.  A separate floating-point check feeds an
explicit matrix heat-equation solution through the Cole-Hopf map and
measures the residual of the mirror Burgers equation on a grid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import perm
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fields import DEFAULT_CONTEXT, Atom, FieldExpr, Jet, TestField
from .variational import lie_bracket_halves

Matrix = Tuple[Tuple[Fraction, ...], ...]
MatPoly = Tuple[Matrix, ...]  # coefficient matrices, lowest power first

SCENE_SYMBOLS = ("r", "s", "u", "v", "V", "W", "sigma")


def mat_zero(d: int) -> Matrix:
    return tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d))


def mat_eye(d: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(d)) for i in range(d)
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c: Fraction) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_is_zero(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


@dataclass(frozen=True)
class MatrixScene:
    """Exact assignment of every symbol to a matrix polynomial in x."""

    seed: int
    dim: int
    degree: int
    assignment: Dict[str, MatPoly]
    points: Tuple[Fraction, ...]

    def jet_value(self, symbol: str, order: int, x0: Fraction) -> Matrix:
        """The ``order``-th x-derivative at x0: the sum over k >= order of
        k!/(k-order)! x0^(k-order) C_k, zero when order exceeds the degree."""
        acc = mat_zero(self.dim)
        for k, coeff in enumerate(self.assignment[symbol][order:], order):
            acc = mat_add(acc, mat_scale(coeff, perm(k, order) * x0 ** (k - order)))
        return acc


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


def _eval_words(e: FieldExpr, dim: int, atom_value: Callable[[Atom, str], Matrix]) -> Matrix:
    """Sum of coeff * product of ``atom_value(atom, scene symbol)`` over the
    words of ``e``, calling ``atom_value`` once per distinct atom."""
    values: Dict[Atom, Matrix] = {}
    acc = mat_zero(dim)
    for word, coeff in e.terms.items():
        factors = []
        for atom in word:
            value = values.get(atom)
            if value is None:
                if isinstance(atom, Jet):
                    value = atom_value(atom, atom.symbol)
                elif isinstance(atom, TestField):
                    value = atom_value(atom, atom.name)
                else:
                    raise ValueError("matrix evaluation is defined only for local expressions")
                values[atom] = value
            factors.append(value)
        product = reduce(mat_mul, factors) if factors else mat_eye(dim)
        acc = mat_add(acc, mat_scale(product, coeff))
    return acc


def eval_field(e: FieldExpr, scene: MatrixScene, x0: Fraction) -> Matrix:
    """Exact matrix value of an antiderivative-free field expression."""
    return _eval_words(e, scene.dim, lambda atom, name: scene.jet_value(name, atom.order, x0))


@dataclass
class ZeroCheckReport:
    passed: bool
    scenes: int
    points: int
    first_failure: str = ""


def check_equal(a: FieldExpr, b: FieldExpr, scenes: Sequence[MatrixScene]) -> ZeroCheckReport:
    """Exact test that ``a`` and ``b`` take the same matrix value in every
    scene at every evaluation point."""
    points = 0
    for scene in scenes:
        for x0 in scene.points:
            points += 1
            if eval_field(a, scene, x0) != eval_field(b, scene, x0):
                return ZeroCheckReport(
                    False,
                    len(scenes),
                    points,
                    "seed=%d x0=%s" % (scene.seed, x0),
                )
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
    (epsilon^2 = 0): the epsilon coefficient of K(base + epsilon*dir), the
    top-right block when a + epsilon b is the block matrix [[a, b], [0, a]]."""
    d = scene.dim
    zero = mat_zero(d)

    def atom_value(atom: Atom, name: str) -> Matrix:
        a = scene.jet_value(name, atom.order, x0)
        perturbed = isinstance(atom, Jet) and name == base
        b = scene.jet_value(direction, atom.order, x0) if perturbed else zero
        return tuple(ra + rb for ra, rb in zip(a, b)) + tuple(rz + ra for rz, ra in zip(zero, a))

    value = _eval_words(K, 2 * d, atom_value)
    return tuple(row[d:] for row in value[:d])


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
