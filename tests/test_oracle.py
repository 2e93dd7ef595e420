from fractions import Fraction
from math import perm

import numpy as np
import pytest

from ncburgers.fields import test as tfield

from ncburgers.fields import DerivationTag, FieldExpr, Jet, jet, normal_field
from ncburgers.hierarchy import EquationFamily, hierarchy_member
from ncburgers.oracle import (
    SCENE_SYMBOLS,
    CHSolution,
    MatrixScene,
    check_equal,
    check_zero,
    cole_hopf_numeric,
    default_scenes,
    eval_field,
    eval_frechet_dual,
    int_add_kernel,
    int_mul_kernel,
    int_to_fractions,
    make_scene,
    scene_from_text,
    scene_to_text,
)
from ncburgers.reduction import derinv
from ncburgers.variational import lie_bracket, lie_bracket_halves

from conftest import random_field

M = DerivationTag.MIRROR
r, rx = jet("r"), jet("r", 1)


# the plain Fraction matrix arithmetic the reference values are computed with,
# independent of the engine's integer kernel


def mat_zero(d):
    return tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d))


def mat_eye(d):
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(d)) for i in range(d)
    )


def mat_scale(a, c):
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_is_zero(a):
    return all(x == 0 for row in a for x in row)


def test_make_scene_deterministic():
    assert make_scene(1, 2, 1) == make_scene(1, 2, 1)


def test_make_scene_distinct_across_seeds():
    scenes = {scene_to_text(make_scene(k, 3, 2)) for k in range(1, 21)}
    assert len(scenes) == 20


def test_make_scene_bounds():
    with pytest.raises(ValueError):
        make_scene(1, 1, 1)
    with pytest.raises(ValueError):
        make_scene(1, 2, 0)
    scene = make_scene(5, 2, 2)
    for poly in scene.assignment.values():
        for coeff in poly:
            for row in coeff:
                for x in row:
                    assert abs(x) <= 5 and x.denominator <= 4


def test_eval_field_detects_noncommutativity():
    e = r * rx - rx * r
    report = check_zero(e, default_scenes(5))
    assert not report.passed
    assert "seed=" in report.first_failure


def test_eval_field_zero_expression():
    scene = make_scene(2, 2, 1)
    assert mat_is_zero(eval_field(FieldExpr.zero(), scene, Fraction(1)))
    # a jet of order above the scene degree is the zero matrix
    assert mat_is_zero(eval_field(jet("r", 2), scene, Fraction(1)))
    assert mat_is_zero(eval_frechet_dual(jet("r", 2), scene, "r", "V", Fraction(1)))


def test_eval_values_each_distinct_atom_once(monkeypatch):
    calls = []
    jet_value = MatrixScene.jet_value

    def counting(self, symbol, order, x0):
        calls.append((symbol, order))
        return jet_value(self, symbol, order, x0)

    monkeypatch.setattr(MatrixScene, "jet_value", counting)
    scene = make_scene(4, 2, 2)
    e = r * rx * r + rx * rx - tfield("V") * r
    eval_field(e, scene, Fraction(1))
    assert sorted(calls) == [("V", 0), ("r", 0), ("r", 1)]


def test_eval_field_rejects_nonlocal():
    scene = make_scene(2, 2, 1)
    with pytest.raises(ValueError):
        eval_field(derinv(M, tfield("sigma")), scene, Fraction(0))


def test_eval_homomorphism():
    import random

    rng = random.Random(61)
    scene = make_scene(3, 2, 2)
    for _ in range(25):
        a = random_field(rng, symbols=("r", "s"), tests=("V",))
        b = random_field(rng, symbols=("r", "s"), tests=("V",))
        for x0 in scene.points:
            va, vb = eval_field(a, scene, x0), eval_field(b, scene, x0)
            assert eval_field(a * b, scene, x0) == mat_mul(va, vb)
            assert eval_field(normal_field(a), scene, x0) == va


def _reference_jet(scene, name, order, x0):
    """Fraction polynomial derivative: sum of k!/(k-order)! x0^(k-order) C_k."""
    acc = mat_zero(scene.dim)
    for k, coeff in enumerate(scene.assignment[name]):
        if k >= order:
            acc = _add(acc, mat_scale(coeff, perm(k, order) * x0 ** (k - order)))
    return acc


def _add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _reference_word(word, scene, x0, replace=None):
    """Plain Fraction product of the word's jet values; ``replace`` maps a
    position to the symbol evaluated there instead."""
    m = mat_eye(scene.dim)
    for i, atom in enumerate(word):
        name = atom.symbol if isinstance(atom, Jet) else atom.name
        m = mat_mul(m, _reference_jet(scene, (replace or {}).get(i, name), atom.order, x0))
    return m


def _reference_field(e, scene, x0):
    acc = mat_zero(scene.dim)
    for word, coeff in e.terms.items():
        acc = _add(acc, mat_scale(_reference_word(word, scene, x0), coeff))
    return acc


def _reference_frechet(e, scene, base, direction, x0):
    """Product rule: each base jet in turn replaced by the direction's."""
    acc = mat_zero(scene.dim)
    for word, coeff in e.terms.items():
        for i, atom in enumerate(word):
            if isinstance(atom, Jet) and atom.symbol == base:
                value = _reference_word(word, scene, x0, {i: direction})
                acc = _add(acc, mat_scale(value, coeff))
    return acc


REFERENCE_SCENES = [make_scene(40 + k, dim, degree)
                    for k, (dim, degree) in enumerate((d, g) for d in (2, 3, 4) for g in (1, 2, 3))]


def _dim1_scene():
    """A 1 x 1 scene of degree 2: ``make_scene`` refuses dimension 1, but a
    scene document may have it."""
    import random

    rng = random.Random(97)

    def poly():
        return tuple(((Fraction(rng.randint(-20, 20), rng.randint(1, 6)),),) for _ in range(3))

    points = (Fraction(-3, 2), Fraction(0), Fraction(5, 3))
    return MatrixScene(97, {name: poly() for name in SCENE_SYMBOLS}, points)


def test_int_mul_matches_the_triple_loop():
    import random

    rng = random.Random(71)

    def entry():
        return rng.choice((0, rng.randint(-9, 9), rng.randint(-2 ** 100, 2 ** 100)))

    for d in range(1, 7):
        for _ in range(20):
            a, b = (tuple(tuple(entry() for _ in range(d)) for _ in range(d)) for _ in range(2))
            product = [[0] * d for _ in range(d)]
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        product[i][j] += a[i][k] * b[k][j]
            assert int_mul_kernel(len(a))(a, b) == tuple(map(tuple, product))


def test_int_add_matches_the_plain_loop():
    import random

    rng = random.Random(73)

    def entry():
        return rng.choice((0, rng.randint(-9, 9), rng.randint(-2 ** 100, 2 ** 100)))

    for d in range(1, 7):
        for _ in range(20):
            a, b = (tuple(tuple(entry() for _ in range(d)) for _ in range(d)) for _ in range(2))
            k = entry()
            total = [[0] * d for _ in range(d)]
            for i in range(d):
                for j in range(d):
                    total[i][j] = a[i][j] + k * b[i][j]
            assert int_add_kernel(d)(a, k, b) == tuple(map(tuple, total))


def test_jets_are_computed_once_per_scene_and_point(monkeypatch):
    import random

    calls = []
    jet_value = MatrixScene.jet_value

    def counting(self, symbol, order, x0):
        calls.append((symbol, order))
        return jet_value(self, symbol, order, x0)

    monkeypatch.setattr(MatrixScene, "jet_value", counting)
    rng = random.Random(79)

    def poly(coefficients):
        return tuple(tuple(tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(2))
                           for _ in range(2)) for _ in range(coefficients))

    # the symbols have different numbers of coefficients
    sizes = dict(r=4, s=2, V=3)
    first, second = (
        MatrixScene(seed, {name: poly(sizes.get(name, 1)) for name in SCENE_SYMBOLS},
                    (Fraction(1, 2), Fraction(-2, 3)))
        for seed in (1, 2)
    )
    e = ((r * rx * tfield("V", 2)).scale(Fraction(3, 7)) - (jet("s", 1) * jet("r", 3)).scale(Fraction(5, 2))
         + jet("s", 2) + FieldExpr({(): Fraction(2, 9)}))
    distinct = sorted([("r", 0), ("r", 1), ("V", 2), ("s", 1), ("r", 3), ("s", 2)])
    for scene, x0, made in ((first, Fraction(1, 2), distinct), (first, Fraction(1, 2), []),
                            (first, Fraction(-2, 3), distinct), (second, Fraction(1, 2), distinct)):
        calls.clear()
        assert eval_field(e, scene, x0) == _reference_field(e, scene, x0)
        assert sorted(calls) == made
    assert eval_frechet_dual(e, second, "r", "V", Fraction(1, 2)) == \
        _reference_frechet(e, second, "r", "V", Fraction(1, 2))


def _uneven_scene(seed, dim):
    """A hand-built scene whose symbols have 1 to 4 coefficients."""
    import random

    rng = random.Random(seed)
    sizes = dict(r=4, s=2, V=3)

    def poly(coefficients):
        return tuple(tuple(tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(dim))
                           for _ in range(dim)) for _ in range(coefficients))

    points = (Fraction(-3, 2), Fraction(0), Fraction(5, 3), Fraction(2))
    return MatrixScene(seed, {name: poly(sizes.get(name, 1)) for name in SCENE_SYMBOLS}, points)


def test_every_jet_is_an_integer_matrix_over_the_points_denominator():
    for scene in default_scenes(3) + [_uneven_scene(101, 1), _uneven_scene(103, 2)]:
        for name in SCENE_SYMBOLS:
            for x0 in scene.points:
                for k in range(scene.degree + 2):
                    assert int_to_fractions(scene.jet_value(name, k, x0), scene.jet_den(x0)) == \
                        _reference_jet(scene, name, k, x0)


def test_integer_kernel_against_fraction_reference():
    import random

    rng = random.Random(83)
    dim1 = _dim1_scene()
    for scene in REFERENCE_SCENES + [dim1]:
        for _ in range(4):
            e = random_field(rng, symbols=("r", "s"), tests=("V", "W"), max_terms=6,
                             max_len=4, max_order=3, max_den=9)
            for x0 in scene.points:
                assert eval_field(e, scene, x0) == _reference_field(e, scene, x0)
                assert eval_frechet_dual(e, scene, "r", "V", x0) == \
                    _reference_frechet(e, scene, "r", "V", x0)
    # dual edge cases: a base jet last in its word, a word without a base
    # jet, the empty word, and a lone base jet
    edges = [
        tfield("V") * jet("s", 1) * jet("r", 2),
        (jet("s") * tfield("W", 1)).scale(Fraction(3, 7)) - tfield("V"),
        FieldExpr({(): Fraction(5, 2)}),
        jet("r", 1) + FieldExpr({(): -1}) + jet("s") * jet("r"),
    ]
    for scene in [dim1] + REFERENCE_SCENES:  # the last, 4 x 4 scene is used below
        for e in edges + [sum(edges, FieldExpr.zero())]:
            for x0 in scene.points:
                assert eval_field(e, scene, x0) == _reference_field(e, scene, x0)
                assert eval_frechet_dual(e, scene, "r", "V", x0) == \
                    _reference_frechet(e, scene, "r", "V", x0)
    assert not mat_is_zero(_reference_frechet(edges[0], scene, "r", "V", scene.points[0]))
    assert mat_is_zero(eval_frechet_dual(edges[1] + edges[2], scene, "r", "V", scene.points[0]))


def test_check_equal_sees_a_tiny_difference():
    import random

    rng = random.Random(89)
    e = random_field(rng, symbols=("r", "s"), tests=("V",), max_terms=6, max_len=4, max_den=9)
    assert check_equal(e, normal_field(e), REFERENCE_SCENES).passed
    nudged = e + FieldExpr({(Jet("r"),): Fraction(1, 10**6)})
    report = check_equal(e, nudged, REFERENCE_SCENES)
    scene = REFERENCE_SCENES[0]
    assert not mat_is_zero(_reference_jet(scene, "r", 0, scene.points[0]))
    assert not report.passed
    assert report.first_failure == "seed=40 x0=%s" % scene.points[0]
    # r is constant with one nonzero entry, so the sides differ in one entry only
    unit = tuple(tuple(Fraction(int(i == j == 3)) for j in range(4)) for i in range(4))
    sparse = MatrixScene(7, dict(REFERENCE_SCENES[-1].assignment, r=(unit,)), (Fraction(2, 3),))
    assert not check_equal(e, nudged, [sparse]).passed


def test_check_zero_on_derivation_law():
    from ncburgers.fields import der

    e = der(M, r * r) - rx * r - r * rx
    assert check_zero(e, default_scenes(5)).passed


def test_check_zero_confirms_flow_commutation():
    k2 = hierarchy_member(EquationFamily.MIRROR, 2).rhs
    k3 = hierarchy_member(EquationFamily.MIRROR, 3).rhs
    defect = lie_bracket(k2, k3, "r")
    report = check_zero(defect, default_scenes(10))
    assert report.passed and report.points == 30


def test_check_commute_rejects_non_commuting_flows():
    # the commutation oracle compares the two halves of the Lie bracket
    k2 = hierarchy_member(EquationFamily.MIRROR, 2).rhs
    k3 = hierarchy_member(EquationFamily.MIRROR, 3).rhs
    assert check_equal(*lie_bracket_halves(k2, k3, "r"), default_scenes(3)).passed
    assert not check_equal(*lie_bracket_halves(k2, jet("r") * jet("r"), "r"), default_scenes(3)).passed


def test_dual_number_oracle_on_members():
    scene = make_scene(9, 3, 2)
    for n in (2, 3):
        k = hierarchy_member(EquationFamily.MIRROR, n).rhs
        from ncburgers.variational import frechet_field

        dk = frechet_field(k, "V", "r")
        for x0 in scene.points:
            assert eval_field(dk, scene, x0) == eval_frechet_dual(k, scene, "r", "V", x0)


def test_scene_text_round_trip():
    scene = make_scene(17, 3, 2)
    assert scene_from_text(scene_to_text(scene)) == scene


def test_scene_text_rejects_garbage():
    with pytest.raises(ValueError):
        scene_from_text("not a scene\n")


def test_scene_golden_file():
    # frozen once; any change to the generator or format is a breaking change
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden_scene_seed1_d2_g1.txt"
    assert scene_to_text(make_scene(1, 2, 1)) == golden.read_text()
    assert scene_from_text(golden.read_text()) == make_scene(1, 2, 1)


def test_a_scene_reads_its_dimension_and_degree_from_its_matrices():
    import pathlib

    for dim in (2, 3, 4):
        for degree in (1, 2, 3):
            scene = make_scene(11, dim, degree)
            assert (scene.dim, scene.degree) == (dim, degree)
    golden = scene_from_text((pathlib.Path(__file__).parent / "golden_scene_seed1_d2_g1.txt").read_text())
    assert (golden.dim, golden.degree) == (2, 1)
    # r has 4 coefficients, s 2, V 3 and every other symbol 1
    assert [(s.dim, s.degree) for s in (_uneven_scene(101, 1), _uneven_scene(103, 2))] == [(1, 3), (2, 3)]


def test_cole_hopf_two_wave_noncommuting():
    a1 = np.array([[0.3, 0.1], [0.0, 0.2]])
    a2 = np.array([[0.1, 0.0], [0.25, 0.4]])
    assert not np.allclose(a1 @ a2, a2 @ a1)
    sol = CHSolution(2, [a1, a2], [Fraction(1, 2), Fraction(-1, 3)])
    xs = np.linspace(-1.0, 1.0, 20)
    ts = np.linspace(0.0, 0.5, 20)
    report = cole_hopf_numeric(sol, xs, ts)
    assert report.heat_exact
    assert report.max_residual < 1e-8


def test_cole_hopf_detects_non_heat_solution():
    a1 = np.array([[0.3, 0.1], [0.0, 0.2]])
    a2 = np.array([[0.1, 0.0], [0.25, 0.4]])
    k1, k2 = Fraction(1, 2), Fraction(-1, 3)
    sol = CHSolution(2, [a1, a2], [k1, k2], rates=[k1 * k1 + 1, k2 * k2])
    report = cole_hopf_numeric(sol, np.linspace(-1.0, 1.0, 20), np.linspace(0.0, 0.5, 20))
    assert not report.heat_exact
    assert report.max_residual > 1e-2


def test_cole_hopf_identity_solution():
    sol = CHSolution(2, [np.zeros((2, 2))], [Fraction(1)])
    report = cole_hopf_numeric(sol, np.linspace(-1, 1, 5), np.linspace(0, 1, 5))
    assert report.max_residual == 0.0


def test_cole_hopf_scalar_case():
    sol = CHSolution(1, [np.array([[0.7]])], [Fraction(1, 2)])
    report = cole_hopf_numeric(sol, np.linspace(-1, 1, 10), np.linspace(0, 1, 10))
    assert report.max_residual < 1e-10


def test_cole_hopf_singular_u_reported():
    sol = CHSolution(1, [np.array([[-1.0]])], [Fraction(0)])
    with pytest.raises(ValueError, match="singular"):
        cole_hopf_numeric(sol, [0.0], [0.0])
