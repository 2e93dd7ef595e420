"""Every input guard rejects the input it exists for, with its own message:
another error raised later would not show that the guard works."""

from fractions import Fraction

import pytest

from ncburgers.fields import DerivationTag, jet, uinv
from ncburgers.fields import test as tfield
from ncburgers.hierarchy import EquationFamily, cole_hopf_identities, recursion_operator, reduce_commutative
from ncburgers.oracle import CHSolution, cole_hopf_numeric, make_scene, scene_from_text, scene_to_text
from ncburgers.reduction import derinv
from ncburgers.variational import frechet_field, lie_bracket_halves, member_operator
from ncburgers.verify import s_split, strong_symmetry_defect

MIR, HEAT = EquationFamily.MIRROR, EquationFamily.HEAT
r = jet("r")
NONLOCAL = r * derinv(DerivationTag.MIRROR, r)
ZERO_2X2 = [[0, 0], [0, 0]]


def _scene_without_seed() -> str:
    text = scene_to_text(make_scene(1, dim=2, degree=1))
    return "".join(ln for ln in text.splitlines(True) if not ln.startswith("seed "))


GUARDS = {
    "sigma in the member": (lambda: strong_symmetry_defect(MIR, r * tfield("sigma")), "probe symbol sigma"),
    "nonlocal member": (lambda: strong_symmetry_defect(MIR, NONLOCAL), "antiderivative-free member"),
    "direction already present": (lambda: frechet_field(r * tfield("V"), "V", "r"), "already occurs"),
    "nonlocal bracket input": (lambda: lie_bracket_halves(NONLOCAL, r, "r"), "antiderivative-free"),
    "nonlocal member operator": (lambda: member_operator(NONLOCAL, "r"), "member operator needs"),
    "commutative inverse": (lambda: reduce_commutative(uinv()), "formal inverses"),
    "heat s_split": (lambda: s_split(HEAT), "vanishing derivative"),
    "heat Cole-Hopf": (lambda: cole_hopf_identities(HEAT), "no Cole-Hopf"),
    "recursion operator form": (lambda: recursion_operator(MIR, "compact"), "form must be"),
    "scene without seed": (lambda: scene_from_text(_scene_without_seed()), "seed/dim/degree"),
    "wave numbers": (lambda: CHSolution(2, [ZERO_2X2], [Fraction(1), Fraction(2)]), "one wave number"),
    "time rates": (lambda: CHSolution(2, [ZERO_2X2], [Fraction(1)], [Fraction(1), Fraction(2)]), "one time rate"),
    "empty grid": (
        lambda: cole_hopf_numeric(CHSolution(2, [ZERO_2X2], [Fraction(1)]), [], [0.0]),
        "nonempty grid",
    ),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_rejects_its_input(name):
    call, message = GUARDS[name]
    with pytest.raises(ValueError, match=message):
        call()
