import json
import os
from dataclasses import replace

import pytest

from ncburgers import verify
from ncburgers.cli import main
from ncburgers.fields import FieldExpr, jet
from ncburgers.hierarchy import EquationFamily
from ncburgers.lang import print_field
from ncburgers.oracle import make_scene, scene_to_text


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hierarchy_text_fixture(capsys):
    code, out, _ = run_cli(capsys, "hierarchy", "--family", "mirror", "--order", "3")
    assert code == 0
    assert out.strip() == "r_xxx + 3 r_xx r + 3 r_x r_x + 3 r_x r r"


def test_hierarchy_heat(capsys):
    code, out, _ = run_cli(capsys, "hierarchy", "--family", "heat", "--order", "4")
    assert code == 0
    assert out.strip() == "u_xxxx"


def test_hierarchy_eta_coordinates(capsys):
    code, out, _ = run_cli(
        capsys, "hierarchy", "--family", "mirror", "--order", "2", "--coords", "eta"
    )
    assert code == 0
    assert out.strip() == "r r_eta + r_eta r + r_etaeta"


def test_hierarchy_heat_eta_coordinates(capsys):
    # u has no commutator field, so eta is x
    code, out, _ = run_cli(
        capsys, "hierarchy", "--family", "heat", "--order", "2", "--coords", "eta"
    )
    assert code == 0
    assert out == "u_etaeta\n"


def test_hierarchy_latex_in_eta_coordinates_is_usage_error(capsys):
    # there is no eta LaTeX printer, so x LaTeX would drop --coords unsaid
    code, out, err = run_cli(
        capsys, "hierarchy", "--family", "mirror", "--order", "2", "--format", "latex", "--coords", "eta"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--coords eta" in err


def test_hierarchy_structured_deterministic(capsys):
    args = ["hierarchy", "--family", "direct", "--order", "3", "--format", "structured"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["family"] == "direct" and doc["order"] == 3


@pytest.mark.parametrize("family, terms", [("mirror", 7), ("direct", 7), ("heat", 1)])
def test_hierarchy_structured_counts_the_printed_eta_terms(capsys, family, terms):
    args = ["hierarchy", "--family", family, "--order", "3", "--coords", "eta", "--format", "structured"]
    code, out, _ = run_cli(capsys, *args)
    doc = json.loads(out)
    assert code == 0 and doc["terms"] == terms
    assert doc["rhs"].count(" + ") + doc["rhs"].count(" - ") + 1 == terms


def test_verify_strong_symmetry_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "strong-symmetry", "--family", "mirror", "--member", "1"
    )
    assert code == 0
    assert "proved-zero" in out


def test_verify_hereditary_structured(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "hereditary", "--family", "direct", "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["status"] == "proved-zero"


def test_verify_commute_with_oracle(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "commute", "--family", "mirror", "--m", "1", "--n", "2",
        "--scenes", "3", "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert any("oracle" in line for line in doc["reports"][0]["log"])


def test_verify_commute_oracle_is_independent_of_reducer(capsys, monkeypatch):
    # a reducer that proves every defect, and r r in place of K_3: only the
    # oracle is left to reject the claim
    real_member = verify.hierarchy_member

    def member(family, n):
        found = real_member(family, n)
        return replace(found, rhs=jet("r") * jet("r")) if n == 3 else found

    monkeypatch.setattr(verify, "deep_reduce", lambda defect, ctx: FieldExpr.zero())
    monkeypatch.setattr(verify, "hierarchy_member", member)
    code, out, _ = run_cli(
        capsys,
        "verify", "commute", "--family", "mirror", "--m", "2", "--n", "3",
        "--scenes", "2", "--format", "structured",
    )
    assert code == 1
    log = json.loads(out)["reports"][0]["log"]
    assert any("passed: False" in line for line in log)


def test_verify_text_prints_the_defect(capsys, monkeypatch):
    # r r is not a flow of the mirror hierarchy, so its strong-symmetry
    # defect survives reduction and the text report prints it
    real_member = verify.hierarchy_member
    monkeypatch.setattr(
        verify, "hierarchy_member", lambda family, n: replace(real_member(family, n), rhs=jet("r") * jet("r"))
    )
    code, out, _ = run_cli(capsys, "verify", "strong-symmetry", "--family", "mirror", "--member", "2")
    report = verify.strong_symmetry_defect(EquationFamily.MIRROR, jet("r") * jet("r"))
    assert code == 1
    assert out == "strong-symmetry[mirror, n=2]: nonzero\n  defect: %s\n" % print_field(report.defect)


def test_scene_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "scene", "--seed", "1")
    assert code == 0
    assert out == scene_to_text(make_scene(1))


@pytest.mark.parametrize("scenes", ["0", "-3"])
def test_verify_commute_oracle_without_scenes_is_usage_error(capsys, scenes):
    # an oracle that evaluates no point proves nothing
    code, out, err = run_cli(
        capsys,
        "verify", "commute", "--family", "mirror", "--m", "1", "--n", "2", "--scenes", scenes,
    )
    assert code == 2
    assert "proved-zero" not in out
    assert "scene point" in err


def test_verify_cole_hopf(capsys):
    code, out, _ = run_cli(capsys, "verify", "cole-hopf", "--family", "mirror")
    assert code == 0
    assert out.count("proved-zero") == 6


def test_verify_cole_hopf_honours_depth(capsys, monkeypatch):
    monkeypatch.setenv("NCBURGERS_IBP_DEPTH", "0")
    code, out, _ = run_cli(
        capsys, "verify", "cole-hopf", "--family", "mirror", "--format", "structured"
    )
    assert code == 3
    reports = json.loads(out)["reports"]
    assert len(reports) == 6
    conjugation = reports[-1]
    assert conjugation["claim"].endswith("T D T^-1 = recursion operator")
    assert conjugation["status"] == "inconclusive"
    assert any("depth 0" in line for line in conjugation["log"])


def test_reduce_commutative_fixture(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--commutative", "--expr", "PHI")
    assert code == 0
    assert out.strip() == "D + v + v_x Dinv"


def test_reduce_commutative_field(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--commutative", "--expr", "s_xx + 2 s s_x")
    assert code == 0
    assert out.strip() == "v_xx + 2 v v_x"


@pytest.mark.parametrize("text, expected", [
    ("s_x s - s s_x", "0"),
    ("L[s_x] L[s] - L[s] L[s_x]", "0"),
    ("D(r s)", "2 v v_x"),
])
def test_reduce_commutative_scalars_commute(capsys, text, expected):
    # a field text is reduced as a field, not as left multiplications
    code, out, _ = run_cli(capsys, "reduce", "--commutative", "--expr", text)
    assert code == 0
    assert out == expected + "\n"


@pytest.mark.parametrize("text, diagnostic", [
    ("L[r] + q", "line 1, column 8: unknown symbol 'q' "),
    ("D + ]", "line 1, column 5: expected an operator factor "),
    ("q +", "line 1, column 1: unknown symbol 'q' (expected r, s, u, v, V, W, sigma, uinv)\n"),
    ("r + 3/0 s", "line 1, column 5: zero denominator in '3/0'\n"),
])
def test_reduce_reports_the_grammar_that_got_further(capsys, text, diagnostic):
    code, out, err = run_cli(capsys, "reduce", "--commutative", "--expr", text)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: " + diagnostic)


def _drop(lines, head, start, count):
    """``lines`` without ``count`` lines from ``start`` lines after ``head``."""
    i = lines.index(head) + start
    return lines[:i] + lines[i + count:]


# edits of a valid dim 2, degree 1 scene document
MALFORMED_SCENES = {
    "rows-of-three": lambda lines: [ln + " 1" if ln.startswith("  ") else ln for ln in lines],
    "row-before-poly": lambda lines: lines[:5] + ["  1 2", "  3 4"] + lines[5:],
    "no-poly-V": lambda lines: _drop(lines, "poly V 0", 0, 6),
    "one-row-block": lambda lines: _drop(lines, "poly r 0", 2, 1),
    "missing-power": lambda lines: _drop(lines, "poly r 0", 0, 3),
    "points-zero-denominator": lambda lines: [
        "points 1/0" if ln.startswith("points ") else ln for ln in lines
    ],
    "entry-zero-denominator": lambda lines: [
        "  1/0 1" if i == lines.index("poly r 0") + 1 else ln for i, ln in enumerate(lines)
    ],
    "dim-0": lambda lines: [
        "dim 0" if ln == "dim 2" else ln for ln in lines if not ln.startswith("  ")
    ],
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_SCENES))
def test_eval_rejects_a_malformed_scene(tmp_path, capsys, kind):
    from ncburgers.oracle import make_scene, scene_to_text

    lines = scene_to_text(make_scene(1, 2, 1)).splitlines()
    scene_file = tmp_path / "scene.txt"
    scene_file.write_text("\n".join(MALFORMED_SCENES[kind](lines)) + "\n")
    code, out, err = run_cli(
        capsys, "eval", "--scene", str(scene_file), "--expr", "V r r", "--at", "0"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_eval_rejects_a_zero_denominator_point(tmp_path, capsys):
    scene_file = tmp_path / "scene.txt"
    run_cli(capsys, "scene", "--seed", "1", "--dim", "2", "--degree", "1", "--out", str(scene_file))
    code, out, err = run_cli(capsys, "eval", "--scene", str(scene_file), "--expr", "V r", "--at", "1/0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "zero denominator" in err


@pytest.mark.parametrize("expr, reason", [
    ("uinv", "uinv: a scene has no matrix for it"),
    ("r IDinv[sigma]", "IDinv[sigma]: an antiderivative is nonlocal"),
])
def test_eval_names_an_atom_a_scene_has_no_value_for(tmp_path, capsys, expr, reason):
    scene_file = tmp_path / "scene.txt"
    run_cli(capsys, "scene", "--seed", "1", "--dim", "2", "--degree", "1", "--out", str(scene_file))
    code, out, err = run_cli(capsys, "eval", "--scene", str(scene_file), "--expr", expr, "--at", "0")
    assert (code, out) == (2, "")
    assert err == "error: matrix evaluation has no value for %s\n" % reason


def test_scene_and_eval(tmp_path, capsys):
    scene_file = tmp_path / "scene.txt"
    code, _, _ = run_cli(
        capsys, "scene", "--seed", "3", "--dim", "2", "--degree", "1",
        "--out", str(scene_file),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "eval", "--scene", str(scene_file),
        "--expr", "r_x r - r r_x + 1/3 V r", "--at", "1/2",
    )
    assert code == 0
    assert out == "655/72 -25/48\n5 -37/72\n"


def test_eval_in_a_dim_1_scene(tmp_path, capsys):
    lines = ["ncburgers-scene v1", "seed 5", "dim 1", "degree 1", "points 1/2"]
    for k, name in enumerate(("r", "s", "u", "v", "V", "W", "sigma")):
        lines += ["poly %s 0" % name, "  %d/3" % (k - 3), "poly %s 1" % name, "  %d" % (2 - k)]
    scene_file = tmp_path / "scene.txt"
    scene_file.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(
        capsys, "eval", "--scene", str(scene_file),
        "--expr", "r_x r r - 2 r r_x s + 1/3 V s_x", "--at", "5/2",
    )
    assert code == 0
    # r = 4, r_x = 2, s = 11/6, s_x = 1 and V = -14/3 at x = 5/2
    assert out == "10/9\n"


def test_oracle_cole_hopf(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "cole-hopf", "--dim", "2", "--grid", "8", "--tol", "1e-8"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["heat_exact"]


def test_oracle_cole_hopf_empty_grid_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "oracle", "cole-hopf", "--dim", "2", "--grid", "0")
    assert code == 2
    assert out == ""
    assert "nonempty grid" in err


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"), ("--tol", "-0.5"),
        ("--dim", "0"), ("--dim", "-1"), ("--grid", "-1"),
    ],
)
def test_oracle_cole_hopf_rejects_bad_numbers(capsys, flag, value):
    code, out, err = run_cli(capsys, "oracle", "cole-hopf", "--grid", "3", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: %s must be" % flag)


def test_usage_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "hierarchy", "--family", "mirror")
    assert code == 2


def test_parse_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "reduce", "--commutative", "--expr", "q +")
    assert code == 2
    assert "parse error" in err


def test_zero_denominator_is_a_parse_error(capsys):
    code, out, err = run_cli(capsys, "reduce", "--commutative", "--expr", "r + 3/0 s")
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ") and "zero denominator" in err


def test_ibp_depth_env(capsys, monkeypatch):
    monkeypatch.setenv("NCBURGERS_IBP_DEPTH", "6")
    code, out, _ = run_cli(
        capsys, "verify", "hereditary", "--family", "mirror"
    )
    assert code == 0


def test_ibp_depth_env_rejects_non_integer(capsys, monkeypatch):
    monkeypatch.setenv("NCBURGERS_IBP_DEPTH", "deep")
    code, out, err = run_cli(capsys, "verify", "hereditary", "--family", "mirror")
    assert code == 2
    assert "NCBURGERS_IBP_DEPTH" in err


def test_negative_ibp_depth_is_a_usage_error(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "verify", "hereditary", "--family", "mirror", "--ibp-depth", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    monkeypatch.setenv("NCBURGERS_IBP_DEPTH", "-2")
    code, out, err = run_cli(capsys, "verify", "strong-symmetry", "--family", "direct", "--member", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_inconclusive_exit_three(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "hereditary", "--family", "mirror", "--ibp-depth", "1"
    )
    assert code == 3
    assert "inconclusive" in out


def test_reduce_past_the_nesting_bound_exits_three(capsys):
    nested = "IDinv[IDinv[IDinv[IDinv[IDinv[r V] V] V] V] V]"
    code, out, err = run_cli(capsys, "reduce", "--commutative", "--expr", nested)
    assert (code, out) == (3, "")
    assert err.startswith("inconclusive: ")


def test_failed_oracle_exit_one(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "cole-hopf", "--dim", "2", "--grid", "5", "--tol", "1e-30"
    )
    assert code == 1
