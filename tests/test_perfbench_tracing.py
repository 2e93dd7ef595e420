"""The benchmark's tracer wraps engine functions by name; every name in its
table must still resolve, or a rename shows up only in a traced run."""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_table():
    # read the table from source, so the tracer module is never imported
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in %s" % TRACING)


def test_traced_names_resolve():
    missing = []
    for module, attribute, _ in _traced_table():
        target = importlib.import_module("ncburgers." + module)
        for part in attribute.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append("%s.%s" % (module, attribute))
    assert not missing


def _context_attributes():
    # every ``ctx.<attr>`` the tracer reads, collected from source
    return {
        node.attr
        for node in ast.walk(ast.parse(TRACING.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ctx"
    }


def test_traced_context_attributes_resolve():
    from ncburgers.fields import cole_hopf_context, default_context

    attributes = _context_attributes()
    assert {"tag_fields", "integral_depth"} <= attributes
    for ctx in (default_context(1), cole_hopf_context()):
        assert [a for a in sorted(attributes) if not hasattr(ctx, a)] == []


WORKLOADS = TRACING.with_name("workloads.py")


def _workload_atom_uses():
    # every ``atom.<attr>`` the workloads read and every Jet/TestField call
    # they make, collected from source
    tree = ast.parse(WORKLOADS.read_text())
    attributes = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "atom"
    }
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("Jet", "TestField")
    ]
    return attributes, calls


def test_workload_atom_uses_resolve():
    from ncburgers.fields import Jet, TestField

    attributes, calls = _workload_atom_uses()
    assert {"name", "order"} <= attributes and len(calls) >= 3
    # the workloads read ``order`` on both kinds and ``name`` on test fields
    jet, probe = Jet("r", 1), TestField("V", 1)
    assert [a for a in sorted(attributes) if not hasattr(probe, a)] == []
    assert (jet.symbol, jet.order, probe.name, probe.order) == ("r", 1, "V", 1)
    # and build both from (name, order) positionally
    assert all(len(c.args) == 2 and not c.keywords for c in calls)
