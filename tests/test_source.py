import ast
import pathlib

import hetcycle

#: The oldest Python that pyproject.toml's requires-python admits.
OLDEST = (3, 10)


def test_sources_parse_on_the_oldest_supported_python():
    # the suite runs on a newer interpreter; this catches syntax that the
    # oldest supported one would reject (except*, PEP 695 generics, ...)
    sources = sorted(pathlib.Path(hetcycle.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=OLDEST)


def _module_ast(name):
    path = pathlib.Path(hetcycle.__file__).parent / f"{name}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_closed_forms_import_no_oracle():
    # flows holds the closed forms alone: within the package it imports
    # only errors and model, so it cannot lean on the stepper it is
    # checked against
    imported = set()
    for node in ast.walk(_module_ast("flows")):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported == {"__future__", "math", ".errors", ".model"}


def test_oracle_names_no_closed_form():
    # the stepper, its event location, the raw fields and the simulations
    # built on them never name a closed form: only the cross-check may
    closed = {"left_flow", "right_flow", "left_orbit", "right_orbit",
              "radial_law", "block_exp"}
    oracle = {"rk45", "hermite", "_bisect_event", "_plane_event",
              "integrate_hybrid", "numeric_flow", "left_field", "right_field"}
    found = {}
    for node in _module_ast("hybrid").body:
        if isinstance(node, ast.FunctionDef) and node.name in oracle:
            found[node.name] = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}
    assert set(found) == oracle
    assert all(not names & closed for names in found.values()), found



def test_exact_arithmetic_is_named_once():
    # the one exact-sign rule: fractions and Fraction are named in src
    # only inside model.exact_value, and node_stay_check takes no tolerance
    where = set()
    for path in pathlib.Path(hetcycle.__file__).parent.glob("*.py"):
        for top in _module_ast(path.stem).body:
            name = getattr(top, "name", None)  # a def or class, else None
            where.update((path.stem, name) for node in ast.walk(top)
                         if _names_fraction(node))
    assert where == {("model", "exact_value")}
    (node_check,) = [f for f in _module_ast("planar").body
                     if getattr(f, "name", None) == "node_stay_check"]
    arguments = node_check.args
    assert [a.arg for a in arguments.args] == ["sys", "c", "y2"]
    assert not (arguments.kwonlyargs or arguments.vararg or arguments.kwarg)


def _names_fraction(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "Fraction"
    if isinstance(node, ast.Attribute):
        return node.attr == "Fraction"
    if isinstance(node, ast.ImportFrom):
        return node.module == "fractions"
    if isinstance(node, ast.Import):
        return any(a.name == "fractions" for a in node.names)
    return False
