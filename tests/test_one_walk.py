"""The standard monomials of X have one code path: `standard_walk` runs
only in `StandardWalk`, a `StandardWalk` is built only by `walk_of`, which
keeps one per X, and no function takes a walk from its caller."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "toriccode"


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), str(path))


def _call_sites(name: str) -> list[tuple[str, tuple[str, ...]]]:
    """(file, enclosing class and function names) of every call of `name`."""
    sites = []

    def visit(node, scope, module):
        if isinstance(node, ast.Call):
            f = node.func
            called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if called == name:
                sites.append((module, scope))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, module)

    for module, tree in _modules():
        visit(tree, (), module)
    return sites


def test_standard_walk_runs_only_in_StandardWalk():
    sites = _call_sites("standard_walk")
    assert sites and all(m == "eval_code.py" and "StandardWalk" in s for m, s in sites), sites


def test_StandardWalk_is_built_only_by_walk_of():
    sites = _call_sites("StandardWalk")
    assert sites and all(m == "eval_code.py" and "walk_of" in s for m, s in sites), sites


def test_no_parameter_named_walk():
    taken = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                taken += [(module, node.lineno) for p in params if p and p.arg == "walk"]
    assert not taken
