"""Every public name is used by the program, shown in the README, or timed
by the benchmark's tracer: none is there for the tests alone.

A name counts as used when it appears as a Name or an Attribute in the
syntax tree of a module of the package other than `__init__.py`
(docstrings are string constants and do not count), in a fenced code
block of README.md, or as an attribute that `perfbench/tracing.LAYERS`
wraps.  tracing.py is parsed, not run.
"""

import ast
import pathlib
import re

import pytest

import toriccode

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toriccode"


def _program_names() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _readme_code() -> str:
    return "\n".join(re.findall(r"^```[^\n]*\n(.*?)^```", (ROOT / "README.md").read_text(),
                                re.M | re.S))


def _traced_names() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    layers = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    )
    return {entry.elts[1].value for entry in layers.elts}


USED = _program_names() | _traced_names()
README_CODE = _readme_code()


def test_the_sources_are_read():
    assert {"interpolate_gb", "size_of_X", "walk_of"} <= USED
    assert "enumerate_X" in README_CODE and "rank_rational" in _traced_names()


@pytest.mark.parametrize("name", toriccode.__all__)
def test_public_name_is_not_test_only(name):
    assert name in USED or re.search(rf"\b{name}\b", README_CODE), name
