"""The benchmark's tracer wraps functions of the package by name; a rename
in src/ would leave a layer untraced without any error."""

import importlib
import pathlib
import types

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    """perfbench/tracing.py, executed from its source: nothing is written
    next to it and nothing of it is changed."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "module,attribute", [(m, a) for m, a, _, _ in tracing.LAYERS], ids=lambda x: x
)
def test_layer_resolves_to_a_package_callable(module, attribute):
    mod = importlib.import_module(module)
    assert pathlib.Path(mod.__file__).parent.parent.name == "src"
    assert callable(getattr(mod, attribute, None))


@pytest.mark.parametrize("kernel", tracing.KERNELS)
def test_field_kernel_exists(kernel):
    from toriccode.finite_field import FiniteField

    assert callable(FiniteField.__dict__.get(kernel))
