"""The benchmark's tracer wraps functions of the package by name; a rename
in src/ would leave a layer untraced without any error."""

import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


TRACED_JOBS = [
    ["mindist", "--torus", "3", "--q", "4", "--d", "1", "--method", "bruteforce"],
    ["mindist", "--torus", "3", "--q", "4", "--d", "1", "--method", "isd"],
    ["groebner", "--torus", "3", "--q", "4"],
]


def _run_traced_worker(tmp_path, jobs):
    """The answers of perfbench/worker.py with a trace file, as
    `run.py --trace 1` starts it, to the jobs; the trace is written.  No
    bytecode is written next to the worker."""
    trace = tmp_path / "trace.jsonl"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(trace)],
        input="".join(json.dumps(job) + "\n" for job in jobs),
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300, check=True,
    )
    answers = [json.loads(line) for line in done.stdout.splitlines()][1:-1]
    assert len(answers) == len(jobs)
    for job, answer in zip(jobs, answers):
        assert answer["rc"] == 0, (job, answer["stderr"])
    assert trace.stat().st_size > 0
    return answers


def test_traced_worker_runs_distance_and_groebner_jobs(tmp_path):
    """Every job exits 0 and the brute-force job records its classes, so a
    change to LinearCode or to a search signature that breaks tracing fails
    here."""
    answers = _run_traced_worker(tmp_path, TRACED_JOBS)
    assert "mindist.bruteforce:classes" in answers[0]["layers"]
    assert "mindist.isd:s" in answers[1]["layers"]


def test_traced_worker_wraps_the_lattice_modules(tmp_path):
    """ci and profile on clutter files reach `ci_classify` and the Smith
    form, which --torus never does: the tracer wraps the lattice modules,
    registered lazily by the package, as it wraps the others.  The two
    clutters differ, so the memo of the first leaves the second its own
    Smith form."""
    k4, c5 = tmp_path / "k4.json", tmp_path / "c5.json"
    k4.write_text(json.dumps({"n": 4, "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]}))
    c5.write_text(json.dumps({"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}))
    jobs = [["ci", "--clutter", str(k4), "--q", "9", "--format", "json"],
            ["profile", "--clutter", str(c5), "--q", "4", "--format", "json"]]
    ci, profile = (answer["layers"] for answer in _run_traced_worker(tmp_path, jobs))
    assert {"clutter.load:s", "intlattice.ci:s", "intlattice.snf:s"} <= set(ci)
    assert {"clutter.load:s", "intlattice.snf:s"} <= set(profile)
