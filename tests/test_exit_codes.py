"""The exit-code contract as a property: every subcommand, on valid and
invalid fields, sources, degrees, budgets and clutter files, exits 0, 2
or 3 through `main(argv)`, never 4 (an internal error, which is also what
a lazily registered module that fails to run would give).  On exit 0 the
output parses in the format asked for; otherwise stdout is empty and
stderr says why."""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BATTERY_DOCS
from toriccode.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, main
from toriccode.limits import METHODS

COMMANDS = ("params", "mindist", "ci", "groebner", "profile")

# name -> file text: valid clutters, text shorthand, and documents that
# must be refused (malformed, non-integer, not a clutter, empty)
CLUTTER_FILES = {
    **{name: json.dumps(BATTERY_DOCS[name]) for name in ("C3", "C4", "K4", "P3", "U4")},
    "mixed": json.dumps({"n": 3, "edges": [[1], [2, 3]]}),
    "text": "1 2\n2 3\n1 3\n",
    "bad_json": '{"n": 3, "edges": [[1, 2]',
    "float": json.dumps({"n": 3.5, "edges": [[1, 2], [2, 3]]}),
    "bool": json.dumps({"n": 3, "edges": [[True, 2], [2, 3]]}),
    "string_edges": json.dumps({"n": 3, "edges": "123"}),
    "contained": json.dumps({"n": 3, "edges": [[1, 2], [1, 2, 3]]}),
    "out_of_range": json.dumps({"n": 2, "edges": [[1, 2], [2, 3]]}),
    "one_edge": json.dumps({"n": 2, "edges": [[1, 2]]}),
    "empty": "",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("clutters")
    paths = {}
    for name, text in CLUTTER_FILES.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(text)
    paths["missing"] = root / "missing.json"
    paths["points"] = root / "points.csv"
    paths["missing_dir"] = root / "missing" / "points.csv"
    return {name: str(path) for name, path in paths.items()}


def _ints(low, high):
    return st.integers(low, high).map(str)


def _mostly(valid, invalid):
    """A draw of `valid` nine times in ten, else one of `invalid`."""
    return st.integers(0, 9).flatmap(lambda i: invalid if i == 9 else valid)


VALID_FILES = ("C3", "C4", "K4", "P3", "U4", "mixed", "text")
INVALID_FILES = tuple(sorted(set(CLUTTER_FILES) - set(VALID_FILES))) + ("missing",)
NUMBERS = _ints(-2, 12) | st.sampled_from(["16", "27", "49", "65537", "2305843009213693951"])
FIELDS = _mostly(
    st.one_of(
        st.tuples(st.just("--q"), st.sampled_from(["3", "4", "5", "7", "8", "9"])),
        st.tuples(st.just("--p"), st.sampled_from(["3", "5", "7"])),
        st.tuples(st.just("--p"), st.sampled_from(["2", "3"]),
                  st.just("--k"), st.sampled_from(["1", "2", "3"])),
    ),
    st.one_of(
        st.tuples(st.just("--q"), NUMBERS | st.sampled_from(["abc", "2.5", ""])),
        st.tuples(st.just("--p"), NUMBERS, st.just("--k"), NUMBERS),
        st.tuples(st.just("--q"), st.just("9"), st.just("--p"), st.just("3")),
        st.just(()),
    ),
)


@st.composite
def argvs(draw, files):
    command = draw(st.sampled_from(COMMANDS))
    # ci and profile need a clutter, so the torus comes one time in four
    clutter = st.tuples(st.just("--clutter"), st.sampled_from(VALID_FILES))
    source = draw(_mostly(
        st.one_of(clutter, clutter, clutter, st.tuples(st.just("--torus"), _ints(2, 4))),
        st.one_of(st.tuples(st.just("--clutter"), st.sampled_from(INVALID_FILES)),
                  st.tuples(st.just("--torus"), _ints(-1, 1))),
    ))
    argv = [command, source[0], files[source[1]] if source[0] == "--clutter" else source[1]]
    argv += draw(FIELDS)
    # small budgets bound every job: |X| <= 600 points, few messages
    argv += ["--budget", draw(_mostly(st.sampled_from(["100", "600"]),
                                      st.sampled_from(["-1", "0", "7"])))]
    argv += ["--class-budget", draw(_mostly(st.sampled_from(["50", "400"]),
                                            st.sampled_from(["-1", "0"])))]
    if draw(st.booleans()):
        argv += ["--time-budget", draw(_mostly(st.just("0.05"), st.sampled_from(["-1", "0"])))]
    degree = _mostly(_ints(1, 4), _ints(-1, 0))
    if command in ("params", "mindist"):
        # mindist needs --d
        if draw(st.booleans() if command == "params" else _mostly(st.just(True), st.just(False))):
            argv += ["--d", draw(degree)]
        if draw(st.booleans()):
            argv += ["--method", draw(st.sampled_from(METHODS))]
    if command == "params":
        for flag in ("--dmin", "--dmax"):
            if draw(st.booleans()):
                argv += [flag, draw(degree)]
        if draw(st.booleans()):
            argv.append("--full")
    if command == "profile" and draw(st.booleans()):
        argv += ["--dump-points", files[draw(_mostly(st.just("points"), st.just("missing_dir")))]]
    argv += ["--format", draw(st.sampled_from(["text", "csv", "json"]))]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _parses(command: str, fmt: str, out: str) -> bool:
    """The report is in the format asked for: one JSON object; a csv
    header and rows of its width; "key: value" lines, a table or a basis
    in text.  groebner writes its basis as text unless asked for json."""
    if fmt == "json":
        return isinstance(json.loads(out), dict) and out.count("\n") == 1
    lines = out.splitlines()
    if not out.endswith("\n") or not lines:
        return False
    if command == "groebner":
        return lines[-1].startswith("# ") and "degree complexity" in lines[-1]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        return len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows)
    if command == "params":
        return lines[0].split()[0] == "d" and len(lines) >= 2
    return all(": " in line for line in lines)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_exit_code_contract(files, data):
    argv = data.draw(argvs(files), label="argv")
    rc, out, err = _run(argv)
    assert rc in (EXIT_OK, EXIT_INPUT, EXIT_BUDGET), (argv, rc, err)
    if rc == EXIT_OK:
        assert _parses(argv[0], argv[-1], out), (argv, out)
    else:
        assert out == "" and err, (argv, rc, out, err)
