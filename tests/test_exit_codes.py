"""The exit-code contract as a property: every subcommand, on valid and
invalid fields, sources, degrees, budgets and clutter files, exits 0, 2
or 3 through `main(argv)`, never 4 (an internal error, which is also what
a lazily registered module that fails to run would give).  On exit 0 the
output parses in the format asked for; otherwise stdout is empty and
stderr says why.

Each subcommand is drawn with its own options only.  An option it does
not take, such as a second spelling of one it does (`--p`/`--k` for
`--q`, `params --d` for `--dmin D --dmax D`), exits 2 from the parser."""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import BATTERY_DOCS, clutters_over_fields
from toriccode.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, main
from toriccode.limits import METHODS

COMMANDS = ("params", "mindist", "ci", "groebner", "profile")
TORUS = ("params", "mindist", "groebner")  # ci and profile ask about a clutter
SEARCH = ("params", "mindist")  # the commands that search for a distance
FORMATS = {command: ("text", "csv", "json") for command in COMMANDS}
FORMATS["groebner"] = ("text", "json")

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
    paths["generated"] = root / "generated.json"
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
    st.tuples(st.just("--q"), st.sampled_from(["3", "4", "5", "7", "8", "9"])),
    st.one_of(
        st.tuples(st.just("--q"), NUMBERS | st.sampled_from(["abc", "2.5", ""])),
        st.just(()),
    ),
)


@st.composite
def argvs(draw, files):
    command = draw(st.sampled_from(COMMANDS))
    clutter = st.tuples(st.just("--clutter"), st.sampled_from(VALID_FILES))
    bad_clutter = st.tuples(st.just("--clutter"), st.sampled_from(INVALID_FILES))
    if command in TORUS:
        # the torus one time in four
        source = _mostly(
            st.one_of(clutter, clutter, clutter, st.tuples(st.just("--torus"), _ints(2, 4))),
            st.one_of(bad_clutter, st.tuples(st.just("--torus"), _ints(-1, 1))),
        )
    else:
        source = _mostly(clutter, bad_clutter)
    flag, value = draw(source)
    argv = [command, flag, files[value] if flag == "--clutter" else value]
    argv += draw(FIELDS)
    # small budgets bound every job: |X| <= 600 points, few messages
    argv += ["--budget", draw(_mostly(st.sampled_from(["100", "600"]),
                                      st.sampled_from(["-1", "0", "7"])))]
    degree = _mostly(_ints(1, 4), _ints(-1, 0))
    if command in SEARCH:
        argv += ["--class-budget", draw(_mostly(st.sampled_from(["50", "400"]),
                                                st.sampled_from(["-1", "0"])))]
        if draw(st.booleans()):
            argv += ["--time-budget", draw(_mostly(st.just("0.05"), st.sampled_from(["-1", "0"])))]
        if draw(st.booleans()):
            argv += ["--method", draw(st.sampled_from(METHODS))]
    if command == "mindist":
        argv += ["--d", draw(degree)]
    if command == "params":
        for flag in ("--dmin", "--dmax"):
            if draw(st.booleans()):
                argv += [flag, draw(degree)]
        if draw(st.booleans()):
            argv.append("--full")
    if command == "profile" and draw(st.booleans()):
        argv += ["--dump-points", files[draw(_mostly(st.just("points"), st.just("missing_dir")))]]
    argv += ["--format", draw(st.sampled_from(FORMATS[command]))]
    return argv


def _removed(command):
    """The spellings that no subcommand or only some take, as (flags, values)
    drawn for `command`: what its parser must refuse."""
    spellings = [st.tuples(st.just("--p"), NUMBERS),
                 st.tuples(st.just("--p"), NUMBERS, st.just("--k"), NUMBERS),
                 st.tuples(st.just("--k"), NUMBERS)]
    if command == "params":
        spellings.append(st.tuples(st.just("--d"), _ints(-1, 4)))
    if command not in SEARCH:
        spellings += [st.tuples(st.just("--class-budget"), st.sampled_from(["-1", "50"])),
                      st.tuples(st.just("--time-budget"), st.sampled_from(["-1", "0.05"])),
                      st.tuples(st.just("--method"), st.sampled_from(METHODS))]
    if command not in TORUS:
        spellings.append(st.tuples(st.just("--torus"), _ints(-1, 4)))
    if command == "groebner":
        spellings.append(st.just(("--format", "csv")))
    return st.one_of(spellings)


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
    in text."""
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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_removed_spellings_exit_2(files, data):
    """A spelling the subcommand does not take, put before any of its
    options or after them, exits 2 from the parser with nothing on stdout, whatever the
    rest of the argv."""
    argv = data.draw(argvs(files), label="argv")
    spelling = list(data.draw(_removed(argv[0]), label="spelling"))
    # before an option or at the end; a later --format would override csv
    ats = [i for i, a in enumerate(argv) if a.startswith("--")] + [len(argv)]
    at = len(argv) if spelling[0] == "--format" else data.draw(st.sampled_from(ats), label="at")
    argv[at:at] = spelling
    rc, out, err = _run(argv)
    assert (rc, out) == (EXIT_INPUT, ""), (argv, rc, out)
    assert err.startswith("usage: toriccode"), (argv, err)


@st.composite
def clutter_documents(draw):
    """(document, q, perturbed): a clutter of `clutters_over_fields` as a
    JSON document, with one value, n or a vertex, changed to a float, a
    string or a bool one time in two."""
    C, q = draw(clutters_over_fields(max_torus=256))
    doc = {"n": C.n, "edges": [list(e) for e in C.edges]}
    if not draw(st.booleans()):
        return doc, q, False
    holders = [(doc, "n")] + [(e, i) for e in doc["edges"] for i in range(len(e))]
    holder, key = draw(st.sampled_from(holders))
    value = holder[key]
    holder[key] = draw(st.sampled_from([float(value), value + 0.5, str(value), True, False]))
    return doc, q, True


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=clutter_documents(), command=st.sampled_from(("ci", "profile", "groebner")),
       fmt=st.sampled_from(("text", "json")))
def test_generated_clutter_documents(files, case, command, fmt):
    """A generated clutter document exits 0 and its report parses; with a
    value changed to a float, a string or a bool it exits 2 with nothing
    on stdout, never truncated or converted to a clutter."""
    doc, q, perturbed = case
    with open(files["generated"], "w") as fh:
        json.dump(doc, fh)
    argv = [command, "--clutter", files["generated"], "--q", str(q), "--format", fmt]
    rc, out, err = _run(argv)
    if perturbed:
        assert (rc, out) == (EXIT_INPUT, ""), (doc, rc, out)
        assert err.startswith("input error: "), (doc, err)
    else:
        assert rc == EXIT_OK, (doc, q, err)
        assert _parses(command, fmt, out), (doc, out)
