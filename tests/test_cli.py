"""End-to-end CLI behavior through main(argv)."""

import argparse
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest

from conftest import BATTERY, BATTERY_DOCS
from toriccode import FiniteField, enumerate_X, intlattice, make_field, regularity, size_of_X
from toriccode.toric_set import clutter_set
from toriccode.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, _build_parser, main

K4_DOC = '{"n": 4, "edges": [[1,2],[1,3],[1,4],[2,3],[2,4],[3,4]]}'


@pytest.fixture
def k4_file(tmp_path):
    f = tmp_path / "k4.json"
    f.write_text(K4_DOC)
    return str(f)


@pytest.fixture
def c6_file(tmp_path):
    f = tmp_path / "c6.json"
    f.write_text(json.dumps(BATTERY_DOCS["C6"]))
    return str(f)


@pytest.fixture
def run(capsys):
    def _run(*argv):
        rc = main(list(argv))
        out = capsys.readouterr()
        return rc, out.out, out.err

    return _run


class TestParams:
    def test_k4_gf3_csv_golden(self, run, k4_file):
        rc, out, _ = run(
            "params", "--clutter", k4_file, "--q", "3",
            "--format", "csv", "--method", "bruteforce", "--dmin", "1", "--dmax", "3",
        )
        assert rc == EXIT_OK
        assert out.splitlines() == [
            "d,length,dim,delta,delta_lower,delta_method,delta_prime,singleton",
            "1,8,6,2,2,bruteforce,4,3",
            "2,8,8,1,1,bruteforce,2,1",
            "3,8,8,1,1,bruteforce,1,1",
        ]

    def test_torus_gf9_formula_csv(self, run):
        rc, out, _ = run(
            "params", "--torus", "3", "--q", "9",
            "--format", "csv", "--dmin", "1", "--dmax", "4",
        )
        assert rc == EXIT_OK
        assert out.splitlines()[1:] == [
            "1,64,3,56,56,formula,56,62",
            "2,64,6,48,48,formula,48,59",
            "3,64,10,40,40,formula,40,55",
            "4,64,15,32,32,formula,32,50",
        ]

    def test_default_range_ends_at_regularity(self, run, k4_file):
        rc, out, _ = run("params", "--clutter", k4_file, "--q", "3", "--format", "csv")
        assert rc == EXIT_OK
        rows = out.splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["1", "2"]

    def test_full_range_extends_to_bound(self, run, k4_file):
        rc, out, _ = run(
            "params", "--clutter", k4_file, "--q", "3", "--format", "csv", "--full"
        )
        # (q-2)(s-1) = 5
        assert [r.split(",")[0] for r in out.splitlines()[1:]] == list("12345")

    def test_text_table_marks_regularity(self, run, k4_file):
        rc, out, _ = run("params", "--clutter", k4_file, "--q", "3")
        assert rc == EXIT_OK
        marked = [l for l in out.splitlines() if "<- reg" in l]
        assert len(marked) == 1 and marked[0].startswith("2")

    def test_json_shape(self, run, k4_file):
        rc, out, _ = run(
            "params", "--clutter", k4_file, "--q", "3", "--format", "json"
        )
        body = json.loads(out)
        assert body["length"] == 8 and body["regularity"] == 2
        assert body["rows"][0]["dim"] == 6

    def test_deterministic(self, run, k4_file):
        a = run("params", "--clutter", k4_file, "--q", "4", "--format", "csv")
        b = run("params", "--clutter", k4_file, "--q", "4", "--format", "csv")
        assert a == b

    def test_p_k_spelling(self, run, k4_file):
        rc1, out1, _ = run("params", "--clutter", k4_file, "--p", "2", "--k", "2", "--format", "csv", "--dmin", "1", "--dmax", "1")
        rc2, out2, _ = run("params", "--clutter", k4_file, "--q", "4", "--format", "csv", "--dmin", "1", "--dmax", "1")
        assert rc1 == rc2 == EXIT_OK and out1 == out2

    def test_text_shorthand_file(self, run, tmp_path):
        f = tmp_path / "p4.txt"
        f.write_text("1 2\n2 3\n# tail edge\n3 4\n")
        rc, out, _ = run("params", "--clutter", str(f), "--q", "3", "--format", "csv")
        assert rc == EXIT_OK
        assert out.splitlines()[1].startswith("1,4,3,")


    def test_k5_gf7_formula_regularity(self, run, tmp_path):
        # s = 10 puts the bound (q-2)(s-1) = 45 far above the regularity,
        # where no degree-45 monomial list may be built
        f = tmp_path / "k5.json"
        edges = [[a, b] for a in range(1, 6) for b in range(a + 1, 6)]
        f.write_text(json.dumps({"n": 5, "edges": edges}))
        rc, out, _ = run(
            "params", "--clutter", str(f), "--q", "7", "--d", "1",
            "--method", "formula", "--format", "json",
        )
        assert rc == EXIT_OK
        body = json.loads(out)
        assert body["regularity"] == 10 and body["length"] == 1296


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("name", sorted(BATTERY))
def test_params_rows_are_mindist_reports(run, tmp_path, name, q):
    """Each params row is the mindist report of its degree restricted to the
    row's keys, "dimension" read as "dim"; a formula that does not apply
    fails both alike."""
    f = tmp_path / f"{name}.json"
    f.write_text(json.dumps(BATTERY_DOCS[name]))
    source = ("--clutter", str(f), "--q", str(q), "--format", "json")
    methods = ["formula"] + (["auto"] if size_of_X(BATTERY[name], q) <= 64 else [])
    for method in methods:
        rc, out, err = run("params", *source, "--method", method)
        if rc == EXIT_INPUT:
            assert run("mindist", *source, "--method", method, "--d", "1") == (rc, out, err)
            continue
        rows = json.loads(out)["rows"]
        assert rc == EXIT_OK and rows
        for row in rows:
            rc, out, _ = run("mindist", *source, "--method", method, "--d", str(row["d"]))
            report = {"dim" if k == "dimension" else k: v for k, v in json.loads(out).items()}
            assert rc == EXIT_OK and row == {k: report[k] for k in row}, (method, row["d"])


class TestMindist:
    def test_json_report(self, run, k4_file):
        rc, out, _ = run(
            "mindist", "--clutter", k4_file, "--q", "3", "--d", "1", "--format", "json"
        )
        body = json.loads(out)
        assert body["delta"] == 2 and body["delta_exact"] is True
        assert body["delta_prime"] == 4
        assert body["regularity"] == 2

    def test_requires_d(self, run, k4_file):
        rc, _, err = run("mindist", "--clutter", k4_file, "--q", "3")
        assert rc == EXIT_INPUT and "needs --d" in err

    def test_time_budget_stops_bruteforce(self, run, c6_file):
        rc, out, _ = run(
            "mindist", "--clutter", c6_file, "--q", "4", "--d", "1",
            "--method", "bruteforce", "--time-budget", "0", "--format", "json",
        )
        body = json.loads(out)
        assert rc == EXIT_OK
        assert body["delta_method"] == "bruteforce" and body["delta_exact"] is False
        assert body["delta"] >= 50

    def test_stopped_search_prints_interval(self, run, c6_file, k4_file):
        # C6/GF(4) d=1 is [81, 6]; stopped before weight 1, the floor 36 is
        # proven (above ceil(81/6) = 14), and the lightest row of the
        # systematic form (weight 50) is the best codeword known
        argv = ["--clutter", c6_file, "--q", "4", "--d", "1",
                "--method", "isd", "--time-budget", "0"]
        rc, out, _ = run("mindist", *argv, "--format", "json")
        body = json.loads(out)
        assert rc == EXIT_OK and body["delta_exact"] is False
        assert (body["delta_lower"], body["delta"]) == (36, 50)
        rc, out, _ = run("mindist", *argv)
        assert rc == EXIT_OK and "delta: [36, 50]" in out.splitlines()
        rc, out, _ = run("params", *argv)
        assert rc == EXIT_OK and out.splitlines()[1].split()[3:5] == ["[36,", "50]"]
        rc, out, _ = run("params", *argv, "--format", "csv")
        assert out.splitlines()[1] == "1,81,6,50,36,isd,,76"
        # K4/GF(5) d=3: the box bound meets the lightest row, so even a zero
        # budget gives the exact distance
        argv = ["--clutter", k4_file, "--q", "5", "--d", "3",
                "--method", "isd", "--time-budget", "0"]
        rc, out, _ = run("mindist", *argv)
        assert rc == EXIT_OK and "delta: 4" in out.splitlines()
        rc, out, _ = run("params", *argv, "--format", "csv")
        assert out.splitlines()[1] == "3,64,44,4,4,isd,16,21"

    def test_torus_report(self, run):
        rc, out, _ = run("mindist", "--torus", "3", "--q", "4", "--d", "2", "--format", "json")
        body = json.loads(out)
        assert rc == EXIT_OK and body["equals_torus"] is True
        assert (body["delta"], body["delta_lower"], body["delta_method"]) == (3, 3, "formula")
        assert body["delta_prime"] == 3 and body["regularity"] == 4

    def test_rejects_degree_zero(self, run, k4_file):
        rc, _, err = run("mindist", "--clutter", k4_file, "--q", "3", "--d", "0")
        assert rc == EXIT_INPUT and "need d >= 1" in err


class TestCi:
    def test_k4_json(self, run, k4_file):
        rc, out, _ = run("ci", "--clutter", k4_file, "--q", "3", "--format", "json")
        body = json.loads(out)
        assert body["applicable"] is True
        assert body["is_ci"] is False
        assert body["advisory_equals_torus"] is False

    def test_triangle_text(self, run, tmp_path):
        f = tmp_path / "c3.txt"
        f.write_text("1 2\n2 3\n1 3\n")
        rc, out, _ = run("ci", "--clutter", str(f), "--q", "3")
        assert rc == EXIT_OK
        assert "is_ci: True" in out
        assert "advisory_equals_torus: True" in out

    def test_k4_csv(self, run, k4_file):
        rc, out, _ = run("ci", "--clutter", k4_file, "--q", "3", "--format", "csv")
        assert rc == EXIT_OK
        assert out == (
            "applicable,is_ci,vectors_independent,phi_injective,reason,"
            "advisory_equals_torus,advisory_size_X,advisory_torus_size\n"
            "True,False,False,,characteristic vectors are linearly dependent,False,8,32\n"
        )

    def test_non_uniform_advisory(self, run, tmp_path):
        f = tmp_path / "mix.txt"
        f.write_text("1 2\n3\n")
        rc, out, _ = run("ci", "--clutter", str(f), "--q", "3", "--format", "json")
        body = json.loads(out)
        assert body["applicable"] is False and body["is_ci"] is None
        assert "advisory_equals_torus" in body


class TestGroebner:
    def test_torus_text(self, run):
        rc, out, _ = run("groebner", "--torus", "2", "--q", "4")
        assert rc == EXIT_OK
        assert out.splitlines()[0] == "t1^3 + t2^3"

    def test_c4_json(self, run, tmp_path):
        f = tmp_path / "c4.txt"
        f.write_text("1 2\n2 3\n3 4\n1 4\n")
        rc, out, _ = run(
            "groebner", "--clutter", str(f), "--q", "3", "--format", "json"
        )
        body = json.loads(out)
        assert body["degree_complexity"] == 2
        assert len(body["elements"]) == 6
        first = body["elements"][0]
        assert first["terms"][0]["exponents"] == [2, 0, 0, 0]
        # coefficient of the lead is 1, serialized as index 1
        assert first["terms"][0]["coeff_index"] == 1
        assert body["structure"]["pure_powers_present"] is True

    def test_k6_gf5(self, run, tmp_path):
        f = tmp_path / "k6.json"
        edges = [[a, b] for a in range(1, 7) for b in range(a + 1, 7)]
        f.write_text(json.dumps({"n": 6, "edges": edges}))
        rc, out, _ = run("groebner", "--clutter", str(f), "--q", "5")
        assert rc == EXIT_OK
        assert out.splitlines()[-1] == "# 365 elements, degree complexity 5"

    def test_no_degree_bound_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["groebner", "--torus", "2", "--q", "4", "--degree-bound", "3"])
        assert exc.value.code == EXIT_INPUT
        assert "--degree-bound" in capsys.readouterr().err


class TestProfile:
    def test_dump_points(self, run, k4_file, tmp_path):
        dump = tmp_path / "pts.csv"
        rc, out, _ = run(
            "profile", "--clutter", k4_file, "--q", "3", "--dump-points", str(dump)
        )
        assert rc == EXIT_OK
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "t1,t2,t3,t4,t5,t6"
        assert len(lines) == 9

    @pytest.mark.parametrize("target", ["missing/pts.csv", "."], ids=["no-dir", "a-dir"])
    def test_dump_points_unwritable(self, run, k4_file, tmp_path, target):
        # an unwritable points file is bad input, like an unreadable clutter
        rc, out, err = run(
            "profile", "--clutter", k4_file, "--q", "3",
            "--dump-points", str(tmp_path / target),
        )
        assert (rc, out) == (EXIT_INPUT, "")
        assert err.startswith("input error: cannot write points file: ")

    def test_csv_quotes_the_note(self, run, k4_file):
        rc, out, _ = run("profile", "--clutter", k4_file, "--q", "3", "--format", "csv")
        assert rc == EXIT_OK
        header, row = out.splitlines()
        assert header.split(",")[-1] == "note" and row.split(",")[:4] == ["4", "6", "3", "8"]
        assert row.endswith(',"normality of the edge subring is user-asserted, not verified"')

    def test_four_disjoint_triangles_gf9(self, run, tmp_path):
        # (q-1)^n = 8^12 tuples, but X is the whole torus of 8^3 points
        f = tmp_path / "tri4.txt"
        f.write_text("1 2 3\n4 5 6\n7 8 9\n10 11 12\n")
        rc, out, _ = run("profile", "--clutter", str(f), "--q", "9", "--format", "json")
        assert rc == EXIT_OK
        body = json.loads(out)
        assert body["points"] == 512 and body["equals_ambient_torus"] is True


class TestClosedFormSize:
    """ci and profile read q and |X| from the Smith form and build neither
    a field nor a point, unless profile is asked for them with
    --dump-points."""

    ARGVS = [
        ("ci", "--q", "3", "--format", "json"),
        ("ci", "--q", "4"),
        ("profile", "--q", "3", "--format", "json"),
        ("profile", "--q", "9"),
        ("ci", "--p", "5", "--format", "json"),
        ("profile", "--p", "2", "--k", "3"),
        ("ci", "--q", "3", "--budget", "7"),
        ("profile", "--q", "5", "--budget", "7", "--format", "json"),
    ]

    def test_no_points_built(self, run, k4_file, monkeypatch):
        from toriccode import toric_set

        def refuse(*args, **kwargs):
            raise AssertionError("no field and no point of X may be built")

        cases = [(cmd, "--clutter", k4_file, *rest) for cmd, *rest in self.ARGVS]
        cases += [(cmd, "--torus", "3", "--q", "4") for cmd in ("ci", "profile")]
        before = [run(*argv) for argv in cases]
        monkeypatch.setattr(toric_set, "clutter_set", refuse)
        monkeypatch.setattr(toric_set, "projective_torus", refuse)
        monkeypatch.setattr(FiniteField, "__init__", refuse)
        make_field.cache_clear()
        after = [run(*argv) for argv in cases]
        assert after == before
        codes = [EXIT_OK] * 6 + [EXIT_BUDGET] * 2 + [EXIT_INPUT] * 2
        assert [rc for rc, _, _ in after] == codes
        assert json.loads(after[2][1])["points"] == 8

    def test_dump_points_builds_X(self, run, k4_file, tmp_path, monkeypatch):
        # the points file holds primitive-power indices: no field is needed
        from toriccode import toric_set

        calls, fields = [], []
        init = FiniteField.__init__

        def counted(*args, **kwargs):
            calls.append(args)
            return clutter_set(*args, **kwargs)

        def counted_field(self, p, k):
            fields.append((p, k))
            init(self, p, k)

        dump = tmp_path / "pts.csv"
        argv = ("profile", "--clutter", k4_file, "--q", "4", "--format", "json")
        plain = run(*argv)
        run(*argv, "--dump-points", str(dump))
        points = dump.read_text()
        monkeypatch.setattr(toric_set, "clutter_set", counted)
        monkeypatch.setattr(FiniteField, "__init__", counted_field)
        make_field.cache_clear()
        dumped = run(*argv, "--dump-points", str(dump))
        assert dumped == plain and len(calls) == 1 and fields == []
        assert dump.read_text() == points
        assert len(points.strip().splitlines()) == 1 + 27

    @pytest.mark.parametrize("command", ["ci", "profile"])
    def test_budget_caps_size(self, run, k4_file, command):
        # |X| = 8 for K4 over GF(3), |T| = 9 in P^2 over GF(4)
        rc, _, err = run(command, "--clutter", k4_file, "--q", "3", "--budget", "7")
        assert rc == EXIT_BUDGET and "budget 7" in err
        rc, _, _ = run(command, "--clutter", k4_file, "--q", "3", "--budget", "8")
        assert rc == EXIT_OK
        rc, _, err = run(command, "--torus", "3", "--q", "4", "--budget", "8")
        assert rc == EXIT_BUDGET and "budget 8" in err
        rc, _, _ = run(command, "--torus", "3", "--q", "4", "--budget", "9")
        assert rc == EXIT_INPUT

    def test_k10_gf9_profile(self, run, tmp_path):
        # 8^9 points, far too many to build: only the Smith form is read
        f = tmp_path / "k10.json"
        edges = [[a, b] for a in range(1, 11) for b in range(a + 1, 11)]
        f.write_text(json.dumps({"n": 10, "edges": edges}))
        rc, out, _ = run(
            "profile", "--clutter", str(f), "--q", "9", "--budget", "1000000000",
            "--format", "json",
        )
        assert rc == EXIT_OK
        body = json.loads(out)
        assert body["points"] == 134217728 and body["degree_matches_torus_bound"] is True


class TestErrors:
    def test_missing_field(self, run, k4_file):
        rc, _, err = run("params", "--clutter", k4_file)
        assert rc == EXIT_INPUT and "field" in err

    def test_q_and_p_conflict(self, run, k4_file):
        rc, _, err = run("params", "--clutter", k4_file, "--q", "3", "--p", "3")
        assert rc == EXIT_INPUT

    def test_q2(self, run, k4_file):
        rc, _, err = run("params", "--clutter", k4_file, "--q", "2")
        assert rc == EXIT_INPUT and "q >= 3" in err

    def test_bad_clutter_file(self, run, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"n": 3, "edges": [[1,2],[1,2,3]]}')
        rc, _, err = run("params", "--clutter", str(f), "--q", "3")
        assert rc == EXIT_INPUT and "contained" in err

    def test_missing_file(self, run):
        rc, _, err = run("params", "--clutter", "/nonexistent/x.json", "--q", "3")
        assert rc == EXIT_INPUT

    def test_enum_budget(self, run, k4_file):
        rc, _, err = run("params", "--clutter", k4_file, "--q", "9", "--budget", "10")
        assert rc == EXIT_BUDGET and "budget" in err

    def test_torus_budget(self, run):
        # |T| = 8^11 points: the budget stops the build before allocating it
        rc, _, err = run("profile", "--torus", "12", "--q", "9", "--budget", "1000")
        assert rc == EXIT_BUDGET and "budget" in err

    def test_large_torus_budget(self, run):
        rc, _, err = run(
            "params", "--torus", "30", "--q", "9", "--d", "1", "--budget", "1000"
        )
        assert rc == EXIT_BUDGET and "budget" in err

    def test_class_budget(self, run, c6_file):
        # C6/GF(3) d=1: 3^5 messages, and the lightest row, 6, is above the
        # floor 5
        rc, _, err = run(
            "mindist", "--clutter", c6_file, "--q", "3", "--d", "1",
            "--method", "bruteforce", "--class-budget", "3",
        )
        assert rc == EXIT_BUDGET

    def test_bad_degree_range(self, run, k4_file):
        rc, _, err = run(
            "params", "--clutter", k4_file, "--q", "3", "--dmin", "3", "--dmax", "1"
        )
        assert rc == EXIT_INPUT

    def test_truncated_json_values_rejected(self, run, tmp_path):
        # n = 3.9 and vertices 2.7 and 3.2 were once read as the triangle
        f = tmp_path / "floats.json"
        f.write_text('{"n": 3.9, "edges": [[1, 2.7], [2, 3], [1, 3.2]]}')
        for command in ("ci", "profile"):
            assert run(command, "--clutter", str(f), "--q", "3") == (
                EXIT_INPUT, "", 'input error: clutter document needs integer "n" and list "edges"\n'
            )

    @pytest.mark.parametrize(
        "command,flags,message",
        [
            ("ci", ("--budget", "-1"), "--budget must be >= 0, got -1"),
            ("profile", ("--budget", "-1"), "--budget must be >= 0, got -1"),
            ("mindist", ("--d", "1", "--method", "bruteforce", "--class-budget", "-5"),
             "--class-budget must be >= 0, got -5"),
            ("mindist", ("--d", "1", "--time-budget", "-1"), "--time-budget must be >= 0, got -1.0"),
            ("params", ("--d", "1", "--time-budget", "-0.5"),
             "--time-budget must be >= 0, got -0.5"),
        ],
    )
    def test_negative_budget(self, run, c6_file, command, flags, message):
        # once exit 3 ("budget exhausted"), or an inexact interval with exit 0
        assert run(command, "--clutter", c6_file, "--q", "5", *flags) == (
            EXIT_INPUT, "", f"input error: {message}\n"
        )

    def test_dmin_past_regularity(self, run, k4_file):
        # the default end is the regularity, 2 for K4 over GF(3)
        assert run("params", "--clutter", k4_file, "--q", "3", "--dmin", "3") == (
            EXIT_INPUT, "", "input error: bad degree range [3, 2]\n"
        )


class TestDegreesBeforePoints:
    """A degree range that no X can serve exits 2 before |X| is computed
    and before any field or point is built; with --budget 1 it would
    otherwise exit 3."""

    CASES = [
        (("mindist",), "mindist needs --d"),
        (("mindist", "--d", "0"), "need d >= 1"),
        (("params", "--dmin", "0"), "bad degree range [0, ...]"),
        (("params", "--dmin", "0", "--dmax", "2"), "bad degree range [0, 2]"),
        (("params", "--d", "0"), "bad degree range [0, 0]"),
        (("params", "--dmin", "3", "--dmax", "2"), "bad degree range [3, 2]"),
    ]

    def test_exit_2_first(self, run, k4_file, monkeypatch):
        from toriccode import toric_set

        def refuse(*args, **kwargs):
            raise AssertionError("no size, field or point may be computed")

        monkeypatch.setattr(intlattice, "size_of_X", refuse)
        monkeypatch.setattr(toric_set, "clutter_set", refuse)
        monkeypatch.setattr(toric_set, "projective_torus", refuse)
        monkeypatch.setattr(FiniteField, "__init__", refuse)
        make_field.cache_clear()
        for (command, *rest), message in self.CASES:
            for source in (("--clutter", k4_file), ("--torus", "3")):
                got = run(command, *source, "--q", "9", "--budget", "1", *rest)
                assert got == (EXIT_INPUT, "", f"input error: {message}\n"), (command, rest)


class TestNoFieldNoPoints:
    """groebner (text, csv, json) and params --method formula read only the
    Smith presentation of X: with FiniteField.__init__ and the point build
    (ToricSet.logs) patched to raise, their output is unchanged on the
    battery.  mindist still builds the field and the points, once each."""

    QS = ("3", "4", "5", "8", "9")

    def _cases(self, tmp_path):
        cases = []
        for name, doc in BATTERY_DOCS.items():
            f = tmp_path / f"{name}.json"
            f.write_text(json.dumps(doc))
            for q in self.QS:
                if size_of_X(BATTERY[name], int(q)) > 5000:
                    continue
                source = ("--clutter", str(f), "--q", q)
                cases += [("groebner", *source, "--format", fmt) for fmt in ("text", "csv", "json")]
                cases += [("params", *source, "--method", "formula", "--format", fmt)
                          for fmt in ("text", "json")]
        cases += [("groebner", "--torus", "3", "--q", "4"),
                  ("params", "--torus", "4", "--q", "3", "--method", "formula", "--full")]
        return cases

    def test_groebner_and_formula_build_neither(self, run, tmp_path, monkeypatch):
        from toriccode.toric_set import ToricSet

        def refuse(*args, **kwargs):
            raise AssertionError("no field and no point of X may be built")

        cases = self._cases(tmp_path)
        assert len(cases) > 150
        before = [run(*argv) for argv in cases]
        monkeypatch.setattr(FiniteField, "__init__", refuse)
        monkeypatch.setattr(ToricSet, "logs", property(refuse))
        make_field.cache_clear()
        after = [run(*argv) for argv in cases]
        assert after == before
        # params --method formula exits 2 where delta'_d does not apply
        assert {argv[0] for argv, (rc, _, _) in zip(cases, after) if rc != EXIT_OK} == {"params"}
        assert sum(rc == EXIT_OK for rc, _, _ in after) > 150

    def test_mindist_builds_both_once(self, run, k4_file, monkeypatch):
        from functools import cached_property

        from toriccode.toric_set import ToricSet

        fields, points = [], []
        init, build = FiniteField.__init__, ToricSet.__dict__["logs"].func

        def counted_field(self, p, k):
            fields.append((p, k))
            init(self, p, k)

        def counted_points(self):
            points.append(len(self))
            return build(self)

        logs = cached_property(counted_points)
        logs.__set_name__(ToricSet, "logs")
        argv = ("mindist", "--clutter", k4_file, "--q", "4", "--d", "1", "--format", "json")
        plain = run(*argv)
        monkeypatch.setattr(FiniteField, "__init__", counted_field)
        monkeypatch.setattr(ToricSet, "logs", logs)
        make_field.cache_clear()
        assert run(*argv) == plain and plain[0] == EXIT_OK
        assert fields == [(2, 2)] and points == [27]


def test_bruteforce_at_the_floor_needs_no_class_budget(run, k4_file):
    """K4 over GF(9), d = 2, is [512, 19]: its 9^18 messages exceed the
    default class budget, but the lightest generator row already meets the
    box floor 288, so brute force returns that exactly."""
    rc, out, _ = run("mindist", "--clutter", k4_file, "--q", "9", "--d", "2",
                     "--method", "bruteforce", "--format", "json")
    assert rc == EXIT_OK
    body = json.loads(out)
    assert (body["delta"], body["delta_lower"], body["delta_exact"]) == (288, 288, True)
    assert body["delta_method"] == "bruteforce"


def test_isd_class_budget_bounds_the_search(run, tmp_path):
    """Information-set search stops at the class budget: on two triangles
    with a common vertex over GF(5), d = 5 ([256, 192], floor 3), weight 3
    alone has C(192, 3) 4^2 > 1.8 * 10^7 messages; the default budget of
    10^7 stops the search before it with an interval."""
    f = tmp_path / "bowtie.json"
    f.write_text(json.dumps({"n": 5, "edges": [[1, 2], [2, 3], [1, 3], [3, 4], [4, 5], [3, 5]]}))
    start = time.monotonic()
    rc, out, _ = run("mindist", "--clutter", str(f), "--q", "5", "--d", "5",
                     "--method", "isd", "--format", "json")
    assert rc == EXIT_OK and time.monotonic() - start < 30
    body = json.loads(out)
    assert body["delta_exact"] is False and body["delta_method"] == "isd"
    # Chen's bound after weight 2: ceil(256 * 3 / 192)
    assert body["delta_lower"] == 4 < body["delta"] <= body["delta_prime"]


JSON_REPORTS = json.loads((Path(__file__).parent / "json_reports.json").read_text())


@pytest.mark.parametrize("case", list(JSON_REPORTS))
def test_json_report_is_one_line(run, k4_file, case):
    """Every JSON report is one line, whose parsed body, key order
    included, is the one recorded when reports were written indented."""
    argv = [k4_file if a == "K4" else a for a in case.split()]
    rc, out, _ = run(*argv, "--format", "json")
    assert rc == EXIT_OK
    assert out.endswith("\n") and out.count("\n") == 1
    body = json.loads(out)
    assert body == JSON_REPORTS[case]
    assert json.dumps(body) == json.dumps(JSON_REPORTS[case])


FIELD_ERRORS = [
    (("--q", "1"), "q = 1 is not a prime power >= 3"),
    (("--q", "2"), "GF(2) is not supported; need q >= 3"),
    (("--q", "6"), "q = 6 is not a prime power"),
    (("--q", "12"), "q = 12 is not a prime power"),
    (("--q", "131072"), "q = 131072 exceeds the cardinality cap 65536"),
    (("--p", "4"), "p = 4 is not prime"),
    (("--p", "3", "--k", "0"), "k = 0 must be >= 1"),
    (("--q", "9", "--p", "3"), "give either --q or --p/--k, not both"),
    ((), "a field is required: --q Q or --p P [--k K]"),
]


@pytest.mark.parametrize(
    "field,message", FIELD_ERRORS, ids=[" ".join(f) or "none" for f, _ in FIELD_ERRORS]
)
def test_bad_field_same_for_every_command(run, k4_file, field, message):
    """ci and profile, which build no field, reject a bad field size with
    the exit code and message of the commands that build one."""
    for command in ("params", "mindist", "groebner", "ci", "profile"):
        degree = ("--d", "1") if command == "mindist" else ()
        for source in (("--clutter", k4_file), ("--torus", "3"), ("--torus", "1")):
            got = run(command, *source, *field, *degree)
            assert got == (EXIT_INPUT, "", f"input error: {message}\n"), (command, source)


HUGE_FIELDS = [
    (("--p", "3", "--k", "1000000000"), "q = 3^1000000000 exceeds the cardinality cap 65536"),
    (("--q", "2305843009213693951"), "q = 2305843009213693951 exceeds the cardinality cap 65536"),
    (("--p", "2305843009213693951"), "q = 2305843009213693951 exceeds the cardinality cap 65536"),
]


@pytest.mark.parametrize("field,message", HUGE_FIELDS, ids=[" ".join(f) for f, _ in HUGE_FIELDS])
def test_huge_field_rejected_at_once(run, k4_file, field, message):
    """The size checks form no power past the cap and divide by no trial
    factor past 256, so a huge p^k, or a prime q or p of 61 bits, exits 2
    within a second."""
    for command in ("params", "mindist", "groebner", "ci", "profile"):
        degree = ("--d", "1") if command == "mindist" else ()
        start = time.monotonic()
        got = run(command, "--clutter", k4_file, *field, *degree)
        assert got == (EXIT_INPUT, "", f"input error: {message}\n"), command
        assert time.monotonic() - start < 1, command


class TestParserOnce:
    def test_error_then_valid_call_builds_once(self, run, k4_file, monkeypatch, capsys):
        argv = ("ci", "--clutter", k4_file, "--q", "3", "--format", "json")
        fresh = run(*argv)
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            if kwargs.get("prog") == "toriccode":
                built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        _build_parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["ci", "--clutter", k4_file, "--q", "3", "--no-such-flag"])
        assert exc.value.code == EXIT_INPUT
        assert "--no-such-flag" in capsys.readouterr().err
        assert run(*argv) == fresh and fresh[0] == EXIT_OK
        assert len(built) == 1


class TestLatticeFactsOnce:
    """A CLI job computes at most one Smith form and one rational rank."""

    JOBS = [
        ("ci", "U6", "9"),
        ("ci", "C4", "3"),
        ("ci", "TWO_TRIANGLES", "5"),
        ("profile", "U6", "9"),
        ("profile", "K5", "4"),
        ("params", "C5", "5", "--method", "formula"),
        ("params", "K4", "3"),
        ("params", "K5", "4", "--method", "formula", "--full"),
        ("mindist", "K4", "3", "--d", "1"),
        ("mindist", "C5", "4", "--d", "2", "--method", "formula"),
    ]

    @pytest.mark.parametrize("job", JOBS, ids=lambda job: "-".join(job[:3]))
    def test_at_most_one_of_each(self, run, tmp_path, monkeypatch, job):
        command, name, q, *rest = job
        docs = {**BATTERY_DOCS, "TWO_TRIANGLES": {
            "n": 6, "edges": [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]]
        }}
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(docs[name]))
        calls = Counter()
        for attr in ("smith_normal_form", "rank_rational"):
            original = getattr(intlattice, attr)

            def counted(*args, _attr=attr, _original=original, **kwargs):
                calls[_attr] += 1
                return _original(*args, **kwargs)

            # every toriccode namespace that holds the function
            for mod in [m for k, m in sys.modules.items() if k.startswith("toriccode")]:
                if getattr(mod, attr, None) is original:
                    monkeypatch.setattr(mod, attr, counted)
        intlattice.lattice_facts.cache_clear()
        rc, out, _ = run(command, "--clutter", str(f), "--q", q, "--format", "json", *rest)
        assert rc == EXIT_OK and out
        assert calls["smith_normal_form"] <= 1 and calls["rank_rational"] <= 1
        if command in ("ci", "profile"):
            assert calls["smith_normal_form"] == 1


def _child_env():
    """The environment of a child interpreter that imports this toriccode."""
    import toriccode

    src = os.path.dirname(os.path.dirname(toriccode.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""),
            "OPENBLAS_NUM_THREADS": "1"}


class TestWalksPerJob:
    """mindist, a params table and groebner each walk the standard
    monomials once: the walk of X keeps every N_d, so no degree asked for
    again restarts it.  It takes r+1 steps, N_0 to N_r, r the regularity;
    groebner too, since the basis is read from those N_d in one pass."""

    JOBS = [
        (("mindist", "U6", "4", "--d", "1"), 1),
        (("mindist", "K4", "5", "--d", "3", "--method", "isd"), 1),
        (("mindist", "K4", "3", "--d", "5", "--method", "bruteforce"), 1),
        (("mindist", "C5", "4", "--d", "2", "--method", "formula"), 1),
        (("params", "K4", "5", "--method", "isd"), 1),
        (("params", "K4", "5", "--method", "formula"), 1),
        (("params", "K4", "5", "--dmin", "2", "--dmax", "3", "--method", "isd"), 1),
        (("params", "K4", "3", "--full", "--method", "bruteforce"), 1),
        (("params", "K4", "3", "--dmin", "3", "--dmax", "4", "--method", "isd"), 1),
        (("groebner", "K4", "8"), 1),
        (("groebner", "U6", "4"), 1),
        (("groebner", "P3", "3"), 1),
    ]

    @pytest.mark.parametrize(
        "job,walks", JOBS, ids=[f"{'-'.join(job[:3])}-{i}" for i, (job, _) in enumerate(JOBS)]
    )
    def test_walk_count(self, run, tmp_path, monkeypatch, job, walks):
        from toriccode import eval_code

        command, name, q, *rest = job
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(BATTERY_DOCS[name]))
        argv = (command, "--clutter", str(f), "--q", q, "--format", "json", *rest)
        plain = run(*argv)
        r = regularity(enumerate_X(BATTERY[name], int(q)))
        calls, steps = [], []
        original = eval_code.standard_walk

        def counted(*args, **kwargs):
            calls.append(args)
            for step in original(*args, **kwargs):
                steps.append(step)
                yield step

        monkeypatch.setattr(eval_code, "standard_walk", counted)
        assert run(*argv) == plain and plain[0] == EXIT_OK
        assert len(calls) == walks
        assert len(steps) == r + 1


@pytest.mark.parametrize("d", ["1", "2", "3"])
def test_one_rref_per_isd_job(run, tmp_path, monkeypatch, d):
    """mindist --method isd reduces the evaluations of Delta_d once, in
    code(); the search takes that RREF as its systematic form."""
    from toriccode import _linalg

    f = tmp_path / "K4.json"
    f.write_text(json.dumps(BATTERY_DOCS["K4"]))
    argv = ("mindist", "--clutter", str(f), "--q", "5", "--d", d, "--method", "isd")
    plain = run(*argv)
    calls = []
    original = _linalg.rref

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(_linalg, "rref", counted)
    assert run(*argv) == plain and plain[0] == EXIT_OK
    assert len(calls) == 1


def test_no_numpy_ma_import(tmp_path):
    """No subcommand imports numpy.ma (np.unique with axis= would)."""
    f = tmp_path / "c4.json"
    f.write_text(json.dumps(BATTERY_DOCS["C4"]))
    script = (
        "import contextlib, io, sys\n"
        "from toriccode.cli import main\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv.split()) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    common = f"--clutter {f} --q 5"
    jobs = [f"ci {common}", f"profile {common}", f"params {common}",
            f"mindist {common} --d 1 --method isd", f"groebner {common}"]
    out = subprocess.run(
        [sys.executable, "-c", script, *jobs], env=_child_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_lattice_commands_load_no_numpy(tmp_path):
    """Importing the CLI loads no numpy, and neither do ci and profile
    (without --dump-points) on a clutter file, in every format.  A mindist
    run next in the same interpreter exits 0 and prints what it prints in
    a fresh process."""
    f = tmp_path / "k4.json"
    f.write_text(K4_DOC)
    common = f"--clutter {f} --q 9"
    lattice = [f"{command} {common} --format {fmt}"
               for command in ("ci", "profile") for fmt in ("text", "csv", "json")]
    mindist = f"mindist --clutter {f} --q 3 --d 1".split()
    script = (
        "import contextlib, io, json, sys\n"
        "from toriccode.cli import main\n"
        "loaded = ['numpy' in sys.modules]\n"
        "for argv in sys.argv[1:-1]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv.split()) == 0, argv\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    rc = main(sys.argv[-1].split())\n"
        "print(json.dumps({'loaded': loaded, 'rc': rc, 'out': out.getvalue()}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *lattice, " ".join(mindist)], env=_child_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    fresh = subprocess.run(
        [sys.executable, "-m", "toriccode", *mindist], env=_child_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert fresh.returncode == EXIT_OK, fresh.stderr
    assert json.loads(done.stdout) == {
        "loaded": [False] * (1 + len(lattice)), "rc": EXIT_OK, "out": fresh.stdout
    }


def test_field_modules_run_together(tmp_path):
    """ci runs only the lattice modules; the first command that builds X
    runs every GF(q) module, mindist among them although groebner calls
    none of it, so no later job of the process pays for running one.  A
    lazily registered module that has not run is not of type ModuleType."""
    f = tmp_path / "k4.json"
    f.write_text(K4_DOC)
    script = (
        "import contextlib, io, sys, types\n"
        "from toriccode.cli import main\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv.split()) == 0, argv\n"
        "    print(' '.join(sorted(k for k, m in sys.modules.items()\n"
        "                          if k.startswith('toriccode.')\n"
        "                          and type(m) is types.ModuleType)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, f"ci --clutter {f} --q 9", "groebner --torus 3 --q 4"],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    after_ci, after_groebner = (line.split() for line in done.stdout.splitlines())
    lattice = ["toriccode.cli", "toriccode.clutter", "toriccode.intlattice", "toriccode.limits"]
    assert after_ci == lattice
    field = ["_linalg", "eval_code", "finite_field", "mindist", "toric_set", "vanishing_ideal"]
    assert set(lattice) | {f"toriccode.{name}" for name in field} <= set(after_groebner)


def _limit_address_space():
    # set in the child only, between fork and exec
    resource.setrlimit(resource.RLIMIT_AS, (2_000_000 * 1024, 2_000_000 * 1024))


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_budget_checked_before_points(tmp_path):
    """K10 over GF(9) has 8^9 points, past the default budget: every
    subcommand exits 3 with the message of ci, before building a point,
    even where building them would exhaust a 2 GB address space."""
    f = tmp_path / "k10.json"
    edges = [[a, b] for a in range(1, 11) for b in range(a + 1, 11)]
    f.write_text(json.dumps({"n": 10, "edges": edges}))
    results = []
    for command in (["ci"], ["params", "--method", "formula"], ["mindist", "--d", "1"],
                    ["groebner"]):
        out = subprocess.run(
            [sys.executable, "-m", "toriccode", command[0], "--clutter", str(f), "--q", "9",
             *command[1:]],
            env=_child_env(), capture_output=True, text=True, timeout=120,
            preexec_fn=_limit_address_space,
        )
        results.append((out.returncode, out.stdout, out.stderr))
    message = "budget exhausted: |X| = 134217728 points > budget 100000000\n"
    assert results == [(EXIT_BUDGET, "", message)] * 4
