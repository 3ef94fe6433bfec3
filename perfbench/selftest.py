"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs a few small jobs through toriccode.cli (from ./src), shows that each
checker accepts the true output and rejects a corrupted copy (a wrong |X|,
an H_X off by one, a non-vanishing binomial, a delta above the Singleton
bound, ...), and that the two exhaustive searches of refdist.py agree.
Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import copy
import io
import json
import os
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import refdist  # noqa: E402
import tracing  # noqa: E402
from workloads import Job, clutter_doc, write_clutters  # noqa: E402

KEY = "selftest"
FAILURES = []


def expect(label: str, errs: list[str], accept: bool):
    ok = (not errs) == accept
    verdict = "accepts" if not errs else f"rejects ({errs[0]})"
    print(f"{'PASS' if ok else 'FAIL'} {label}: checker {verdict}")
    if not ok:
        FAILURES.append(label)


def program_output(job: Job, paths) -> dict:
    from toriccode import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(job.argv(paths[job.clutter]))
    if rc != 0:
        raise RuntimeError(f"{job.name} exited {rc}")
    return json.loads(buf.getvalue())


def main() -> int:
    with open(os.path.join(HERE, "reference_distances.json")) as fh:
        refs = json.load(fh)["codes"]
    jobs = {
        "groebner": Job("groebner", "C6", 4),
        "groebner_torus": Job("groebner", "C5", 4),
        "params": Job("params", "K4", 5, method="formula"),
        "mindist": Job("mindist", "C4", 9, 1, "isd"),
        "profile": Job("profile", "K5", 4),
        "ci": Job("ci", "C5", 5),
    }
    paths = write_clutters(os.path.join(HERE, "out", "selftest"),
                           [j.clutter for j in jobs.values()] + ["TRI4"], KEY)

    def facts(job):
        return checks.Facts(clutter_doc(job.clutter, KEY), job.q)

    def run(label, job, mutate=None):
        out = program_output(job, paths)
        if mutate is None:
            expect(f"{job.name} as computed", checks.check_job(job, facts(job), out, refs), True)
        else:
            bad = copy.deepcopy(out)
            mutate(bad)
            expect(f"{job.name} with {label}", checks.check_job(job, facts(job), bad, refs), False)

    for job in jobs.values():
        run(None, job)

    def more_points(o):
        o["points"] += 1
    run("a wrong |X|", jobs["profile"], more_points)

    def advisory_size(o):
        o["advisory_size_X"] -= 1
    run("a wrong |X| in the advisory", jobs["ci"], advisory_size)

    def flip_ci(o):
        o["is_ci"] = not o["is_ci"]
    run("the CI verdict flipped", jobs["ci"], flip_ci)

    def hilbert_off_by_one(o):
        o["rows"][1]["dim"] += 1
    run("H_X(2) off by one", jobs["params"], hilbert_off_by_one)

    def regularity_off(o):
        o["regularity"] -= 1
    run("the regularity off by one", jobs["params"], regularity_off)

    def non_vanishing(o):
        # move one degree inside the tail: still homogeneous, no longer in I(X)
        g = next(g for g in o["elements"] if sum(g["terms"][1]["exponents"]) >= 1)
        tail = g["terms"][1]["exponents"]
        i = next(i for i, e in enumerate(tail) if e)
        j = next(j for j in range(len(tail)) if j != i and g["terms"][0]["exponents"][j] == 0)
        tail[i] -= 1
        tail[j] += 1
    run("a non-vanishing binomial", jobs["groebner"], non_vanishing)

    def drop_element(o):
        o["elements"].pop()
    run("a basis element missing", jobs["groebner"], drop_element)

    def torus_degree(o):
        o["elements"][0]["degree"] += 1
    run("an element of the wrong degree", jobs["groebner_torus"], torus_degree)

    def above_singleton(o):
        o["delta"] = o["singleton"] + 1
    run("delta above the Singleton bound", jobs["mindist"], above_singleton)

    def off_reference(o):
        o["delta"] -= 1
    run("delta below the exhaustive reference", jobs["mindist"], off_reference)

    # the job that fails today: its check is written against |X| = 512
    tri = Job("profile", "TRI4", 9)
    f = facts(tri)
    good = {"n": 12, "s": 4, "q": 9, "points": 512, "rank": 4, "rank_is_n": False,
            "uniform": True, "torus_bound_degree": 8 ** 11,
            "degree_matches_torus_bound": False, "equals_ambient_torus": True}
    expect("profile/TRI4/q9 with |X| = 512, equals_ambient_torus", checks.check_profile(f, good), True)
    expect("profile/TRI4/q9 with |X| = 511", checks.check_profile(f, {**good, "points": 511}), False)
    expect("profile/TRI4/q9 not the torus",
           checks.check_profile(f, {**good, "equals_ambient_torus": False}), False)

    expect("brute force and ISD agreeing", checks.disagreements([(("K5", 4, 1), 36)] * 2), True)
    expect("brute force and ISD disagreeing",
           checks.disagreements([(("K5", 4, 1), 36), (("K5", 4, 1), 35)]), False)

    # refdist: both exhaustive searches on codes where both are feasible
    for name, q, d in (("K4", 3, 1), ("K5", 3, 1), ("C6", 3, 1)):
        F = refdist.Field(q)
        n, edges = refdist.CLUTTERS[name]
        R, piv = refdist.row_reduce(F, refdist.evaluation_matrix(
            F, refdist.toric_points(n, edges, q - 1), d))
        a = refdist.min_weight_messages(F, R)
        b = refdist.min_weight_syndromes(F, refdist.parity_check(F, R, piv))
        expect(f"refdist {name}/q{q}/d{d}: messages {a} vs syndromes {b}",
               [] if a == b else ["searches differ"], True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect("per-layer metrics of BENCHMARK.json match tracing.METRICS",
           [] if declared == {k: u for k, (u, _) in tracing.METRICS.items()} else ["differ"],
           True)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
