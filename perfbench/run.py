"""Benchmark of the toriccode CLI.

    python3 perfbench/run.py --workload invariants|distance|sets
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree (the program is imported from ./src).
One pass runs the workload's jobs, one after another, in a
fresh single-threaded interpreter (perfbench/worker.py) through
`toriccode.cli.main(argv)` with `--format json`: a closed loop with one
client.  Passes repeat until --seconds have gone by; each draws its own job
order and clutter edge orders from the seed, and every figure is a median
over passes.  After each job, outside its timed region, the output
is checked against figures computed apart from the program (checks.py,
reference_distances.json).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the end-to-end metrics
with --trace 0, the per-layer metrics (from a traced worker) with --trace 1.
Details of every job and pass go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, clutter_doc, job_order, write_clutters  # noqa: E402

SETUP_SAMPLES = 7
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import toriccode.cli; "
    "print(time.perf_counter() - t)"
)
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_max_s": "s", "peak_rss_mib": "MiB",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict) -> list[float]:
    """Import time of toriccode.cli in fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"cannot import toriccode.cli: {proc.stderr.strip()}")
        samples.append(float(proc.stdout))
    return samples


class Checker:
    """Checks each distinct output of a job on one edge order once."""

    def __init__(self, references: dict):
        self.references = references
        self._facts: dict = {}
        self._seen: dict = {}

    def __call__(self, job, key: str, stdout: str) -> list[str]:
        seen = (job.name, key, hashlib.sha256(stdout.encode()).hexdigest())
        if seen not in self._seen:
            try:
                out = json.loads(stdout)
            except json.JSONDecodeError as exc:
                errs = [f"output is not JSON: {exc}"]
            else:
                fk = (job.clutter, key, job.q)
                if fk not in self._facts:
                    self._facts[fk] = checks.Facts(clutter_doc(job.clutter, key), job.q)
                errs = checks.check_job(job, self._facts[fk], out, self.references)
            self._seen[seen] = errs
        return self._seen[seen]


def _read(proc) -> dict:
    line = proc.stdout.readline()
    if not line:
        err = proc.stderr.read() if proc.stderr else ""
        raise BenchError(f"worker ended early: {err.strip()[-2000:]}")
    return json.loads(line)


def run_pass(jobs, key, env, check, trace_path) -> dict:
    paths = write_clutters(os.path.join(OUT, "clutters", key.replace("/", "-")),
                           [j.clutter for j in jobs], key)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), trace_path or "-"]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        head = _read(proc)
        if not head["cli"].startswith(SRC + os.sep):
            raise BenchError(f"toriccode.cli came from {head['cli']}, not from {SRC}")
        records = []
        for job in jobs:
            proc.stdin.write(json.dumps(job.argv(paths[job.clutter])) + "\n")
            proc.stdin.flush()
            reply = _read(proc)
            errs = check(job, key, reply["stdout"]) if reply["rc"] == 0 else []
            records.append({
                "job": job.name, "rc": reply["rc"], "seconds": reply["seconds"],
                "errors": errs, "stderr": reply["stderr"][-500:],
                "layers": reply.get("layers"),
                "delta": json.loads(reply["stdout"]).get("delta")
                if reply["rc"] == 0 and job.command == "mindist" and not errs else None,
            })
        proc.stdin.close()
        tail = _read(proc)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for fh in (proc.stdin, proc.stdout, proc.stderr):
            if fh and not fh.closed:
                fh.close()
    disagree = checks.disagreements(
        ((job.clutter, job.q, job.d), rec["delta"])
        for job, rec in zip(jobs, records) if rec["delta"] is not None)
    return {"import_s": head["import_s"], "peak_rss_mib": tail["peak_rss_mib"],
            "jobs": records, "disagreements": disagree}


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="toriccode CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "toriccode", "cli.py")):
        print(f"no program source at {SRC}/toriccode; run from a source tree", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference_distances.json")) as fh:
        references = json.load(fh)["codes"]

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    os.makedirs(OUT, exist_ok=True)
    env = worker_env()
    setup = measure_setup(env)
    check = Checker(references)

    if args.trace:
        for name in os.listdir(OUT):
            if name.startswith(f"trace-{args.workload}-p"):
                os.remove(os.path.join(OUT, name))
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds:
        trace_path = (os.path.join(OUT, f"trace-{args.workload}-p{len(passes)}.jsonl")
                      if args.trace else None)
        key = f"{args.seed}/{len(passes)}"
        passes.append(run_pass(job_order(args.workload, key), key, env, check, trace_path))

    records = [r for p in passes for r in p["jobs"]]
    failed = [r for r in records if r["rc"] != 0 or r["errors"]]
    correct = not any(r["errors"] for r in records) and not any(
        p["disagreements"] for p in passes)
    known = {j.name: j.known_failure for j in WORKLOADS[args.workload]}
    for r in failed:
        why = known[r["job"]] if r["rc"] and known[r["job"]] else "unexpected"
        print(f"failed: {r['job']} rc={r['rc']} ({why}) {r['errors'][:3]} "
              f"{r['stderr'].strip()}", file=sys.stderr)
    for p in passes:
        for msg in p["disagreements"]:
            print(f"disagreement: {msg}", file=sys.stderr)

    if args.trace:
        per_pass = []
        for p in passes:
            totals: dict = {}
            for r in p["jobs"]:
                for figure, value in (r["layers"] or {}).items():
                    totals[figure] = totals.get(figure, 0.0) + value
            per_pass.append(tracing.layer_metrics(totals))
        metrics = {name: {"value": _median([m[name] for m in per_pass]), "unit": unit}
                   for name, (unit, _) in tracing.METRICS.items()}
    else:
        # each job's time is its median over passes, so one slow pass of
        # one job moves no figure; the p50 is taken over every job time
        times: dict = {}
        for r in records:
            times.setdefault(r["job"], []).append(r["seconds"])
        per_job = [_median(t) for t in times.values()]
        values = {
            "setup_s": _median(setup),
            "wall_s": sum(per_job),
            "job_p50_s": _median([r["seconds"] for r in records]),
            "job_max_s": max(per_job),
            # the peak of the run: what a job leaves in the heap raises the
            # peak of the jobs after it, so a single pass depends on the order
            "peak_rss_mib": max(p["peak_rss_mib"] for p in passes),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    result = {"correct": correct, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples": setup, "passes": passes, "result": result,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "platform": platform.platform()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
