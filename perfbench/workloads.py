"""Clutters and job lists of the three benchmark workloads.

A job is one CLI invocation.  For each pass the seed fixes the order of
the jobs and a permutation of each clutter's edge order.  The edge order
fixes the variable order t1..ts and so the revlex basis and the work of the
Groebner and distance searches, but leaves |X|, H_X, the regularity and
every minimum distance unchanged.  The job order changes what the heap
holds when a job starts, and so the peak RSS.  Drawing both afresh for each
pass lets the medians over passes average over several of them.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 20111107


def _cycle(n):
    return [[i, i + 1] for i in range(1, n)] + [[1, n]]


def _complete(n):
    return [[a, b] for a in range(1, n + 1) for b in range(a + 1, n + 1)]


CLUTTERS = {
    "C3": (3, _cycle(3)),
    "C4": (4, _cycle(4)),
    "C5": (5, _cycle(5)),
    "C6": (6, _cycle(6)),
    "C9": (9, _cycle(9)),
    "K4": (4, _complete(4)),
    "K5": (5, _complete(5)),
    "K6": (6, _complete(6)),
    "K8": (8, _complete(8)),
    "K10": (10, _complete(10)),
    # the 5-cycle with a pendant edge
    "U6": (6, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5], [5, 6]]),
    # four disjoint triangles as 3-edges: s = 4, X is the torus in P^3
    "TRI4": (12, [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]]),
}


@dataclass(frozen=True)
class Job:
    command: str          # params | mindist | ci | groebner | profile
    clutter: str
    q: int
    d: int | None = None
    method: str | None = None
    # a job that fails at the parent commit for a known reason; it may
    # fail (counted in `failed`) or succeed, but its output is checked
    known_failure: str | None = None

    @property
    def name(self) -> str:
        parts = [self.command, self.clutter, f"q{self.q}"]
        if self.d is not None:
            parts.append(f"d{self.d}")
        if self.method is not None:
            parts.append(self.method)
        return "/".join(parts)

    def argv(self, clutter_path: str) -> list[str]:
        out = [self.command, "--clutter", clutter_path, "--q", str(self.q)]
        if self.d is not None:
            out += ["--d", str(self.d)]
        if self.method is not None:
            out += ["--method", self.method]
        return out + ["--format", "json"]


def _both(clutter, q, d):
    return [Job("mindist", clutter, q, d, m) for m in ("bruteforce", "isd")]


WORKLOADS = {
    # Groebner interpolation and Hilbert functions: GF(q) rref/rank on
    # evaluation matrices of point sets with |X| in the hundreds, no
    # distance search.
    "invariants": [
        Job("groebner", "K4", 8),
        Job("groebner", "U6", 4),
        Job("groebner", "C6", 5),
        Job("groebner", "C3", 9),
        Job("params", "K4", 5, method="formula"),
        Job("params", "C5", 5, method="formula"),
        Job("params", "K5", 4, method="formula"),
    ],
    # Exact minimum distances; brute force and ISD forced on the same
    # codes, prime fields (q = 3, 5) mixed with extension fields (4, 9).
    "distance": [
        *_both("U6", 4, 1),
        *_both("C6", 5, 1),
        Job("mindist", "K4", 5, 3, "isd"),
        *_both("C3", 9, 2),
        *_both("C4", 9, 1),
        *_both("C9", 3, 1),
    ],
    # Building X by walking (q-1)^n tuples (profile walks it twice), and
    # the lattice work of ci: U6 has independent edge vectors, so its ci
    # reaches the Smith form; K10 stops at the rank.
    "sets": [
        Job("profile", "K6", 9),
        Job("ci", "U6", 9),
        Job("profile", "K8", 5),
        Job("ci", "K10", 4),
        Job(
            "profile", "TRI4", 9,
            known_failure="enumerate_X bounds the 8^12 tuples it would walk, "
            "not |X| = 512, and exits 3",
        ),
    ],
}


def clutter_doc(name: str, key: str) -> dict:
    """The clutter with its edge order permuted by `key` ("<seed>/<pass>")."""
    n, edges = CLUTTERS[name]
    edges = [list(e) for e in edges]
    random.Random(f"{key}/{name}").shuffle(edges)
    return {"n": n, "edges": edges}


def job_order(workload: str, key: str) -> list[Job]:
    """The workload's jobs in the order drawn from `key` ("<seed>/<pass>")."""
    jobs = list(WORKLOADS[workload])
    random.Random(f"{key}/{workload}").shuffle(jobs)
    return jobs


def write_clutters(directory: str, names, key: str) -> dict[str, str]:
    """Write each permuted clutter as JSON; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name in sorted(set(names)):
        path = os.path.join(directory, f"{name}.json")
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(clutter_doc(name, key), fh)
        os.replace(tmp, path)
        paths[name] = path
    return paths
