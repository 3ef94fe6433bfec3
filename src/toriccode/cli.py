"""Command line interface.

Subcommands: params, mindist, ci, groebner, profile.  Exit codes: 0 on
success, 2 for input errors, 3 for budget exhaustion, 4 for internal
failures.  All output is deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .clutter import ClutterError, load_clutter
from .errors import BudgetExceededError
from .eval_code import StandardWalk
from .finite_field import FiniteField, field_from_q, make_field
from .intlattice import ci_classify
from .mindist import (
    DEFAULT_CLASS_BUDGET,
    METHODS,
    delta_prime,
    distance_report,
    min_distance,
)
from .toric_set import (
    DEFAULT_ENUM_BUDGET,
    enumerate_X,
    points_csv,
    profile,
    projective_torus,
    size_of_X,
)
from .vanishing_ideal import degree_complexity, interpolate_gb, verify_gb_structure

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

PARAMS_COLUMNS = [
    "d", "length", "dim", "delta", "delta_lower", "delta_method", "delta_prime", "singleton"
]


class _InputError(ValueError):
    pass


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call of main and reused."""
    top = argparse.ArgumentParser(
        prog="toriccode",
        description="Parameterized codes from clutters over finite fields",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, with_d=False, with_range=False, with_method=False):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--clutter", metavar="FILE", help="clutter file (JSON or text)")
        src.add_argument(
            "--torus",
            type=int,
            metavar="S",
            help="use the full projective torus in P^(S-1) instead of a clutter",
        )
        p.add_argument("--q", type=int, help="field size as a prime power")
        p.add_argument("--p", type=int, help="field characteristic")
        p.add_argument("--k", type=int, help="extension degree")
        p.add_argument(
            "--format", choices=["text", "csv", "json"], default="text", dest="fmt"
        )
        p.add_argument("--budget", type=int, default=None, help="maximum number of points of X")
        p.add_argument("--class-budget", type=int, default=None, help="codeword class budget")
        p.add_argument("--time-budget", type=float, default=None, help="search seconds budget")
        if with_d:
            p.add_argument("--d", type=int, help="form degree")
        if with_range:
            p.add_argument("--dmin", type=int, default=1)
            p.add_argument("--dmax", type=int, default=None)
            p.add_argument(
                "--full",
                action="store_true",
                help="extend the default range to (q-2)(s-1) instead of the regularity",
            )
        if with_method:
            p.add_argument(
                "--method",
                choices=METHODS,
                default="auto",
            )
        return p

    common(sub.add_parser("params", help="code parameter table over a degree range"),
           with_d=True, with_range=True, with_method=True)
    common(sub.add_parser("mindist", help="minimum distance report for one degree"),
           with_d=True, with_method=True)
    common(sub.add_parser("ci", help="complete-intersection classification"))
    common(sub.add_parser("groebner", help="reduced Groebner basis of I(X)"))
    pr = common(sub.add_parser("profile", help="size/rank profile of X"))
    pr.add_argument("--dump-points", metavar="FILE", help="write X as CSV of power indices")
    return top


def _resolve_field(args) -> FiniteField:
    if args.q is not None:
        if args.p is not None or args.k is not None:
            raise _InputError("give either --q or --p/--k, not both")
        return field_from_q(args.q)
    if args.p is not None:
        return make_field(args.p, args.k if args.k is not None else 1)
    raise _InputError("a field is required: --q Q or --p P [--k K]")


def _enum_budget(args) -> int:
    if args.budget is not None:
        return args.budget
    return int(os.environ.get("TORICCODE_ENUM_BUDGET", DEFAULT_ENUM_BUDGET))


def _resolve_inputs(args, points: bool = True):
    """(C, F, X), C being None for --torus.  With points=False the third
    item is |X| from its closed form, and no point is built.  Either way
    |X| is read from the closed form first, and BudgetExceededError is
    raised when it exceeds --budget, before any point is built."""
    F = _resolve_field(args)
    budget = _enum_budget(args)
    if args.torus is not None:
        if args.torus < 2:
            raise _InputError("--torus needs S >= 2")
        C, size = None, (F.q - 1) ** (args.torus - 1)
    else:
        try:
            C = load_clutter(args.clutter)
        except OSError as exc:
            raise _InputError(f"cannot read clutter file: {exc}")
        size = size_of_X(C, F.q)
    if size > budget:
        raise BudgetExceededError(f"|X| = {size} points > budget {budget}")
    if not points:
        return C, F, size
    if C is None:
        return None, F, projective_torus(args.torus, F, budget=budget)
    return C, F, enumerate_X(C, F, budget=budget)


def _class_budget(args) -> int:
    if args.class_budget is not None:
        return args.class_budget
    return int(os.environ.get("TORICCODE_CLASS_BUDGET", DEFAULT_CLASS_BUDGET))


def _time_budget(args):
    if args.time_budget is not None:
        return args.time_budget
    env = os.environ.get("TORICCODE_TIME_BUDGET")
    return float(env) if env else None


def _delta_for(args, C, X, d, reg, walk):
    """(DistanceResult, delta_prime) for one degree."""
    prime = delta_prime(C, X, d)
    res = min_distance(
        X, d, reg, args.method, prime, _class_budget(args), _time_budget(args), walk
    )
    return res, prime


def _delta_text(report) -> str:
    """delta, or the interval [lower, value] that holds it when inexact."""
    if report["delta_exact"]:
        return str(report["delta"])
    return f"[{report['delta_lower']}, {report['delta']}]"


def _cmd_params(args) -> int:
    C, F, X = _resolve_inputs(args)
    # one walk to the regularity serves the counts and every search
    walk = StandardWalk(X)
    counts = walk.hilbert_counts()
    reg = len(counts) - 1
    if args.d is not None:
        dmin = dmax = args.d
    else:
        dmin = args.dmin
        if args.dmax is not None:
            dmax = args.dmax
        elif args.full:
            dmax = (F.q - 2) * (X.s - 1)
        else:
            dmax = reg
    if dmin < 1 or dmax < dmin:
        raise _InputError(f"bad degree range [{dmin}, {dmax}]")
    rows = []
    for d in range(dmin, dmax + 1):
        res, prime = _delta_for(args, C, X, d, reg, walk)
        dim = counts[min(d, reg)]
        rows.append(
            {
                "d": d,
                "length": len(X),
                "dim": dim,
                "delta": res.value,
                "delta_lower": res.lower,
                "delta_method": res.method,
                "delta_exact": res.exact,
                "delta_prime": prime,
                "singleton": len(X) - dim + 1,
            }
        )
    out = sys.stdout
    if args.fmt == "csv":
        out.write(",".join(PARAMS_COLUMNS) + "\n")
        for r in rows:
            out.write(
                ",".join("" if r[c] is None else str(r[c]) for c in PARAMS_COLUMNS) + "\n"
            )
    elif args.fmt == "json":
        meta = {"length": len(X), "regularity": reg, "q": F.q, "s": X.s, "rows": rows}
        out.write(json.dumps(meta, indent=2) + "\n")
    else:
        header = ["d", "length", "dim", "delta", "method", "delta'", "singleton"]
        widths = [max(len(h), 10) for h in header]
        out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for r in rows:
            cells = [
                str(r["d"]),
                str(r["length"]),
                str(r["dim"]),
                _delta_text(r),
                r["delta_method"],
                "" if r["delta_prime"] is None else str(r["delta_prime"]),
                str(r["singleton"]),
            ]
            line = "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
            if r["d"] == reg:
                line += "   <- reg"
            out.write(line + "\n")
    return EXIT_OK


def _cmd_mindist(args) -> int:
    C, F, X = _resolve_inputs(args)
    if args.d is None:
        raise _InputError("mindist needs --d")
    if args.d < 1:
        raise _InputError("need d >= 1")
    report = distance_report(
        C, X, args.d, args.method, _class_budget(args), _time_budget(args)
    )
    if args.fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    elif args.fmt == "csv":
        keys = list(report)
        sys.stdout.write(",".join(keys) + "\n")
        sys.stdout.write(
            ",".join("" if report[k] is None else str(report[k]) for k in keys) + "\n"
        )
    else:
        for k, v in report.items():
            sys.stdout.write(f"{k}: {_delta_text(report) if k == 'delta' else v}\n")
    return EXIT_OK


def _cmd_ci(args) -> int:
    C, F, size = _resolve_inputs(args, points=False)
    if C is None:
        raise _InputError("ci needs --clutter (the torus is trivially a CI)")
    rep = ci_classify(C, F.q)
    torus_size = (F.q - 1) ** (C.s - 1)
    body = {
        "applicable": rep.applicable,
        "is_ci": rep.is_ci,
        "vectors_independent": rep.vectors_independent,
        "phi_injective": rep.phi_injective,
        "reason": rep.reason,
        "advisory_equals_torus": size == torus_size,
        "advisory_size_X": size,
        "advisory_torus_size": torus_size,
    }
    if args.fmt == "json":
        sys.stdout.write(json.dumps(body, indent=2) + "\n")
    else:
        for k, v in body.items():
            sys.stdout.write(f"{k}: {v}\n")
    return EXIT_OK


def _cmd_groebner(args) -> int:
    _, F, X = _resolve_inputs(args)
    G = interpolate_gb(X)
    checks = verify_gb_structure(G, F.q)
    if args.fmt == "json":
        body = {
            "q": F.q,
            "s": G.s,
            "degree_complexity": degree_complexity(G),
            "structure": checks,
            "elements": [
                {
                    "degree": g.degree,
                    "terms": [
                        {"exponents": list(expo), "coeff_index": F.to_index(enc)}
                        for expo, enc in g.terms
                    ],
                }
                for g in G.elements
            ],
        }
        sys.stdout.write(json.dumps(body, indent=2) + "\n")
    else:
        for g in G.elements:
            sys.stdout.write(g.term_string(F) + "\n")
        sys.stdout.write(f"# {len(G.elements)} elements, degree complexity "
                         f"{degree_complexity(G)}\n")
    return EXIT_OK


def _cmd_profile(args) -> int:
    C, F, _ = _resolve_inputs(args, points=False)
    if C is None:
        raise _InputError("profile needs --clutter")
    body = profile(C, F.q)
    if args.dump_points:
        X = enumerate_X(C, F, budget=_enum_budget(args))
        with open(args.dump_points, "w") as fh:
            fh.write(points_csv(X))
    if args.fmt == "json":
        sys.stdout.write(json.dumps(body, indent=2) + "\n")
    else:
        for k, v in body.items():
            sys.stdout.write(f"{k}: {v}\n")
    return EXIT_OK


_COMMANDS = {
    "params": _cmd_params,
    "mindist": _cmd_mindist,
    "ci": _cmd_ci,
    "groebner": _cmd_groebner,
    "profile": _cmd_profile,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return EXIT_BUDGET
    except (_InputError, ClutterError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - internal failures
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
