"""Command line interface.

Subcommands: params, mindist, ci, groebner, profile.  Exit codes: 0 on
success, 2 for input errors, 3 for budget exhaustion, 4 for internal
failures.  All output is deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .clutter import ClutterError, load_clutter
from .errors import BudgetExceededError
from .eval_code import regularity
from .finite_field import field_from_q, field_order, prime_power
from .intlattice import ci_classify
from .mindist import DEFAULT_CLASS_BUDGET, METHODS, distance_report
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
# the distance_report key behind each key of a params row, in row order
_ROW_KEYS = {
    "d": "d", "length": "length", "dim": "dimension", "delta": "delta",
    "delta_lower": "delta_lower", "delta_method": "delta_method",
    "delta_exact": "delta_exact", "delta_prime": "delta_prime", "singleton": "singleton",
}


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
        p.add_argument(
            "--budget", type=int, default=DEFAULT_ENUM_BUDGET, help="maximum number of points of X"
        )
        p.add_argument(
            "--class-budget", type=int, default=DEFAULT_CLASS_BUDGET, help="codeword class budget"
        )
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


def _resolve_q(args) -> int:
    """q of the field the arguments name, checked as every field is
    checked; no field is built."""
    if args.q is not None:
        if args.p is not None or args.k is not None:
            raise _InputError("give either --q or --p/--k, not both")
        p, k = prime_power(args.q)
    elif args.p is not None:
        p, k = args.p, args.k if args.k is not None else 1
    else:
        raise _InputError("a field is required: --q Q or --p P [--k K]")
    return field_order(p, k)


def _lattice_inputs(args):
    """(C, q, |X|), C being None for --torus, with |X| from its closed form:
    no field and no point is built.  Raises BudgetExceededError when |X|
    exceeds --budget."""
    q = _resolve_q(args)
    if args.torus is not None:
        if args.torus < 2:
            raise _InputError("--torus needs S >= 2")
        C, size = None, (q - 1) ** (args.torus - 1)
    else:
        try:
            C = load_clutter(args.clutter)
        except OSError as exc:
            raise _InputError(f"cannot read clutter file: {exc}")
        size = size_of_X(C, q)
    if size > args.budget:
        raise BudgetExceededError(f"|X| = {size} points > budget {args.budget}")
    return C, q, size


def _point_inputs(args):
    """(C, X): _lattice_inputs, then X itself over the shared GF(q)."""
    C, q, _ = _lattice_inputs(args)
    F = field_from_q(q)
    if C is None:
        return None, projective_torus(args.torus, F, budget=args.budget)
    return C, enumerate_X(C, F, budget=args.budget)


def _write(body: dict, fmt: str) -> None:
    """A one-record report on stdout: json, csv (a header and one row, None
    as an empty field) or text (one "key: value" line per entry)."""
    if fmt == "json":
        sys.stdout.write(json.dumps(body, indent=2) + "\n")
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(body)
        writer.writerow(body.values())
    else:
        for k, v in body.items():
            sys.stdout.write(f"{k}: {v}\n")


def _delta_text(report) -> str:
    """delta, or the interval [lower, value] that holds it when inexact."""
    if report["delta_exact"]:
        return str(report["delta"])
    return f"[{report['delta_lower']}, {report['delta']}]"


def _cmd_params(args) -> int:
    C, X = _point_inputs(args)
    F = X.field
    reg = regularity(X)
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
        report = distance_report(
            C, X, d, args.method, args.class_budget, args.time_budget
        )
        rows.append({key: report[name] for key, name in _ROW_KEYS.items()})
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
    C, X = _point_inputs(args)
    if args.d is None:
        raise _InputError("mindist needs --d")
    if args.d < 1:
        raise _InputError("need d >= 1")
    report = distance_report(
        C, X, args.d, args.method, args.class_budget, args.time_budget
    )
    if args.fmt == "text":
        report["delta"] = _delta_text(report)
    _write(report, args.fmt)
    return EXIT_OK


def _cmd_ci(args) -> int:
    C, q, size = _lattice_inputs(args)
    if C is None:
        raise _InputError("ci needs --clutter (the torus is trivially a CI)")
    rep = ci_classify(C, q)
    torus_size = (q - 1) ** (C.s - 1)
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
    _write(body, args.fmt)
    return EXIT_OK


def _cmd_groebner(args) -> int:
    _, X = _point_inputs(args)
    F = X.field
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
    C, q, _ = _lattice_inputs(args)
    if C is None:
        raise _InputError("profile needs --clutter")
    body = profile(C, q)
    if args.dump_points:
        X = enumerate_X(C, field_from_q(q), budget=args.budget)
        with open(args.dump_points, "w") as fh:
            fh.write(points_csv(X))
    _write(body, args.fmt)
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
