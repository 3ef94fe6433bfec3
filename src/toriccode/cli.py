"""Command line interface.

Subcommands: params, mindist, ci, groebner, profile.  Exit codes: 0 on
success, 2 for input errors, 3 for budget exhaustion, 4 for internal
failures.  All output is deterministic for a fixed invocation.

The submodules are read as modules (`mindist.distance_report(...)`), and
the package registers them lazily: importing this module runs none of
them.  `ci` and `profile` run `limits`, `clutter` and `intlattice` only,
with no numpy; the commands that build X run the GF(q) modules together
(`_load_field_modules`).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import (
    _linalg,
    clutter,
    errors,
    eval_code,
    finite_field,
    intlattice,
    limits,
    mindist,
    toric_set,
    vanishing_ideal,
)

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
            "--budget",
            type=int,
            default=limits.DEFAULT_ENUM_BUDGET,
            help="maximum number of points of X",
        )
        p.add_argument(
            "--class-budget",
            type=int,
            default=limits.DEFAULT_CLASS_BUDGET,
            help="maximum number of messages a distance search weighs: brute force "
            "exits 3 past it unless the lightest generator row meets the floor, "
            "information-set search reports an interval",
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
                choices=limits.METHODS,
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
        p, k = limits.prime_power(args.q)
    elif args.p is not None:
        p, k = args.p, args.k if args.k is not None else 1
    else:
        raise _InputError("a field is required: --q Q or --p P [--k K]")
    return limits.field_order(p, k)


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
            C = clutter.load_clutter(args.clutter)
        except OSError as exc:
            raise _InputError(f"cannot read clutter file: {exc}")
        size = intlattice.size_of_X(C, q)
    if size > args.budget:
        raise errors.BudgetExceededError(f"|X| = {size} points > budget {args.budget}")
    return C, q, size


def _load_field_modules() -> None:
    """Run the modules that build X and evaluate codes on it, in one step:
    a job that needs one of them pays for all, so no later job of the
    process pays for compiling another.  Reading an attribute runs a
    lazily registered module."""
    for module in (finite_field, toric_set, _linalg, eval_code, vanishing_ideal, mindist):
        getattr(module, "__name__")


def _point_inputs(args):
    """(C, X): _lattice_inputs, then X as its Smith presentation, within
    the budget _lattice_inputs has checked.  X builds GF(q) and its points
    only when a code is evaluated."""
    # clutter_set, not enumerate_X: perfbench/tracing.py reads enumerate_X's q as a field
    C, q, _ = _lattice_inputs(args)
    _load_field_modules()
    if C is None:
        return None, toric_set.projective_torus(args.torus, q, budget=args.budget)
    return C, toric_set.clutter_set(C, q)


def _write(body: dict, fmt: str) -> None:
    """A one-record report on stdout: json, csv (a header and one row, None
    as an empty field) or text (one "key: value" line per entry).

    Every JSON report of the program is written here, as one line: without
    `indent`, `json.dumps` runs its C encoder (with it, the pure-Python
    one, several times slower on a Groebner basis).  `python3 -m json.tool`
    pretty-prints the line."""
    if fmt == "json":
        sys.stdout.write(json.dumps(body) + "\n")
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


def _check_degrees(dmin: int, dmax) -> None:
    """Reject a degree range that no X can serve, before X is built; dmax
    None stands for the default end, which needs X."""
    if dmin < 1 or (dmax is not None and dmax < dmin):
        end = "..." if dmax is None else dmax
        raise _InputError(f"bad degree range [{dmin}, {end}]")


def _check_budgets(args) -> None:
    """Reject a negative budget before any work; 0 keeps its meaning."""
    for flag, value in (
        ("--budget", args.budget),
        ("--class-budget", args.class_budget),
        ("--time-budget", args.time_budget),
    ):
        if value is not None and value < 0:
            raise _InputError(f"{flag} must be >= 0, got {value}")


def _cmd_params(args) -> int:
    if args.d is not None:
        dmin = dmax = args.d
    else:
        dmin, dmax = args.dmin, args.dmax
    _check_degrees(dmin, dmax)
    C, X = _point_inputs(args)
    reg = eval_code.regularity(X)
    if dmax is None:
        dmax = (X.q - 2) * (X.s - 1) if args.full else reg
        _check_degrees(dmin, dmax)
    rows = []
    for d in range(dmin, dmax + 1):
        report = mindist.distance_report(
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
        meta = {"length": len(X), "regularity": reg, "q": X.q, "s": X.s, "rows": rows}
        _write(meta, args.fmt)
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
    if args.d is None:
        raise _InputError("mindist needs --d")
    if args.d < 1:
        raise _InputError("need d >= 1")
    C, X = _point_inputs(args)
    report = mindist.distance_report(
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
    rep = intlattice.ci_classify(C, q)
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
    G = vanishing_ideal.interpolate_gb(X)
    checks = vanishing_ideal.verify_gb_structure(G)
    if args.fmt == "json":
        # every element is t^lead - t^tail: coefficient indices 1 and that of -1
        minus_one = vanishing_ideal.minus_one_index(X.q)
        body = {
            "q": X.q,
            "s": G.s,
            "degree_complexity": vanishing_ideal.degree_complexity(G),
            "structure": checks,
            "elements": [
                {
                    "degree": degree,
                    "terms": [
                        {"exponents": lead, "coeff_index": 1},
                        {"exponents": tail, "coeff_index": minus_one},
                    ],
                }
                for degree, lead, tail in zip(
                    G.leads.sum(axis=1).tolist(), G.leads.tolist(), G.tails.tolist()
                )
            ],
        }
        _write(body, args.fmt)
    else:
        sys.stdout.write("".join(line + "\n" for line in G.term_strings()))
        sys.stdout.write(f"# {len(G)} elements, degree complexity "
                         f"{vanishing_ideal.degree_complexity(G)}\n")
    return EXIT_OK


def _cmd_profile(args) -> int:
    C, q, _ = _lattice_inputs(args)
    if C is None:
        raise _InputError("profile needs --clutter")
    body = intlattice.profile(C, q)
    if args.dump_points:
        _load_field_modules()
        text = toric_set.points_csv(toric_set.clutter_set(C, q))
        try:
            with open(args.dump_points, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _InputError(f"cannot write points file: {exc}")
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
        _check_budgets(args)
        return _COMMANDS[args.command](args)
    except errors.BudgetExceededError as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return EXIT_BUDGET
    except ValueError as exc:  # _InputError and ClutterError among them
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - internal failures
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
