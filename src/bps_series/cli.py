"""Batch command-line front end.

Every computation is a subcommand with explicit truncation orders, JSON/TSV
output, and deterministic bytes for a fixed invocation.  Exit codes: 0 on
success, 1 when a mathematical verification fails (the output then carries a
structured diff), 2 for usage, parse, or precondition errors.

Defaults: q-order 12, lambda-order 12, g_max 6, degree 6 (gv-from-gw derives
its lambda-order from the input table's genus window instead, the largest it
can support).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import anomaly, goettsche, gvtransform, serialize, sl2
from .modular import eisenstein

DEFAULT_Q_ORDER = 12
DEFAULT_LAMBDA_ORDER = 12
DEFAULT_G_MAX = 6
DEFAULT_DEGREE = 6


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, path):
    _emit(json.dumps(obj, indent=2) + "\n", path)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _emit_series(series, args):
    if args.format == "tsv":
        _emit(serialize.series_to_tsv(series), args.out)
    else:
        _emit_json(serialize.series_to_json(series), args.out)


def cmd_eisenstein(args):
    _emit_series(eisenstein(args.weight, args.order), args)
    return 0


def cmd_goettsche(args):
    if args.refined and args.betti:
        print("error: --refined and --betti are mutually exclusive", file=sys.stderr)
        return 2
    if args.refined:
        series = goettsche.refined_goettsche_res(args.gmax)
    elif args.betti:
        b = goettsche.BettiVector(*(int(x) for x in args.betti.split(",")))
        series = goettsche.goettsche_series(b, args.gmax)
    else:
        print("error: need --betti b0,b1,b2,b3,b4 or --refined", file=sys.stderr)
        return 2
    _emit_series(series, args)
    return 0


def cmd_bps_rational_elliptic(args):
    try:
        table = goettsche.bps_rational_elliptic(args.gmax)
    except goettsche.MismatchAgainstProduct as exc:
        _emit_json(
            {
                "ok": False,
                "error": "character route and product u-expansion disagree",
                "diffs": [
                    {
                        "g": g,
                        "via_character": {str(h): n for h, n in sorted(vc.items())},
                        "via_product": {str(h): n for h, n in sorted(vu.items())},
                    }
                    for g, vc, vu in exc.diffs
                ],
            },
            args.out,
        )
        return 1
    lines = [f"# convention: {goettsche.SIGN_CONVENTION}", "# g\th\tn_h"]
    for (g, h), n in sorted(table.items()):
        lines.append(f"{g}\t{h}\t{n}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gv_from_gw(args):
    gw = serialize.table_from_json(_load_json(args.infile))
    lambda_order = args.lambda_order
    if lambda_order is None:
        lambda_order = 2 * gw.max_genus - 2
    try:
        bps = gvtransform.gv_from_gw(gw, lambda_order, args.degree)
    except gvtransform.NonIntegralBPS as exc:
        _emit_json(
            {
                "ok": False,
                "error": "non-integral BPS invariant",
                "class": list(exc.cls),
                "h": exc.h,
                "value": serialize.frac_str(exc.value),
            },
            args.out,
        )
        return 1
    _emit_json(serialize.table_to_json(bps), args.out)
    return 0


def cmd_gw_from_gv(args):
    bps = serialize.table_from_json(_load_json(args.infile))
    gw = gvtransform.gw_from_gv(bps, args.lambda_order, args.degree)
    _emit_json(serialize.table_to_json(gw), args.out)
    return 0


def cmd_roundtrip_check(args):
    bps = serialize.table_from_json(_load_json(args.infile))
    ok, diffs = gvtransform.roundtrip_check(bps, args.lambda_order, args.degree)
    _emit_json(
        {
            "ok": ok,
            "diffs": [
                {
                    "h": h,
                    "class": list(cls),
                    "expected": expected,
                    "got": got,
                }
                for h, cls, expected, got in diffs
            ],
        },
        args.out,
    )
    return 0 if ok else 1


def _report_to_json(report):
    passed = sum(1 for e in report["entries"] if e["ok"])
    return {
        "all_ok": report["all_ok"],
        "passed": f"{passed}/{len(report['entries'])}",
        "constants": {
            str(n): None if c is None else serialize.frac_str(c)
            for n, c in sorted(report["constants"].items())
        },
        "entries": [
            {
                "n": e["n"],
                "g": e["g"],
                "ok": e["ok"],
                "scaled_by": None
                if e["scaled_by"] is None
                else serialize.frac_str(e["scaled_by"]),
                "difference": None
                if e["difference"] is None
                else serialize.poly_to_json(e["difference"]),
            }
            for e in report["entries"]
        ],
    }


def cmd_anomaly_verify(args):
    table = serialize.zfunctions_from_json(_load_json(args.table))
    report = anomaly.verify_anomaly(table)
    _emit_json(_report_to_json(report), args.out)
    return 0 if report["all_ok"] else 1


def cmd_anomaly_solve(args):
    table = serialize.zfunctions_from_json(_load_json(args.table))
    known = {(z.g, z.n): z.poly for z in table}
    boundary = [
        serialize.rational(x, f"--boundary[{i}]")
        for i, x in enumerate(args.boundary.split(","))
    ]
    try:
        poly = anomaly.solve_anomaly(args.n, args.g, known, boundary)
    except anomaly.InconsistentBoundary as exc:
        _emit_json({"ok": False, "error": str(exc)}, args.out)
        return 1
    _emit_json(serialize.poly_to_json(poly), args.out)
    return 0


def cmd_genus_series(args):
    series_list = anomaly.genus_series_n1(args.gmax, args.q_order)
    if args.format == "tsv":
        lines = ["# g\tpower\tcoeff"]
        for g, series in enumerate(series_list):
            for i, c in enumerate(series.coeffs):
                lines.append(f"{g}\t{i}\t{serialize.frac_str(c)}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit_json(
            {"genus_series": [serialize.series_to_json(s) for s in series_list]},
            args.out,
        )
    return 0


def cmd_triple_product_check(args):
    report = anomaly.triple_product_check(args.lambda_order, args.q_order)
    payload = {
        "ok": report["ok"],
        "lambda_order": report["lambda_order"],
        "q_order": report["q_order"],
        "first_mismatch": None,
    }
    if report["first_mismatch"] is not None:
        m = report["first_mismatch"]
        payload["first_mismatch"] = {
            "lambda": m["lambda"],
            "q": m["q"],
            "lhs": serialize.frac_str(m["lhs"]),
            "rhs": serialize.frac_str(m["rhs"]),
        }
    _emit_json(payload, args.out)
    return 0 if report["ok"] else 1


def _check_failure_to_json(exc):
    """Exit-1 payload of an internal cross-check that failed mid-command."""
    if isinstance(exc, sl2.RouteDisagreement):
        return {
            "ok": False,
            "error": "I-basis peeling and u-expansion disagree",
            "via_character": {str(h): n for h, n in sorted(exc.via_character.items())},
            "via_u": {str(h): n for h, n in sorted(exc.via_u.items())},
        }
    return {
        "ok": False,
        "error": "peeling left a nonzero GW residual",
        "class": list(exc.cls),
        "residual": {
            str(e): serialize.frac_str(c) for e, c in sorted(exc.residual.coeffs.items())
        },
    }


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bps-series",
        description="Exact-arithmetic BPS / Gromov-Witten series toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--out", help="output path (default: stdout)")
        return p

    p = add("eisenstein", cmd_eisenstein, help="q-expansion of an Eisenstein series")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--order", type=int, default=DEFAULT_Q_ORDER)
    p.add_argument("--format", choices=("json", "tsv"), default="json")

    p = add("goettsche", cmd_goettsche, help="Hilbert scheme character series")
    p.add_argument("--betti", help="b0,b1,b2,b3,b4 of the surface")
    p.add_argument("--gmax", type=int, default=DEFAULT_G_MAX)
    p.add_argument(
        "--refined",
        action="store_true",
        help="bigraded rational-elliptic-surface product instead of --betti",
    )
    p.add_argument("--format", choices=("json", "tsv"), default="json")

    p = add(
        "bps-rational-elliptic",
        cmd_bps_rational_elliptic,
        help="TSV of n_h(C+gF) for the rational elliptic surface",
    )
    p.add_argument("--gmax", type=int, default=DEFAULT_G_MAX)

    p = add("gv-from-gw", cmd_gv_from_gw, help="invert the transform: BPS from GW")
    p.add_argument("--in", dest="infile", required=True, help="GW table JSON")
    p.add_argument(
        "--lambda-order",
        type=int,
        default=None,
        help="default: largest the table supports (2*max_genus - 2)",
    )
    p.add_argument("--degree", type=int, default=None)

    p = add("gw-from-gv", cmd_gw_from_gv, help="assemble GW series from BPS")
    p.add_argument("--in", dest="infile", required=True, help="BPS table JSON")
    p.add_argument("--lambda-order", type=int, default=DEFAULT_LAMBDA_ORDER)
    p.add_argument("--degree", type=int, default=None)

    p = add("roundtrip-check", cmd_roundtrip_check, help="BPS -> GW -> BPS identity")
    p.add_argument("--in", dest="infile", required=True, help="BPS table JSON")
    p.add_argument("--lambda-order", type=int, default=None)
    p.add_argument("--degree", type=int, default=None)

    p = add("anomaly-verify", cmd_anomaly_verify, help="check the recursion on a table")
    p.add_argument("--table", required=True, help="ZFunction table JSON")

    p = add("anomaly-solve", cmd_anomaly_solve, help="solve one recursion step")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--table", required=True, help="prerequisite table JSON")
    p.add_argument("--boundary", required=True, help="comma-separated rationals")

    p = add("genus-series", cmd_genus_series, help="fiber-degree-1 genus expansions")
    p.add_argument("--gmax", type=int, default=DEFAULT_G_MAX)
    p.add_argument("--q-order", type=int, default=DEFAULT_Q_ORDER)
    p.add_argument("--format", choices=("json", "tsv"), default="json")

    p = add("triple-product-check", cmd_triple_product_check, help="resummation identity")
    p.add_argument("--lambda-order", type=int, default=DEFAULT_LAMBDA_ORDER)
    p.add_argument("--q-order", type=int, default=DEFAULT_Q_ORDER)

    return parser


def _glue_boundary(argv):
    """argparse takes a value such as "-1,0" for an option because it starts
    with "-" and is not a plain number; glue it to a preceding --boundary so
    that "--boundary -1,0" parses as "--boundary=-1,0"."""
    out = []
    for arg in argv:
        if out and out[-1] == "--boundary" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--boundary={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_boundary(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (sl2.RouteDisagreement, gvtransform.UnpeeledResidual) as exc:
        _emit_json(_check_failure_to_json(exc), args.out)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
