"""Batch command-line front end.

Every computation is a subcommand with explicit truncation orders, JSON/TSV
output, and deterministic bytes for a fixed invocation.  This module parses
the command line and maps results and faults to output and exit codes; the
writers of every output document live in `serialize`, and a report or exit-1
payload is written as json.dumps(payload, indent=2).

One flag table, COMMANDS, gives every subcommand's flags, types and
defaults.  `_parse` reads a well-formed command line off it directly; help
and usage faults go to the argparse parser that `build_parser` makes from
the same table, so their text and exit codes are argparse's, byte for byte.
A well-formed job never imports argparse.

`main` is the only code that turns a fault into an exit code, and every
nonzero exit writes exactly one `error:` line to stderr:

- 0: success;
- 1: one of the paper's identities failed, as a check exception or a
  not-ok report (see `_check_failure`); its JSON payload is the output;
- 2: any other fault, argparse's usage faults included; no output.

Defaults: q-order 12, lambda-order 12, g_max 6.  The transforms take the
class-degree window of the input table unless --degree is given;
gv-from-gw and roundtrip-check derive their lambda-order from its genus
window.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from . import anomaly, goettsche, gvtransform, serialize, sl2
from .modular import eisenstein

DEFAULT_Q_ORDER = 12
DEFAULT_LAMBDA_ORDER = 12
DEFAULT_G_MAX = 6


class UsageError(Exception):
    """A command line that does not parse."""


class CheckFailed(Exception):
    """A report command's check failed; payload is its exit-1 JSON."""

    def __init__(self, message, payload):
        super().__init__(message)
        self.payload = payload


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj):
    return json.dumps(obj, indent=2) + "\n"


def _load_json(path, flag):
    """The JSON document at path; an unreadable or malformed file is a fault of flag."""
    try:
        with open(path, "rb") as fh:  # the bytes in one read, no text layer
            return json.loads(fh.read().decode())
    except (OSError, ValueError) as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _str_keys(d):
    """{h: n_h} with string keys in increasing h, as JSON objects need."""
    return {str(k): v for k, v in sorted(d.items())}


def _series_text(series, fmt):
    if fmt == "tsv":
        return serialize.series_to_tsv(series)
    return serialize.series_to_json(series) + "\n"


def _report(payload, ok, failure):
    """The output of a report command; a failed report raises CheckFailed."""
    if not ok:
        raise CheckFailed(failure, payload)
    return _json_text(payload)


def cmd_eisenstein(args):
    return _series_text(eisenstein(args.weight, args.order), args.format)


def cmd_goettsche(args):
    if args.refined:
        series = goettsche.refined_goettsche_res(args.gmax)
    else:
        series = goettsche.goettsche_series(goettsche.BettiVector(*args.betti), args.gmax)
    return _series_text(series, args.format)


def cmd_bps_rational_elliptic(args):
    table = goettsche.bps_rational_elliptic(args.gmax)
    lines = [f"# convention: {goettsche.SIGN_CONVENTION}", "# g\th\tn_h"]
    for (g, h), n in sorted(table.items()):
        lines.append(f"{g}\t{h}\t{n}")
    return "\n".join(lines) + "\n"


def _load_table(args, kind):
    """The table of --in; one of another kind is an input fault at its kind."""
    table = serialize.table_from_json(_load_json(args.infile, "--in"))
    if table.kind != kind:
        wanted = f"{args.command} needs a {kind!r} table"
        raise serialize.SchemaError(f"kind: {wanted}, got {table.kind!r}")
    return table


def cmd_gv_from_gw(args):
    gw = _load_table(args, gvtransform.GW)
    lambda_order = args.lambda_order
    if lambda_order is None:
        lambda_order = 2 * gw.max_genus - 2
    return serialize.table_text(gvtransform.gv_from_gw(gw, lambda_order, args.degree))


def cmd_gw_from_gv(args):
    bps = _load_table(args, gvtransform.BPS)
    return serialize.table_text(gvtransform.gw_from_gv(bps, args.lambda_order, args.degree))


def cmd_roundtrip_check(args):
    bps = _load_table(args, gvtransform.BPS)
    ok, diffs = gvtransform.roundtrip_check(bps, args.lambda_order, args.degree)
    payload = {
        "ok": ok,
        "diffs": [
            {"h": h, "class": list(cls), "expected": expected, "got": got}
            for h, cls, expected, got in diffs
        ],
    }
    return _report(payload, ok, f"BPS -> GW -> BPS round trip changed {len(diffs)} value(s)")


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
                "scaled_by": None if e["scaled_by"] is None else serialize.frac_str(e["scaled_by"]),
                "difference": None
                if e["difference"] is None
                else serialize.poly_to_json(e["difference"]),
            }
            for e in report["entries"]
        ],
    }


def cmd_anomaly_verify(args):
    table = serialize.zfunctions_from_json(_load_json(args.table, "--table"))
    report = anomaly.verify_anomaly(table)
    payload = _report_to_json(report)
    failure = f"anomaly recursion holds on only {payload['passed']} entries"
    return _report(payload, report["all_ok"], failure)


def cmd_anomaly_solve(args):
    table = serialize.zfunctions_from_json(_load_json(args.table, "--table"))
    known = {(z.g, z.n): z.poly for z in table}
    boundary = [
        serialize.rational(x, f"--boundary[{i}]")
        for i, x in enumerate(args.boundary.split(","))
    ]
    poly = anomaly.solve_anomaly(args.n, args.g, known, boundary)
    return _json_text(serialize.poly_to_json(poly))


def cmd_genus_series(args):
    series_list = anomaly.genus_series_n1(args.gmax, args.q_order)
    if args.format == "json":
        return serialize.genus_series_to_json(series_list)
    rows = (serialize.series_to_tsv(series, f"{g}\t") for g, series in enumerate(series_list))
    return "".join(["# g\tpower\tcoeff\n", *rows])


def cmd_triple_product_check(args):
    report = anomaly.triple_product_check(args.lambda_order, args.q_order)
    m = report["first_mismatch"]
    payload = {
        "ok": report["ok"],
        "lambda_order": report["lambda_order"],
        "q_order": report["q_order"],
        "first_mismatch": None if m is None else {
            "lambda": m["lambda"],
            "q": m["q"],
            "lhs": serialize.frac_str(m["lhs"]),
            "rhs": serialize.frac_str(m["rhs"]),
        },
    }
    return _report(payload, report["ok"], "triple product identity fails; see first_mismatch")


def _check_failure(exc):
    """The exit-1 payload when exc is a failed identity check, else None."""
    if isinstance(exc, CheckFailed):
        return exc.payload
    if isinstance(exc, goettsche.MismatchAgainstProduct):
        return {
            "ok": False,
            "error": "character route and product u-expansion disagree",
            "diffs": [
                {"g": g, "via_character": _str_keys(vc), "via_product": _str_keys(vu)}
                for g, vc, vu in exc.diffs
            ],
        }
    if isinstance(exc, sl2.RouteDisagreement):
        return {
            "ok": False,
            "error": "I-basis peeling and u-expansion disagree",
            "via_character": _str_keys(exc.via_character),
            "via_u": _str_keys(exc.via_u),
        }
    if isinstance(exc, gvtransform.NonIntegralBPS):
        return {
            "ok": False,
            "error": "non-integral BPS invariant",
            "class": list(exc.cls),
            "h": exc.h,
            "value": serialize.frac_str(exc.value),
        }
    if isinstance(exc, gvtransform.UnpeeledResidual):
        return {
            "ok": False,
            "error": "peeling left a nonzero GW residual",
            "class": list(exc.cls),
            "residual": {
                str(e): serialize.frac_str(c) for e, c in sorted(exc.residual.coeffs.items())
            },
        }
    if isinstance(exc, anomaly.InconsistentBoundary):
        return {"ok": False, "error": str(exc)}
    return None


def _type_error(message):
    """The fault of a refused flag value, worded by argparse; argparse is
    imported only here and in build_parser, off a well-formed job's path."""
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _betti(text):
    """Type of --betti: five comma-separated integers b0,b1,b2,b3,b4."""
    bs = text.split(",")
    if len(bs) != 5 or not all(b.removeprefix("-").isdecimal() for b in bs):
        raise _type_error(f"need five integers b0,b1,b2,b3,b4, got {text!r}")
    return tuple(int(b) for b in bs)


def _order(least):
    """Type of a truncation-order flag: an integer >= least.  A fault names
    the flag, as argparse prefixes "argument --flag: " to the message."""

    def order(text):
        try:
            value = int(text)
        except ValueError:
            raise _type_error(f"invalid int value: {text!r}") from None
        if value < least:
            raise _type_error(f"must be >= {least}, got {value}")
        return value

    return order


def _flag(flag, kind=str, default=None, *, required=False, group=None, dest=None, help=None):
    """One flag row: (flag, dest, kind, required, group, default, help).  kind
    is the type function of the value text, a tuple of the allowed values, or
    bool for a flag that takes no value; group names the required mutually
    exclusive group the flag belongs to."""
    return flag, dest or flag[2:].replace("-", "_"), kind, required, group, default, help


_OUT = _flag("--out", help="output path (default: stdout)")
_FORMAT = _flag("--format", ("json", "tsv"), "json")
_GMAX = _flag("--gmax", _order(0), DEFAULT_G_MAX)
_DEGREE = _flag("--degree", _order(0))

# The flag table: subcommand -> (handler, help line, flag rows); every
# subcommand also takes --out.  _parse and build_parser both read it.
COMMANDS = {
    "eisenstein": (cmd_eisenstein, "q-expansion of an Eisenstein series", (
        _flag("--weight", int, required=True),
        _flag("--order", _order(0), DEFAULT_Q_ORDER),
        _FORMAT,
    )),
    "goettsche": (cmd_goettsche, "Hilbert scheme character series", (
        _flag("--betti", _betti, group="surface", help="b0,b1,b2,b3,b4 of the surface"),
        _flag("--refined", bool, False, group="surface",
              help="bigraded rational-elliptic-surface product instead of --betti"),
        _GMAX,
        _FORMAT,
    )),
    "bps-rational-elliptic": (
        cmd_bps_rational_elliptic, "TSV of n_h(C+gF) for the rational elliptic surface", (_GMAX,),
    ),
    "gv-from-gw": (cmd_gv_from_gw, "invert the transform: BPS from GW", (
        _flag("--in", dest="infile", required=True, help="GW table JSON"),
        _flag("--lambda-order", _order(-2),
              help="default: largest the table supports (2*max_genus - 2)"),
        _DEGREE,
    )),
    "gw-from-gv": (cmd_gw_from_gv, "assemble GW series from BPS", (
        _flag("--in", dest="infile", required=True, help="BPS table JSON"),
        _flag("--lambda-order", _order(-2), DEFAULT_LAMBDA_ORDER),
        _DEGREE,
    )),
    "roundtrip-check": (cmd_roundtrip_check, "BPS -> GW -> BPS identity", (
        _flag("--in", dest="infile", required=True, help="BPS table JSON"),
        _flag("--lambda-order", _order(-2)),
        _DEGREE,
    )),
    "anomaly-verify": (cmd_anomaly_verify, "check the recursion on a table", (
        _flag("--table", required=True, help="ZFunction table JSON"),
    )),
    "anomaly-solve": (cmd_anomaly_solve, "solve one recursion step", (
        _flag("--n", int, required=True),
        _flag("--g", int, required=True),
        _flag("--table", required=True, help="prerequisite table JSON"),
        _flag("--boundary", required=True, help="comma-separated rationals"),
    )),
    "genus-series": (cmd_genus_series, "fiber-degree-1 genus expansions", (
        _GMAX,
        _flag("--q-order", _order(0), DEFAULT_Q_ORDER),
        _FORMAT,
    )),
    "triple-product-check": (cmd_triple_product_check, "resummation identity", (
        _flag("--lambda-order", _order(2), DEFAULT_LAMBDA_ORDER),
        _flag("--q-order", _order(2), DEFAULT_Q_ORDER),
    )),
}


def _parse(argv):
    """The namespace of a well-formed command line, read off COMMANDS: each
    flag of the subcommand at most once and in full, as "--flag value" or
    "--flag=value", every required flag given and every value accepted by its
    type.  A value in a token of its own may start with "-" only as a
    negative integer, which argparse also takes as a value.  Anything else,
    help and usage faults included, gives None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, flags = COMMANDS[argv[0]]
    rows = {row[0]: row for row in (_OUT, *flags)}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        if flag not in rows or flag in given:
            return None
        kind = rows[flag][2]
        if kind is bool:
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None or text[:1] == "-" and not (text[1:].isascii() and text[1:].isdigit()):
                return None
        if isinstance(kind, tuple):
            if text not in kind:
                return None
            given[flag] = text
            continue
        try:
            given[flag] = kind(text)
        except Exception:  # a refused value: argparse words the fault
            return None
    args = {"command": argv[0], "func": func}
    for flag, dest, _, required, _, default, _ in rows.values():
        if required and flag not in given:
            return None
        args[dest] = given.get(flag, default)
    chosen = [row[4] for row in flags if row[4] and row[0] in given]
    if sorted(chosen) != sorted({row[4] for row in flags if row[4]}):
        return None  # not exactly one flag of each exclusive group
    return SimpleNamespace(**args)


def build_parser():
    """The argparse parser of COMMANDS, all ten subcommands, which main uses
    only for a command line that _parse refuses: help and usage faults."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """Raises usage faults instead of printing the usage text and exiting."""

        def error(self, message):
            raise UsageError(message)

    parser = Parser(
        prog="bps-series",
        description="Exact-arithmetic BPS / Gromov-Witten series toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(func=func)
        groups = {}
        for flag, dest, kind, required, group, default, help_text in (_OUT, *flags):
            kwargs = {"dest": dest, "default": default, "required": required, "help": help_text}
            if kind is bool:
                kwargs["action"] = "store_true"
            elif isinstance(kind, tuple):
                kwargs["choices"] = kind
            else:
                kwargs["type"] = kind
            if group and group not in groups:
                groups[group] = p.add_mutually_exclusive_group(required=True)
            (groups[group] if group else p).add_argument(flag, **kwargs)
    return parser


def _normalize(argv):
    """The command line that both parsers read.

    argparse takes a value such as "-1,0" for an option because it starts
    with "-" and is not a plain number; glue it to a preceding --boundary so
    that "--boundary -1,0" parses as "--boundary=-1,0".  Before a bare "--",
    split a value flag of the subcommand written "--flag=--", in full or
    abbreviated, into "--flag --": argparse before 3.13 drops the "--" and
    hands the handler an empty list, and 3.13 takes "--" for the value, while
    "--flag --" gets "argument --flag: expected one argument" on every
    version."""
    rows = (_OUT, *COMMANDS[argv[0]][2]) if argv and argv[0] in COMMANDS else ()
    options = ["--help", *(row[0] for row in rows)]
    takes_value = {row[0] for row in rows if row[2] is not bool}
    end = argv.index("--") if "--" in argv else len(argv)
    out = []
    for i, arg in enumerate(argv):
        if out and out[-1] == "--boundary" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--boundary={arg}"
            continue
        flag, _, text = arg.partition("=")
        if i < end and flag[:2] == "--" and text == "--":
            # the flag argparse reads: the exact one, else the one it abbreviates
            named = [o for o in options if o == flag] or [o for o in options if o.startswith(flag)]
            if len(named) == 1 and named[0] in takes_value:
                out += [flag, "--"]
                continue
        out.append(arg)
    return out


def main(argv=None):
    code, error = 0, None
    try:
        argv = _normalize(sys.argv[1:] if argv is None else argv)
        args = _parse(argv)
        if args is None:  # help or a usage fault: argparse words it
            args = build_parser().parse_args(argv)
        try:
            text = args.func(args)
        except Exception as exc:
            payload = _check_failure(exc)
            if payload is None:
                raise
            code, error, text = 1, exc, _json_text(payload)
        _emit(text, args.out)
    except SystemExit:  # --help has written the usage text
        return 0
    except Exception as exc:  # any other fault: no input may end in a traceback
        code, error = 2, exc
    if error is not None:
        print("error:", " ".join(str(error).splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
