"""Command-line front end.

Every subcommand emits JSON-lines records tagged "schema": "cdiff/1" (CSV via
--csv where a record stream has fixed columns).  Records are emitted in
canonical parameter order, so identical inputs yield byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from cdiff.field import Field, build_field, DEFAULT_SIZE_CAP
from cdiff.funcs import PowerMap
from cdiff.ddt import CDDTReport, general_uniformity, power_uniformity, sweep, c_set
from cdiff.closedform import (dickson_values, dickson_preimage_count,
                              dickson_params, gold_solution_distribution,
                              sign_partition)
from cdiff import theorems

SCHEMA = "cdiff/1"
_ELEMENT_HELP = "int (reduced mod p, so 9 is 1 in GF(8)), g, or g^K"
_THREADS_HELP = "accepted and ignored; the run is single-threaded"


def _json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _after_c(rest: dict) -> str:
    """The text after '{"c":C,' of a record whose other keys are `rest`: "c"
    sorts before each of them, so that is their JSON without its "{"."""
    return _json(rest)[1:]


def parse_element(field: Field, text: str) -> int:
    """Element expressions: integers (prime-subfield embedding), g, g^K."""
    text = text.strip()
    if text == "g":
        return field.generator
    power = text.startswith("g^")
    try:
        value = int(text[2:] if power else text)
    except ValueError:
        raise ValueError(f"element expression {text!r} is not an int, g or g^K") \
            from None
    return field.g_pow(value) if power else field.from_int(value)


def _csv(values) -> str:
    """One CSV line, newline-free; a value containing a comma is double-quoted."""
    return ",".join(f'"{v}"' if "," in str(v) else str(v) for v in values)


def _emit_reports(field: Field, d: int, cs: list[int], reports: list[CDDTReport],
                  csv: bool) -> None:
    """Each c of `cs` with its report, as JSON-lines records or as CSV rows
    after a header; each distinct report's text after c is rendered once."""
    if csv:
        print(_csv(("p", "n", "d", "c", "uniformity", "classification", "spectrum")))
    write, tails = sys.stdout.write, {}     # report -> its text after c
    for c, report in zip(cs, reports):
        if (tail := tails.get(report)) is None:
            if csv:
                spectrum = ";".join(f"{v}:{m}" for v, m in report.spectrum)
                tail = _csv((report.uniformity, report.classification, spectrum))
            else:
                tail = _after_c({"schema": SCHEMA, "record": "uniformity", "p": field.p,
                                 "n": field.n, "d": d, **report._asdict()})
            tails[report] = tail
        write(f"{field.p},{field.n},{d},{c},{tail}\n" if csv else f'{{"c":{c},{tail}\n')


def _cmd_field(args) -> int:
    modulus = None
    if args.modulus is not None:
        try:
            modulus = tuple(int(t) for t in args.modulus.split(","))
        except ValueError:
            raise ValueError(f"modulus {args.modulus!r} is not a comma-separated "
                             f"list of ints") from None
    f = build_field(args.p, args.n, modulus=modulus)
    print(_json({"schema": SCHEMA, "record": "field", **json.loads(f.to_json())}))
    return 0


def _cmd_eval(args) -> int:
    f = build_field(args.p, args.n)
    x = parse_element(f, args.x)
    print(_json({"schema": SCHEMA, "record": "eval", "p": f.p, "n": f.n,
                 "d": args.d, "x": x, "value": f.pow(x, args.d)}))
    return 0


def _cmd_uniformity(args) -> int:
    f = build_field(args.p, args.n)
    c = parse_element(f, args.c)
    _emit_reports(f, args.d, [c], [power_uniformity(f, args.d, c)], args.csv)
    return 0


def _cmd_spectrum(args) -> int:
    f = build_field(args.p, args.n)
    c = parse_element(f, args.c)
    _emit_reports(f, args.d, [c], [general_uniformity(f, PowerMap(args.d), c)], args.csv)
    return 0


def _cmd_sweep(args) -> int:
    f = build_field(args.p, args.n)
    cs = c_set(f, args.c_set)
    _emit_reports(f, args.d, cs, sweep(f, PowerMap(args.d), cs), args.csv)
    return 0


def _instance_lines(report: theorems.VerificationReport) -> str:
    """A row's instance records, one per c of each branch run's columns.  The
    text after c is rendered once per distinct (observed, ok) of a run."""
    lines = []
    for run in report.runs:
        fixed = {"schema": SCHEMA, "record": "instance", "case": report.case_id,
                 "condition": run.c_label, "p": run.p, "n": run.n, "d": run.d,
                 "k": run.k, "predicted": run.predicted.render()}
        tails = {}                          # (observed, ok) -> the text after c
        for c, observed, ok in zip(run.c_values, run.observed, run.ok):
            if (tail := tails.get((observed, ok))) is None:
                tail = tails[observed, ok] = _after_c({**fixed, "observed": observed, "ok": ok})
            lines.append(f'{{"c":{"null" if c is None else c},{tail}\n')
    return "".join(lines)


def _no_instance_error(case_ids: list[str] | None, max_size: int) -> ValueError:
    """The usage error for a --max-size below every grid field of the cases."""
    cases = ([theorems.case_by_id(i) for i in case_ids] if case_ids is not None
             else theorems.registry())
    smallest = min(p**n for case in cases for p, n, *_ in case.fields)
    return ValueError(f"--max-size {max_size} selects no instance: the smallest "
                      f"grid field has q = {smallest}")


def _cmd_verify(args) -> int:
    """Write each row's records as soon as the row is checked."""
    ids = [args.case] if args.case is not None else None
    printed = failed = False
    for report in theorems.verify_all(case_ids=ids, max_size=args.max_size):
        if not report.runs:         # a row whose grid --max-size drops prints nothing
            continue
        sys.stdout.write(_instance_lines(report))
        print(_json({"schema": SCHEMA, "record": "case-verdict",
                     "case": report.case_id, "passed": report.passed,
                     "instances": sum(len(run.c_values) for run in report.runs),
                     "max_attained": report.max_attained}))
        printed, failed = True, failed or not report.passed
    if not printed:
        raise _no_instance_error(ids, args.max_size)
    return 1 if failed else 0


def _cmd_table(args) -> int:
    markdown, rows = theorems.reproduce_table(max_size=args.max_size)
    if not rows:
        raise _no_instance_error(None, args.max_size)
    if args.csv:
        print(_csv(theorems.TABLE_COLUMNS))
        for row in rows:
            print(_csv(row[h] for h in theorems.TABLE_COLUMNS))
    else:
        sys.stdout.write(markdown)
    return 1 if any(row["verdict"] != "pass" for row in rows) else 0


def _cmd_dickson(args) -> int:
    f = build_field(args.p, args.n)
    if args.preimage is not None:
        x0 = parse_element(f, args.preimage)
        r = dickson_preimage_count(f, args.m, x0)
        params = dickson_params(f, args.m)
        print(_json({"schema": SCHEMA, "record": "dickson-preimage",
                     "p": f.p, "n": f.n, "m": args.m, "x0": r.x0,
                     "value": r.value, "count": r.count,
                     "predicted": r.predicted, "branch": r.branch,
                     "m_gcd": params.m_gcd, "lbar": params.lbar,
                     "two_adic_r": params.r}))
        return 1 if r.count != r.predicted else 0
    values = dickson_values(f, args.m)
    print(_json({"schema": SCHEMA, "record": "dickson-values",
                 "p": f.p, "n": f.n, "m": args.m,
                 "values": [int(v) for v in values]}))
    return 0


def _cmd_gold_dist(args) -> int:
    dist = gold_solution_distribution(args.n, args.k)
    print(_json({"schema": SCHEMA, "record": "gold-distribution",
                 "n": dist.n, "k": dist.k,
                 "counts": [list(pair) for pair in dist.counts],
                 "zero_beta_solutions": dist.zero_beta_solutions,
                 "predicted": [list(pair) for pair in dist.predicted]}))
    counts = dist.counts_dict()
    return 1 if any(counts.get(m, 0) != number for m, number in dist.predicted) else 0


def _cmd_partition(args) -> int:
    f = build_field(args.p, args.n)
    part = sign_partition(f)
    cells = []
    for key in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        cells.append({"eta_x_plus_1": key[0], "eta_x": key[1],
                      "size": len(part.cells[key]),
                      "elements": list(part.cells[key])})
    print(_json({"schema": SCHEMA, "record": "sign-partition",
                 "p": f.p, "n": f.n, "cells": cells}))
    return 0


def _add_field_args(sub, with_d=False):
    sub.add_argument("-p", type=int, required=True, help="characteristic (prime)")
    sub.add_argument("-n", type=int, required=True, help="extension degree")
    if with_d:
        sub.add_argument("-d", type=int, required=True, help="power-map exponent")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdiff",
        description="c-differential uniformity over GF(p^n): counting, "
                    "closed forms, and claim verification")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("field", help="print the deterministic field description")
    _add_field_args(sp)
    sp.add_argument("--modulus", help="override modulus, comma-separated c0..cn")
    sp.set_defaults(fn=_cmd_field)

    sp = subs.add_parser("eval", help="evaluate x^d at one element")
    _add_field_args(sp, with_d=True)
    sp.add_argument("-x", required=True, help=f"element expression: {_ELEMENT_HELP}")
    sp.set_defaults(fn=_cmd_eval)

    sp = subs.add_parser("uniformity", help="one report via the power-map fast path")
    _add_field_args(sp, with_d=True)
    sp.add_argument("-c", required=True, help=f"c expression: {_ELEMENT_HELP}")
    sp.add_argument("--csv", action="store_true")
    sp.set_defaults(fn=_cmd_uniformity)

    sp = subs.add_parser("spectrum", help="one report via the full (a,b) scan")
    _add_field_args(sp, with_d=True)
    sp.add_argument("-c", required=True, help=f"c expression: {_ELEMENT_HELP}")
    sp.add_argument("--csv", action="store_true")
    sp.set_defaults(fn=_cmd_spectrum)

    sp = subs.add_parser("sweep", help="stream reports over a c-set")
    _add_field_args(sp, with_d=True)
    sp.add_argument("--c-set", default="all",
                    help="all | not-one | not-pm-one | subfield:K | outside-subfield:K")
    sp.add_argument("--threads", type=int, help=_THREADS_HELP)
    sp.add_argument("--csv", action="store_true")
    sp.set_defaults(fn=_cmd_sweep)

    sp = subs.add_parser("verify", help="run registry rows against brute force")
    sp.add_argument("--case", help="restrict to one case id")
    sp.add_argument("--max-size", type=int, default=DEFAULT_SIZE_CAP)
    sp.add_argument("--threads", type=int, help=_THREADS_HELP)
    sp.set_defaults(fn=_cmd_verify)

    sp = subs.add_parser("table", help="emit the claim-verdict table")
    sp.add_argument("--max-size", type=int, default=DEFAULT_SIZE_CAP)
    sp.add_argument("--threads", type=int, help=_THREADS_HELP)
    sp.add_argument("--csv", action="store_true")
    sp.set_defaults(fn=_cmd_table)

    sp = subs.add_parser("dickson", help="Dickson polynomial values / preimage counts")
    _add_field_args(sp)
    sp.add_argument("-m", type=int, required=True, help="Dickson degree")
    sp.add_argument("--preimage", help=f"x0 expression ({_ELEMENT_HELP}); "
                                       "report |D_m^{-1}(D_m(x0))|")
    sp.set_defaults(fn=_cmd_dickson)

    sp = subs.add_parser("gold-dist", help="solution-count distribution of "
                                           "z^(2^k+1) + z + beta over GF(2^n)")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-k", type=int, required=True)
    sp.set_defaults(fn=_cmd_gold_dist)

    sp = subs.add_parser("partition", help="quadratic-character partition of "
                                           "GF(p^n) minus {0, -1}")
    _add_field_args(sp)
    sp.set_defaults(fn=_cmd_partition)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()              # a closed reader raises here, not at exit
        return code
    except BrokenPipeError:             # the reader closed stdout, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiet exit flush
        return 141                      # what a shell reports for SIGPIPE
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"cdiff: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
