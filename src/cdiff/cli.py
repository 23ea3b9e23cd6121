"""Command-line front end.

Every subcommand emits JSON-lines records tagged "schema": "cdiff/1" (CSV via
--csv where a record stream has fixed columns).  Records are emitted in
canonical parameter order, so identical inputs yield byte-identical output.
"""

from __future__ import annotations

import argparse
import json
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


def _print_record(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


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


_CSV_HEADER = "p,n,d,c,uniformity,classification,spectrum"


def _emit_reports(field: Field, d: int, reports: list[CDDTReport], csv: bool) -> None:
    """Uniformity reports as JSON-lines records, or as a CSV header and rows."""
    if csv:
        print(_CSV_HEADER)
    for report in reports:
        if csv:
            print(",".join([str(field.p), str(field.n), str(d), str(report.c),
                            str(report.uniformity), report.classification,
                            ";".join(f"{v}:{m}" for v, m in report.spectrum)]))
        else:
            _print_record({"schema": SCHEMA, "record": "uniformity",
                           "p": field.p, "n": field.n, "d": d, "c": report.c,
                           "uniformity": report.uniformity,
                           "classification": report.classification,
                           "spectrum": [list(pair) for pair in report.spectrum],
                           "mode": report.mode})


def _cmd_field(args) -> int:
    modulus = None
    if args.modulus:
        try:
            modulus = tuple(int(t) for t in args.modulus.split(","))
        except ValueError:
            raise ValueError(f"modulus {args.modulus!r} is not a comma-separated "
                             f"list of ints") from None
    f = build_field(args.p, args.n, modulus=modulus)
    _print_record({"schema": SCHEMA, "record": "field", **json.loads(f.to_json())})
    return 0


def _cmd_eval(args) -> int:
    f = build_field(args.p, args.n)
    x = parse_element(f, args.x)
    _print_record({"schema": SCHEMA, "record": "eval", "p": f.p, "n": f.n,
                   "d": args.d, "x": x, "value": f.pow(x, args.d)})
    return 0


def _cmd_uniformity(args) -> int:
    f = build_field(args.p, args.n)
    c = parse_element(f, args.c)
    _emit_reports(f, args.d, [power_uniformity(f, args.d, c)], args.csv)
    return 0


def _cmd_spectrum(args) -> int:
    f = build_field(args.p, args.n)
    c = parse_element(f, args.c)
    _emit_reports(f, args.d, [general_uniformity(f, PowerMap(args.d), c)], args.csv)
    return 0


def _cmd_sweep(args) -> int:
    f = build_field(args.p, args.n)
    cs = c_set(f, args.c_set)
    _emit_reports(f, args.d, sweep(f, PowerMap(args.d), cs), args.csv)
    return 0


def _instance_record(case_id: str, result) -> dict:
    inst = result.instance
    observed = list(result.observed) if isinstance(result.observed, tuple) \
        else result.observed
    return {"schema": SCHEMA, "record": "instance", "case": case_id,
            "p": inst.p, "n": inst.n, "d": inst.d, "k": inst.k, "c": inst.c,
            "condition": inst.c_label, "predicted": inst.predicted.render(),
            "observed": observed, "ok": result.ok}


def _no_instance_error(case_ids: list[str] | None, max_size: int) -> ValueError:
    """The usage error for a --max-size below every grid field of the cases."""
    cases = [theorems.case_by_id(i) for i in case_ids] if case_ids else theorems.registry()
    smallest = min(p**n for case in cases for p, n, *_ in case.fields)
    return ValueError(f"--max-size {max_size} selects no instance: the smallest "
                      f"grid field has q = {smallest}")


def _cmd_verify(args) -> int:
    ids = [args.case] if args.case else None
    reports = [r for r in theorems.verify_all(case_ids=ids, max_size=args.max_size)
               if r.results]      # a row whose grid --max-size drops prints nothing
    if not reports:
        raise _no_instance_error(ids, args.max_size)
    failed = False
    for report in reports:
        for result in report.results:
            _print_record(_instance_record(report.case_id, result))
        _print_record({"schema": SCHEMA, "record": "case-verdict",
                       "case": report.case_id, "passed": report.passed,
                       "instances": len(report.results),
                       "max_attained": report.max_attained})
        failed = failed or not report.passed
    return 1 if failed else 0


def _cmd_table(args) -> int:
    markdown, rows = theorems.reproduce_table(max_size=args.max_size)
    if not rows:
        raise _no_instance_error(None, args.max_size)
    if args.csv:
        header = ["case", "p", "n", "d", "condition", "predicted", "observed", "verdict"]
        print(",".join(header))
        for row in rows:
            print(",".join(f'"{row[h]}"' if "," in str(row[h]) else str(row[h])
                           for h in header))
    else:
        sys.stdout.write(markdown)
    return 1 if any(row["verdict"] != "pass" for row in rows) else 0


def _cmd_dickson(args) -> int:
    f = build_field(args.p, args.n)
    if args.preimage is not None:
        x0 = parse_element(f, args.preimage)
        r = dickson_preimage_count(f, args.m, x0)
        params = dickson_params(f, args.m)
        _print_record({"schema": SCHEMA, "record": "dickson-preimage",
                       "p": f.p, "n": f.n, "m": args.m, "x0": r.x0,
                       "value": r.value, "count": r.count,
                       "predicted": r.predicted, "branch": r.branch,
                       "m_gcd": params.m_gcd, "lbar": params.lbar,
                       "two_adic_r": params.r})
        return 1 if r.count != r.predicted else 0
    values = dickson_values(f, args.m)
    _print_record({"schema": SCHEMA, "record": "dickson-values",
                   "p": f.p, "n": f.n, "m": args.m,
                   "values": [int(v) for v in values]})
    return 0


def _cmd_gold_dist(args) -> int:
    dist = gold_solution_distribution(args.n, args.k)
    _print_record({"schema": SCHEMA, "record": "gold-distribution",
                   "n": dist.n, "k": dist.k,
                   "counts": [list(pair) for pair in dist.counts],
                   "zero_beta_solutions": dist.zero_beta_solutions,
                   "predicted": [list(pair) for pair in dist.predicted]})
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
    _print_record({"schema": SCHEMA, "record": "sign-partition",
                   "p": f.p, "n": f.n, "cells": cells})
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
        return args.fn(args)
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"cdiff: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
