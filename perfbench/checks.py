"""Output checks for one command of a workload.

`check_output` returns the list of problems with one command's stdout (empty
when it is correct).  Every command is checked against invariants that hold
for any seed; a command line recorded in `reference.json` must also match its
recorded stdout byte for byte, and `table --max-size 250` must equal the
golden table in `tests/fixtures/table_small.md`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import Counter

GOLDEN_TABLE_ARGV = ("table", "--max-size", "250")


def _flag(argv, name) -> str:
    return argv[argv.index(name) + 1]


class Oracle:
    """Reference answers computed in the benchmark process through the public
    cdiff API, memoized per question."""

    def __init__(self):
        self._reduced: dict[tuple, dict[int, int]] = {}

    def reduced_spectrum(self, argv) -> dict[int, int]:
        """Power-reduced spectrum from `uniformity` on the same (p, n, d, c)."""
        key = tuple(argv[1:])
        if key not in self._reduced:
            from cdiff import cli
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli.main(["uniformity", *argv[1:]])
            rec = json.loads(buf.getvalue())
            self._reduced[key] = dict(map(tuple, rec["spectrum"]))
        return self._reduced[key]

    @staticmethod
    def frobenius(p: int, n: int, c: int) -> int:
        from cdiff.field import build_field
        return build_field(p, n).pow(c, p)


def _records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def _spectrum_errors(rec: dict, q: int) -> list[str]:
    spec = dict(map(tuple, rec["spectrum"]))
    where = f"c={rec['c']}"
    rows = {"power-reduced": 1 if rec["c"] == 1 else 2,
            "full": q - 1 if rec["c"] == 1 else q}[rec["mode"]]
    # power-reduced: the a = 1 row of q values of b, plus the a = 0 row
    # unless c = 1; full: one row of q values of b per admissible a.
    want = rows * q
    errors = []
    if sum(spec.values()) != want or sum(v * m for v, m in spec.items()) != want:
        errors.append(f"{where}: spectrum sums {sum(spec.values())}, "
                      f"{sum(v * m for v, m in spec.items())} != {want}")
    if rec["uniformity"] != max(spec):
        errors.append(f"{where}: uniformity {rec['uniformity']} != max key {max(spec)}")
    return errors


def _full_from_reduced(reduced: dict[int, int], q: int, d: int, c: int) -> dict[int, int]:
    """full = (q-1)(reduced - a0) + a0, with a0 the analytic a = 0 row."""
    a0 = Counter()
    if c != 1:
        g = math.gcd(d, q - 1)
        a0.update({1: 1})
        a0.update({g: (q - 1) // g})
        a0.update({0: (q - 1) - (q - 1) // g})
    keys = set(reduced) | set(a0)
    full = {v: (q - 1) * (reduced.get(v, 0) - a0[v]) + a0[v] for v in keys}
    return {v: m for v, m in full.items() if m}


def check_output(argv, out: bytes, reference: dict[str, str], golden_table: bytes,
                 oracle: Oracle) -> list[str]:
    """Problems with the stdout `out` of command `argv`; [] when it is right."""
    argv = tuple(argv)
    errors = []
    want = reference.get(" ".join(argv))
    if want is not None and hashlib.sha256(out).hexdigest() != want:
        errors.append("stdout differs from the recorded reference")
    if argv == GOLDEN_TABLE_ARGV and out != golden_table:
        errors.append("table differs from tests/fixtures/table_small.md")
    try:
        text = out.decode()
        errors += _invariant_errors(argv, text, oracle)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return errors


def _invariant_errors(argv, text: str, oracle: Oracle) -> list[str]:
    cmd = argv[0]
    if cmd == "table":
        rows = text.splitlines()[2:]
        if not rows or any(not row.endswith("| pass |") for row in rows):
            return ["table has no rows or a row that does not pass"]
        return []
    recs = _records(text)
    if not recs:
        return ["no output"]
    if cmd == "verify":
        verdicts = [r for r in recs if r["record"] == "case-verdict"]
        bad = [r["case"] for r in verdicts if not r["passed"]]
        bad += [f"{r['case']} instance" for r in recs
                if r["record"] == "instance" and not r["ok"]]
        return [f"failed: {', '.join(bad)}"] if bad or not verdicts else []
    if cmd == "dickson":
        (rec,) = recs
        if rec["count"] != rec["predicted"]:
            return [f"dickson preimage count {rec['count']} != closed form "
                    f"{rec['predicted']} ({rec['branch']})"]
        return []

    p, n, d = int(_flag(argv, "-p")), int(_flag(argv, "-n")), int(_flag(argv, "-d"))
    q = p**n
    errors = []
    for rec in recs:
        if (rec["p"], rec["n"], rec["d"]) != (p, n, d):
            errors.append(f"record for {(rec['p'], rec['n'], rec['d'])}, asked {(p, n, d)}")
        errors += _spectrum_errors(rec, q)
    if cmd == "spectrum":
        (rec,) = recs
        full = _full_from_reduced(oracle.reduced_spectrum(argv), q, d, rec["c"])
        if dict(map(tuple, rec["spectrum"])) != full:
            errors.append(f"c={rec['c']}: full spectrum does not match the "
                          f"power-reduced one")
    if cmd == "sweep":
        if _flag(argv, "--c-set") != "not-pm-one":
            raise ValueError("sweep checks know only --c-set not-pm-one")
        by_c = {rec["c"]: rec for rec in recs}
        if sorted(by_c) != [c for c in range(q) if c not in (1, p - 1)] \
                or len(by_c) != len(recs):
            errors.append("sweep records do not cover the c-set once each")
        for c, rec in by_c.items():
            twin = by_c.get(oracle.frobenius(p, n, c))
            if twin is None or {**twin, "c": c} != rec:
                errors.append(f"c={c}: report differs from that of c^p")
    return errors
