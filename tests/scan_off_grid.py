"""Check every registry claim on every field with 4 < q <= 1000 that lies
outside the claim's default grid and on which its exponent family is not
empty.

Usage: PYTHONPATH=src python3 tests/scan_off_grid.py

Prints one line per (row, field) whose check fails and a summary line, and
exits 1 if any check fails.  The claims are stated for every field, so a
failure is a finding about the claim or its declared condition, never a
reason to narrow the fields.
"""

from __future__ import annotations

import dataclasses
import sys
import time

from cdiff.field import build_field, is_prime
from cdiff.theorems import registry, verify_case

FIELDS = [(p, n) for p in range(2, 1001) if is_prime(p)
          for n in range(1, 10) if 4 < p**n <= 1000]


def main() -> int:
    start, checked, failed = time.perf_counter(), 0, 0
    for row in registry():
        grid = {(p, n) for p, n, *_ in row.fields}
        for p, n in FIELDS:
            if (p, n) in grid or not row.family(build_field(p, n)):
                continue
            report = verify_case(dataclasses.replace(row, fields=((p, n),)))
            checked += 1
            if not report.passed:
                failed += 1
                bad = report.counterexamples[0]
                print(f"FAIL {row.id} over GF({p}^{n}): {len(report.counterexamples)} "
                      f"counterexamples, first d = {bad.instance.d}, "
                      f"c = {bad.instance.c}, predicted "
                      f"{bad.instance.predicted.render()}, observed {bad.observed}")
    print(f"{checked} (row, field) pairs off the grids, {failed} failed, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
