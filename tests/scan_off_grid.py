"""Check registry claims on fields off their default grids, in two passes.

1. Every row on every field with 4 < q <= 6561 (3^8), the prime fields up to
   GF(6553) included, at each exponent that lies outside the row's default
   grid: the whole field if no grid entry names it, else each k of the
   family that no (p, n, k) entry pins.
2. The rows whose branches test a single c (c = 0, c = 1 or c = -1), which
   cost one orbit per exponent, on every field with 4 < q <= 2^16.  The field
   and context caches are cleared after each field, so memory stays flat.

Each pass skips a field on which the row's exponent family is empty.  After
pass 1 the scan shows how tight each upper bound is: for every `UpperBound`
branch, its runs (one per field and exponent), the runs whose maximum
reaches the bound, and a histogram of the bound minus the maximum.
`conftest.off_grid_entries` picks pass 1's exponents, and the property test
`test_claims_hold_off_their_grids` draws from the same choice.

Usage: PYTHONPATH=src python3 tests/scan_off_grid.py

Prints one line per (row, field) whose check fails and a summary line per
pass, and exits 1 if any check fails.  The claims are stated for every field,
so a failure is a finding about the claim or its declared condition, never a
reason to narrow the fields.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter, defaultdict

from cdiff import ddt, field
from cdiff.field import build_field, is_prime
from cdiff.theorems import (UpperBound, VerificationReport, case_by_id, registry,
                            verify_case)
from conftest import off_grid_entries

FIELDS = [(p, n) for p in range(2, 6562) if is_prime(p)
          for n in range(1, 13) if 4 < p**n <= 6561]
SINGLE_C_ROWS = [case_by_id(row_id) for row_id in (
    "inverse-c0", "half-gold-pcn", "three-n-plus-3", "pn-plus-3",
    "pn-minus-3-classical", "half-pn-minus-3", "bt-rows")]
SINGLE_C_FIELDS = [(p, n) for p in range(2, 2**16 + 1) if is_prime(p)
                   for n in range(1, 17) if 4 < p**n <= 2**16]


def check(row, entries: tuple) -> VerificationReport:
    """Verify `row` over one field alone, at the exponents that `entries`, as
    its `fields`, select, printing the first counterexample of a failure."""
    report = verify_case(dataclasses.replace(row, fields=entries))
    if not report.passed:
        bad = report.counterexamples
        run, c, observed = bad[0]
        print(f"FAIL {row.id} over GF({run.p}^{run.n}): {len(bad)} counterexamples, "
              f"first d = {run.d}, c = {c}, predicted "
              f"{run.predicted.render()}, observed {observed}")
    return report


def main() -> int:
    start, checked, failed = time.perf_counter(), 0, 0
    slack: dict[tuple[str, str], Counter] = defaultdict(Counter)
    for row in registry():
        for p, n in FIELDS:
            if not (entries := off_grid_entries(row, p, n)):
                continue
            checked += 1
            report = check(row, entries)
            failed += not report.passed
            for run in report.runs:
                if isinstance(run.predicted, UpperBound):
                    slack[row.id, run.c_label][run.predicted.value - max(run.observed)] += 1
    print(f"{checked} (row, field) pairs with exponents off the grids, {failed} failed, "
          f"{time.perf_counter() - start:.1f} s")
    print("upper bounds off the grids, per branch (slack = bound - maximum of a run):")
    for (row_id, label), hist in slack.items():
        shown = ", ".join(f"{s}: {m}" for s, m in sorted(hist.items()))
        print(f"  {row_id} [{label}]: {hist.total()} runs, {hist[0]} reach the "
              f"bound, slack {{{shown}}}")

    start, pairs, instances, single_failed = time.perf_counter(), 0, 0, 0
    for p, n in SINGLE_C_FIELDS:
        f = build_field(p, n)
        for row in SINGLE_C_ROWS:
            if row.family(f):
                report = check(row, ((p, n),))
                pairs += 1
                instances += sum(len(run.c_values) for run in report.runs)
                single_failed += not report.passed
        field._FIELD_CACHE.clear()
        ddt._CONTEXTS.clear()
    print(f"{len(SINGLE_C_FIELDS)} fields with 4 < q <= 2^16, {pairs} (row, field) "
          f"pairs and {instances} instances of the single-c rows, "
          f"{single_failed} failed, {time.perf_counter() - start:.1f} s")
    return 1 if failed or single_failed else 0


if __name__ == "__main__":
    sys.exit(main())
