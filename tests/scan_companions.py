"""Scan the closed-form companions of `cdiff.closedform` over wide ranges.

Each companion pairs a closed form with an enumeration, and the tests check
each on a few points.  This script checks them everywhere in these ranges:

1. `dickson_preimage_count` over every odd field with q <= 343, every
   Dickson degree d < min(3q, 400) and every x0.  The scan fails if any of
   the five branches is never taken.  `closedform.dickson_values` is
   memoized here, so D_d is enumerated once per (field, d), not once per x0.
2. `gold_solution_distribution` for n = 2..20 and every k < 2n that is not a
   multiple of n: every predicted (solutions, number of beta) pair.
3. `cm_zero_count` for the same (n, k) with n <= 16, at m = n / gcd(n, k).
4. `jacobsthal_counts` over every odd field with q <= 2^16: N1 = N2 =
   (q - 4 - eta(2)) / 2.

The field cache is cleared after each field, so memory stays flat.

Usage: PYTHONPATH=src python3 tests/scan_companions.py

Prints the Dickson branch counts, the first few mismatches of each part
and a summary line per part, and exits 1 on any mismatch or untaken Dickson
branch.  A mismatch is a finding about the closed form,
never a reason to narrow the ranges.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter

from cdiff import closedform, field
from cdiff.closedform import (cm_zero_count, dickson_preimage_count,
                              gold_solution_distribution, jacobsthal_counts)
from cdiff.field import build_field, is_prime

DICKSON_BRANCHES = ("square-disc", "nonsquare-disc", "square-disc-half",
                    "nonsquare-disc-half", "mixed")
SHOWN = 5                   # mismatches printed per part


def odd_fields(limit: int) -> list[tuple[int, int]]:
    """Every (p, n) with p an odd prime and p^n <= limit, by q."""
    return sorted(((p, n) for p in range(3, limit + 1, 2) if is_prime(p)
                   for n in range(1, limit.bit_length()) if p**n <= limit),
                  key=lambda pn: pn[0]**pn[1])


def _report(part: str, checks: int, bad: list[str], start: float) -> int:
    for line in bad[:SHOWN]:
        print(f"FAIL {part}: {line}")
    print(f"{part}: {checks} checks, {len(bad)} mismatches, "
          f"{time.perf_counter() - start:.1f} s")
    return len(bad)


def scan_dickson() -> int:
    start, checks, bad, hits = time.perf_counter(), 0, [], Counter()
    enumerate_values, memo = closedform.dickson_values, {}

    def dickson_values(f, m):
        if m not in memo:
            memo[m] = enumerate_values(f, m)
        return memo[m]

    closedform.dickson_values = dickson_values
    try:
        for p, n in odd_fields(343):
            f = build_field(p, n)
            for d in range(1, min(3 * f.q, 400)):
                memo.clear()
                for x0 in range(f.q):
                    r = dickson_preimage_count(f, d, x0)
                    checks += 1
                    hits[r.branch] += 1
                    if r.count != r.predicted:
                        bad.append(f"GF({p}^{n}) d = {d} x0 = {x0}: {r.branch} "
                                   f"predicts {r.predicted}, enumeration counts {r.count}")
            field._FIELD_CACHE.clear()
    finally:
        closedform.dickson_values = enumerate_values
    for branch in DICKSON_BRANCHES:
        print(f"  {branch}: {hits[branch]}")
        if not hits[branch]:
            bad.append(f"branch {branch} is never taken")
    return _report("dickson_preimage_count", checks, bad, start)


def scan_gold() -> int:
    start, checks, bad = time.perf_counter(), 0, []
    for n in range(2, 21):
        for k in range(1, 2 * n):
            if k % n == 0:
                continue
            dist = gold_solution_distribution(n, k)
            counts = dist.counts_dict()
            checks += 1
            if any(counts.get(m, 0) != number for m, number in dist.predicted):
                bad.append(f"n = {n} k = {k}: predicted {dist.predicted}, "
                           f"counted {dist.counts}")
        field._FIELD_CACHE.clear()
    return _report("gold_solution_distribution", checks, bad, start)


def scan_cm_zeros() -> int:
    start, checks, bad = time.perf_counter(), 0, []
    for n in range(2, 17):
        for k in range(1, 2 * n):
            if k % n == 0:
                continue
            r = cm_zero_count(n, k, n // math.gcd(n, k))
            checks += 1
            if r.count != r.predicted:
                bad.append(f"n = {n} k = {k} m = {r.m}: predicted {r.predicted}, "
                           f"counted {r.count}")
        field._FIELD_CACHE.clear()
    return _report("cm_zero_count", checks, bad, start)


def scan_jacobsthal() -> int:
    start, checks, bad = time.perf_counter(), 0, []
    for p, n in odd_fields(2**16):
        r = jacobsthal_counts(build_field(p, n))
        checks += 1
        if not r.n1 == r.n2 == r.predicted:
            bad.append(f"GF({p}^{n}): N1 = {r.n1}, N2 = {r.n2}, predicted {r.predicted}")
        field._FIELD_CACHE.clear()
    return _report("jacobsthal_counts", checks, bad, start)


def main() -> int:
    start = time.perf_counter()
    failed = scan_dickson() + scan_gold() + scan_cm_zeros() + scan_jacobsthal()
    print(f"companion scan: {failed} mismatches, {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
