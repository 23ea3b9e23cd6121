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
5. Whole Gold spectra: for n = 3..22 and every k < n, x^(2^k+1) over
   GF(2^n) at one c outside GF(2^gcd(n, k)), drawn with the seed (n, k).
   Its a = 1 row's histogram (the power-route spectrum less the analytic
   a = 0 row) equals `gold_solution_distribution(n, k).counts` plus one b
   for `zero_beta_solutions`.
6. Whole half-Gold spectra: every x^((p^k+1)/2), k < 2n and k != n, at
   c = -1 over every odd field with n >= 2 and q <= 20,000.  Its a = 1 row's
   histogram equals the count of counts of the Dickson values D_d(x).

Parts 5 and 6 check observations, not derivations: the repo derives neither
identity, so a mismatch says the observation fails there.

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

import numpy as np

from cdiff import closedform, ddt, field
from cdiff.closedform import (cm_zero_count, dickson_preimage_count, dickson_values,
                              gold_solution_distribution, jacobsthal_counts)
from cdiff.ddt import power_uniformity
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


def a1_histogram(f, d: int, c: int) -> dict[int, int]:
    """{count: number of b} over the a = 1 row of x^d at c != 1: the
    power-route spectrum less the a = 0 row, (1-c) x^d = b, which has one x at
    b = 0, and, with g = gcd(d, q-1), g x's at each of (q-1)/g b's and none
    at the other b's."""
    m, hist = f.q - 1, Counter(dict(power_uniformity(f, d, c).spectrum))
    g = math.gcd(d, m)
    hist.subtract({0: m - m // g, g: m // g})
    hist[1] -= 1
    return {v: number for v, number in sorted(hist.items()) if number}


def _clear_caches() -> None:
    field._FIELD_CACHE.clear()
    ddt._CONTEXTS.clear()


def scan_gold_spectra() -> int:
    start, checks, bad = time.perf_counter(), 0, []
    for n in range(3, 23):
        f = build_field(2, n)
        for k in range(1, n):
            rng, sub = np.random.default_rng((n, k)), math.gcd(n, k)
            while f.in_subfield(c := int(rng.integers(2, f.q)), sub):
                pass
            dist = gold_solution_distribution(n, k)
            want = Counter(dist.counts_dict()) + Counter({dist.zero_beta_solutions: 1})
            got = a1_histogram(f, 2**k + 1, c)
            checks += 1
            if got != want:
                bad.append(f"n = {n} k = {k} c = {c}: a = 1 row {got}, "
                           f"companion {dict(sorted(want.items()))}")
        _clear_caches()
    return _report("Gold spectra", checks, bad, start)


def scan_half_gold_spectra() -> int:
    start, checks, bad = time.perf_counter(), 0, []
    for p, n in odd_fields(20_000):
        if n < 2:
            continue
        f = build_field(p, n)
        for k in range(1, 2 * n):
            if k == n:
                continue
            d = (p**k + 1) // 2
            counts = np.bincount(np.bincount(dickson_values(f, d), minlength=f.q))
            want = {v: int(number) for v, number in enumerate(counts) if number}
            got = a1_histogram(f, d, p - 1)
            checks += 1
            if got != want:
                bad.append(f"GF({p}^{n}) k = {k}: a = 1 row {got}, Dickson {want}")
        _clear_caches()
    return _report("half-Gold spectra", checks, bad, start)


def main() -> int:
    start = time.perf_counter()
    failed = (scan_dickson() + scan_gold() + scan_cm_zeros() + scan_jacobsthal()
              + scan_gold_spectra() + scan_half_gold_spectra())
    print(f"companion scan: {failed} mismatches, {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
