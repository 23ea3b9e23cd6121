"""Audit the exp/log tables of every field above 2^16, up to the size cap,
and of every prime field below it, and the power route's count on each
field above 2^16 against an independent one.

Both counting routes read the same tables, so a wrong table would make them
agree on wrong answers.  For each field, with no table of the build:

1. exp[k+1] = g exp[k] for every k (indices mod q-1), each product a
   schoolbook digit convolution with g reduced mod the modulus;
2. exp is a permutation of 1..q-1, and exp[0] = 1;
3. log[exp[k]] = k.

Every nonzero residue is then a power of g, so the residues form a field: the
modulus is irreducible, and g is primitive.

Then three draws per field, seeded by q, each with a random a != 0: a
random d in [1, 2q) with c not in {0, 1}; d = q - 2 at c = -1; a random
d at c = 1.  The spectrum `power_uniformity(f, d, c)` reports must equal
that of one digit-add `ddt_row` at a, merged with the analytic a = 0 row
when c != 1 (over GF(2^n), c = -1 is c = 1, so that draw has no a = 0
row).  That count shares neither the Zech table, the report cache nor the
slab code with the route, and above 2^16 the route takes its one-row,
2^16-x-chunk path.

Then one draw of the inverse-exponent identity per field, seeded by q: a
random d prime to q-1 and c != 0.  With e = 1/d mod q-1, x^e at c must have
the whole report of x^d at c^-d (put y = u^d and y + a = v^d in
x^e(y + a) - c x^e(y) = b).  The two counts take different exponents, so
they share no `_log_terms`, and neither reads the digit-add oracle.

Fields: every (p, n >= 2) with 2^16 < q <= 2^22, then the three largest
primes below 2^22, with the tables and the count checked; then the 6,542
primes below 2^16, with the tables checked (tier-1 audits the tables of the
93 extension fields with q <= 2^16).  The field and report caches are
cleared after each field, so memory stays flat.

Usage: PYTHONPATH=src python3 tests/audit_tables.py

Prints one line per field that fails and a summary line, and exits 1 if any
field fails.  A failure is a finding about the build or the count, never a
reason to narrow the fields.
"""

from __future__ import annotations

import math
import random
import sys
import time
import traceback
from itertools import islice

import numpy as np

from cdiff import ddt, field
from cdiff.ddt import ddt_row, power_uniformity
from cdiff.field import DEFAULT_SIZE_CAP, Field, build_field, is_prime
from cdiff.funcs import PowerMap

EXTENSION_FIELDS = [(p, n) for p in range(2, 2**11) if is_prime(p)
                    for n in range(2, 23) if 2**16 < p**n <= DEFAULT_SIZE_CAP]
PRIME_FIELDS = list(islice(((p, 1) for p in range(DEFAULT_SIZE_CAP, 1, -1) if is_prime(p)), 3))
CHUNK = 2**16


def times_generator(f: Field, x: np.ndarray) -> np.ndarray:
    """g x for an int64 array of encodings: the digit convolution of x and g,
    then each coefficient of x^top, top >= n, folded down by x^n = -(m_0 +
    ... + m_{n-1} x^{n-1}) for the monic modulus m."""
    p, n = f.p, f.n
    powers = p ** np.arange(n, dtype=np.int64)
    digits = x // powers[:, None] % p             # digit i of every x in row i
    conv = np.zeros((2 * n - 1, len(x)), dtype=np.int64)
    for j, g_j in enumerate(f.coeffs(f.generator)):
        if g_j:
            conv[j:j + n] += digits * g_j
    for top in range(2 * n - 2, n - 1, -1):
        c = conv[top] % p
        for i, m_i in enumerate(f.modulus[:n]):
            if m_i:
                conv[top - n + i] -= c * m_i
    return powers @ (conv[:n] % p)


def audit(f: Field) -> list[str]:
    """What is wrong with the field's tables; empty when nothing is."""
    q, exp, log = f.q, f.exp.astype(np.int64), f.log
    if len(exp) != q - 1 or exp.min() < 1 or exp.max() >= q:
        return [f"exp has {len(exp)} entries in [{exp.min()}, {exp.max()}], "
                f"not q-1 = {q - 1} in [1, q-1]"]
    problems = []
    if exp[0] != 1:
        problems.append(f"exp[0] = {exp[0]}, not 1")
    following = np.roll(exp, -1)
    for lo in range(0, q - 1, CHUNK):
        wrong = np.flatnonzero(times_generator(f, exp[lo:lo + CHUNK])
                               != following[lo:lo + CHUNK])
        if len(wrong):
            k = lo + int(wrong[0])
            problems.append(f"exp[{(k + 1) % (q - 1)}] = {following[k]} is not "
                            f"g exp[{k}] (and {len(wrong) - 1} more in its chunk)")
            break
    if not (np.bincount(exp, minlength=q)[1:] == 1).all():
        problems.append("exp is not a permutation of 1..q-1")
    elif not np.array_equal(log[exp], np.arange(q - 1)):
        problems.append("log[exp[k]] != k for some k")
    return problems


def digit_add_spectrum(f: Field, d: int, c: int, a: int) -> tuple[tuple[int, int], ...]:
    """The power-reduced spectrum of x^d at c from one digit-add row at
    a != 0, merged when c != 1 with the a = 0 row, (1-c) x^d = b: one x at
    b = 0 and g = gcd(d, q-1) at each of the (q-1)/g nonzero d-th powers."""
    q = f.q
    hist = np.bincount(ddt_row(f, PowerMap(d), c, a), minlength=q + 1)
    if c != 1:
        g = math.gcd(d, q - 1)
        hist[0] += (q - 1) - (q - 1) // g
        hist[1] += 1
        hist[g] += (q - 1) // g
    values = np.flatnonzero(hist)
    return tuple(zip(values.tolist(), hist[values].tolist()))


def count_route(f: Field) -> list[str]:
    """The power route at three draws seeded by q against `digit_add_spectrum`
    at a random a != 0: random d in [1, 2q) and c not in {0, 1}; d = q - 2
    at c = -1, which over GF(2^n) is c = 1; random d at c = 1."""
    rng = random.Random(f.q)
    q = f.q
    draws = [(rng.randrange(1, 2 * q), rng.randrange(2, q), rng.randrange(1, q)),
             (q - 2, f.neg(1), rng.randrange(1, q)),
             (rng.randrange(1, 2 * q), 1, rng.randrange(1, q))]
    problems = []
    for d, c, a in draws:
        want, got = digit_add_spectrum(f, d, c, a), power_uniformity(f, d, c).spectrum
        if got != want:
            problems.append(f"power route at d = {d}, c = {c}: spectrum {got[-3:]} "
                            f"(last three), digit-add row at a = {a} gives {want[-3:]}")
    return problems


def inverse_draw(f: Field) -> list[str]:
    """The power route's report of x^e at c against that of x^d at c^-d, for
    a random d prime to q-1, e = 1/d mod q-1 and a random c != 0."""
    rng, m = random.Random(-f.q), f.q - 1
    d = rng.randrange(2, m)
    while math.gcd(d, m) != 1:
        d = rng.randrange(2, m)
    c = rng.randrange(1, f.q)
    got, want = power_uniformity(f, pow(d, -1, m), c), power_uniformity(f, d, f.pow(c, -d % m))
    if got != want:
        return [f"inverse exponent of d = {d} at c = {c}: spectrum {got.spectrum[-3:]} "
                f"(last three), x^d at c^-d gives {want.spectrum[-3:]}"]
    return []


def main() -> int:
    failed, small_primes = 0, [(p, 1) for p in range(2, 2**16) if is_prime(p)]
    for fields, routes, what in (
            (EXTENSION_FIELDS + PRIME_FIELDS, True,
             f"{len(EXTENSION_FIELDS)} extension fields with 2^16 < q <= 2^22 and "
             f"{len(PRIME_FIELDS)} prime fields near the cap"),
            (small_primes, False,
             f"{len(small_primes)} prime fields below 2^16, tables only")):
        start, route_s, inverse_s, bad = time.perf_counter(), 0.0, 0.0, 0
        for p, n in fields:
            try:
                f = build_field(p, n)
                problems = audit(f)
                if routes:
                    t0 = time.perf_counter()
                    problems += count_route(f)
                    t1 = time.perf_counter()
                    problems += inverse_draw(f)
                    route_s, inverse_s = route_s + t1 - t0, inverse_s + time.perf_counter() - t1
            except Exception as exc:    # a count that reads a stale buffer can raise
                where = traceback.extract_tb(exc.__traceback__)[-1]
                problems = [f"{type(exc).__name__} in {where.name}, line {where.lineno}: "
                            f"{exc}"]
            if problems:
                bad += 1
                print(f"FAIL GF({p}^{n}): " + "; ".join(problems))
            field._FIELD_CACHE.clear()
            ddt._CONTEXTS.clear()
        print(f"{what}: {bad} failed, {time.perf_counter() - start:.1f} s"
              + (f" ({route_s:.1f} s in the count checks, {inverse_s:.1f} s in the "
                 f"inverse draws)" if routes else ""))
        failed += bad
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
