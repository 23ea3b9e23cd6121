"""Shared reference oracles, kept independent of the library's table-driven
arithmetic: plain coefficient-list polynomial math and brute-force counting."""

import functools
import math
import random

import pytest

from cdiff import ddt


# (p, n, modulus) of the fields whose tables are checked against the oracles;
# modulus None is the deterministic one
ORACLE_FIELDS = ([(2, 1, None), (3, 1, None), (7, 1, None), (13, 1, None)]
                 + [(2, n, None) for n in range(3, 11)]
                 + [(3, n, None) for n in range(2, 7)]
                 + [(5, 2, None), (13, 2, None),
                    (3, 2, [2, 2, 1]), (2, 4, [1, 0, 0, 1, 1])]
                 + [(257, 1, None), (65537, 1, None)])


def ref_poly_mulmod(a_coeffs, b_coeffs, modulus, p):
    """Schoolbook (a*b) mod modulus over Z_p, coefficient lists, c0 first."""
    n = len(modulus) - 1
    conv = [0] * (2 * n)
    for i, ai in enumerate(a_coeffs):
        if ai:
            for j, bj in enumerate(b_coeffs):
                conv[i + j] += ai * bj
    for k in range(len(conv) - 1, n - 1, -1):
        c = conv[k] % p
        if c:
            for i in range(n):
                conv[k - n + i] -= c * modulus[i]
    return [v % p for v in conv[:n]]


def ref_add(a_coeffs, b_coeffs, p):
    return [(x + y) % p for x, y in zip(a_coeffs, b_coeffs)]


def ref_eval_poly(coeffs, x, p):
    v = 0
    for c in reversed(coeffs):
        v = (v * x + c) % p
    return v


def ref_poly_rem(f, g, p):
    """f mod g over Z_p by long division, g monic."""
    f, dg = list(f), len(g) - 1
    for k in range(len(f) - 1, dg - 1, -1):
        top = f[k]
        for i in range(dg + 1):
            f[k - dg + i] = (f[k - dg + i] - top * g[i]) % p
    return f[:dg]


def ref_is_irreducible(coeffs, p):
    """Trial division of a monic polynomial of degree >= 1 by every monic
    polynomial of degree 1 to deg/2."""
    n = len(coeffs) - 1
    for dg in range(1, n // 2 + 1):
        for e in range(p**dg):
            divisor = [e // p**i % p for i in range(dg)] + [1]
            if not any(ref_poly_rem(coeffs, divisor, p)):
                return False
    return True


class RefField:
    """GF(p^n) one element at a time, on the digits of the encodings, from
    `ref_add` and `ref_poly_mulmod` alone; the library field gives only p, n
    and the modulus.  For n = 1 each operation is the integer one mod p.
    `inv`, `trace`, `eta` and `in_subfield` remember their answers, since the
    conditions ask them of every element, some of them more than once."""

    def __init__(self, field):
        self.p, self.n, self.q = field.p, field.n, field.q
        self.modulus, self.weights = list(field.modulus), [self.p**i for i in range(self.n)]
        self.minus_one = self.neg(1)
        for name in ("inv", "trace", "eta", "in_subfield"):
            setattr(self, name, functools.cache(getattr(self, name)))

    def digits(self, x):
        return [x // w % self.p for w in self.weights]

    def encode(self, digits):
        return sum(d * w for d, w in zip(digits, self.weights))

    def add(self, x, y):
        if self.n == 1:
            return (x + y) % self.p
        return self.encode(ref_add(self.digits(x), self.digits(y), self.p))

    def neg(self, x):
        if self.n == 1:
            return -x % self.p
        return self.encode([-d % self.p for d in self.digits(x)])

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if self.n == 1:
            return x * y % self.p
        return self.encode(ref_poly_mulmod(self.digits(x), self.digits(y),
                                           self.modulus, self.p))

    def pow(self, x, e):
        """Square-and-multiply on digit lists, e >= 1."""
        if self.n == 1:
            return pow(x, e, self.p)
        base = out = self.digits(x)
        for bit in bin(e)[3:]:
            out = ref_poly_mulmod(out, out, self.modulus, self.p)
            if bit == "1":
                out = ref_poly_mulmod(out, base, self.modulus, self.p)
        return self.encode(out)

    def inv(self, x):
        return self.pow(x, self.q - 2)

    def trace(self, x):
        """x + x^p + ... + x^(p^(n-1))."""
        t = 0
        for _ in range(self.n):
            t, x = self.add(t, x), self.pow(x, self.p)
        return t

    def eta(self, x):
        """Euler's criterion (odd p): x^((q-1)/2) is 0, 1 or -1."""
        return {0: 0, 1: 1, self.minus_one: -1}[self.pow(x, (self.q - 1) // 2)]

    def in_subfield(self, x, m):
        return self.pow(x, self.p**m) == x


def _ref_traces_one(F, c):
    return c not in (0, 1) and F.trace(c) == 1 and F.trace(F.inv(c)) == 1


def _ref_eta_one(F, c):
    four = 4 % F.p
    return (F.eta(F.sub(F.mul(c, c), F.mul(four, c))) == 1
            or F.eta(F.sub(1, F.mul(four, c))) == 1)


def _ref_minus_one(F, k, c):
    return c == F.minus_one


# One reference c-filter per branch of each registry row, in branch order:
# the same conditions as the rows declare, asked of one c at a time.
REF_CONDITIONS = {
    "square": (lambda F, k, c: c != 1,),
    "inverse-c0": (lambda F, k, c: c == 0,),
    "inverse-bin-2": (lambda F, k, c: _ref_traces_one(F, c),),
    "inverse-bin-3": (lambda F, k, c: c not in (0, 1) and not _ref_traces_one(F, c),),
    "inverse-odd-2": (lambda F, k, c: c not in (0, 1) and not _ref_eta_one(F, c),),
    "inverse-odd-3": (lambda F, k, c: c not in (0, 1) and _ref_eta_one(F, c),),
    "gold-subfield": (lambda F, k, c: c != 1 and F.in_subfield(c, math.gcd(k, F.n)),),
    "gold-binary-outside": (lambda F, k, c: not F.in_subfield(c, math.gcd(F.n, k)),),
    "half-gold-pcn": (_ref_minus_one,),
    "half-pn-plus1": (lambda F, k, c: c not in (1, F.minus_one),),
    "half-pn-plus1-refined": (
        lambda F, k, c: (c not in (1, F.minus_one) and F.q % 4 == 1
                         and F.eta(F.mul(F.sub(1, c), F.inv(F.add(1, c)))) == 1),),
    "three-n-plus-3": (_ref_minus_one,),
    "pn-plus-3": (_ref_minus_one,),
    "pn-minus-3": (_ref_minus_one, lambda F, k, c: c == 0,
                   lambda F, k, c: c not in (0, 1, F.minus_one)),
    "pn-minus-3-classical": (lambda F, k, c: c == 1,),
    "half-pn-minus-3": (_ref_minus_one,),
    "two-thirds": (lambda F, k, c: c != 1,),
    "bt-rows": (_ref_minus_one,),
}


def brute_delta_count(field, eval_fn, c, a, b):
    """Count solutions x of F(x+a) - c F(x) = b with scalar field ops only."""
    return sum(1 for x in range(field.q)
               if field.sub(eval_fn(field.add(x, a)), field.mul(c, eval_fn(x))) == b)


def brute_uniformity(field, eval_fn, c):
    """Max delta count over all (a, b), a != 0 required only when c = 1."""
    best = 0
    for a in range(field.q):
        if a == 0 and c == 1:
            continue
        counts = {}
        for x in range(field.q):
            b = field.sub(eval_fn(field.add(x, a)), field.mul(c, eval_fn(x)))
            counts[b] = counts.get(b, 0) + 1
        best = max(best, max(counts.values()))
    return best


@pytest.fixture(autouse=True)
def cold_contexts():
    """Start every test with no cached power context, so that what a test
    counts does not depend on which tests ran before it."""
    ddt._CONTEXTS.clear()


@pytest.fixture
def counted_rows(monkeypatch):
    """The mode of every report that `ddt` counts during the test, power-route
    row or general scan, from a spy on `ddt._slab_reports`, which builds
    each counted report."""
    counted, slab_reports = [], ddt._slab_reports

    def counting_slab_reports(hists, mode):
        counted.extend([mode] * len(hists))
        return slab_reports(hists, mode)

    monkeypatch.setattr(ddt, "_slab_reports", counting_slab_reports)
    return counted


@pytest.fixture
def rng():
    return random.Random(20210419)
