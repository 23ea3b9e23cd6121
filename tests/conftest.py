"""Shared reference oracles, kept independent of the library's table-driven
arithmetic: plain coefficient-list polynomial math and brute-force counting."""

import random

import pytest


def ref_poly_mulmod(a_coeffs, b_coeffs, modulus, p):
    """Schoolbook (a*b) mod modulus over Z_p, coefficient lists, c0 first."""
    n = len(modulus) - 1
    conv = [0] * (2 * n)
    for i, ai in enumerate(a_coeffs):
        for j, bj in enumerate(b_coeffs):
            conv[i + j] = (conv[i + j] + ai * bj) % p
    for k in range(len(conv) - 1, n - 1, -1):
        c = conv[k]
        if c:
            conv[k] = 0
            for i in range(n):
                conv[k - n + i] = (conv[k - n + i] - c * modulus[i]) % p
    return conv[:n]


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


@pytest.fixture
def rng():
    return random.Random(20210419)
