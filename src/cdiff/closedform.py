"""Analytic companions to the exhaustive counts: gcd branch values, Dickson
polynomials and their preimage counts, the Gold-equation solution
distribution, the companion polynomial recurrence, quadratic-character
partitions, and Jacobsthal counts.

Every closed form here is paired with an enumeration; the enumeration is the
source of truth and the formula is the object under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cdiff.field import Field, build_field


# ---------------------------------------------------------------------------
# gcd(p^k + 1, p^n - 1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GcdCase:
    p: int
    k: int
    n: int
    value: int
    branch: str          # binary | odd-p-odd-ratio | odd-p-even-ratio


def gcd_power_plus_one(p: int, k: int, n: int) -> GcdCase:
    """Closed-form gcd(p^k+1, p^n-1), cross-checked against the direct gcd.

    p = 2: (2^gcd(2k,n) - 1) / (2^gcd(k,n) - 1); odd p: 2 when n/gcd(n,k) is
    odd, p^gcd(k,n) + 1 when it is even.  A mismatch with the direct gcd is an
    implementation bug, not a user error.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    g = math.gcd(k, n)
    if p == 2:
        value = (2 ** math.gcd(2 * k, n) - 1) // (2 ** g - 1)
        branch = "binary"
    elif (n // g) % 2 == 1:
        value, branch = 2, "odd-p-odd-ratio"
    else:
        value, branch = p**g + 1, "odd-p-even-ratio"
    direct = math.gcd(p**k + 1, p**n - 1)
    if value != direct:
        raise AssertionError(
            f"gcd branch value {value} != direct gcd {direct} for (p,k,n)=({p},{k},{n})")
    return GcdCase(p=p, k=k, n=n, value=value, branch=branch)


# ---------------------------------------------------------------------------
# Dickson polynomials (second parameter fixed to 1)
# ---------------------------------------------------------------------------

def _dickson_ladder(field: Field, m: int, x):
    """D_m(x), where D_0 = 2, D_1 = x and D_{i+1} = x D_i - D_{i-1}.

    Walks the bits of m from the top, keeping the pair (D_k, D_{k+1}) and
    doubling k with D_{2k} = D_k^2 - 2 and D_{2k+1} = D_k D_{k+1} - x, so the
    cost is O(log m) vector passes.  `x` is one element or an int64 array of
    elements; the constants broadcast against it.
    """
    if m < 0:
        raise ValueError(f"Dickson degree must be >= 0, got m = {m!r}")
    two = field.from_int(2)
    lo, hi = np.full(np.shape(x), two, dtype=np.int64), x
    for bit in bin(m)[2:]:
        odd = field.sub_v(field.mul_v(lo, hi), x)
        if bit == "1":
            lo, hi = odd, field.sub_v(field.mul_v(hi, hi), two)
        else:
            lo, hi = field.sub_v(field.mul_v(lo, lo), two), odd
    return lo


def dickson_values(field: Field, m: int) -> np.ndarray:
    """D_m evaluated at every field element, in canonical order."""
    return _dickson_ladder(field, m, field.elements())


def dickson_eval(field: Field, m: int, x: int) -> int:
    """D_m(x) for a single element."""
    return int(_dickson_ladder(field, m, field.check_element("x", x)))


def _two_adic_valuation(t: int) -> int:
    """The largest r with 2^r dividing t (t != 0): the index of its lowest set bit."""
    return (t & -t).bit_length() - 1


@dataclass(frozen=True)
class DicksonParams:
    """Numeric companions for D_d over GF(p^n): m = gcd(d, p^n-1),
    lbar = gcd(d, p^n+1), and r with 2^r exactly dividing p^(2n)-1."""
    d: int
    m_gcd: int
    lbar: int
    r: int


def dickson_params(field: Field, d: int) -> DicksonParams:
    q = field.q
    return DicksonParams(d=d, m_gcd=math.gcd(d, q - 1), lbar=math.gcd(d, q + 1),
                         r=_two_adic_valuation(q * q - 1))


@dataclass(frozen=True)
class DicksonPreimage:
    x0: int
    value: int               # D_d(x0)
    count: int               # enumerated |D_d^{-1}(D_d(x0))|
    predicted: int           # five-branch closed form
    branch: str


def dickson_preimage_count(field: Field, d: int, x0: int) -> DicksonPreimage:
    """Enumerated preimage count of D_d(x0) together with the closed-form
    branch prediction (odd characteristic).

    The branch conditions are easy to misread, so the enumeration is the
    source of truth and the formula is the test subject.
    """
    if field.p == 2:
        raise ValueError("preimage branch formula requires odd characteristic")
    if d < 1:
        raise ValueError(f"preimage branch formula requires Dickson degree "
                         f"m >= 1, got m = {d}")
    x0 = field.check_element("x0", x0)
    values = dickson_values(field, d)
    dv = int(values[x0])
    count = int(np.count_nonzero(values == dv))

    params = dickson_params(field, d)
    m_gcd, lbar, r = params.m_gcd, params.lbar, params.r
    t = _two_adic_valuation(d)
    two = field.from_int(2)
    minus_two = field.neg(two)
    disc = field.sub(field.mul(x0, x0), field.from_int(4))
    eta_disc = field.quadratic_character(disc)

    if eta_disc == 1 and dv not in (two, minus_two):
        predicted, branch = m_gcd, "square-disc"
    elif eta_disc == -1 and dv not in (two, minus_two):
        predicted, branch = lbar, "nonsquare-disc"
    elif eta_disc == 1 and dv == minus_two and 1 <= t <= r - 2:
        predicted, branch = m_gcd // 2, "square-disc-half"
    elif eta_disc == -1 and dv == minus_two and 1 <= t <= r - 2:
        predicted, branch = lbar // 2, "nonsquare-disc-half"
    else:
        predicted, branch = (m_gcd + lbar) // 2, "mixed"
    return DicksonPreimage(x0=int(x0), value=dv, count=count,
                           predicted=predicted, branch=branch)


def dickson_max_preimage(field: Field, d: int) -> int:
    """max over x0 of |D_d^{-1}(D_d(x0))|, by one vectorized enumeration."""
    values = dickson_values(field, d)
    return int(np.bincount(values, minlength=field.q).max())


def _horner(field: Field, coeffs, x):
    """sum_i coeffs[i] x^i in `field`; coefficients are prime-subfield values
    (low degree first), and each coefficient or x may be an int64 array."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add_v(field.mul_v(acc, x), field.from_int(c))
    return acc


def subfield_embedding(base: Field, ext: Field) -> np.ndarray:
    """Embedding of base = GF(p^n) into ext = GF(p^N), n | N, as an array over
    base encodings.  Found by exhaustive root search of the base modulus in
    ext (desk scale only); the smallest root is chosen, so the embedding is
    deterministic."""
    if ext.p != base.p or ext.n % base.n != 0:
        raise ValueError("extension field is not compatible")
    roots = np.nonzero(_horner(ext, base.modulus, ext.elements()) == 0)[0]
    if roots.size == 0:
        raise ValueError("base modulus has no root in the extension")
    e = base.elements()
    digits = [e // base.p**i % base.p for i in range(base.n)]
    return _horner(ext, digits, int(roots[0]))


# ---------------------------------------------------------------------------
# Gold-equation solution distribution over GF(2^n)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoldDistribution:
    """Histogram over nonzero beta of the number of solutions z in GF(2^n) of
    z^(2^k+1) + z + beta = 0, plus the solution count at beta = 0 and the
    closed-form predictions that apply to (n, k)."""
    n: int
    k: int
    counts: tuple[tuple[int, int], ...]      # (solutions m, number of beta M_m)
    zero_beta_solutions: int
    predicted: tuple[tuple[int, int], ...]

    def counts_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def predicted_dict(self) -> dict[int, int]:
        return dict(self.predicted)


def _gold_top_count(m: int, d: int) -> int:
    """Number of nonzero beta with 2^d + 1 solutions when d = gcd(n, k) and
    m = n/d, which is also the number of distinct zeros of C_m."""
    if m % 2 == 1:
        return (2**((m - 1) * d) - 1) // (2**(2 * d) - 1)
    return (2**((m - 1) * d) - 2**d) // (2**(2 * d) - 1)


def gold_solution_distribution(n: int, k: int) -> GoldDistribution:
    if k < 1:
        raise ValueError(f"Gold exponent k must be >= 1, got k = {k}")
    d = math.gcd(n, k)
    if d == n:
        raise ValueError(f"Gold exponent k = {k} is a multiple of n = {n}, so "
                         f"z^(2^k+1) is z^2 over GF(2^{n}), not a Gold map")
    field = build_field(2, n)
    x = field.elements()
    # beta = z^(2^k+1) + z, where z^(2^k) = z^(2^(k mod n)) over GF(2^n)
    w = np.bitwise_xor(field.pow_all(2**(k % n) + 1), x)
    per_beta = np.bincount(w, minlength=field.q)
    hist = np.bincount(per_beta[1:], minlength=1)
    counts = tuple((int(m), int(c)) for m, c in enumerate(hist) if c)

    m = n // d
    if d == 1:
        if n % 2 == 1:
            predicted = ((0, (2**n + 1) // 3), (1, 2**(n - 1) - 1),
                         (3, (2**(n - 1) - 1) // 3))
        else:
            predicted = ((0, (2**n - 1) // 3), (1, 2**(n - 1)),
                         (3, (2**(n - 1) - 2) // 3))
    else:
        predicted = ((2**d + 1, _gold_top_count(m, d)),)
    return GoldDistribution(n=n, k=k, counts=counts,
                            zero_beta_solutions=int(per_beta[0]),
                            predicted=predicted)


@dataclass(frozen=True)
class CmZeros:
    """Distinct zeros in GF(2^n) of the m-th companion polynomial of the Gold
    equation: C_1 = C_2 = 1, C_{i+2}(x) = C_{i+1}(x) + x^(2^(i k)) C_i(x)."""
    n: int
    k: int
    m: int
    count: int
    predicted: int


def cm_zero_count(n: int, k: int, m: int) -> CmZeros:
    d = math.gcd(n, k)
    if m * d != n:
        raise ValueError(f"m must equal n/gcd(n,k) = {n // d}, got {m}")
    field = build_field(2, n)
    c_prev = np.ones(field.q, dtype=np.int64)
    c_cur = np.ones(field.q, dtype=np.int64)
    for i in range(1, m - 1):
        c_prev, c_cur = c_cur, np.bitwise_xor(
            c_cur, field.mul_v(field.pow_all(2**(i * k % n)), c_prev))
    count = int(np.count_nonzero(c_cur == 0))
    return CmZeros(n=n, k=k, m=m, count=count, predicted=_gold_top_count(m, d))


# ---------------------------------------------------------------------------
# Quadratic-character partition and Jacobsthal counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignPartition:
    """The four cells of GF(p^n) \\ {0, -1} keyed by the pair of quadratic
    characters (of x+1, of x)."""
    cells: dict[tuple[int, int], tuple[int, ...]]

    def sizes(self) -> dict[tuple[int, int], int]:
        return {key: len(v) for key, v in self.cells.items()}


def sign_partition(field: Field) -> SignPartition:
    if field.p == 2:
        raise ValueError("sign partition requires odd characteristic")
    x = field.elements()
    eta = field.eta_all()
    eta_succ = eta[field.add_v(x, 1)]
    punctured = (x != 0) & (x != field.neg(1))
    cells = {}
    for i in (1, -1):
        for j in (1, -1):
            sel = punctured & (eta_succ == i) & (eta == j)
            cells[(i, j)] = tuple(int(v) for v in x[sel])
    return SignPartition(cells=cells)


@dataclass(frozen=True)
class JacobsthalCounts:
    """N1 = #{x != 0, +-1 : x^2 - x is a nonzero square} and N2 likewise for
    x^2 + x; both are (q - 4 - eta(2)) / 2, since (q - 3)/2 of the x not in {0, 1}
    make x^2 - x a square and x = -1 makes it 2 (= -1 in characteristic 3)."""
    n1: int
    n2: int
    predicted: int


def jacobsthal_counts(field: Field) -> JacobsthalCounts:
    if field.p == 2:
        raise ValueError("Jacobsthal counts require odd characteristic")
    x = field.elements()
    eta = field.eta_all()
    one = 1
    minus_one = field.neg(1)
    keep = (x != 0) & (x != one) & (x != minus_one)
    sq = field.mul_v(x, x)
    n1 = int(np.count_nonzero(keep & (eta[field.sub_v(sq, x)] == 1)))
    n2 = int(np.count_nonzero(keep & (eta[field.add_v(sq, x)] == 1)))
    predicted = (field.q - 4 - field.quadratic_character(field.from_int(2))) // 2
    return JacobsthalCounts(n1=n1, n2=n2, predicted=predicted)
