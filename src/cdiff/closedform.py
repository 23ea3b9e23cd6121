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

def dickson_values(field: Field, m: int) -> np.ndarray:
    """D_m evaluated at every field element, where D_0 = 2, D_1 = x and
    D_{i+1} = x D_i - D_{i-1}.

    Uses the transfer matrix [[x, -1], [1, 0]] raised to the (m-1)-th power,
    vectorized over all x, so the cost is O(log m) passes.
    """
    if m < 0:
        raise ValueError("Dickson degree must be >= 0")
    q = field.q
    two = np.full(q, field.from_int(2), dtype=np.int64)
    if m == 0:
        return two
    x = field.elements().astype(np.int64)
    if m == 1:
        return x.copy()
    minus_one = np.full(q, field.neg(1), dtype=np.int64)
    zero = np.zeros(q, dtype=np.int64)
    one = np.ones(q, dtype=np.int64)

    def mat_mul(A, B):
        a, b, c, d = A
        e, f, g, h = B
        return (field.add_v(field.mul_v(a, e), field.mul_v(b, g)),
                field.add_v(field.mul_v(a, f), field.mul_v(b, h)),
                field.add_v(field.mul_v(c, e), field.mul_v(d, g)),
                field.add_v(field.mul_v(c, f), field.mul_v(d, h)))

    result = (one, zero, zero, one)
    base = (x, minus_one, one, zero)
    e = m - 1
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    a, b, _, _ = result
    return field.add_v(field.mul_v(a, x), field.mul_v(b, two))


def dickson_eval(field: Field, m: int, x: int) -> int:
    """D_m(x) for a single element, by the same transfer-matrix power."""
    if m < 0:
        raise ValueError("Dickson degree must be >= 0")
    two = field.from_int(2)
    if m == 0:
        return two
    if m == 1:
        return int(x)

    def mat_mul(A, B):
        return (field.add(field.mul(A[0], B[0]), field.mul(A[1], B[2])),
                field.add(field.mul(A[0], B[1]), field.mul(A[1], B[3])),
                field.add(field.mul(A[2], B[0]), field.mul(A[3], B[2])),
                field.add(field.mul(A[2], B[1]), field.mul(A[3], B[3])))

    result = (1, 0, 0, 1)
    base = (int(x), field.neg(1), 1, 0)
    e = m - 1
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return field.add(field.mul(result[0], int(x)), field.mul(result[1], two))


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
    r = 0
    t = q * q - 1
    while t % 2 == 0:
        t //= 2
        r += 1
    return DicksonParams(d=d, m_gcd=math.gcd(d, q - 1), lbar=math.gcd(d, q + 1), r=r)


@dataclass(frozen=True)
class DicksonPreimage:
    x0: int
    value: int               # D_d(x0)
    count: int               # enumerated |D_d^{-1}(D_d(x0))|
    predicted: int           # five-branch closed form
    branch: str


def dickson_preimage_count(field: Field, d: int, x0: int,
                           _values: np.ndarray | None = None) -> DicksonPreimage:
    """Enumerated preimage count of D_d(x0) together with the closed-form
    branch prediction (odd characteristic).

    The branch conditions are easy to misread, so the enumeration is the
    source of truth and the formula is the test subject.
    """
    if field.p == 2:
        raise ValueError("preimage branch formula requires odd characteristic")
    values = dickson_values(field, d) if _values is None else _values
    dv = int(values[x0])
    count = int(np.count_nonzero(values == dv))

    params = dickson_params(field, d)
    m_gcd, lbar, r = params.m_gcd, params.lbar, params.r
    t = 0
    dd = d
    while dd % 2 == 0:
        dd //= 2
        t += 1
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


def subfield_embedding(base: Field, ext: Field) -> np.ndarray:
    """Embedding of base = GF(p^n) into ext = GF(p^N), n | N, as an array over
    base encodings.  Found by exhaustive root search of the base modulus in
    ext (desk scale only); the smallest root is chosen, so the embedding is
    deterministic."""
    if ext.p != base.p or ext.n % base.n != 0:
        raise ValueError("extension field is not compatible")
    x = ext.elements()
    acc = np.zeros(ext.q, dtype=np.int64)
    for c in reversed(base.modulus):
        acc = ext.add_v(ext.mul_v(acc, x), ext.from_int(c))
    roots = np.nonzero(acc == 0)[0]
    if roots.size == 0:
        raise ValueError("base modulus has no root in the extension")
    root = int(roots[0])
    out = np.zeros(base.q, dtype=np.int64)
    for e in range(base.q):
        val = 0
        for c in reversed(base.coeffs(e)):
            val = ext.add(ext.mul(val, root), ext.from_int(c))
        out[e] = val
    return out


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


def gold_solution_distribution(n: int, k: int) -> GoldDistribution:
    if k < 1:
        raise ValueError(f"Gold exponent k must be >= 1, got k = {k}")
    field = build_field(2, n)
    x = field.elements()
    w = np.bitwise_xor(field.pow_all(2**k + 1), x)     # beta = z^(2^k+1) + z
    per_beta = np.bincount(w, minlength=field.q)
    hist = np.bincount(per_beta[1:], minlength=1)
    counts = tuple((int(m), int(c)) for m, c in enumerate(hist) if c)

    d = math.gcd(n, k)
    m = n // d
    if d == 1:
        if n % 2 == 1:
            predicted = ((0, (2**n + 1) // 3), (1, 2**(n - 1) - 1),
                         (3, (2**(n - 1) - 1) // 3))
        else:
            predicted = ((0, (2**n - 1) // 3), (1, 2**(n - 1)),
                         (3, (2**(n - 1) - 2) // 3))
    else:
        if m % 2 == 1:
            top = (2**((m - 1) * d) - 1) // (2**(2 * d) - 1)
        else:
            top = (2**((m - 1) * d) - 2**d) // (2**(2 * d) - 1)
        predicted = ((2**d + 1, top),)
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
            c_cur, field.mul_v(field.pow_all(2**(i * k)), c_prev))
    count = int(np.count_nonzero(c_cur == 0))
    if m % 2 == 1:
        predicted = (2**((m - 1) * d) - 1) // (2**(2 * d) - 1)
    else:
        predicted = (2**((m - 1) * d) - 2**d) // (2**(2 * d) - 1)
    return CmZeros(n=n, k=k, m=m, count=count, predicted=predicted)


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
    x^2 + x; both equal (q - 4 - eta(-1)) / 2."""
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
    eta_minus_one = field.quadratic_character(minus_one)
    predicted = (field.q - 4 - eta_minus_one) // 2
    return JacobsthalCounts(n1=n1, n2=n2, predicted=predicted)
