"""c-difference-distribution counting and c-differential uniformity.

Two routes are provided.  The general route scans every (a, b) pair at
Theta(q^2) cost and works for arbitrary lookup tables.  It is the reference
the power-map route is tested against, so it shares no addition code with
it and uses neither the Zech table nor the report cache below.  Over
GF(2^n) addition and subtraction are XOR, so F(x+a) - c F(x) is
F(a ^ x) ^ c F(x): one XOR, one gather and one XOR per pair.  For odd p it
splits each encoding into its low t = ceil(n/2) base-p digits and its high
n - t digits and writes each half in radix 2p-1, where two halves add as
plain integers with no carries; a table per half maps such a sum back to
the digit-wise sum mod p.  x + a is an outer sum over the two halves, and
the packed F(x) and -c F(x) share one int64, high half above low, so
F(x+a) - c F(x) is one gather and one add before the two reductions, about
nine numpy element operations per pair.  The scan works on slabs of about
2^16 pairs, which keep a slab and its temporaries in cache.

The power-map route uses the a-scaling reduction: for F(x) = x^d every a != 0
row is a relabeling of the a = 1 row, and the a = 0 row contributes exactly
gcd(d, q-1) when c != 1, so one row plus a gcd determines the uniformity at
Theta(q) cost.  It counts that row in the log domain.  With the Zech
logarithm Z[k] = log(1 + g^k), each x = g^k gives the log of
(x+1)^d - c x^d by integer arithmetic mod q-1 and one lookup in Z, and a
bincount over those logs is a relabeling of the row over b, so its histogram
of counts is unchanged.

A `sweep` builds the Zech table and the per-d logs once and shares them
between its calls.  Since x^d commutes with the Frobenius x -> x^p, c and
c^p have the same spectrum: a sweep counts each Frobenius orbit of c once
and copies that report, with c replaced, to the orbit's other members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cdiff.field import Field
from cdiff.funcs import FunctionSpec, PowerMap, value_table


def classification_of(uniformity: int) -> str:
    if uniformity == 1:
        return "PcN"
    if uniformity == 2:
        return "APcN"
    return str(uniformity)


@dataclass(frozen=True)
class CDDTReport:
    """Uniformity of one function at one c, with the attained-count spectrum.

    In "power-reduced" mode the spectrum counts b values over the a = 1 row
    merged with the analytic a = 0 row; in "full" mode it counts (a, b) pairs
    over every admissible row.  Either way the maximum key equals the
    uniformity.
    """
    c: int
    uniformity: int
    spectrum: tuple[tuple[int, int], ...]   # (delta value, multiplicity), ascending
    classification: str
    mode: str


def _report(c: int, hist: np.ndarray, mode: str) -> CDDTReport:
    """Report from `hist[v]` = how many counted entries equal v; the
    uniformity is the largest v that occurs."""
    values = np.flatnonzero(hist)
    u = int(values[-1])
    return CDDTReport(c=c, uniformity=u,
                      spectrum=tuple(zip(values.tolist(), hist[values].tolist())),
                      classification=classification_of(u), mode=mode)


def _check_element(field: Field, name: str, value) -> None:
    """ValueError naming the argument unless `value` encodes an element."""
    if not field.is_element(value):
        raise ValueError(f"{name} = {value!r} is not an element of GF({field.q}): "
                         f"expected an int in [0, {field.q})")


def ddt_row(field: Field, func: FunctionSpec, c: int, a: int) -> np.ndarray:
    """Counts over b of solutions x to F(x+a) - c F(x) = b, one pass over x."""
    _check_element(field, "c", c)
    _check_element(field, "a", a)
    values = value_table(field, func)
    x = field.elements()
    deltas = field.sub_v(values[field.add_v(x, a)], field.mul_v(c, values))
    return np.bincount(deltas, minlength=field.q)


def delta_count(field: Field, func: FunctionSpec, c: int, a: int, b: int) -> int:
    """Exact number of solutions x of F(x+a) - c F(x) = b."""
    _check_element(field, "b", b)
    return int(ddt_row(field, func, c, a)[b])


# (a, x) pairs per slab of the general scan: small enough that a slab and
# its temporaries stay in cache
_SLAB_PAIRS = 2**16


def _packing(p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Tables that add k-digit base-p encodings as plain integers: pack[e]
    holds the digits of e in radix 2p-1, so two packed values add with no
    carries, and red[s] maps such a sum to the encoding of the digit-wise
    sum mod p."""
    r = 2 * p - 1
    e, s = np.arange(p**k, dtype=np.int64), np.arange(r**k, dtype=np.int64)
    pack, red = np.zeros_like(e), np.zeros_like(s)
    for i in range(k):
        pack += e // p**i % p * r**i
        red += s // r**i % r % p * p**i
    return pack, red


def general_uniformity(field: Field, func: FunctionSpec, c: int) -> CDDTReport:
    """Max count over all (a, b), excluding a = 0 exactly when c = 1."""
    _check_element(field, "c", c)
    q = field.q
    values = value_table(field, func)
    block = max(1, _SLAB_PAIRS // q)
    offsets = np.arange(0, block * q, q)[:, None]   # bincount bins of each slab row
    w = field.mul_v(field.neg(c), values)           # -c F(x)
    if field.p == 2:
        # x + a = a ^ x, so F(x+a) - c F(x) = F(a ^ x) ^ w; w < 2^n, so OR adds
        # the row offsets above it and the XOR with F(a ^ x) < 2^n keeps them
        x, w = field.elements(), w | offsets
    else:
        t = (field.n + 1) // 2
        P = field.p**t                      # x = x_hi P + x_lo
        pack_lo, red_lo = _packing(field.p, t)
        pack_hi, red_hi = _packing(field.p, field.n - t)
        red_hi = red_hi * P                 # reduced high digits, shifted by P
        k = len(red_lo).bit_length()        # a sum of low halves is below 2^k

        def packed(e):      # both halves of e in one int64, the high one above
            return pack_hi[e // P] << k | pack_lo[e % P]

        v, w = packed(values), packed(w)
    hist = np.zeros(q + 1, dtype=np.int64)
    # Both kernels stay inline, so each slab's arrays live until the next
    # slab rebinds them.  Freed all at once, as on return from a per-slab
    # helper, their pages go back to the OS and every slab faults them in
    # again, at 1.5-2x the time per pair.
    for lo in range(1 if c == 1 else 0, q, block):
        a = np.arange(lo, min(lo + block, q), dtype=np.int64)[:, None]
        rows = len(a)
        if field.p == 2:
            deltas = values[a ^ x]
            deltas ^= w[:rows]
        else:
            xa = (red_hi[pack_hi[a // P] + pack_hi][:, :, None]
                  + red_lo[pack_lo[a % P] + pack_lo][:, None, :]).reshape(rows, q)
            sums = v[xa]
            sums += w
            high = sums >> k
            sums &= (1 << k) - 1
            deltas = red_hi[high]
            deltas += red_lo[sums]
            deltas += offsets[:rows]
        counts = np.bincount(deltas.ravel(), minlength=rows * q)
        hist += np.bincount(counts, minlength=q + 1)
    return _report(c, hist, "full")


def _image_hist(q: int, d: int) -> np.ndarray:
    """Histogram of the preimage counts of x^d over GF(q): one solution at
    b = 0 and g = gcd(d, q-1) at each of the (q-1)/g nonzero d-th powers."""
    g = math.gcd(d, q - 1)
    hist = np.zeros(q + 1, dtype=np.int64)
    hist[1] += 1
    hist[g] += (q - 1) // g
    hist[0] += (q - 1) - (q - 1) // g
    return hist


class _PowerContext:
    """Log-domain state of x^d over one field, shared by one sweep's calls.

    For x = g^k outside {0, -1}, (x+1)^d - c x^d = g^ls (1 + g^(D + log(-c)))
    with ls = d Z[k] and D = d k - ls.  `reports` holds one report per
    Frobenius orbit of c, keyed by the least log in the orbit.
    """

    def __init__(self, field: Field, d: int):
        self.field, self.d = field, d
        m = field.q - 1
        total = field.add_v(field.exp, 1)
        self.zech = np.where(total == 0, -1, field.log[total])
        k = np.flatnonzero(self.zech >= 0)      # x = g^k with x + 1 != 0
        self.ls = d % m * self.zech[k] % m
        self.diff = (d % m * k - self.ls) % m
        self.log_minus_one = int(field.log[field.neg(1)])
        self.reports: dict[int, CDDTReport] = {}

    def orbit_key(self, c: int) -> int:
        """Least log over c, c^p, c^(p^2), ...; -1 for c = 0."""
        f = self.field
        k = int(f.log[c])
        return -1 if c == 0 else min(k * f.p**i % (f.q - 1) for i in range(f.n))

    def hist(self, c: int) -> np.ndarray:
        """Histogram of the a = 1 row's counts, plus the a = 0 row if c != 1."""
        q, m, d = self.field.q, self.field.q - 1, self.d
        if c == 0:          # (x+1)^d = b: the row counts preimages of x^d
            hist = _image_hist(q, d)
        else:               # bins: log b for b != 0, m for b = 0
            log_neg_c = (int(self.field.log[c]) + self.log_minus_one) % m
            z = self.zech[(self.diff + log_neg_c) % m]
            row = np.bincount(np.where(z < 0, m, (self.ls + z) % m), minlength=q)
            row[0] += 1                                   # x = 0: b = 1
            row[(log_neg_c + d * self.log_minus_one) % m] += 1  # x = -1: b = -c (-1)^d
            hist = np.bincount(row, minlength=q + 1)
        if c != 1:          # a = 0 row: (1-c) x^d = b
            hist += _image_hist(q, d)
        return hist


def power_uniformity(field: Field, d: int, c: int,
                     _ctx: _PowerContext | None = None) -> CDDTReport:
    """Uniformity of x^d at c from the a = 1 row plus the a = 0 gcd term.
    `_ctx` is the context that `sweep` shares between its calls; without one,
    the call builds its own and shares nothing."""
    if d < 1:
        raise ValueError("power-map exponent must be >= 1")
    _check_element(field, "c", c)
    ctx = _ctx if _ctx is not None else _PowerContext(field, d)
    key = ctx.orbit_key(c)
    rep = ctx.reports.get(key)
    if rep is None:
        rep = ctx.reports[key] = _report(c, ctx.hist(c), "power-reduced")
    if rep.c != c:
        rep = CDDTReport(c, rep.uniformity, rep.spectrum, rep.classification, rep.mode)
    return rep


def uniformity(field: Field, func: FunctionSpec, c: int) -> CDDTReport:
    """Fast path for power maps, general path for lookup tables."""
    if isinstance(func, PowerMap):
        return power_uniformity(field, func.d, c)
    return general_uniformity(field, func, c)


def sweep(field: Field, func: FunctionSpec, c_values) -> list[CDDTReport]:
    """Independent reports for every c, in canonical element order."""
    cs = list(c_values)
    for c in cs:
        _check_element(field, "c", c)
    cs = sorted(int(c) for c in cs)
    if not cs:
        raise ValueError("empty c-set")
    if isinstance(func, PowerMap):
        ctx = _PowerContext(field, func.d)
        return [power_uniformity(field, func.d, c, _ctx=ctx) for c in cs]
    return [general_uniformity(field, func, c) for c in cs]


def c_set(field: Field, name: str) -> list[int]:
    """Named c-sets: all, not-one, not-pm-one, subfield:K, outside-subfield:K."""
    every = range(field.q)
    if name == "all":
        return list(every)
    if name == "not-one":
        return [c for c in every if c != 1]
    if name == "not-pm-one":
        minus_one = field.neg(1)
        return [c for c in every if c not in (1, minus_one)]
    if name.startswith("subfield:") or name.startswith("outside-subfield:"):
        kind, _, arg = name.partition(":")
        m = int(arg) if arg.isdecimal() else 0
        if m == 0 or field.n % m:
            raise ValueError(f"c-set {name!r}: K must be a positive integer "
                             f"dividing n = {field.n}")
        inside = kind == "subfield"
        return [c for c in every if field.in_subfield(c, m) == inside]
    raise ValueError(f"unknown c-set {name!r}")
