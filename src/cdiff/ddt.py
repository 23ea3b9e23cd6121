"""c-difference-distribution counting and c-differential uniformity.

Two routes are provided.  The general route scans every (a, b) pair at
Theta(q^2) cost and works for arbitrary lookup tables.  It is the reference
the power-map route is tested against, so it shares no addition code with
it and uses neither the Zech table nor the report cache below.  A slab is
a coset of rows a = lo + s, with s below B = p^j (a subgroup), B q <= 2^16
and lo a multiple of B.  With y = x + s, F(x+a) - c F(x) is
F(y + lo) - c F(y - s), whose second term, with each row's bincount offset,
is one (B, q) table per scan.  A slab is one q-element gather of F(y + lo),
one XOR (p = 2) or add (odd p) per pair, a bincount of the pairs' cells and
a histogram of those counts, by one uint8 compare per count below 16.  For
odd p each encoding splits into its low t = ceil(n/2) and high n - t
base-p digits, each written in radix 2p-1, where two halves add as plain
integers with no carries; a table per half, the high one with a block per
row that adds the row's offset, maps a sum back to digits mod p.  At c = 1
the scan counts half of the pairs: over GF(2^n) y and y + a give the same
b, so a slab with lo != 0 counts the y with bit msb(lo) clear, each b
twice; for odd p rows a and -a count alike, so of the slabs lo and -lo only
the one with lo < -lo is counted, twice.  The a = 0 row is then taken out.

The power-map route uses the a-scaling reduction: for F(x) = x^d every a != 0
row is a relabeling of the a = 1 row, and the a = 0 row contributes exactly
gcd(d, q-1) when c != 1, so one row plus a gcd determines the uniformity at
Theta(q) cost.  It counts that row in the log domain.  With the Zech
logarithm Z[k] = log(1 + g^k), each x = g^k gives the log of
(x+1)^d - c x^d by integer arithmetic mod q-1 and one lookup in Z, and a
bincount over those logs is a relabeling of the row over b, so its histogram
of counts is unchanged.

The Zech table needs only x + 1, which changes the constant digit alone.

Reports are counted once per orbit of c.  Since x^d commutes with the
Frobenius x -> x^p, c and c^p have the same spectrum.  For any F and c != 0,
(c, a, b) -> (1/c, -a, -b/c) carries the solutions of F(x+a) - c F(x) = b
to those of F(y-a) - F(y)/c = -b/c, and for x^d the a = -1 row is a
relabeling of the a = 1 row, so c and 1/c have the same spectrum too.
`_orbit_reports` takes a whole c-set, keys each c by the least of
+-log(c) p^i mod q-1, and `_count_orbits` counts the orbits with no report
yet in slabs of about 2^16 / q c-rows.  A slab is two adds, each reduced
mod q-1 by an unsigned minimum rather than an integer `%`, one gather and
two offset bincounts; the second is strided by the slab's largest count,
not by q + 1.  Above q = 2^16 a slab is one row, formed 2^16 x's at a time
in one int64 buffer.  A report carries no c: every member of an orbit
gets the orbit's report itself, and c is the caller's index into it.

Exponents are shared the same way.  x^(dp) = (x^d)^p composes x^d with the
Frobenius, so its count at c is that of x^d at c^(1/p), in c's orbit, and
x^(d + q-1) is the map x^d.  Every exponent of the class {d p^i mod q-1}
thus has the reports of x^d.  The reports live in one process-wide cache,
`_CONTEXTS`, a plain dict from orbit key to report for each
`context_key`, (p, n, least d p^i mod q-1), and modulus, which fixes the
encoding.  It holds nothing else, so a process counts each orbit once per
exponent class and field, whichever rows, commands or callers ask for it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from cdiff.field import Field
from cdiff.funcs import FunctionSpec, PowerMap, check_exponent, value_table


def classification_of(uniformity: int) -> str:
    if uniformity == 1:
        return "PcN"
    if uniformity == 2:
        return "APcN"
    return str(uniformity)


class CDDTReport(NamedTuple):
    """Uniformity of one function at one c, with the attained-count spectrum.
    It names no c, so the c's of an orbit share one report.

    In "power-reduced" mode the spectrum counts b values over the a = 1 row
    merged with the analytic a = 0 row; in "full" mode it counts (a, b) pairs
    over every admissible row.  Either way the maximum key equals the
    uniformity.
    """
    uniformity: int
    spectrum: tuple[tuple[int, int], ...]   # (delta value, multiplicity), ascending
    classification: str
    mode: str


def _slab_reports(hists: np.ndarray, mode: str) -> list[CDDTReport]:
    """One report per row of `hists`, where row[v] counts the entries equal
    to v (the uniformity is the largest such v), from one `np.nonzero` over
    the slab (every row has a nonzero entry)."""
    rows, values = np.nonzero(hists)
    pairs = list(zip(values.tolist(), hists[rows, values].tolist()))
    out, start = [], 0
    for end in np.cumsum(np.bincount(rows, minlength=len(hists))).tolist():
        u = pairs[end - 1][0]
        out.append(CDDTReport(u, tuple(pairs[start:end]), classification_of(u), mode))
        start = end
    return out


def ddt_row(field: Field, func: FunctionSpec, c: int, a: int) -> np.ndarray:
    """Counts over b of solutions x to F(x+a) - c F(x) = b, one pass over x."""
    c, a = field.check_element("c", c), field.check_element("a", a)
    values = value_table(field, func)
    x = field.elements()
    deltas = field.sub_v(values[field.add_v(x, a)], field.mul_v(c, values))
    return np.bincount(deltas, minlength=field.q)


def delta_count(field: Field, func: FunctionSpec, c: int, a: int, b: int) -> int:
    """Exact number of solutions x of F(x+a) - c F(x) = b."""
    b = field.check_element("b", b)
    return int(ddt_row(field, func, c, a)[b])


# (a, x) pairs per coset slab of the general scan at most, (c, x) pairs per
# slab of power-route rows, x's per chunk of a one-row power-route slab, and
# entries per chunk of `_log_terms`: small enough that a slab or chunk and
# its temporaries stay in cache
_SLAB_PAIRS = 2**16
# Counts below this are histogrammed by uint8 compares, at about 6 us per
# compared value against about 100 us for one 2^16-cell bincount
_BYTE_COUNTS = 16


def _count_histogram(cnt: np.ndarray, c8: np.ndarray, eq: np.ndarray) -> np.ndarray:
    """np.bincount(cnt); c8 and eq are uint8 and bool buffers of cnt's length."""
    top = int(cnt.max())
    if top >= _BYTE_COUNTS:
        return np.bincount(cnt)
    np.copyto(c8, cnt, casting="unsafe")
    hist = np.empty(top + 1, dtype=np.int64)
    for v in range(1, top + 1):
        hist[v] = np.count_nonzero(np.equal(c8, v, out=eq))
    hist[0] = len(cnt) - hist[1:].sum()
    return hist


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
    c = field.check_element("c", c)
    p, q = field.p, field.q
    values = value_table(field, func)
    B = 1                   # rows per slab, a power of p that divides q
    while B < q and B * p * q <= _SLAB_PAIRS:
        B *= p
    x, s = field.elements(), np.arange(B)[:, None]
    w = field.mul_v(field.neg(c), values)           # -c F(x)
    if p == 2:
        # F(y + lo) - c F(y - s) = values[y ^ lo] ^ w[y ^ s]; w < 2^n, so OR
        # puts row s's bincount offset above it, and the XOR keeps it
        table = w[x ^ s] | s * q
    else:
        t = (field.n + 1) // 2
        P = p**t                            # x = x_hi P + x_lo
        pack_lo, red_lo = _packing(p, t)
        pack_hi, red_hi = _packing(p, field.n - t)
        H = len(red_hi)                     # a sum of high halves is below H
        k = len(red_lo).bit_length()        # a sum of low halves is below 2^k
        # block s of red_rows reduces row s's high halves, shifted by P, and
        # adds the row's bincount offset
        red_rows = (red_hi * P + s * q).ravel()
        ws = w[field.sub_v(x, s)]           # w[y - s]
        table = (pack_hi[ws // P] + s * H) << k | pack_lo[ws % P]  # s above
        pv = pack_hi[values // P] << k | pack_lo[values % P]
    los = np.arange(0, q, B)
    if c == 1 and p != 2:   # rows a and -a count alike, so slabs lo and -lo do
        los = los[los <= field.sub_v(0, los)]
    hist = np.zeros(q + 1, dtype=np.int64)
    c8, eq = np.empty(B * q, dtype=np.uint8), np.empty(B * q, dtype=bool)
    # Both kernels stay inline and the histogram's buffers last the scan, so
    # each slab's arrays live until the next slab rebinds them.  Freed all at
    # once, as on return from a per-slab helper, their pages go back to the
    # OS and every slab faults them in again, at 1.5-2x the time per pair.
    for lo in los.tolist():
        half = c == 1 and lo != 0
        if p == 2:
            ys, ts = x, table
            if half:
                # y and y ^ a give the same b, and bit h = msb(lo) of a is
                # set: count the y with bit h clear, each b twice
                h = 1 << lo.bit_length() - 1
                ys, ts = ys.reshape(-1, 2, h)[:, 0], ts.reshape(B, -1, 2, h)[:, :, 0]
            deltas = ts ^ values[ys ^ lo]
        else:
            xlo = (red_rows[pack_hi[lo // P] + pack_hi][:, None]
                   + red_lo[pack_lo[lo % P] + pack_lo]).ravel()     # y + lo
            sums = table + pv[xlo]
            high = sums >> k
            sums &= (1 << k) - 1
            deltas = red_rows[high]
            deltas += red_lo[sums]
        counts = _count_histogram(np.bincount(deltas.ravel(), minlength=B * q), c8, eq)
        if half and p == 2:
            hist[:2 * len(counts):2] += counts
        else:
            hist[:len(counts)] += 2 * counts if half else counts
    if c == 1:              # drop row a = 0: F(x) - F(x) = 0 at every x
        hist[q] -= 1
        hist[0] -= q - 1
    return _slab_reports(hist[None], "full")[0]


def _plus_one(p: int, e: np.ndarray) -> np.ndarray:
    """Encodings of e + 1: adding 1 changes only the constant digit."""
    if p == 2:
        return e ^ 1
    out = e + 1
    out %= p
    out += e
    out -= e % p
    return out


def _orbit_keys(field: Field, cs: np.ndarray) -> np.ndarray:
    """Least of +-log(c) p^i mod q-1 over i < n: one key per orbit of c under
    c -> c^p and c -> 1/c; -1 for c = 0."""
    m = field.q - 1
    t = field.log_v(cs)
    keys = np.minimum(t, -t % m)
    for _ in range(field.n - 1):
        t = t * field.p % m
        np.minimum(keys, t, out=keys)
        np.minimum(keys, -t % m, out=keys)
    keys[cs == 0] = -1
    return keys


def _log_terms(field: Field, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Zech table Z[k] = log(1 + g^k), 0 where 1 + g^k = 0
    (`_count_orbits` masks that entry), and over the x = g^k with x + 1 != 0
    the logs ls = d Z[k] and D = d k - ls mod q-1, in no particular order.
    All three are int32; the products are formed in int64 one chunk of
    _SLAB_PAIRS entries at a time."""
    m, dm = field.q - 1, d % (field.q - 1)
    zech, ls, diff = (np.empty(m, dtype=np.int32) for _ in range(3))
    for lo in range(0, m, _SLAB_PAIRS):
        hi = min(lo + _SLAB_PAIRS, m)
        z = field.log[_plus_one(field.p, field.exp[lo:hi].astype(np.int64))]
        zech[lo:hi] = z
        z = np.multiply(z, dm, dtype=np.int64)
        z %= m
        ls[lo:hi] = z
        k = np.arange(lo, hi, dtype=np.int64)
        k *= dm
        k -= z
        k %= m
        diff[lo:hi] = k
    k = int(field.log[field.p - 1])         # x = g^k = -1, the integer p - 1
    ls[k], diff[k] = ls[-1], diff[-1]       # drop x = -1 by moving the last x there
    return zech, ls[:-1], diff[:-1]


def _orbit_reports(field: Field, d: int, cs: list[int]) -> list[CDDTReport]:
    """The report of c's orbit for each c of `cs`, in order, from the cached
    reports of d's class over `field`, counting first each orbit that has
    none, once, at its first c."""
    reports = _CONTEXTS.setdefault((*context_key(field, d), field.modulus), {})
    keys = _orbit_keys(field, np.array(cs, dtype=np.int64)).tolist()
    # orbit key -> its first c: the reversed pairs leave the first c last
    todo = {key: c for c, key in zip(cs[::-1], keys[::-1]) if key not in reports}
    if todo:
        _count_orbits(field, d, todo, reports)
    return [reports[key] for key in keys]


def _count_orbits(f: Field, d: int, todo: dict[int, int],
                  reports: dict[int, CDDTReport]) -> None:
    """Count x^d over `f` at the c of each orbit of `todo`, which maps orbit
    keys to a c, into `reports`: the a = 1 row, plus the a = 0 row if c != 1.
    The a = 0 row, (1-c) x^d = b, is one histogram `a0` for every such c:
    one x at b = 0 and g = gcd(d, q-1) at each of the (q-1)/g nonzero d-th
    powers.  At c = 0 the a = 1 row, (x+1)^d = b, counts the same
    preimages, so c = 0 reports 2 a0.  For x = g^k outside {0, -1},
    (x+1)^d - c x^d = g^ls (1 + g^(D + log(-c))) with the `_log_terms` ls
    and D.  Reports are stored a slab at a time, so a count cut short keeps
    only whole reports."""
    q, m, g = f.q, f.q - 1, math.gcd(d, f.q - 1)
    a0 = np.zeros(g + 1, dtype=np.int64)
    a0[0], a0[g] = m - m // g, m // g
    a0[1] += 1                          # x = 0 at b = 0; g may be 1
    if -1 in todo:
        del todo[-1]
        reports[-1] = _slab_reports(2 * a0[None], "power-reduced")[0]
    if not todo:
        return
    zech, ls, diff = _log_terms(f, d)
    order, reps = list(todo), np.array(list(todo.values()), dtype=np.int64)
    log_minus_one = int(f.log[f.p - 1])                 # -1 is the integer p - 1
    log_neg_c = (f.log_v(reps) + log_minus_one) % m
    log_at_minus_one = (log_neg_c + d * log_minus_one % m) % m  # x = -1: b = -c (-1)^d
    um = np.uint64(m)
    # slabs of c-rows, each of q bins: log b for b != 0, m for b = 0; above
    # q = 2^16 a slab is one row, formed _SLAB_PAIRS x's at a time
    block = max(1, _SLAB_PAIRS // q)
    buffer = np.empty((block, len(diff)), dtype=np.int64)  # the one q-sized buffer
    for lo in range(0, len(reps), block):
        c, lnc = reps[lo:lo + block], log_neg_c[lo:lo + block, None]
        r = len(c)
        slab, offsets = buffer[:r], np.arange(0, r * q, q)[:, None]
        for x0 in range(0, len(diff), _SLAB_PAIRS):
            xs = slice(x0, x0 + _SLAB_PAIRS)
            z = slab[:, xs]
            u = z.view(np.uint64)
            # each sum lies in [0, 2m); as unsigned, z - m wraps above z
            # exactly when z < m, so the minimum is z mod m
            np.add(diff[xs], lnc, out=z)
            np.minimum(u, u - um, out=u)
            zero = z == log_minus_one           # 1 + g^z = 0: b = 0
            np.add(zech[z], ls[xs], out=z)
            np.minimum(u, u - um, out=u)
            z[zero] = m
            if r > 1:
                z += offsets
        rows = np.bincount(slab.ravel(), minlength=r * q).reshape(r, q)
        rows[:, 0] += 1                                 # x = 0: b = 1
        rows[np.arange(r), log_at_minus_one[lo:lo + block]] += 1
        s = max(int(rows.max()) + 1, len(a0))           # above every count, a = 0 too
        if r > 1:
            rows += np.arange(0, r * s, s)[:, None]
        hists = np.bincount(rows.ravel(), minlength=r * s).reshape(r, s)
        del rows
        hists[c != 1, :len(a0)] += a0
        reports.update(zip(order[lo:lo + block], _slab_reports(hists, "power-reduced")))


def power_uniformity(field: Field, d: int, c: int,
                     _ctx: CDDTReport | None = None) -> CDDTReport:
    """Uniformity of x^d at c from the a = 1 row plus the a = 0 gcd term.
    `sweep` passes `_ctx`, c's report from `_orbit_reports`, after checking
    d and the c's, and the call returns it as it is.  Without one, the call
    checks d and c and reads c's report from `_orbit_reports`."""
    if _ctx is None:
        d, c = check_exponent(d), field.check_element("c", c)
        _ctx = _orbit_reports(field, d, [c])[0]
    return _ctx


def uniformity(field: Field, func: FunctionSpec, c: int) -> CDDTReport:
    """The one-c sweep: fast path for power maps, general path for tables."""
    return sweep(field, func, [c])[0]


def _c_list(field: Field, c_values) -> list[int]:
    """The c's as a list of plain ints, in the given order.  An integer array
    gets one range check; any other c-set is checked c by c, which names the
    first c that is not an element."""
    values = c_values if isinstance(c_values, np.ndarray) else list(c_values)
    cs = np.asarray(values)
    if not (cs.dtype.kind in "iu" and cs.ndim == 1
            and ((cs >= 0) & (cs < field.q)).all()):
        cs = np.array([field.check_element("c", c) for c in values], dtype=np.int64)
    return cs.tolist()


def context_key(field: Field, d: int) -> tuple[int, int, int]:
    """(p, n, least d p^i mod q-1): equal for exactly the exponents whose
    power maps over `field` have the same reports at every c."""
    m, d = field.q - 1, int(d)
    return field.p, field.n, min(d * field.p**i % m for i in range(field.n))


# (*context_key, modulus) -> orbit key -> report, for each class counted
_CONTEXTS: dict[tuple, dict[int, CDDTReport]] = {}


def sweep(field: Field, func: FunctionSpec, c_values) -> list[CDDTReport]:
    """One report per given c, in the given order, repeats kept: the i-th
    report is that of the i-th c, which it does not name.  A power map reads
    the cached reports of its exponent class, so only the orbits no earlier
    call has counted are counted, and the c's of one orbit share its report."""
    cs = _c_list(field, c_values)
    if not cs:
        raise ValueError("empty c-set")
    if isinstance(func, PowerMap):
        reports = _orbit_reports(field, func.d, cs)
        return [power_uniformity(field, func.d, c, _ctx=rep) for c, rep in zip(cs, reports)]
    return [general_uniformity(field, func, c) for c in cs]


def c_set(field: Field, name: str) -> list[int]:
    """Named c-sets: all, not-one, not-pm-one, subfield:K, outside-subfield:K.
    A ValueError names a set that selects no element."""
    every = field.elements()
    if name == "all":
        keep = np.full(field.q, True)
    elif name == "not-one":
        keep = every != 1
    elif name == "not-pm-one":
        keep = (every != 1) & (every != field.neg(1))
    elif name.startswith("subfield:") or name.startswith("outside-subfield:"):
        kind, _, arg = name.partition(":")
        m = int(arg) if arg.isdecimal() else 0
        if m == 0 or field.n % m:
            raise ValueError(f"c-set {name!r}: K must be a positive integer "
                             f"dividing n = {field.n}")
        keep = field.in_subfield(every, m) == (kind == "subfield")
    else:
        raise ValueError(f"unknown c-set {name!r}")
    cs = np.flatnonzero(keep).tolist()
    if not cs:
        raise ValueError(f"c-set {name!r} selects no element of GF({field.p}^{field.n})")
    return cs
