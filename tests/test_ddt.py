import gc
import math
import re
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdiff.field import Field, build_field, is_prime
from cdiff.funcs import LookupTable, PowerMap, as_lookup
from cdiff import ddt
from cdiff.ddt import (CDDTReport, classification_of, delta_count, ddt_row,
                       general_uniformity, power_uniformity, uniformity, sweep, c_set,
                       context_key, _orbit_keys, _plus_one)

from conftest import ORACLE_FIELDS, brute_delta_count, brute_uniformity


def test_delta_count_bijection_at_c0_a0():
    f = build_field(2, 3)
    table = as_lookup(f, PowerMap(3))       # a bijection
    for b in range(f.q):
        assert delta_count(f, table, 0, 0, b) == 1


def test_delta_count_square_example():
    # F = x^2 over GF(3), c=0, a=1: (x+1)^2 hits 1 twice, 0 once, 2 never
    f = build_field(3, 1)
    row = ddt_row(f, PowerMap(2), 0, 1)
    assert list(row) == [1, 2, 0]


def test_delta_count_matches_scalar_brute_force(rng):
    for p, n in [(3, 2), (2, 4), (5, 1)]:
        f = build_field(p, n)
        d = rng.randrange(1, f.q + 5)
        func = PowerMap(d)
        for _ in range(12):
            c, a, b = (rng.randrange(f.q) for _ in range(3))
            ref = brute_delta_count(f, lambda x: f.pow(x, d), c, a, b)
            assert delta_count(f, func, c, a, b) == ref


@pytest.mark.parametrize("p,n", [(3, 2), (2, 4), (5, 2), (7, 1)])
def test_row_sums_to_field_size(p, n, rng):
    f = build_field(p, n)
    for _ in range(10):
        func = PowerMap(rng.randrange(1, 2 * f.q))
        c, a = rng.randrange(f.q), rng.randrange(f.q)
        assert int(ddt_row(f, func, c, a).sum()) == f.q


def test_power_map_a0_row_structure(rng):
    # for a = 0, c != 1: count 1 at b = 0, gcd(d, q-1) at scaled d-th powers
    f = build_field(3, 3)
    for d in (2, 4, 7, 13):
        g = math.gcd(d, f.q - 1)
        for c in (0, 2, 5):
            row = ddt_row(f, PowerMap(d), c, 0)
            assert int(row[0]) == 1
            nonzero = sorted(set(int(v) for v in row[1:]) - {0})
            assert nonzero == [g]
            assert int(np.count_nonzero(row[1:] == g)) == (f.q - 1) // g


def test_a_scaling_preserves_row_multiset(rng):
    for p, n in [(3, 2), (2, 4), (5, 2)]:
        f = build_field(p, n)
        for _ in range(8):
            func = PowerMap(rng.randrange(1, f.q))
            c = rng.randrange(f.q)
            base = sorted(ddt_row(f, func, c, 1))
            a = rng.randrange(1, f.q)
            assert sorted(ddt_row(f, func, c, a)) == base


def test_known_row_max_gf81():
    f = build_field(3, 4)
    row = ddt_row(f, PowerMap(78), f.neg(1), 1)
    assert int(row.max()) == 6


_EXHAUSTIVE_FIELDS = [(2, 3), (3, 2), (5, 1), (7, 1), (2, 4), (3, 3),
                      (2, 5), (5, 2), (2, 6), (3, 4)]


@pytest.mark.parametrize("p,n", _EXHAUSTIVE_FIELDS)
def test_power_equals_general_exhaustively(p, n):
    # every exponent, every c, up to q = 81; the spectra agree as a whole:
    # full = (q-1)(reduced - a0) + a0, with a0 the analytic a = 0 row
    f = build_field(p, n)
    for d in range(1, f.q):
        lookup = as_lookup(f, PowerMap(d))
        for c in range(f.q):
            _assert_routes_agree(f, d, c, lookup)


def _a0_row_spectrum(q, d, c):
    """Spectrum of the a = 0 row, (1-c) x^d = b: one solution at b = 0 and
    g = gcd(d, q-1) at each of the (q-1)/g nonzero d-th powers; the row is
    left out when c = 1."""
    if c == 1:
        return {}
    g = math.gcd(d, q - 1)
    a0 = {0: (q - 1) - (q - 1) // g, 1: 1}
    a0[g] = a0.get(g, 0) + (q - 1) // g
    return a0


def _assert_routes_agree(f, d, c, lookup):
    _assert_spectra_agree(f, d, c, power_uniformity(f, d, c),
                          general_uniformity(f, lookup, c))


def _assert_spectra_agree(f, d, c, fast, slow):
    assert fast.uniformity == slow.uniformity, (f.p, f.n, d, c)
    assert fast.classification == slow.classification
    a0 = _a0_row_spectrum(f.q, d, c)
    reduced = dict(fast.spectrum)
    full = {v: (f.q - 1) * (reduced.get(v, 0) - a0.get(v, 0)) + a0.get(v, 0)
            for v in set(reduced) | set(a0)}
    assert {v: m for v, m in full.items() if m} == dict(slow.spectrum), \
        (f.p, f.n, d, c)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1)] + _EXHAUSTIVE_FIELDS)
def test_sweep_reports_equal_single_and_general_reports(p, n):
    # a sweep counts one c per orbit under c -> c^p and c -> 1/c and hands
    # that report to the orbit's other members; every one must equal a call
    # that counts c in a cold cache and agree with the general route on the
    # whole spectrum, and sweeps that share a context over overlapping
    # c-sets, with repeats, must equal fresh sweeps
    f = build_field(p, n)
    general = {}
    low, high = list(range(2 * f.q // 3 + 1)), list(range(f.q // 3, f.q)) + [1, f.q - 1]
    for d in range(1, 2 * f.q + 1):
        lookup = as_lookup(f, PowerMap(d))    # d and d + q - 1 share a table
        ddt._CONTEXTS.clear()
        shared = [sweep(f, PowerMap(d), cs) for cs in (low, high)]
        # the key is d's exponent class and the modulus; at GF(2), q - 1 = 1
        # and every class is 0
        assert list(ddt._CONTEXTS) == [
            (p, n, min(d * p**i % (f.q - 1) for i in range(n)), f.modulus)]
        for cs, got in zip((low, high), shared):
            ddt._CONTEXTS.clear()
            assert got == sweep(f, PowerMap(d), cs)
        reports = sweep(f, PowerMap(d), range(f.q))
        assert len(reports) == f.q
        for c, rep in enumerate(reports):
            ddt._CONTEXTS.clear()
            assert rep == power_uniformity(f, d, c), (p, n, d, c)
            key = (lookup, c)
            if key not in general:
                general[key] = general_uniformity(f, lookup, c)
            _assert_spectra_agree(f, d, c, rep, general[key])


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 4), (3, 3), (5, 2), (7, 1)])
def test_context_key_is_the_exponent_class(p, n):
    # d, d p^i and d + (q-1) share a class, d = 0 mod q-1 included, and
    # exponents in different classes get different keys
    f = build_field(p, n)
    m = f.q - 1
    for d in range(1, 2 * f.q):
        key = context_key(f, d)
        assert key[:2] == (p, n) and 0 <= key[2] < m
        for e in [d * p**i for i in range(2 * n)] + [d + m, d + 3 * m]:
            assert context_key(f, e) == key, (p, n, d, e)
        for e in range(1, f.q):
            same = any((d - e * p**i) % m == 0 for i in range(n))
            assert (context_key(f, e) == key) == same, (p, n, d, e)
    assert context_key(f, m) == context_key(f, 2 * m) == context_key(f, m * p) == (p, n, 0)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 5), (3, 3), (5, 2)])
def test_sweeps_sharing_a_context_across_a_class_equal_fresh_sweeps(p, n):
    f = build_field(p, n)
    m = f.q - 1
    for d in range(1, f.q):
        exponents = (d, d * p**(n - 1), d + m, d * p + 2 * m)
        ddt._CONTEXTS.clear()
        shared = [sweep(f, PowerMap(e), range(e % f.q, f.q)) for e in exponents]
        assert list(ddt._CONTEXTS) == [(*context_key(f, d), f.modulus)]
        for e, got in zip(exponents, shared):
            ddt._CONTEXTS.clear()
            assert got == sweep(f, PowerMap(e), range(e % f.q, f.q))


def test_a_numpy_exponent_counts_as_its_plain_int():
    # d (-1)^d mod q-1 in int64 would wrap for d near 2^62
    f, d = build_field(3, 5), 2**62 + 7
    numpy_d = sweep(f, PowerMap(np.int64(d)), range(f.q))
    ddt._CONTEXTS.clear()
    assert numpy_d == sweep(f, PowerMap(d), range(f.q))


def test_slab_reports_equal_one_report_per_row():
    gen = np.random.default_rng(20210419)
    for rows, width, density in ((1, 2, 0.5), (7, 9, 0.3), (40, 258, 0.05), (64, 1025, 0.9)):
        hists = gen.integers(1, 50, (rows, width)) * (gen.random((rows, width)) < density)
        hists[np.arange(rows), gen.integers(0, width, rows)] += 1   # no empty row
        hists[0] = 0
        hists[0, 0] = 3                                             # a row with v = 0 only
        for mode in ("full", "power-reduced"):
            expected = []
            for hist in hists:
                values = np.flatnonzero(hist)
                u = int(values[-1])
                expected.append(CDDTReport(u, tuple(zip(values.tolist(),
                                                        hist[values].tolist())),
                                           classification_of(u), mode))
            assert ddt._slab_reports(hists, mode) == expected


@pytest.mark.parametrize("p,n,modulus", ORACLE_FIELDS)
def test_plus_one_equals_digit_add(p, n, modulus):
    # the Zech table reads x + 1 off the constant digit alone
    f = Field.build(p, n, modulus=modulus)
    for x in (f.exp, f.elements()):
        assert np.array_equal(_plus_one(p, x), f.add_v(x, 1))


# Property tests over every field with q <= 729: a random (field, d, c).
_FIELDS_UP_TO_729 = [(p, n) for p in range(2, 730) if is_prime(p)
                     for n in range(1, 10) if p**n <= 729]


@st.composite
def _power_instances(draw):
    p, n = draw(st.sampled_from(_FIELDS_UP_TO_729))
    f = build_field(p, n)
    return f, draw(st.integers(1, 2 * f.q)), draw(st.integers(0, f.q - 1))


@settings(derandomize=True, deadline=None)
@given(_power_instances())
def test_power_equals_general_property(instance):
    f, d, c = instance
    _assert_routes_agree(f, d, c, as_lookup(f, PowerMap(d)))


@settings(derandomize=True, deadline=None)
@given(_power_instances())
def test_spectrum_is_frobenius_invariant_in_c(instance):
    # x -> x^p maps the equation at c onto the one at c^p
    f, d, c = instance
    image = power_uniformity(f, d, f.pow(c, f.p)).spectrum
    ddt._CONTEXTS.clear()       # else c is read from c^p's orbit report
    assert image == power_uniformity(f, d, c).spectrum


@settings(derandomize=True, deadline=None)
@given(_power_instances().filter(lambda instance: instance[2] != 0))
def test_spectrum_at_c_equals_spectrum_at_inverse_c(instance):
    # with y = x + a, F(x+a) - c F(x) = b is F(y-a) - (1/c) F(y) = -b/c, so
    # (c, a, b) -> (1/c, -a, -b/c) keeps every count and the a = 0 row; for
    # x^d the a = -1 row is a relabeling of the a = 1 row
    f, d, c = instance
    image = power_uniformity(f, d, f.inv(c)).spectrum
    ddt._CONTEXTS.clear()
    assert image == power_uniformity(f, d, c).spectrum


@settings(derandomize=True, deadline=None)
@given(_power_instances())
def test_spectrum_is_invariant_under_d_times_p(instance):
    # x^(dp) = (x^d)^p composes x^d with the Frobenius automorphism
    f, d, c = instance
    image = power_uniformity(f, d * f.p, c).spectrum
    ddt._CONTEXTS.clear()
    assert image == power_uniformity(f, d, c).spectrum


@pytest.mark.parametrize("p,n", [(13, 1), (2, 5), (3, 3), (5, 2), (2, 6)])
def test_inverse_exponent_at_c_has_the_report_of_d_at_c_to_the_minus_d(p, n, monkeypatch):
    # with e = 1/d mod q-1, put y = u^d and y + a = v^d: x^e(y + a) - c x^e(y) = b
    # becomes (u + b/c)^d - c^-d u^d = a c^-d, a bijection of the pairs (a, b),
    # so whole reports agree.  One-row slabs, the path above 2^16, formed
    # over 2 to 4 x-chunks on all but GF(13)
    f = build_field(p, n)
    m = f.q - 1
    monkeypatch.setattr(ddt, "_SLAB_PAIRS", 16)
    cs = np.arange(1, f.q)
    for d in (d for d in range(1, m) if math.gcd(d, m) == 1):
        ddt._CONTEXTS.clear()
        assert sweep(f, PowerMap(pow(d, -1, m)), cs) == \
            sweep(f, PowerMap(d), f.pow(cs, -d % m)), (p, n, d)


@pytest.mark.parametrize("p,n,pairs", [(3, 5, 40), (2, 7, 40), (7, 3, 40)])
def test_power_equals_general_sampled_above(p, n, pairs, rng):
    f = build_field(p, n)
    for _ in range(pairs):
        d = rng.randrange(1, f.q)
        c = rng.randrange(f.q)
        _assert_routes_agree(f, d, c, as_lookup(f, PowerMap(d)))


@pytest.mark.parametrize("p,n", [(2, 17), (3, 11), (131071, 1)])
def test_power_route_against_digit_add_rows_above_hypothesis_range(p, n, rng):
    # one digit-add `ddt_row` at some a != 0 plus the analytic a = 0 row is a
    # Theta(q) oracle: it shares neither the Zech table nor the orbit cache.
    # The tables are int32: over GF(131071), p > 46341, so the products
    # x h of the table build pass 2^31, and d = q - 2 takes d Z[k] past 2^31
    # on every field
    f = build_field(p, n)
    draws = [(rng.randrange(1, 2 * f.q), rng.randrange(f.q), rng.randrange(1, f.q))
             for _ in range(3)]
    draws.append((f.q - 2, rng.randrange(f.q), rng.randrange(1, f.q)))
    for d, c, a in draws:
        assert _digit_add_spectrum(f, d, c, a) == power_uniformity(f, d, c).spectrum, \
            (p, n, d, c, a)


def _digit_add_spectrum(f, d, c, a):
    """Power-reduced spectrum of x^d at c from one digit-add `ddt_row` at
    a != 0 merged with the analytic a = 0 row."""
    hist = np.bincount(ddt_row(f, PowerMap(d), c, a), minlength=f.q + 1)
    for v, m in _a0_row_spectrum(f.q, d, c).items():
        hist[v] += m
    values = np.flatnonzero(hist)
    return tuple(zip(values.tolist(), hist[values].tolist()))


@pytest.mark.parametrize("p,n,large_gcd", [(2, 11, 2047), (7, 4, 1200)])
def test_every_c_over_several_slabs_against_digit_add_rows(p, n, large_gcd):
    # every orbit of c != 0 in slabs of 2^16 // q c-rows: GF(2^11) counts 94
    # orbits in slabs of 32 rows and GF(7^4) 316 in slabs of 27.  d = q - 2
    # takes d Z[k] past 2^31, and with gcd(large_gcd, q-1) >= (q-1)/4 the
    # a = 0 row's count g is above the largest a = 1 count at all but 1 or
    # 2 of the c's, so g sets the width of their count histograms
    f = build_field(p, n)
    orbits = set(ddt._orbit_keys(f, f.elements()).tolist())
    assert len(orbits) > 2 * (ddt._SLAB_PAIRS // f.q)
    assert 4 * math.gcd(large_gcd, f.q - 1) >= f.q - 1
    for d in (3, f.q - 2, large_gcd):
        ddt._CONTEXTS.clear()
        for c, rep in enumerate(sweep(f, PowerMap(d), range(f.q))):
            assert rep.spectrum == _digit_add_spectrum(f, d, c, 1), (p, n, d, c)


@pytest.mark.parametrize("p,n", [(3, 5), (2, 7), (5, 3), (101, 1)])
@pytest.mark.parametrize("pairs", [16, 64])
def test_power_route_over_many_x_chunks_against_digit_add_rows(p, n, pairs, rng,
                                                               monkeypatch):
    # with _SLAB_PAIRS below q a slab is one c-row formed `pairs` x's at a
    # time, the path of every field above 2^16, and `_log_terms` builds its
    # tables in as many chunks; each sweep starts from an empty cache, since
    # a warm one counts nothing, and its one-row slabs share one buffer
    f = build_field(p, n)
    monkeypatch.setattr(ddt, "_SLAB_PAIRS", pairs)
    cs = sorted({0, 1, f.neg(1), f.generator, rng.randrange(f.q)})
    for d in (3, f.q - 2, rng.randrange(1, 2 * f.q)):
        monkeypatch.setattr(ddt, "_CONTEXTS", {})
        for c, rep in zip(cs, sweep(f, PowerMap(d), cs)):
            assert rep.spectrum == _digit_add_spectrum(f, d, c, 1), (p, n, d, c)


def _rowwise_spectrum(f, func, c):
    """Whole spectrum of the general route from one digit-add `ddt_row` per
    admissible a."""
    hist = np.zeros(f.q + 1, dtype=np.int64)
    for a in range(1 if c == 1 else 0, f.q):
        hist += np.bincount(ddt_row(f, func, c, a), minlength=f.q + 1)
    values = np.flatnonzero(hist)
    return tuple(zip(values.tolist(), hist[values].tolist()))


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (2, 4),
                                 (17, 1), (5, 2), (3, 3), (257, 1), (17, 2),
                                 (2, 9), (3, 6), (5, 3), (2, 10)])
def test_general_route_on_random_lookup_tables(p, n, rng):
    # maps that are not power maps have a != 0 rows with different spectra;
    # the fields cover n = 1, odd n, one slab and several; GF(2^10) runs the
    # XOR kernel over 16 slabs of 64 rows, at c = 1 the half view in all
    # but the a = 0 slab, and GF(3^6) 9 slabs of 81 rows, 5 of them at c = 1
    f = build_field(p, n)
    for _ in range(2):
        table = tuple(rng.randrange(f.q) for _ in range(f.q))
        func = LookupTable(table)
        for c in sorted({0, 1, f.generator, rng.randrange(f.q)}):
            rep = general_uniformity(f, func, c)
            assert rep.spectrum == _rowwise_spectrum(f, func, c), (p, n, c)
            if c != 0:      # (c, a, b) -> (1/c, -a, -b/c) keeps every count
                assert general_uniformity(f, func, f.inv(c)).spectrum == rep.spectrum
            if f.q <= 27:
                assert rep.uniformity == brute_uniformity(f, table.__getitem__, c)


@pytest.mark.parametrize("p,n", [(2, 6), (2, 7), (2, 8), (2, 9), (2, 10),
                                 (3, 3), (3, 4), (5, 2), (7, 2), (5, 3)])
def test_general_route_over_every_slab_shape(p, n, rng, monkeypatch):
    # slabs of one row (64 and q pairs), p rows (p q pairs) and, for p = 2,
    # two rows (2q pairs); one-row slabs at c = 1 over GF(2^n) take the half
    # view at every bit h, and the odd-p fields pair slab lo with -lo over
    # at least 3 slabs
    f = build_field(p, n)
    func = LookupTable(tuple(rng.randrange(f.q) for _ in range(f.q)))
    for c in sorted({0, 1, f.generator, rng.randrange(f.q)}):
        expected = _rowwise_spectrum(f, func, c)
        for pairs in sorted({64, f.q, 2 * f.q, p * f.q}):
            monkeypatch.setattr(ddt, "_SLAB_PAIRS", pairs)
            assert general_uniformity(f, func, c).spectrum == expected, (p, n, c, pairs)


@pytest.mark.parametrize("n", range(1, 11))
def test_general_route_at_c1_over_binary_fields(n, rng):
    # at c = 1 x and x + a solve the same equation, so every count is even,
    # and the q - 1 rows a != 0 hold (q - 1) q pairs
    f = build_field(2, n)
    for _ in range(3):
        func = LookupTable(tuple(rng.randrange(f.q) for _ in range(f.q)))
        spectrum = general_uniformity(f, func, 1).spectrum
        assert all(v % 2 == 0 for v, _ in spectrum)
        assert sum(m for _, m in spectrum) == (f.q - 1) * f.q


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 2**16),
       st.sampled_from([0, 1, 15, 16, 255, 256]) | st.integers(0, 2**20),
       st.integers(0, 2**32 - 1))
def test_count_histogram_equals_bincount(length, top, seed):
    # counts of 256 and above would wrap in the uint8 copy, so they must
    # take the bincount
    gen = np.random.default_rng(seed)
    cnt = gen.integers(0, top + 1, size=length)
    cnt[gen.integers(length)] = top
    c8, eq = np.empty(length, dtype=np.uint8), np.empty(length, dtype=bool)
    hist = ddt._count_histogram(cnt, c8, eq)
    assert hist.dtype == np.int64
    assert hist.tolist() == np.bincount(cnt).tolist()


def test_uniformity_against_scalar_brute_force(rng):
    f = build_field(3, 2)
    for d in (2, 4, 5, 6, 8):
        for c in range(f.q):
            ref = brute_uniformity(f, lambda x: f.pow(x, d), c)
            assert power_uniformity(f, d, c).uniformity == ref


def test_c0_reduces_to_preimage_counting():
    for p, n in [(3, 3), (2, 5), (5, 2)]:
        f = build_field(p, n)
        for d in (1, 2, 3, 6, f.q - 2):
            assert power_uniformity(f, d, 0).uniformity == math.gcd(d, f.q - 1)


def test_classification_and_spectrum_invariants(rng):
    for p, n in [(3, 2), (5, 2), (2, 4)]:
        f = build_field(p, n)
        for _ in range(10):
            rep = power_uniformity(f, rng.randrange(1, f.q), rng.randrange(f.q))
            assert rep.uniformity >= 1
            assert rep.uniformity == max(v for v, _ in rep.spectrum)
            expected = {1: "PcN", 2: "APcN"}.get(rep.uniformity, str(rep.uniformity))
            assert rep.classification == expected


def test_spectrum_pair_count_general():
    # the full spectrum accounts for every admissible (a, b) pair
    f = build_field(3, 2)
    rep = general_uniformity(f, as_lookup(f, PowerMap(4)), 2)
    assert sum(m for _, m in rep.spectrum) == f.q * f.q
    rep1 = general_uniformity(f, as_lookup(f, PowerMap(4)), 1)
    assert sum(m for _, m in rep1.spectrum) == (f.q - 1) * f.q


def test_uniformity_dispatch():
    f = build_field(3, 2)
    assert uniformity(f, PowerMap(4), 2).mode == "power-reduced"
    assert uniformity(f, as_lookup(f, PowerMap(4)), 2).mode == "full"
    assert uniformity(f, PowerMap(4), 2).uniformity == \
        uniformity(f, as_lookup(f, PowerMap(4)), 2).uniformity


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_singleton_matches_single_report():
    f = build_field(3, 2)
    one = sweep(f, PowerMap(4), [2])
    assert len(one) == 1
    ddt._CONTEXTS.clear()
    assert one[0] == power_uniformity(f, 4, 2)


def test_sweep_rejects_empty_c_set():
    f = build_field(3, 2)
    with pytest.raises(ValueError):
        sweep(f, PowerMap(4), [])


def test_sweep_is_ordered_and_thread_invariant():
    f = build_field(3, 3)
    cs = [5, 1, 22, 0, 13]
    seq = sweep(f, PowerMap(24), cs)
    again = sweep(f, PowerMap(24), cs)
    assert seq == [power_uniformity(f, 24, c) for c in cs]
    assert seq == again


def test_sweep_keeps_the_callers_c_order_and_repeats(rng):
    # the i-th report is that of the i-th c, by the power route and by the
    # general route of the map's lookup table
    f = build_field(3, 3)
    cs = list(range(f.q)) * 2
    rng.shuffle(cs)
    for func in (PowerMap(24), as_lookup(f, PowerMap(24))):
        assert sweep(f, func, cs) == [uniformity(f, func, c) for c in cs]


def test_sweep_of_lookup_table_takes_the_general_route():
    f = build_field(2, 4)
    cs = [0, 1, 7]
    reports = sweep(f, as_lookup(f, PowerMap(3)), cs)
    assert reports == [general_uniformity(f, PowerMap(3), c) for c in cs]
    assert {r.mode for r in reports} == {"full"}
    assert [r.uniformity for r in reports] == \
        [r.uniformity for r in sweep(f, PowerMap(3), cs)]


def test_sweep_value_sets_for_gf27_and_gf81():
    f27 = build_field(3, 3)
    cs = [c for c in range(27) if c not in (0, 1, f27.neg(1))]
    us = {r.uniformity for r in sweep(f27, PowerMap(24), cs)}
    assert us == {3, 4}
    assert max(us) <= 5

    f81 = build_field(3, 4)
    cs = [c for c in range(81) if c not in (0, 1, f81.neg(1))]
    us = {r.uniformity for r in sweep(f81, PowerMap(78), cs)}
    assert us == {2, 4, 5}


def test_named_c_sets():
    f = build_field(3, 2)
    assert c_set(f, "all") == list(range(9))
    assert 1 not in c_set(f, "not-one")
    not_pm = c_set(f, "not-pm-one")
    assert 1 not in not_pm and f.neg(1) not in not_pm and len(not_pm) == 7
    sub = c_set(f, "subfield:1")
    assert sub == [0, 1, 2]
    assert set(c_set(f, "outside-subfield:1")) == set(range(9)) - {0, 1, 2}
    with pytest.raises(ValueError):
        c_set(f, "bogus")


def test_subfield_c_sets_match_the_scalar_membership_test():
    for p, n in [(2, 6), (3, 4), (5, 2), (2, 4)]:
        f = build_field(p, n)
        for m in (m for m in range(1, n + 1) if n % m == 0):
            inside = [c for c in range(f.q) if f.in_subfield(c, m)]
            assert c_set(f, f"subfield:{m}") == inside
            if m < n:
                assert c_set(f, f"outside-subfield:{m}") == sorted(set(range(f.q)) - set(inside))
            else:
                with pytest.raises(ValueError, match=re.escape(
                        f"c-set 'outside-subfield:{m}' selects no element of GF({p}^{n})")):
                    c_set(f, f"outside-subfield:{m}")


def test_reports_are_immutable_and_hash_by_value():
    f = build_field(3, 3)
    a = power_uniformity(f, 4, 5)
    ddt._CONTEXTS.clear()       # a warm cache hands out the same report
    b = power_uniformity(f, 4, 5)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != power_uniformity(f, 4, 0)
    with pytest.raises(AttributeError):
        a.uniformity = 7


@pytest.mark.parametrize("name", ["subfield:0", "outside-subfield:0", "subfield:x",
                                  "outside-subfield:1.5", "subfield:", "subfield:3"])
def test_c_set_rejects_bad_subfield_degree(name):
    f = build_field(3, 2)
    with pytest.raises(ValueError, match=re.escape(f"c-set {name!r}")):
        c_set(f, name)


@pytest.mark.parametrize("d", [0, -3, 2.0, 2.5, "3"])
def test_power_uniformity_rejects_exponent_below_one(d):
    f = build_field(2, 3)
    message = re.escape(f"power-map exponent must be >= 1, got d = {d!r}")
    with pytest.raises(ValueError, match=message):
        power_uniformity(f, d, 0)
    with pytest.raises(ValueError, match=message):
        PowerMap(d)


_C_ROUTES = [
    lambda f, c: power_uniformity(f, 3, c),
    lambda f, c: general_uniformity(f, PowerMap(3), c),
    lambda f, c: uniformity(f, PowerMap(3), c),
    lambda f, c: uniformity(f, as_lookup(f, PowerMap(3)), c),
    lambda f, c: sweep(f, PowerMap(3), [0, c]),
    lambda f, c: sweep(f, as_lookup(f, PowerMap(3)), [0, c]),
    lambda f, c: ddt_row(f, PowerMap(3), c, 1),
]


@pytest.mark.parametrize("c", [-1, 9, 2**70, 1.5, "3"])
@pytest.mark.parametrize("route", _C_ROUTES)
def test_every_route_rejects_c_outside_the_field(route, c):
    # c = -1 used to be counted as the element 8 and reported as c = -1
    f = build_field(3, 2)
    with pytest.raises(ValueError, match=re.escape(f"c = {c!r} is not an element of GF(9)")):
        route(f, c)


@pytest.mark.parametrize("c", [True, np.int64(2)])
@pytest.mark.parametrize("route", _C_ROUTES)
def test_every_route_counts_an_integer_c_as_the_plain_int(route, c):
    # True and np.int64 used to fail in the table lookups
    f = build_field(3, 2)
    got, want = route(f, c), route(f, int(c))
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
        return
    assert got == want


@pytest.mark.parametrize("lookup", [False, True])
def test_sweep_counts_any_iterable_of_integer_c_as_plain_ints(lookup):
    # an integer c-set gets one range check and its c's are read as ints
    f = build_field(3, 2)
    func = as_lookup(f, PowerMap(3)) if lookup else PowerMap(3)
    want = sweep(f, func, [1, 5, 2, 5])
    for make in (lambda: [True, 5, np.int64(2), 5], lambda: np.array([1, 5, 2, 5]),
                 lambda: np.array([1, 5, 2, 5], dtype=np.uint8),
                 lambda: (c for c in (1, 5, 2, 5))):
        assert sweep(f, func, make()) == want
        cs = ddt._c_list(f, make())
        assert cs == [1, 5, 2, 5] and {type(c) for c in cs} == {int}


@pytest.mark.parametrize("bad", [2.0, "3", -1, 9, 2**70, None])
@pytest.mark.parametrize("lookup", [False, True])
def test_sweep_names_the_first_c_that_is_not_an_element(bad, lookup):
    f = build_field(3, 2)
    func = as_lookup(f, PowerMap(3)) if lookup else PowerMap(3)
    message = re.escape(f"c = {bad!r} is not an element of GF(9): "
                        "expected an int in [0, 9)")
    for cs in ([bad], [0, bad, -2], (c for c in (4, True, bad, 7.5)),
               np.array([1, bad], dtype=object)):
        with pytest.raises(ValueError, match=message):
            sweep(f, func, cs)
    with pytest.raises(ValueError, match=message):
        uniformity(f, func, bad)


@pytest.mark.parametrize("lookup", [False, True])
def test_sweep_names_an_array_entry_outside_the_field(lookup):
    f = build_field(3, 2)
    func = as_lookup(f, PowerMap(3)) if lookup else PowerMap(3)
    for cs, bad in ((np.array([1, 9, -1]), np.int64(9)), (np.array([2, -1]), np.int64(-1))):
        with pytest.raises(ValueError, match=re.escape(f"c = {bad!r} is not an element")):
            sweep(f, func, cs)
    for cs in ([], (), iter([]), np.array([], dtype=np.int64)):
        with pytest.raises(ValueError, match="empty c-set"):
            sweep(f, func, cs)


def test_sweep_checks_c_once_and_calls_power_uniformity_once_per_c(monkeypatch):
    # the per-c power_uniformity calls only read the counted reports; the
    # c-set is checked once, c by c only to name a c that is not an element
    f, calls = build_field(3, 2), Counter()

    def spy(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    spy(Field, "check_element")
    for name in ("check_exponent", "power_uniformity"):
        spy(ddt, name)
    cs = [0, 1, 2, 2, 5, 8]
    got = ddt.sweep(f, PowerMap(3), cs)
    assert calls == {"power_uniformity": len(cs)}
    ddt._CONTEXTS.clear()
    assert got == [ddt.power_uniformity(f, 3, c) for c in cs]
    calls.clear()
    with pytest.raises(ValueError, match="c = 2.0"):
        ddt.sweep(f, PowerMap(3), [0, True, 2.0, 9])
    assert calls == {"check_element": 3}


@pytest.mark.parametrize("p,n", [(2, 17), (131071, 1), (2039, 2)])
def test_orbit_keys_against_python_ints(p, n, rng):
    # over GF(2039^2) the products t p pass 2^31 for most logs t, where an
    # int32 product would wrap
    f = build_field(p, n)
    m = f.q - 1
    cs = [0, 1, f.p - 1, int(f.exp[-1])] + [rng.randrange(f.q) for _ in range(200)]
    want = []
    for c in cs:
        t = int(f.log[c])
        want.append(-1 if c == 0 else min(min(t * p**i % m, -t * p**i % m)
                                          for i in range(n)))
    assert _orbit_keys(f, np.array(cs, dtype=np.int64)).tolist() == want


@pytest.mark.parametrize("a,b", [(-1, 0), (9, 0), (0, -1), (0, 9), (1.5, 0)])
def test_row_and_count_reject_a_and_b_outside_the_field(a, b):
    # a = 9 used to return the a = 0 row
    f = build_field(3, 2)
    name, value = ("a", a) if b == 0 else ("b", b)
    message = re.escape(f"{name} = {value} is not an element of GF(9): "
                        "expected an int in [0, 9)")
    with pytest.raises(ValueError, match=message):
        delta_count(f, PowerMap(3), 2, a, b)
    if name == "a":
        with pytest.raises(ValueError, match=message):
            ddt_row(f, PowerMap(3), 2, a)


def test_sweep_over_a_modulus_override_reads_no_report_of_the_default_field():
    # the same (p, n, d) with another modulus encodes elements differently,
    # so its contexts must be its own.  Reports are keyed by the orbit of
    # log c, so the fields must differ by more than c -> c^p and c -> 1/c:
    # over GF(2^4) every unit mod 15 is +-2^i and no modulus tells them apart
    default, alt = build_field(2, 5), Field.build(2, 5, modulus=[1, 1, 1, 1, 0, 1])
    assert default.modulus != alt.modulus
    for d in range(1, alt.q):
        sweep(default, PowerMap(d), range(default.q))
        lookup = as_lookup(alt, PowerMap(d))
        for c, rep in enumerate(sweep(alt, PowerMap(d), range(alt.q))):
            _assert_spectra_agree(alt, d, c, rep, general_uniformity(alt, lookup, c))


def test_a_count_cut_short_leaves_the_cached_context_whole(monkeypatch):
    # GF(2^11) counts its 94 orbits of c != 0 in slabs of 32 c-rows; the second
    # slab raises, and the sweep after it must count what is missing
    f, d = build_field(2, 11), 3
    slab_reports, calls = ddt._slab_reports, []

    def failing_slab_reports(hists, mode):
        calls.append(len(hists))
        if len(calls) == 3:                 # c = 0, then the first slab
            raise MemoryError
        return slab_reports(hists, mode)

    monkeypatch.setattr(ddt, "_slab_reports", failing_slab_reports)
    with pytest.raises(MemoryError):
        sweep(f, PowerMap(d), range(f.q))
    monkeypatch.setattr(ddt, "_slab_reports", slab_reports)
    (reports,) = ddt._CONTEXTS.values()
    assert len(reports) == 1 + calls[1]
    warm = sweep(f, PowerMap(d), range(f.q))
    # one report per orbit and no per-c entry stay cached
    assert len(reports) == len(set(_orbit_keys(f, f.elements()).tolist())) == 95
    ddt._CONTEXTS.clear()
    assert warm == sweep(f, PowerMap(d), range(f.q))


def test_cached_contexts_keep_no_field_alive():
    # the cache outlives every command, so it must not pin the field tables
    f = Field.build(5, 3)
    field_ref = weakref.ref(f)
    sweep(f, PowerMap(7), range(f.q))
    del f
    gc.collect()
    assert ddt._CONTEXTS and field_ref() is None


def test_uniformity_invariant_under_modulus_choice():
    default = build_field(3, 2)
    alt = Field.build(3, 2, modulus=[2, 2, 1])
    for d in (2, 4, 5, 6):
        for c_label in range(3):        # prime-subfield c exists in both
            assert (power_uniformity(default, d, c_label).uniformity
                    == power_uniformity(alt, d, c_label).uniformity)
    # and across every c via sorted multiset of uniformities
    for d in (2, 5, 6):
        a = sorted(r.uniformity for r in sweep(default, PowerMap(d), range(9)))
        b = sorted(r.uniformity for r in sweep(alt, PowerMap(d), range(9)))
        assert a == b
