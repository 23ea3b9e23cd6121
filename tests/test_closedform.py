import math
import re

import numpy as np
import pytest

from cdiff.field import build_field
from cdiff.ddt import power_uniformity
from cdiff.closedform import (gcd_power_plus_one, dickson_values, dickson_eval,
                              dickson_params, dickson_preimage_count,
                              dickson_max_preimage, subfield_embedding,
                              gold_solution_distribution, cm_zero_count,
                              sign_partition, jacobsthal_counts)


# ---------------------------------------------------------------------------
# gcd closed forms
# ---------------------------------------------------------------------------

def test_gcd_examples():
    assert gcd_power_plus_one(2, 2, 4).value == 5          # (2^4-1)/(2^2-1)
    case = gcd_power_plus_one(3, 1, 2)
    assert case.value == 4 and case.branch == "odd-p-even-ratio"
    case = gcd_power_plus_one(5, 2, 3)
    assert case.value == 2 and case.branch == "odd-p-odd-ratio"
    assert gcd_power_plus_one(2, 3, 6).branch == "binary"


def test_gcd_branch_equals_direct_gcd_everywhere():
    for p in (2, 3, 5, 7):
        for n in range(1, 13):
            for k in range(1, n + 1):
                case = gcd_power_plus_one(p, k, n)
                assert case.value == math.gcd(p**k + 1, p**n - 1)


def test_gcd_rejects_bad_input():
    with pytest.raises(ValueError):
        gcd_power_plus_one(3, 0, 5)


# ---------------------------------------------------------------------------
# Dickson polynomials
# ---------------------------------------------------------------------------

def test_dickson_first_degrees():
    f = build_field(5, 2)
    two = f.from_int(2)
    for x in range(f.q):
        assert dickson_eval(f, 0, x) == two
        assert dickson_eval(f, 1, x) == x
        assert dickson_eval(f, 2, x) == f.sub(f.mul(x, x), two)   # x^2 - 2
        # one recurrence step beyond: D_3 = x D_2 - D_1 = x^3 - 3x
        d3 = f.sub(f.mul(x, dickson_eval(f, 2, x)), x)
        assert dickson_eval(f, 3, x) == d3
    assert dickson_eval(f, 3, 1) == f.from_int(-2)


def test_dickson_values_match_plain_recurrence():
    for p, n, top in [(3, 2, 30), (7, 1, 30), (2, 4, 30), (2, 8, 200), (13, 2, 200)]:
        f = build_field(p, n)
        prev = np.full(f.q, f.from_int(2), dtype=np.int64)
        cur = f.elements()
        assert np.array_equal(dickson_values(f, 0), prev), (p, n)
        for m in range(1, top + 1):
            vals = dickson_values(f, m)
            assert np.array_equal(vals, cur), (p, n, m)
            if m % 37 == 0:
                assert [dickson_eval(f, m, x) for x in range(0, f.q, 7)] \
                    == [int(v) for v in cur[::7]], (p, n, m)
            prev, cur = cur, f.sub_v(f.mul_v(f.elements(), cur), prev)


def test_dickson_functional_identity_in_quadratic_extension(rng):
    # D_m(u + 1/u) = u^m + u^-m, checked in GF(p^(2n)) on sampled u
    for p, n in [(3, 2), (5, 1), (7, 1), (2, 3)]:
        ext = build_field(p, 2 * n)
        for _ in range(25):
            u = rng.randrange(1, ext.q)
            z = ext.add(u, ext.inv(u))
            m = rng.randrange(0, 50)
            lhs = dickson_eval(ext, m, z)
            rhs = ext.add(ext.pow(u, m), ext.pow(ext.inv(u), m) if m else 1)
            assert lhs == rhs


def test_dickson_commutes_with_subfield_embedding():
    base = build_field(3, 2)
    ext = build_field(3, 4)
    embed = subfield_embedding(base, ext)
    # the embedding is a field homomorphism fixing the prime subfield
    assert embed[0] == 0 and embed[1] == 1
    for a in range(base.q):
        for b in range(base.q):
            assert int(embed[base.add(a, b)]) == ext.add(int(embed[a]), int(embed[b]))
            assert int(embed[base.mul(a, b)]) == ext.mul(int(embed[a]), int(embed[b]))
    for m in (2, 5, 7, 13):
        base_vals = dickson_values(base, m)
        for x in range(base.q):
            assert int(embed[base_vals[x]]) == dickson_eval(ext, m, int(embed[x]))


def test_dickson_degree_and_leading_coefficient():
    # evaluation-interpolation over a prime field large enough for degree m
    p = 101
    f = build_field(p, 1)
    for m in range(1, 13):
        xs = list(range(m + 1))
        ys = [dickson_eval(f, m, x) for x in xs]
        # Newton's forward differences: leading coeff = m-th difference / m!
        diffs = ys[:]
        for level in range(1, m + 1):
            diffs = [(diffs[i + 1] - diffs[i]) % p for i in range(len(diffs) - 1)]
        lead = (diffs[0] * pow(math.factorial(m), p - 2, p)) % p
        assert lead == 1, m
        # and values at m+1 extra points match the interpolated polynomial,
        # confirming the degree is exactly m (not higher)
        coeffs = _interpolate(f, xs, ys)
        assert len(coeffs) == m + 1
        for x in range(m + 1, 2 * m + 2):
            assert _eval_coeffs(coeffs, x, p) == dickson_eval(f, m, x % p)


def _interpolate(field, xs, ys):
    p = field.p
    coeffs = [0] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = [1]
        den = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = [(a - xj * b) % p for a, b in
                   zip([0] + num, num + [0])]
            den = (den * (xi - xj)) % p
        scale = (yi * pow(den, p - 2, p)) % p
        for k, a in enumerate(num):
            coeffs[k] = (coeffs[k] + scale * a) % p
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _eval_coeffs(coeffs, x, p):
    v = 0
    for c in reversed(coeffs):
        v = (v * x + c) % p
    return v


def test_dickson_permutation_criterion_both_directions():
    # D_m permutes GF(q) iff gcd(m, q^2 - 1) = 1
    for p, n in [(3, 2), (5, 1), (7, 1), (3, 3)]:
        f = build_field(p, n)
        for m in range(1, 26):
            is_perm = len(set(int(v) for v in dickson_values(f, m))) == f.q
            assert is_perm == (math.gcd(m, f.q * f.q - 1) == 1), (p, n, m)


def test_dickson_preimage_branches_agree_with_enumeration():
    for p, n, d in [(3, 2, 6), (3, 2, 5), (5, 2, 13), (7, 1, 4), (3, 3, 14),
                    (5, 1, 3), (7, 2, 25)]:
        f = build_field(p, n)
        seen_branches = set()
        for x0 in range(f.q):
            r = dickson_preimage_count(f, d, x0)
            assert r.count == r.predicted, (p, n, d, x0, r)
            seen_branches.add(r.branch)
        assert seen_branches    # at least one branch exercised


def test_dickson_preimage_square_side_branch():
    # eta(x0^2 - 4) = 1 with D_d(x0) != +-2 predicts gcd(d, q-1)
    f = build_field(5, 2)
    d = 13
    params = dickson_params(f, d)
    hits = 0
    for x0 in range(f.q):
        r = dickson_preimage_count(f, d, x0)
        if r.branch == "square-disc":
            assert r.predicted == params.m_gcd
            hits += 1
    assert hits > 0


def test_dickson_preimage_boundary_x0_squared_4():
    # x0 with x0^2 = 4 falls through to the mixed branch; enumeration decides
    for p, n in [(5, 2), (7, 1), (3, 3)]:
        f = build_field(p, n)
        d = 6
        for x0 in (f.from_int(2), f.from_int(-2)):
            r = dickson_preimage_count(f, d, x0)
            assert r.branch == "mixed"
            assert r.count == r.predicted


def test_dickson_closed_forms_name_an_argument_that_is_not_an_element():
    # a negative index would wrap to the last elements, and q would raise IndexError
    f = build_field(3, 2)
    for bad in (-1, 9, 2.0):
        message = f"{bad!r} is not an element of GF(9)"
        with pytest.raises(ValueError, match=re.escape(f"x0 = {message}")):
            dickson_preimage_count(f, 6, bad)
        with pytest.raises(ValueError, match=re.escape(f"x = {message}")):
            dickson_eval(f, 6, bad)
    assert dickson_preimage_count(f, 6, np.int64(8)) == dickson_preimage_count(f, 6, 8)


def test_dickson_max_preimage_example():
    # d = (3^2+3)/2 = 6 over GF(9): the maximum preimage count is 2
    f = build_field(3, 2)
    assert dickson_max_preimage(f, 6) == 2


def test_dickson_params_two_adic_part():
    f = build_field(3, 2)
    params = dickson_params(f, 6)
    assert params.m_gcd == 2 and params.lbar == 2
    assert (3**4 - 1) % 2**params.r == 0 and (3**4 - 1) % 2**(params.r + 1) != 0


# ---------------------------------------------------------------------------
# Gold distribution and companion polynomial zeros
# ---------------------------------------------------------------------------

def test_gold_distribution_coprime_cases():
    d5 = gold_solution_distribution(5, 1)
    assert d5.counts_dict() == {0: 11, 1: 15, 3: 5}
    assert d5.counts_dict() == d5.predicted_dict()
    d4 = gold_solution_distribution(4, 1)
    assert d4.counts_dict() == {0: 5, 1: 8, 3: 2}
    assert d4.counts_dict() == d4.predicted_dict()


def test_gold_distribution_gcd2_case():
    d62 = gold_solution_distribution(6, 2)
    assert d62.counts_dict()[5] == 1
    assert d62.predicted_dict() == {5: 1}


def test_gold_distribution_total_balance():
    # sum over nonzero beta of m*M_m plus the beta = 0 solutions covers every z
    for n, k in [(3, 1), (4, 1), (5, 2), (6, 2), (8, 2)]:
        dist = gold_solution_distribution(n, k)
        total = sum(m * count for m, count in dist.counts)
        assert total + dist.zero_beta_solutions == 2**n
        # z (z^(2^k) + 1) = 0 has exactly the solutions z = 0 and z = 1
        assert dist.zero_beta_solutions == 2


def test_cm_zero_counts():
    assert cm_zero_count(3, 1, 3).count == 1     # C_3 = 1 + x^2, zero only at 1
    assert cm_zero_count(5, 1, 5).count == 5
    assert cm_zero_count(4, 1, 4).count == 2
    assert cm_zero_count(6, 2, 3).count == 1
    for n, k in [(3, 1), (4, 1), (5, 1), (6, 2), (6, 3), (8, 2)]:
        z = cm_zero_count(n, k, n // math.gcd(n, k))
        assert z.count == z.predicted, (n, k)


def test_cm_c3_shape():
    # C_3(x) = 1 + x^(2^k): direct check against the recurrence output
    f = build_field(2, 3)
    z = cm_zero_count(3, 1, 3)
    zeros = [x for x in range(f.q) if np.bitwise_xor(1, f.pow(x, 2)) == 0]
    assert z.count == len(zeros) == 1


def test_gold_exponent_is_reduced_mod_n():
    # z^(2^k) = z^(2^(k mod n)) over GF(2^n); 2^k itself would not fit in memory
    k = 10**30 + 1
    for n in (4, 5):
        big, one = gold_solution_distribution(n, k), gold_solution_distribution(n, 1)
        assert (big.counts, big.predicted, big.zero_beta_solutions) \
            == (one.counts, one.predicted, one.zero_beta_solutions)
        big, one = cm_zero_count(n, k, n), cm_zero_count(n, 1, n)
        assert (big.count, big.predicted) == (one.count, one.predicted)


def test_cm_validates_m():
    with pytest.raises(ValueError):
        cm_zero_count(6, 2, 2)


# ---------------------------------------------------------------------------
# sign partition and Jacobsthal counts
# ---------------------------------------------------------------------------

def test_sign_partition_gf5():
    f = build_field(5, 1)
    part = sign_partition(f)
    assert part.cells[(1, -1)] == (3,)
    assert part.cells[(-1, 1)] == (1,)
    assert part.cells[(-1, -1)] == (2,)
    assert part.cells[(1, 1)] == ()


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (7, 1), (11, 1), (13, 1)])
def test_sign_partition_is_a_partition(p, n):
    f = build_field(p, n)
    part = sign_partition(f)
    union = sorted(x for cell in part.cells.values() for x in cell)
    expected = sorted(set(range(f.q)) - {0, f.neg(1)})
    assert union == expected
    assert sum(part.sizes().values()) == f.q - 2


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1), (3, 3)])
def test_sign_partition_mirror_law(p, n):
    # x -> -x-1 sends the cell (i, j) onto the cell (eta(-1) j, eta(-1) i)
    f = build_field(p, n)
    part = sign_partition(f)
    eps = f.quadratic_character(f.neg(1))
    for (i, j), cell in part.cells.items():
        target = set(part.cells[(eps * j, eps * i)])
        for x in cell:
            assert f.neg(f.add(x, 1)) in target


@pytest.mark.parametrize("p,n", [(5, 1), (13, 1), (3, 2), (5, 2)])
def test_sign_partition_swap_case_q_1_mod_4(p, n):
    # for q = 1 mod 4 the mirror swaps the mixed cells
    f = build_field(p, n)
    assert f.q % 4 == 1
    part = sign_partition(f)
    mirrored = {f.neg(f.add(x, 1)) for x in part.cells[(1, -1)]}
    assert mirrored == set(part.cells[(-1, 1)])


def test_sign_partition_rejects_char_two():
    with pytest.raises(ValueError):
        sign_partition(build_field(2, 3))


def test_companions_name_what_they_refuse():
    f = build_field(2, 3)
    with pytest.raises(ValueError, match=r"^Jacobsthal counts require odd "
                                         r"characteristic, got p = 2$"):
        jacobsthal_counts(f)
    with pytest.raises(ValueError, match=r"^preimage branch formula requires odd "
                                         r"characteristic, got p = 2$"):
        dickson_preimage_count(f, 3, 1)
    with pytest.raises(ValueError, match=r"^GF\(3\^2\) does not extend GF\(2\^2\)$"):
        subfield_embedding(build_field(2, 2), build_field(3, 2))
    with pytest.raises(ValueError, match=r"^GF\(2\^3\) does not extend GF\(2\^2\)$"):
        subfield_embedding(build_field(2, 2), f)


def test_jacobsthal_counts():
    for n, expected in [(2, 2), (3, 12), (4, 38), (5, 120)]:
        j = jacobsthal_counts(build_field(3, n))
        assert j.n1 == j.n2 == j.predicted == expected


def test_jacobsthal_counts_beyond_characteristic_three():
    # x = -1 makes x^2 - x = 2, so the counts turn on eta(2), which differs
    # from eta(-1) once p > 3 (GF(5): 1 against (5 - 4 - 1) / 2 = 0)
    fields = [(p, n) for p in (5, 7, 11, 13, 17) for n in range(1, 6) if p**n <= 2500]
    assert len(fields) == 16
    for p, n in fields:
        f = build_field(p, n)
        outside = [x for x in range(f.q) if x not in (0, 1, f.neg(1))]
        n1 = sum(f.quadratic_character(f.sub(f.mul(x, x), x)) == 1 for x in outside)
        n2 = sum(f.quadratic_character(f.add(f.mul(x, x), x)) == 1 for x in outside)
        j = jacobsthal_counts(f)
        assert j.n1 == j.n2 == j.predicted == n1 == n2, (p, n, j)


def test_jacobsthal_brute_force_cross_check():
    f = build_field(3, 3)
    minus_one = f.neg(1)
    n1 = sum(1 for x in range(f.q)
             if x not in (0, 1, minus_one)
             and f.quadratic_character(f.sub(f.mul(x, x), x)) == 1)
    assert jacobsthal_counts(f).n1 == n1


# ---------------------------------------------------------------------------
# cross-module identity: (-1)-uniformity of x^((p^k+1)/2) vs Dickson preimages
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 2)])
def test_half_gold_uniformity_equals_max_dickson_preimage(p, n):
    f = build_field(p, n)
    for k in range(1, 2 * n):
        d = (p**k + 1) // 2
        assert (power_uniformity(f, d, f.neg(1)).uniformity
                == dickson_max_preimage(f, d)), (p, n, k)
