import json
import re

import numpy as np
import pytest

from cdiff.field import Field, build_field, is_irreducible, is_prime
from cdiff.funcs import PowerMap, value_table

import audit_tables
from conftest import (ORACLE_FIELDS, RefField, ref_add, ref_poly_mulmod, ref_eval_poly,
                      ref_is_irreducible)


# ---------------------------------------------------------------------------
# deterministic construction
# ---------------------------------------------------------------------------

def test_prime_field_construction():
    f = build_field(3, 1)
    assert f.modulus == (0, 1)
    assert f.generator == 2          # 2 generates Z_3*


def test_gf9_modulus_is_minimal_irreducible():
    f = build_field(3, 2)
    assert f.modulus == (1, 0, 1)    # x^2 + 1, encoding 1*9 + 0*3 + 1
    # oracle: x^2 + 1 has no root mod 3, and every smaller encoding factors
    assert all(ref_eval_poly([1, 0, 1], r, 3) != 0 for r in range(3))
    assert any(ref_eval_poly([0, 0, 1], r, 3) == 0 for r in range(3))      # x^2
    # encoding 0 is x^2; nothing between 0 and 1 exists


def test_gf8_modulus():
    # oracle: enumerate monic cubics over Z_2 in encoding order, root-test
    first = None
    for e in range(8):
        coeffs = [e & 1, (e >> 1) & 1, (e >> 2) & 1, 1]
        if all(ref_eval_poly(coeffs, r, 2) != 0 for r in range(2)):
            first = coeffs
            break
    assert first == [1, 1, 0, 1]     # x^3 + x + 1
    assert build_field(2, 3).modulus == (1, 1, 0, 1)


def test_gf4_modulus_and_generator():
    f = build_field(2, 2)
    assert f.modulus == (1, 1, 1)    # x^2 + x + 1
    assert f.generator == 2          # the element x


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_field(4, 2)
    with pytest.raises(ValueError):
        build_field(9, 1)
    with pytest.raises(ValueError):
        build_field(2, 23)           # over the default cap
    with pytest.raises(ValueError):
        Field.build(2, 30)
    with pytest.raises(ValueError):
        Field.build(3, 2, modulus=[0, 0, 1])   # x^2 is reducible
    with pytest.raises(ValueError):
        Field.build(3, 2, modulus=[1, 0, 0, 1])  # wrong degree
    # the size cap is checked before trial division, which would not finish
    huge = 1000000000000000000000000000057
    for build in (build_field, Field.build):
        with pytest.raises(ValueError, match="exceeds cap"):
            build(huge, 1)
        # n is bounded before p^n is computed or printed
        with pytest.raises(ValueError, match="exceeds cap"):
            build(3, 10000)
        with pytest.raises(ValueError, match="exceeds cap"):
            build(3, 30000000)
        with pytest.raises(ValueError, match="extension degree"):
            build(huge, 0)


def test_is_prime_and_irreducible_helpers():
    assert [m for m in range(20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert [m for m in range(-5, 1000) if is_prime(m)] == \
        [m for m in range(2, 1000) if all(m % f for f in range(2, m))]
    assert is_irreducible([1, 1, 1], 2)
    assert not is_irreducible([1, 0, 1], 2)          # (x+1)^2
    assert not is_irreducible([0, 1, 1], 2)          # x(x+1)
    assert is_irreducible([1, 0, 1, 0, 0, 1], 2)     # x^5 + x^2 + 1
    # rootless but composite: (x^2+x+1)(x^3+x+1), found at degree 2
    assert not is_irreducible([1, 0, 0, 0, 1, 1], 2)
    # not monic: 2x^2 + 2 = 2(x^2 + 1) and 2x^2 + 2x = 2x(x + 1)
    assert is_irreducible([2, 0, 2], 3) and not is_irreducible([0, 2, 2], 3)


@pytest.mark.parametrize("p,max_n", [(2, 8), (3, 5), (5, 3), (7, 3)])
def test_is_irreducible_matches_trial_division(p, max_n):
    for n in range(1, max_n + 1):
        for e in range(p**n):
            coeffs = [e // p**i % p for i in range(n)] + [1]
            assert is_irreducible(coeffs, p) == ref_is_irreducible(coeffs, p), coeffs


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_gf9_square_of_x_plus_one():
    f = build_field(3, 2)
    x_plus_1 = f.element([1, 1])
    assert f.mul(x_plus_1, x_plus_1) == f.element([0, 2])   # 2x, since x^2 = -1


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2), (2, 4), (7, 1)])
def test_mul_matches_reference_polynomial_arithmetic(p, n):
    f = build_field(p, n)
    for a in range(f.q):
        for b in range(f.q):
            ref = ref_poly_mulmod(list(f.coeffs(a)), list(f.coeffs(b)),
                                  list(f.modulus), p)
            assert f.mul(a, b) == f.element(ref)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2), (7, 1), (3, 3)])
def test_group_identities(p, n):
    f = build_field(p, n)
    assert f.inv(1) == 1
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, a) == 0


def test_pow_conventions():
    f = build_field(2, 3)
    assert f.pow(f.generator, 7) == 1     # multiplicative group order
    assert f.pow(0, 0) == 1
    assert f.pow(5, 0) == 1
    assert f.pow(0, 12) == 0
    with pytest.raises(ValueError):
        f.pow(3, -1)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_exp_log_bijection():
    for p, n in [(2, 4), (3, 3), (5, 2)]:
        f = build_field(p, n)
        assert sorted(int(v) for v in f.exp) == list(range(1, f.q))
        for x in range(1, f.q):
            assert int(f.exp[f.log[x]]) == x


def _ref_order(coeffs, modulus, p):
    """Multiplicative order of a nonzero element by a schoolbook walk."""
    one = [1] + [0] * (len(modulus) - 2)
    acc, k = list(coeffs), 1
    while acc != one:
        acc, k = ref_poly_mulmod(acc, coeffs, modulus, p), k + 1
    return k


@pytest.mark.parametrize("p,n,modulus", ORACLE_FIELDS)
def test_exp_log_tables_match_schoolbook_walk(p, n, modulus):
    """exp[k+1] = exp[k] * g, walked with the reference mulmod, not the tables."""
    f = Field.build(p, n, modulus=modulus)
    mod, g = list(f.modulus), list(f.coeffs(f.generator))
    assert f.exp.dtype == f.log.dtype == np.int32
    assert len(f.exp) == f.q - 1 and len(f.log) == f.q
    assert not (f.exp.flags.writeable or f.log.flags.writeable)
    assert int(f.exp[0]) == 1 and int(f.log[0]) == 0
    for k in range(f.q - 1):
        nxt = ref_poly_mulmod(list(f.coeffs(f.exp[k])), g, mod, p)
        assert f.element(nxt) == int(f.exp[(k + 1) % (f.q - 1)])
        assert int(f.log[f.exp[k]]) == k
    ys = f.elements()[::-1]
    diff = f.sub_v(f.elements(), ys)
    for x in range(f.q):
        assert ref_add(list(f.coeffs(x)), list(f.coeffs(f.neg(x))), p) == [0] * n
        assert ref_add(list(f.coeffs(diff[x])), list(f.coeffs(ys[x])), p) == \
            list(f.coeffs(x))
    # the default generator is the least encoding of full order
    if modulus is None and f.q <= 64:
        assert _ref_order(g, mod, p) == f.q - 1
        assert all(_ref_order(list(f.coeffs(e)), mod, p) < f.q - 1
                   for e in range(2, f.generator))


def test_tables_of_every_extension_field_up_to_2_16_pass_the_audit():
    # the audit that CI runs above 2^16 and over the prime fields below it:
    # exp[k+1] = g exp[k] by schoolbook products, exp a permutation, log[exp[k]] = k
    fields = [(p, n) for p in range(2, 2**8) if is_prime(p)
              for n in range(2, 17) if p**n <= 2**16]
    assert len(fields) == 93
    failed = {(p, n): problems for p, n in fields
              if (problems := audit_tables.audit(Field.build(p, n)))}
    assert not failed


@pytest.mark.parametrize("p,n,generator", [(3, 2, [2, 0]), (5, 2, [2, 1]),
                                           (2, 4, [0, 0, 0, 1]), (7, 1, [2])])
def test_generator_override_without_full_order_rejected(p, n, generator):
    # a field is built with its least generator of full order, so a JSON
    # description naming another generator is refused
    with pytest.raises(ValueError, match=re.escape(f"generator {generator}")):
        Field.from_json(json.dumps({"p": p, "n": n, "generator": generator}))


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (2, 4), (7, 1)])
def test_frobenius_is_additive(p, n):
    f = build_field(p, n)
    for a in range(f.q):
        for b in range(f.q):
            assert f.pow(f.add(a, b), p) == f.add(f.pow(a, p), f.pow(b, p))


# ---------------------------------------------------------------------------
# trace and quadratic character
# ---------------------------------------------------------------------------

def test_trace_examples():
    f = build_field(2, 2)
    assert f.trace(f.element([0, 1])) == 1     # x + x^2 = 1 under x^2+x+1
    for p, n in [(3, 2), (5, 2), (2, 4), (7, 1)]:
        g = build_field(p, n)
        assert g.trace(0) == 0
        assert g.trace(1) == n % p
        for x in range(g.q):
            assert 0 <= g.trace(x) < p         # lands in the prime subfield


@pytest.mark.parametrize("p,n", [(131071, 1), (2, 17), (2039, 2)])
def test_trace_against_frobenius_sum_past_int32_products(p, n, rng):
    # the logs are int32: log x * p^i passes 2^31 for i = 16 over GF(2^17)
    # and i = 1 over GF(2039^2), and GF(131071) has p > 46341
    f = build_field(p, n)
    ref = RefField(f)
    xs = [0, 1, f.p - 1, f.generator, int(f.exp[-1]), f.q - 1]
    xs += [rng.randrange(f.q) for _ in range(100)]
    want = [ref.trace(x) for x in xs]
    assert [f.trace(x) for x in xs] == want
    assert f.trace(np.array(xs, dtype=np.int64)).tolist() == want


@pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (131071, 1)])
def test_arrays_of_encodings_are_int64_over_int32_tables(p, n):
    f = build_field(p, n)
    x, nonzero = f.elements(), f.elements()[1:]
    for out in (x, f.add_v(x, 1), f.sub_v(x, 1), f.mul_v(x, x), f.mul_v(2, x),
                f.inv(nonzero), f.trace(x), f.pow_all(3), value_table(f, PowerMap(3))):
        assert out.dtype == np.int64


def test_quadratic_character_examples():
    f3 = build_field(3, 1)
    assert f3.quadratic_character(0) == 0
    assert f3.quadratic_character(2) == -1     # squares mod 3 are {0, 1}
    for p, n in [(3, 2), (5, 2), (7, 1), (3, 3)]:
        f = build_field(p, n)
        assert f.quadratic_character(f.generator) == -1
        squares = {f.mul(x, x) for x in range(1, f.q)}
        for x in range(f.q):
            expected = 0 if x == 0 else (1 if x in squares else -1)
            assert f.quadratic_character(x) == expected


def test_quadratic_character_rejects_char_two():
    f = build_field(2, 3)
    with pytest.raises(ValueError):
        f.quadratic_character(1)
    with pytest.raises(ValueError):
        f.eta_all()


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2), (3, 4), (11, 1)])
def test_quadratic_character_structure(p, n):
    f = build_field(p, n)
    eta = f.eta_all()
    # multiplicative on nonzero elements
    for a in range(1, min(f.q, 30)):
        for b in range(1, min(f.q, 30)):
            assert int(eta[f.mul(a, b)]) == int(eta[a]) * int(eta[b])
    # balanced counts
    assert int(np.count_nonzero(eta == 1)) == (f.q - 1) // 2
    assert int(np.count_nonzero(eta == -1)) == (f.q - 1) // 2
    # eta(-1) = +1 iff q = 1 mod 4
    assert (f.quadratic_character(f.neg(1)) == 1) == (f.q % 4 == 1)
    # y^((q-1)/2) represents eta(y)
    half = (f.q - 1) // 2
    for y in range(1, f.q):
        rep = f.pow(y, half)
        assert rep == (1 if int(eta[y]) == 1 else f.neg(1))


def test_in_subfield():
    f = build_field(2, 4)
    gf4 = {c for c in range(f.q) if f.in_subfield(c, 2)}
    assert gf4 == {0, 1, f.g_pow(5), f.g_pow(10)}
    assert all(f.in_subfield(c, 4) for c in range(f.q))
    for m in (3, 0, -1, -2, -4):
        with pytest.raises(ValueError, match=rf"GF\(2\^{m}\) is not a subfield"):
            f.in_subfield(f.elements(), m)


def _assert_array_of(out, scalars, kind=int):
    """out is an array of the int (or bool) results `scalars`."""
    assert isinstance(out, np.ndarray) and out.shape == (len(scalars),)
    assert out.dtype == (np.bool_ if kind is bool else np.int64)
    assert out.tolist() == scalars


@pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (5, 2), (7, 1), (65537, 1)])
def test_element_maps_take_an_int_or_an_array(p, n, rng):
    # ints give a Python int (a bool from in_subfield), checked against the
    # schoolbook field where it has the map; an int64 array in any operand
    # gives an int64 array equal to the int results element by element.
    # GF(65537) is sampled, 0, 1, -1 and g included
    f = build_field(p, n)
    ref = RefField(f)
    x = f.elements() if f.q <= 256 else np.array(
        [0, 1, p - 1, f.generator] + [rng.randrange(f.q) for _ in range(300)], dtype=np.int64)
    y = np.array(rng.sample(x.tolist(), len(x)), dtype=np.int64)
    d = rng.randrange(2, 3 * f.q)
    unary = [(f.trace, x, int, None), (f.inv, x[x != 0], int, ref.inv),
             (lambda v: f.in_subfield(v, 1), x, bool, None), (f.neg, x, int, ref.neg)]
    unary += [(lambda v, e=e: f.pow(v, e), x, int, lambda v, e=e: ref.pow(v, e))
              for e in (1, 2, f.q - 1, f.q, d)]
    if p > 2:
        unary.append((f.quadratic_character, x, int, ref.eta))
    for fn, xs, kind, want in unary:
        scalars = [fn(int(v)) for v in xs]
        assert all(type(s) is kind for s in scalars)
        if want is not None:
            assert scalars == [want(int(v)) for v in xs]
        _assert_array_of(fn(xs), scalars, kind)
    with pytest.raises(ZeroDivisionError):
        f.inv(x)
    for fn, want in ((f.add, ref.add), (f.sub, ref.sub), (f.mul, ref.mul)):
        scalars = [fn(int(a), int(b)) for a, b in zip(x, y)]
        assert all(type(s) is int for s in scalars)
        assert scalars == [want(int(a), int(b)) for a, b in zip(x, y)]
        _assert_array_of(fn(x, y), scalars)
        for b in (0, 1, f.generator):       # one operand an int, either one
            _assert_array_of(fn(x, b), [fn(int(a), b) for a in x])
            _assert_array_of(fn(b, y), [fn(b, int(a)) for a in y])
    # x^0 = 1 at every x, 0 included, and 0^e = 0 for every e >= 1
    assert f.pow(0, 0) == 1 and f.pow(x, 0).tolist() == [1] * len(x)
    for e in (1, 2, f.q - 1, f.q, d):
        assert f.pow(0, e) == 0 and f.pow(np.zeros(3, dtype=np.int64), e).tolist() == [0] * 3
    # the array names are the same maps
    assert Field.add_v is Field.add and Field.sub_v is Field.sub and Field.mul_v is Field.mul
    for e in (0, 1, d):
        _assert_array_of(f.pow_all(e), f.pow(f.elements(), e).tolist())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_round_trip():
    f = build_field(2, 3)
    obj = json.loads(f.to_json())
    assert obj == {"p": 2, "n": 3, "modulus": [1, 1, 0, 1], "generator": [0, 1, 0]}
    g = Field.from_json(f.to_json())
    assert g.modulus == f.modulus
    assert g.generator == f.generator
    assert np.array_equal(g.exp, f.exp)


def test_fields_compare_and_hash_by_their_parameters():
    f, g = build_field(3, 2), Field.build(3, 2)
    assert f is not g and f == g and hash(f) == hash(g)
    assert {f: "GF(9)"}[g] == "GF(9)"
    other = Field.build(3, 2, modulus=[2, 2, 1])
    assert other != f and f not in {other}


def test_refusals_name_the_value_given():
    f = build_field(3, 2)
    with pytest.raises(ValueError, match=r"^expected 2 coefficients, got 3$"):
        f.element([1, 0, 1])
    with pytest.raises(ValueError, match=r"odd characteristic, got p = 2$"):
        build_field(2, 3).quadratic_character(1)


def test_modulus_override_accepted():
    # x^2 + 2x + 2 is a different irreducible over Z_3
    f = Field.build(3, 2, modulus=[2, 2, 1])
    assert f.modulus == (2, 2, 1)
    assert sorted(int(v) for v in f.exp) == list(range(1, 9))
