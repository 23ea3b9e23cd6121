import re

import numpy as np
import pytest

from cdiff.field import build_field
from cdiff.funcs import (PowerMap, LookupTable, evaluate, value_table, as_lookup,
                         c_derivative)


def test_power_map_eval_examples():
    f3 = build_field(3, 1)
    assert evaluate(f3, PowerMap(2), 2) == 1          # 4 mod 3
    f9 = build_field(3, 2)
    g = f9.generator
    assert evaluate(f9, PowerMap(6), g) == f9.g_pow(6)
    for d in (1, 2, 5, 8, 17):
        assert evaluate(f9, PowerMap(d), 0) == 0


def test_power_map_requires_positive_exponent():
    with pytest.raises(ValueError):
        PowerMap(0)


def test_power_map_keeps_a_numpy_exponent_as_a_plain_int():
    # an np.int64 d near 2^62 would wrap in int64 products with a log
    assert type(PowerMap(np.int64(7)).d) is int
    f, d = build_field(3, 5), 2**62 + 7
    numpy_d, plain = PowerMap(np.int64(d)), PowerMap(d)
    assert numpy_d == plain
    assert [evaluate(f, numpy_d, x) for x in range(f.q)] == \
        [evaluate(f, plain, x) for x in range(f.q)]


def test_as_lookup_identity_and_fermat():
    f = build_field(5, 1)
    assert as_lookup(f, PowerMap(1)).table == (0, 1, 2, 3, 4)
    fermat = as_lookup(f, PowerMap(f.q - 1)).table
    assert fermat == (0, 1, 1, 1, 1)


def test_as_lookup_gold_is_bijective_on_gf8():
    f = build_field(2, 3)
    table = as_lookup(f, PowerMap(3)).table     # gcd(3, 7) = 1
    assert sorted(table) == list(range(8))


def test_lookup_length_validated():
    f = build_field(2, 3)
    with pytest.raises(ValueError):
        value_table(f, LookupTable((0, 1, 2)))


@pytest.mark.parametrize("bad", [-1, 3.5, 9, "4", None, 2**70])
def test_lookup_entries_validated(bad):
    # an entry outside [0, q) or not an int used to be read as another element
    f = build_field(3, 2)
    table = list(range(9))
    table[5] = bad
    with pytest.raises(ValueError, match=re.escape(f"lookup table entry 5 is {bad!r}, "
                                                   "not an int in [0, 9)")):
        value_table(f, LookupTable(tuple(table)))


def test_c_derivative_trivial_cases():
    f = build_field(3, 2)
    func = PowerMap(5)
    for x in range(f.q):
        assert c_derivative(f, func, 1, 0, x) == 0             # F(x) - F(x)
        assert c_derivative(f, func, 0, 4, x) == evaluate(f, func, f.add(x, 4))


def test_c_derivative_worked_example():
    # F = x^2 over GF(5), c=2, a=1, x=3: 4^2 - 2*3^2 = 16 - 18 = 3 (mod 5)
    f = build_field(5, 1)
    assert c_derivative(f, PowerMap(2), 2, 1, 3) == 3


@pytest.mark.parametrize("p,n", [(3, 2), (2, 4), (5, 1)])
def test_c_derivative_matches_definition(p, n, rng):
    f = build_field(p, n)
    power = PowerMap(rng.randrange(1, f.q + 3))
    lookup = as_lookup(f, power)
    for _ in range(50):
        c, a, x = (rng.randrange(f.q) for _ in range(3))
        expected = f.sub(evaluate(f, power, f.add(x, a)),
                         f.mul(c, evaluate(f, power, x)))
        assert c_derivative(f, power, c, a, x) == expected
        assert c_derivative(f, lookup, c, a, x) == expected
