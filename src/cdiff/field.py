"""Exact arithmetic in GF(p^n) with deterministic field construction.

Elements are plain ints in [0, p^n): the base-p digits of the encoding are the
polynomial-basis coefficients (digit i = coefficient of x^i).  Canonical
element order is integer order of this encoding.  Multiplication runs on
exp/log tables built from a deterministically chosen modulus and generator,
so two builds of the same (p, n) are identical arrays.  The tables are int32:
every encoding and log is below the size cap, 2^22 < 2^31.  Arrays of
encodings that the field hands out are int64, and a log or an encoding is
multiplied by an integer >= 2 only in int64, where the product cannot wrap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

import numpy as np

DEFAULT_SIZE_CAP = 2**22

# Entries per step of the table builds: few enough that a step's
# temporaries stay in cache.
_CHUNK = 2**16


def is_prime(m: int) -> bool:
    """Trial-division primality check, adequate for desk-scale moduli."""
    return m > 1 and prime_factors(m) == [m]


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m by trial division."""
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# Polynomial helpers over Z_p (coefficient lists, index i = coeff of x^i).
# Used only during construction; runtime arithmetic goes through the tables.
# ---------------------------------------------------------------------------

def _poly_degree(f: list[int]) -> int:
    for i in range(len(f) - 1, -1, -1):
        if f[i]:
            return i
    return -1


def _poly_rem(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f modulo g (g monic not required; leading coeff inverted)."""
    f = [c % p for c in f]
    dg = _poly_degree(g)
    lead_inv = pow(g[dg], p - 2, p) if g[dg] != 1 else 1
    df = _poly_degree(f)
    while df >= dg:
        scale = (f[df] * lead_inv) % p
        for i in range(dg + 1):
            f[df - dg + i] = (f[df - dg + i] - scale * g[i]) % p
        df = _poly_degree(f)
    return f[:dg] if dg > 0 else [0]


def _poly_mulmod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    """(a * b) mod modulus, inputs of degree < n, output of length n."""
    n = len(modulus) - 1
    conv = [0] * (2 * n - 1 if n > 1 else 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] = (conv[i + j] + ai * bj) % p
    # reduce top coefficients using x^n = -(modulus - x^n)
    for k in range(len(conv) - 1, n - 1, -1):
        c = conv[k]
        if c:
            conv[k] = 0
            for i in range(n):
                conv[k - n + i] = (conv[k - n + i] - c * modulus[i]) % p
    return conv[:n]


def _poly_powmod(base: list[int], e: int, modulus: list[int], p: int) -> list[int]:
    n = len(modulus) - 1
    result = [1] + [0] * (n - 1)
    acc = list(base)
    while e:
        if e & 1:
            result = _poly_mulmod(result, acc, modulus, p)
        acc = _poly_mulmod(acc, acc, modulus, p)
        e >>= 1
    return result


def _digits(e: int, p: int, n: int) -> list[int]:
    return [e // p**i % p for i in range(n)]


def _encode(digits: list[int], p: int) -> int:
    e = 0
    for d in reversed(digits):
        e = e * p + d
    return e


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A greatest common divisor of a and b over Z_p, by Euclid (not normalized)."""
    while _poly_degree(b) >= 0:
        a, b = b, _poly_rem(a, b, p)
    return a


def is_irreducible(coeffs: list[int], p: int) -> bool:
    """Ben-Or's test: f of degree n over Z_p is reducible iff gcd(x^(p^i) - x, f)
    is not a constant for some i <= n/2."""
    n = _poly_degree(coeffs)
    if n <= 0:
        return False
    f = [c * pow(coeffs[n], -1, p) % p for c in coeffs[:n + 1]]  # monic, for _poly_mulmod
    h = [0, 1]      # x^(p^i) mod f
    for _ in range(n // 2):
        h = _poly_powmod(h, p, f, p)
        h_minus_x = [h[0], (h[1] - 1) % p] + h[2:]
        if _poly_degree(_poly_gcd(f, h_minus_x, p)) > 0:
            return False
    return True


def _find_modulus(p: int, n: int) -> list[int]:
    """Monic irreducible of degree n whose coefficient vector, read as a
    base-p integer with c0 least significant, is minimal.  For n=1 that is
    x itself, and arithmetic is plain mod-p."""
    for e in range(p**n):
        coeffs = _digits(e, p, n) + [1]
        if is_irreducible(coeffs, p):
            return coeffs
    raise ValueError(f"no irreducible polynomial of degree {n} over Z_{p}")  # unreachable


def _multiplicative_order_is_full(elem: list[int], modulus: list[int], p: int, q: int,
                                  factors: list[int]) -> bool:
    one = [1] + [0] * (len(modulus) - 2)
    for r in factors:
        if _poly_powmod(elem, (q - 1) // r, modulus, p) == one:
            return False
    return True


def _digit_add(x, y, p: int, n: int):
    """Field sum of encodings, ints or int64 arrays: digit-wise mod p (XOR
    for p = 2)."""
    if p == 2:
        return x ^ y
    out, pi = 0, 1
    for _ in range(n):
        out = out + ((x // pi + y // pi) % p) * pi
        pi *= p
    return out


def _like(value, *operands):
    """`value` as an array where an operand is one, else as a Python int or
    bool."""
    for x in operands:
        if isinstance(x, np.ndarray):
            return value
    return value.item()


@dataclass(frozen=True)
class Field:
    """A concrete GF(p^n): modulus, generator, and exp/log tables.

    Immutable after construction; all operations are pure.  Equality and
    hashing skip the tables, which the other fields fix.
    """

    p: int
    n: int
    q: int
    modulus: tuple[int, ...]          # n+1 coefficients, monic
    generator: int                    # canonical encoding
    exp: np.ndarray = dataclass_field(repr=False, compare=False)  # int32 exp[k] = g^k, k < q-1
    log: np.ndarray = dataclass_field(repr=False, compare=False)  # int32 log[g^k] = k; log[0] = 0

    # -- construction -------------------------------------------------------

    @staticmethod
    def build(p: int, n: int, modulus: list[int] | None = None) -> "Field":
        """Build GF(p^n) with the deterministic modulus, or a validated
        override, and the least generator of full order.  The cheap checks on
        n and the size cap come before the trial-division primality test on p;
        n is bounded before p^n is computed, since any n past the cap's bit
        length is over it."""
        if n < 1:
            raise ValueError(f"extension degree must be >= 1, got n = {n!r}")
        if p > 1 and (n >= DEFAULT_SIZE_CAP.bit_length() or p**n > DEFAULT_SIZE_CAP):
            raise ValueError(f"field size {p}^{n} exceeds cap {DEFAULT_SIZE_CAP}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        q = p**n

        if modulus is None:
            modulus = _find_modulus(p, n)
        else:
            given = ",".join(map(str, modulus))
            modulus = [int(c) % p for c in modulus]
            if len(modulus) != n + 1 or modulus[n] != 1:
                raise ValueError(f"modulus must be monic of degree n = {n} ({n + 1} "
                                 f"coefficients c0..c{n}), got modulus = {given}")
            if n > 1 and not is_irreducible(modulus, p):
                raise ValueError(f"modulus override is reducible over GF({p}), "
                                 f"got modulus = {given}")
            if n == 1 and modulus != [0, 1]:
                raise ValueError(f"degree-1 modulus must be x (0,1), got modulus = {given}")

        factors = prime_factors(q - 1) if q > 2 else []
        gen_digits = [1] + [0] * (n - 1)    # least encoding of full order; 1 when q == 2
        for e in range(2 if n == 1 else p, q):      # a constant's order divides p-1
            if _multiplicative_order_is_full(_digits(e, p, n), modulus, p, q, factors):
                gen_digits = _digits(e, p, n)
                break

        # exp[k] = g^k by doubling: exp[B:2B] = exp[0:B]*h with h = g^B, a
        # product mod p when n = 1.  For n > 1, x -> x*h is GF(p)-linear, so
        # the product is the image of the low t digits plus that of the high
        # n-t digits, read from tables of the matrix of h on digit patterns.
        # Each step works in int64 on chunks of _CHUNK entries (x h passes
        # 2^31 once p > 46341), so no q-element temporary is made.
        if n > 1:
            powers, t = p ** np.arange(n, dtype=np.int64), (n + 1) // 2
            low = np.arange(p**t, dtype=np.int64)[:, None] // powers[:t] % p
            high = np.arange(p**(n - t), dtype=np.int64)[:, None] // powers[:n - t] % p
        exp, size, h = np.empty(q - 1, dtype=np.int32), 1, gen_digits
        exp[0] = 1
        while size < q - 1:
            if n > 1:
                mat = np.array([_poly_mulmod(row, h, modulus, p)
                                for row in np.eye(n, dtype=int).tolist()], dtype=np.int64)
                low_img, high_img = low @ mat[:t] % p @ powers, high @ mat[t:] % p @ powers
            step = min(size, q - 1 - size)
            for lo in range(0, step, _CHUNK):
                x = exp[lo:min(lo + _CHUNK, step)].astype(np.int64)
                if n == 1:
                    image = x * h[0] % p
                else:
                    image = _digit_add(low_img[x % p**t], high_img[x // p**t], p, n)
                exp[size + lo:size + lo + len(x)] = image
            size += step
            h = _poly_mulmod(h, h, modulus, p)
        if _poly_mulmod(gen_digits, _digits(int(exp[-1]), p, n), modulus, p) != _digits(1, p, n):
            raise ValueError("generator order is not q-1")  # defensive; found above
        log = np.zeros(q, dtype=np.int32)
        for lo in range(0, q - 1, _CHUNK):
            hi = min(lo + _CHUNK, q - 1)
            log[exp[lo:hi]] = np.arange(lo, hi, dtype=np.int32)
        for table in (exp, log):
            table.setflags(write=False)

        return Field(p=p, n=n, q=q, modulus=tuple(modulus),
                     generator=int(exp[1]) if q > 2 else 1,
                     exp=exp, log=log)

    # -- element views ------------------------------------------------------

    def elements(self) -> np.ndarray:
        return np.arange(self.q, dtype=np.int64)

    def coeffs(self, x: int) -> tuple[int, ...]:
        return tuple(_digits(int(x), self.p, self.n))

    def element(self, coeffs: list[int]) -> int:
        if len(coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(coeffs)}")
        return _encode([int(c) % self.p for c in coeffs], self.p)

    def from_int(self, value: int) -> int:
        """Embed an integer through the prime subfield (value mod p)."""
        return value % self.p

    def is_element(self, x) -> bool:
        """True when x is an int encoding in [0, q)."""
        return isinstance(x, (int, np.integer)) and 0 <= x < self.q

    def check_element(self, name: str, value) -> int:
        """`value` as an int; ValueError naming the argument unless it is an element."""
        if not self.is_element(value):
            raise ValueError(f"{name} = {value!r} is not an element of GF({self.q}): "
                             f"expected an int in [0, {self.q})")
        return int(value)

    def g_pow(self, k: int) -> int:
        return int(self.exp[k % (self.q - 1)])

    # -- element maps ---------------------------------------------------------
    # Each takes ints or int64 arrays of encodings: ints give a Python int,
    # and an array in any operand gives an int64 array.

    def add(self, x, y):
        return _digit_add(x, y, self.p, self.n)

    def neg(self, x):
        return self.mul(x, self.p - 1)      # -1 is encoded as the integer p - 1

    def sub(self, x, y):
        return self.add_v(x, self.mul_v(y, self.p - 1))

    def mul(self, x, y):
        k = self.log_v(x)
        k += self.log[y]
        k %= self.q - 1         # an int64 zero makes the result int64, not int32
        return _like(np.where((x == 0) | (y == 0), np.int64(0), self.exp[k]), x, y)

    def pow(self, x, d: int):
        """x^d for an integer d >= 0; pow(x, 0) = 1 for every x, pow(0, d) = 0
        for d >= 1.  The exponent is reduced mod q-1 only for nonzero bases."""
        if d < 0:
            raise ValueError(f"exponent must be >= 0, got d = {d!r}")
        k = self.log_v(x)       # x^d = g^(d log x); log 0 = 0, so 0^0 = g^0 = 1
        k *= d % (self.q - 1)
        k %= self.q - 1
        return _like(np.where((x == 0) & (d > 0), np.int64(0), self.exp[k]), x)

    def inv(self, x):
        """1/x; a ZeroDivisionError if x is, or holds, 0."""
        if np.any(x == 0):
            raise ZeroDivisionError("inversion of zero")
        return _like(self.exp[-self.log[x] % (self.q - 1)].astype(np.int64), x)

    def trace(self, x):
        """Absolute trace into Z_p: the sum of the n Frobenius powers of x,
        an element of the prime subfield, so its encoding is its residue."""
        logs, t = self.log_v(x), np.int64(0)
        for i in range(self.n):
            t = self.add(t, self.exp[logs * self.p**i % (self.q - 1)])
        return _like(np.where(x == 0, 0, t), x)

    def quadratic_character(self, x):
        """0 at 0, +1 on nonzero squares, -1 on non-squares (odd p only)."""
        if self.p == 2:
            raise ValueError("quadratic character requires odd characteristic, got p = 2")
        return _like(np.where(x == 0, 0, (1 - 2 * (self.log[x] % 2)).astype(np.int64)), x)

    def in_subfield(self, x, m: int):
        """Membership of x in GF(p^m), m a positive divisor of n.  The logs of
        GF(p^m)* are the multiples of (q-1)/(p^m-1), and log 0 = 0."""
        if m <= 0 or self.n % m != 0:
            raise ValueError(f"GF({self.p}^{m}) is not a subfield of GF({self.p}^{self.n})")
        return _like(self.log[x] % ((self.q - 1) // (self.p**m - 1)) == 0, x)

    def log_v(self, x):
        """log x in int64, with log 0 = 0: arithmetic on logs runs in int64,
        where products cannot wrap, and not in the int32 of the table."""
        return self.log[x].astype(np.int64)

    # The names `src/` calls on arrays, so that a wrapper on them (as the
    # perfbench tracer installs) sees every array sum and product; `sub`
    # calls them for the same reason.
    add_v, sub_v, mul_v = add, sub, mul

    def pow_all(self, d: int) -> np.ndarray:
        """Table of x^d over all field elements in canonical order (d >= 0)."""
        return self.pow(self.elements(), d)

    def eta_all(self) -> np.ndarray:
        """Quadratic character over all elements in canonical order (odd p)."""
        return self.quadratic_character(self.elements())

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"p": self.p, "n": self.n,
                           "modulus": list(self.modulus),
                           "generator": list(self.coeffs(self.generator))},
                          separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "Field":
        """Inverse of `to_json`; a ValueError if it names another generator."""
        obj = json.loads(text)
        f = Field.build(int(obj["p"]), int(obj["n"]), modulus=obj.get("modulus"))
        generator, built = obj.get("generator"), list(f.coeffs(f.generator))
        if generator is not None and generator != built:
            raise ValueError(f"generator {generator} differs from {built}, "
                             f"the generator GF({f.p}^{f.n}) is built with")
        return f


_FIELD_CACHE: dict[tuple, Field] = {}


def build_field(p: int, n: int, modulus: tuple[int, ...] | None = None) -> Field:
    """Cached deterministic field constructor (fields are immutable);
    `Field.build` validates the parameters on a miss."""
    key = (p, n, tuple(modulus) if modulus is not None else None)
    got = _FIELD_CACHE.get(key)
    if got is None:
        got = Field.build(p, n, modulus=list(modulus) if modulus else None)
        _FIELD_CACHE[key] = got
    return got
