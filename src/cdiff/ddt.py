"""c-difference-distribution counting and c-differential uniformity.

Two routes are provided.  The general route scans every (a, b) pair at
Theta(q^2) cost and works for arbitrary lookup tables.  The power-map route
uses the a-scaling reduction: for F(x) = x^d every a != 0 row is a relabeling
of the a = 1 row, and the a = 0 row contributes exactly gcd(d, q-1) when
c != 1, so one row plus a gcd determines the uniformity at Theta(q) cost.
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


def ddt_row(field: Field, func: FunctionSpec, c: int, a: int) -> np.ndarray:
    """Counts over b of solutions x to F(x+a) - c F(x) = b, one pass over x."""
    values = value_table(field, func)
    x = field.elements()
    deltas = field.sub_v(values[field.add_v(x, a)], field.mul_v(c, values))
    return np.bincount(deltas, minlength=field.q)


def delta_count(field: Field, func: FunctionSpec, c: int, a: int, b: int) -> int:
    """Exact number of solutions x of F(x+a) - c F(x) = b."""
    return int(ddt_row(field, func, c, a)[b])


def general_uniformity(field: Field, func: FunctionSpec, c: int) -> CDDTReport:
    """Max count over all (a, b), excluding a = 0 exactly when c = 1."""
    values = value_table(field, func)
    x = field.elements()
    cv = field.mul_v(c, values)
    hist = np.zeros(field.q + 1, dtype=np.int64)
    a_start = 1 if c == 1 else 0
    block = max(1, 2**22 // field.q)        # bounds the (a, x) slab size
    for lo in range(a_start, field.q, block):
        a_col = np.arange(lo, min(lo + block, field.q), dtype=np.int64)[:, None]
        deltas = field.sub_v(values[field.add_v(x[None, :], a_col)], cv[None, :])
        offsets = np.arange(len(a_col), dtype=np.int64)[:, None] * field.q
        counts = np.bincount((deltas + offsets).ravel(),
                             minlength=len(a_col) * field.q)
        hist += np.bincount(counts, minlength=field.q + 1)
    return _report(c, hist, "full")


def _power_tables(field: Field, d: int) -> tuple[np.ndarray, np.ndarray]:
    values = field.pow_all(d)
    shifted = values[field.add_v(field.elements(), 1)]
    return values, shifted


def power_uniformity(field: Field, d: int, c: int,
                     _tables: tuple[np.ndarray, np.ndarray] | None = None) -> CDDTReport:
    """Uniformity of x^d at c from the a = 1 row plus the a = 0 gcd term."""
    if d < 1:
        raise ValueError("power-map exponent must be >= 1")
    values, shifted = _tables if _tables is not None else _power_tables(field, d)
    row = np.bincount(field.sub_v(shifted, field.mul_v(c, values)),
                      minlength=field.q)
    hist = np.bincount(row, minlength=field.q + 1)
    if c != 1:
        # a = 0 row: (1-c) x^d = b has one solution at b = 0 and g solutions
        # at the (q-1)/g scaled d-th powers.
        g = math.gcd(d, field.q - 1)
        hist[1] += 1
        hist[g] += (field.q - 1) // g
        hist[0] += (field.q - 1) - (field.q - 1) // g
    return _report(c, hist, "power-reduced")


def uniformity(field: Field, func: FunctionSpec, c: int) -> CDDTReport:
    """Fast path for power maps, general path for lookup tables."""
    if isinstance(func, PowerMap):
        return power_uniformity(field, func.d, c)
    return general_uniformity(field, func, c)


def sweep(field: Field, func: FunctionSpec, c_values) -> list[CDDTReport]:
    """Independent reports for every c, in canonical element order."""
    cs = sorted(int(c) for c in c_values)
    if not cs:
        raise ValueError("empty c-set")
    if isinstance(func, PowerMap):
        tables = _power_tables(field, func.d)
        return [power_uniformity(field, func.d, c, _tables=tables) for c in cs]
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
