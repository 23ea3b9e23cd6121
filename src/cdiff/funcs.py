"""Functions under study: power maps and explicit lookup tables.

A PowerMap keeps its exponent as a plain int, unreduced (reduction mod q-1
happens only at evaluation time, and only for nonzero bases, since
x^(q-1) = 1 fails at 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cdiff.field import Field


def check_exponent(d) -> int:
    """d as a plain int; ValueError naming d unless it is an int >= 1."""
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"power-map exponent must be >= 1, got d = {d!r}")
    return int(d)


@dataclass(frozen=True)
class PowerMap:
    """F(x) = x^d with d >= 1, kept as a plain int."""
    d: int

    def __post_init__(self):
        object.__setattr__(self, "d", check_exponent(self.d))


@dataclass(frozen=True)
class LookupTable:
    """F given by its full value table in canonical element order."""
    table: tuple[int, ...]


FunctionSpec = PowerMap | LookupTable


def evaluate(field: Field, func: FunctionSpec, x: int) -> int:
    if isinstance(func, PowerMap):
        return field.pow(x, func.d)
    return func.table[x]


def value_table(field: Field, func: FunctionSpec) -> np.ndarray:
    """Values of func over all field elements in canonical order."""
    if isinstance(func, PowerMap):
        return field.pow_all(func.d)
    if len(func.table) != field.q:
        raise ValueError(f"lookup table has {len(func.table)} entries, field has {field.q}")
    values = np.asarray(func.table)
    if values.dtype.kind not in "iu" or not ((values >= 0) & (values < field.q)).all():
        # name the first entry that is not an element (a table of bools has none)
        for i, v in enumerate(func.table):
            if not field.is_element(v):
                raise ValueError(f"lookup table entry {i} is {v!r}, "
                                 f"not an int in [0, {field.q})")
    return values.astype(np.int64)


def as_lookup(field: Field, func: PowerMap) -> LookupTable:
    """Materialize a power map as a lookup table (feeds the generic path)."""
    return LookupTable(tuple(int(v) for v in value_table(field, func)))


def c_derivative(field: Field, func: FunctionSpec, c: int, a: int, x: int) -> int:
    """F(x+a) - c*F(x)."""
    return field.sub(evaluate(field, func, field.add(x, a)),
                     field.mul(c, evaluate(field, func, x)))
