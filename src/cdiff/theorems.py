"""Registry of claim rows about the c-differential uniformity of power maps,
checked against the exhaustive counting engine.

Each row is declared once (`Row`): its exponent family, its ordered branches
of c-conditions with labels and predictions, and the fields of its default
grid.  The row is the case: its prediction (None where the claim does not
apply) and its grid are methods derived from that declaration.

Exact rows sweep every c satisfying their condition (a single c could mask a
counterexample at these field sizes).  Upper-bound rows additionally record
the attained maximum, distinguishing a tight bound from a vacuous one.
Value-set rows compare the set of uniformities an exponent's last branch
observed against the expected set, in a run that `verify_case` appends; it
is not on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Union

import numpy as np

from cdiff.field import Field, build_field, DEFAULT_SIZE_CAP
from cdiff.ddt import sweep
from cdiff.funcs import PowerMap, check_exponent


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Exact:
    value: int

    def check(self, observed) -> bool:
        return observed == self.value

    def render(self) -> str:
        return f"= {self.value}"


@dataclass(frozen=True)
class UpperBound:
    value: int

    def check(self, observed) -> bool:
        return observed <= self.value

    def render(self) -> str:
        return f"<= {self.value}"


@dataclass(frozen=True)
class ValueSet:
    values: frozenset[int]

    def check(self, observed) -> bool:
        return set(observed) == set(self.values)

    def render(self) -> str:
        return "= {" + ",".join(str(v) for v in sorted(self.values)) + "}"


Prediction = Union[Exact, UpperBound, ValueSet]


# ---------------------------------------------------------------------------
# Branch runs and reports
# ---------------------------------------------------------------------------

class BranchRun(NamedTuple):
    """One branch of a row at one exponent: its ascending c's, and the columns
    `observed[i]` and `ok[i]`, the uniformity seen at `c_values[i]` and its
    verdict, empty until `verify_case` fills them; `c` is None, as a run holds
    many c's.  The value-set run that `verify_case` appends has c_values
    (None,) and observes the sorted set its branch run observed.  The columns
    are tuples, so a run compares by value."""
    p: int
    n: int
    d: int
    k: int | None
    c_label: str
    predicted: Prediction
    c_values: tuple[int | None, ...]
    observed: tuple[int | tuple[int, ...], ...] = ()
    ok: tuple[bool, ...] = ()
    c = None


@dataclass(frozen=True)
class VerificationReport:
    """A case's results as its branch runs, in grid order."""
    case_id: str
    runs: tuple[BranchRun, ...]

    @property
    def passed(self) -> bool:
        return all(all(run.ok) for run in self.runs)

    @property
    def counterexamples(self) -> list[tuple[BranchRun, int | None, int | tuple[int, ...]]]:
        """(run, c, observed) of every failed check."""
        return [(run, c, obs) for run in self.runs
                for c, obs, ok in zip(run.c_values, run.observed, run.ok) if not ok]

    @property
    def max_attained(self) -> int | None:
        """The largest uniformity observed under an UpperBound, if any."""
        return max((max(run.observed) for run in self.runs
                    if isinstance(run.predicted, UpperBound)), default=None)


# ---------------------------------------------------------------------------
# Row declarations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Branch:
    """One condition on c within a row.  `accepts(field, k, cs)` takes an
    int64 array of encodings and returns a bool mask of the same shape, the
    c's the branch accepts; `label` and `predicted` are constants or
    functions of (field, k)."""
    label: str | Callable[[Field, int | None], str]
    accepts: Callable[[Field, int | None, np.ndarray], np.ndarray]
    predicted: Prediction | Callable[[Field, int | None], Prediction]


@dataclass(frozen=True)
class Row:
    """A claim, declared once.

    `family(field)` lists the exponents (d, k) the claim covers over any
    field.  The default grid runs the family over `fields`, declared in (p, n,
    k) order, whose entries are (p, n), or (p, n, k) to keep only that k.  For
    each exponent, in (p, n, d) order, the grid holds, branch by branch, one
    unchecked `BranchRun` of the ascending c's the branch accepts, from one
    mask over the field's elements, if it accepts any; `sweep` gives the
    field's value set, if known, for the uniformities the last branch
    observes at each exponent.

    At (field, d, c) the row looks up the first family exponent e that is the
    same map as x^d (e = d mod q-1); it applies when one of its branches,
    which are disjoint, accepts c (a one-element array), and that branch
    gives the prediction.
    """
    id: str
    statement: str
    fields: tuple[tuple, ...]
    family: Callable[[Field], list[tuple[int, int | None]]]
    branches: tuple[Branch, ...]
    sweep: Callable[[Field], frozenset[int] | None] = lambda f: None

    def _mask(self, branch: Branch, field: Field, k: int | None,
              cs: np.ndarray) -> np.ndarray:
        """`branch.accepts` over `cs`; a ValueError naming the row and the
        branch unless that is a bool array of the shape of `cs`."""
        try:
            mask = branch.accepts(field, k, cs)
            if isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == cs.shape:
                return mask
            problem = f"got {np.asarray(mask).dtype} of shape {np.shape(mask)}"
        except ValueError as exc:       # as numpy refuses `c in (0, 1)` on an array
            problem = str(exc)
        raise ValueError(f"row {self.id!r}, branch {_at(branch.label, field, k)!r}: "
                         f"a c-filter maps an int64 array of encodings to a bool "
                         f"array of its shape ({problem})")

    def predict(self, field: Field, d: int, c: int) -> Prediction | None:
        """A ValueError names d or c unless d is an int >= 1 and c an element."""
        d, cs = check_exponent(d), np.array([field.check_element("c", c)], dtype=np.int64)
        for e, k in self.family(field):
            if (e - d) % (field.q - 1) == 0:
                return next((_at(b.predicted, field, k) for b in self.branches
                             if self._mask(b, field, k, cs)[0]), None)
        return None

    def default_instances(self, max_size: int) -> list[BranchRun]:
        out = []
        for p, n, *pinned_k in [e for e in self.fields if e[0]**e[1] <= max_size]:
            f = build_field(p, n)
            for d, k in self.family(f):
                if not pinned_k or k == pinned_k[0]:
                    for branch in self.branches:
                        cs = np.flatnonzero(self._mask(branch, f, k, f.elements()))
                        if len(cs):
                            out.append(BranchRun(p, n, d, k, _at(branch.label, f, k),
                                                 _at(branch.predicted, f, k), tuple(cs.tolist())))
        return out


def _at(value, field: Field, k: int | None):
    return value(field, k) if callable(value) else value


# ---------------------------------------------------------------------------
# Conditions, families and predictions shared by the rows
# ---------------------------------------------------------------------------

def _c_minus_one(predicted) -> Branch:
    return Branch("c = -1", lambda f, k, c: c == f.p - 1, predicted)


def _c_not_one(predicted) -> Branch:
    return Branch("c != 1", lambda f, k, c: c != 1, predicted)


# Each condition maps an int64 array of c's to a bool mask.  Encodings 0
# and 1 are the elements 0 and 1, so c > 1 is c not in {0, 1}; a condition
# that inverts c evaluates only where the division is defined.

def _inverse_bin_condition(field: Field, c: np.ndarray) -> np.ndarray:
    """c not in {0, 1} and Tr(c) = Tr(1/c) = 1."""
    out = c > 1
    x = c[out]
    out[out] = (field.trace(x) == 1) & (field.trace(field.inv(x)) == 1)
    return out


def _inverse_odd_condition(field: Field, c: np.ndarray) -> np.ndarray:
    """eta(c^2-4c) = 1 or eta(1-4c) = 1."""
    four_c = field.mul_v(field.from_int(4), c)
    return ((field.quadratic_character(field.sub_v(field.mul_v(c, c), four_c)) == 1)
            | (field.quadratic_character(field.sub_v(1, four_c)) == 1))


def _half_pn_plus1_refined(field: Field, c: np.ndarray) -> np.ndarray:
    """c not in {1, -1}, q = 1 mod 4 and eta((1-c)/(1+c)) = 1."""
    out = (c != 1) & (c != field.p - 1) & (field.q % 4 == 1)
    x = c[out]
    ratio = field.mul_v(field.sub_v(1, x), field.inv(field.add_v(1, x)))
    out[out] = field.quadratic_character(ratio) == 1
    return out


def _inverse(field: Field) -> list[tuple[int, None]]:
    return [(field.q - 2, None)] if field.q > 2 else []


def _binary_inverse(field: Field) -> list[tuple[int, None]]:
    return _inverse(field) if field.p == 2 and field.n >= 3 else []


def _odd_inverse(field: Field) -> list[tuple[int, None]]:
    return _inverse(field) if field.p > 2 and field.q > 3 else []


def _half_q_plus_1(field: Field) -> list[tuple[int, None]]:
    return [((field.q + 1) // 2, None)] if field.p > 2 else []


def _gold(field: Field) -> list[tuple[int, int]]:
    """x^(p^k+1) for k in [1, n-1]; distinct k give distinct maps."""
    return [(field.p**k + 1, k) for k in range(1, field.n)]


def _binary_gold(field: Field) -> list[tuple[int, int]]:
    """Binary Gold exponents whose m = n/gcd(n, k) is odd and >= 3, or even
    and >= 4."""
    def m_ok(k):
        m = field.n // math.gcd(field.n, k)
        return m >= 3 if m % 2 == 1 else m >= 4
    return [(d, k) for d, k in _gold(field) if m_ok(k)] if field.p == 2 else []


def _half_gold(field: Field) -> list[tuple[int, int]]:
    # k = n is excluded: there x^d = x^((q+1)/2), whose Dickson map takes only
    # the values +-2 on the nonsquare-discriminant locus, so the closed form
    # overshoots (GF(9), k=2: formula 5, enumeration 3).
    if field.p == 2 or field.n < 2:
        return []
    return [((field.p**k + 1) // 2, k) for k in range(1, 2 * field.n) if k != field.n]


def _half_gold_prediction(field: Field, k: int) -> Exact:
    if (2 * field.n // math.gcd(2 * field.n, k)) % 2 == 1:
        return Exact(1)
    return Exact((field.p ** math.gcd(k, field.n) + 1) // 2)


def _bt_shapes(field: Field) -> list[tuple[int, int | None]]:
    """x^((p^2+1)/2) for odd n, then x^(p^2-p+1) for n = 3 (odd p)."""
    if field.p == 2:
        return []
    p = field.p
    half_square = [((p**2 + 1) // 2, 2)] if field.n % 2 == 1 else []
    norm_like = [(p**2 - p + 1, None)] if field.n == 3 else []
    return half_square + norm_like


def _pn3_minus_one_prediction(field: Field, k) -> Exact:
    # at n = 2 the map coincides with x^((3^2+3)/2), which is APcN at c = -1;
    # the generic value 4 starts at n = 3
    if field.n % 4 == 0:
        return Exact(6)
    return Exact(2) if field.n == 2 else Exact(4)


def _pn3_classical_prediction(field: Field, k) -> Exact:
    if field.n % 2 == 1:
        return Exact(2)
    return Exact(4 if field.n % 4 == 2 else 5)


_PN3_VALUE_SETS = {2: frozenset({2}), 3: frozenset({3, 4}), 4: frozenset({2, 4, 5}),
                   5: frozenset({4}), 6: frozenset({4, 5})}

_ODD_FIELDS = ((3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 1), (5, 2), (5, 3),
               (7, 1), (7, 2), (11, 1), (13, 1))
_ALL_FIELDS = tuple((2, n) for n in range(3, 11)) + _ODD_FIELDS
_BINARY_FIELDS = tuple((2, n) for n in range(3, 9))
_INVERSE_ODD_FIELDS = ((3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3))
_HALF_GOLD_FIELDS = tuple((p, n) for p in (3, 5, 7) for n in (2, 3, 4))
_UPPER_BOUND_FIELDS = tuple((p, n) for p in (5, 7, 11, 13) for n in (1, 2, 3, 4)
                            if p**n <= 2500)
_GOLD_BINARY_GRID = tuple((2, n, k) for n in range(3, 11) for k in range(1, n)
                          if math.gcd(n, k) == 1 or (n, k) in ((6, 2), (8, 2), (9, 3)))


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

_ROWS = (
    Row("square", "x^2 has uniformity 2 at every c != 1 (odd p)",
        _ODD_FIELDS, lambda f: [(2, None)] if f.p > 2 else [],
        (_c_not_one(Exact(2)),)),
    Row("inverse-c0", "x^(q-2) has uniformity 1 at c = 0",
        _ALL_FIELDS, _inverse,
        (Branch("c = 0", lambda f, k, c: c == 0, Exact(1)),)),
    Row("inverse-bin-2",
        "binary x^(q-2) has uniformity 2 when Tr(c) = Tr(1/c) = 1 (c != 0, 1)",
        _BINARY_FIELDS, _binary_inverse,
        (Branch("Tr(c) = Tr(1/c) = 1",
                lambda f, k, c: _inverse_bin_condition(f, c),
                Exact(2)),)),
    Row("inverse-bin-3",
        "binary x^(q-2) has uniformity 3 when Tr(c) = 0 or Tr(1/c) = 0 (c != 0, 1)",
        _BINARY_FIELDS, _binary_inverse,
        (Branch("Tr(c) = 0 or Tr(1/c) = 0",
                lambda f, k, c: (c > 1) & ~_inverse_bin_condition(f, c),
                Exact(3)),)),
    Row("inverse-odd-2",
        "odd-p x^(q-2) has uniformity 2 when eta(c^2-4c) != 1 and eta(1-4c) != 1 "
        "(c != 0, 1)",
        _INVERSE_ODD_FIELDS, _odd_inverse,
        (Branch("eta(c^2-4c) != 1 and eta(1-4c) != 1",
                lambda f, k, c: (c > 1) & ~_inverse_odd_condition(f, c),
                Exact(2)),)),
    Row("inverse-odd-3",
        "odd-p x^(q-2) has uniformity 3 when eta(c^2-4c) = 1 or eta(1-4c) = 1 "
        "(c != 0, 1)",
        _INVERSE_ODD_FIELDS, _odd_inverse,
        (Branch("eta(c^2-4c) = 1 or eta(1-4c) = 1",
                lambda f, k, c: (c > 1) & _inverse_odd_condition(f, c),
                Exact(3)),)),
    Row("gold-subfield",
        "x^(p^k+1) has uniformity gcd(d, q-1) for subfield c != 1",
        ((2, 4, 2), (2, 6, 3), (3, 2, 1), (3, 4, 2), (5, 2, 1), (7, 2, 1)), _gold,
        (Branch(lambda f, k: f"c in GF({f.p}^{math.gcd(k, f.n)}), c != 1",
                lambda f, k, c: (c != 1) & f.in_subfield(c, math.gcd(k, f.n)),
                lambda f, k: Exact(math.gcd(f.p**k + 1, f.q - 1))),)),
    Row("gold-binary-outside",
        "binary x^(2^k+1) has uniformity 2^gcd(n,k)+1 outside the gcd subfield",
        _GOLD_BINARY_GRID, _binary_gold,
        (Branch(lambda f, k: f"c outside GF(2^{math.gcd(f.n, k)})",
                lambda f, k, c: ~f.in_subfield(c, math.gcd(f.n, k)),
                lambda f, k: Exact(2 ** math.gcd(f.n, k) + 1)),)),
    Row("half-gold-pcn",
        "x^((p^k+1)/2) at c = -1: PcN iff 2n/gcd(2n,k) is odd, "
        "else uniformity (p^gcd(k,n)+1)/2",
        _HALF_GOLD_FIELDS, _half_gold, (_c_minus_one(_half_gold_prediction),)),
    Row("half-pn-plus1", "x^((q+1)/2) has uniformity <= 4 when c != +-1",
        _UPPER_BOUND_FIELDS, _half_q_plus_1,
        (Branch("c != +-1", lambda f, k, c: (c != 1) & (c != f.p - 1), UpperBound(4)),)),
    Row("half-pn-plus1-refined",
        "x^((q+1)/2) has uniformity <= 2 when c != +-1, q = 1 mod 4, "
        "eta((1-c)/(1+c)) = 1",
        _UPPER_BOUND_FIELDS, _half_q_plus_1,
        (Branch("c != +-1, q = 1 mod 4, eta((1-c)/(1+c)) = 1",
                lambda f, k, c: _half_pn_plus1_refined(f, c),
                UpperBound(2)),)),
    Row("three-n-plus-3", "x^((3^n+3)/2) is APcN at c = -1 for even n",
        ((3, 2), (3, 4), (3, 6)),
        lambda f: [((f.q + 3) // 2, None)] if f.p == 3 and f.n % 2 == 0 else [],
        (_c_minus_one(Exact(2)),)),
    Row("pn-plus-3",
        "x^((q+3)/2) at c = -1 has uniformity <= 3 (q = 3 mod 4) or <= 4 "
        "(q = 1 mod 4), p > 3",
        _UPPER_BOUND_FIELDS, lambda f: [((f.q + 3) // 2, None)] if f.p > 3 else [],
        (_c_minus_one(lambda f, k: UpperBound(3 if f.q % 4 == 3 else 4)),)),
    Row("pn-minus-3",
        "x^(3^n-3): at c = -1 uniformity 6 (n = 0 mod 4), 2 (n = 2) or 4; "
        "2 at c = 0; <= 5 otherwise, with known value sets for n = 2..6",
        tuple((3, n) for n in range(2, 7)),
        lambda f: [(f.q - 3, None)] if f.p == 3 and f.n >= 2 else [],
        (_c_minus_one(_pn3_minus_one_prediction),
         Branch("c = 0", lambda f, k, c: c == 0, Exact(2)),
         Branch("c not in {0,1,-1}", lambda f, k, c: (c > 1) & (c != f.p - 1),
                UpperBound(5))),
        sweep=lambda f: _PN3_VALUE_SETS.get(f.n)),
    Row("pn-minus-3-classical",
        "x^(3^n-3) at c = 1: uniformity 2 (odd n > 1), 4 (n = 2 mod 4, n > 2), "
        "5 (n = 0 mod 4)",
        tuple((3, n) for n in range(3, 7)),
        lambda f: [(f.q - 3, None)] if f.p == 3 and f.n >= 3 else [],
        (Branch("c = 1", lambda f, k, c: c == 1, _pn3_classical_prediction),)),
    Row("half-pn-minus-3", "x^((q-3)/2) at c = -1 has uniformity <= 4",
        _UPPER_BOUND_FIELDS,
        lambda f: [((f.q - 3) // 2, None)] if f.p > 2 and f.q >= 5 else [],
        (_c_minus_one(UpperBound(4)),)),
    Row("two-thirds", "x^((2q-1)/3) has uniformity <= 3 for c != 1 (q = 2 mod 3)",
        ((5, 1), (5, 3), (11, 1), (11, 3)),
        lambda f: [((2 * f.q - 1) // 3, None)] if f.q % 3 == 2 else [],
        (_c_not_one(UpperBound(3)),)),
    Row("bt-rows",
        "x^((p^2+1)/2) (n odd) and x^(p^2-p+1) (n = 3) are PcN at c = -1",
        # GF(7^3) runs only the n = 3 exponent, whose k is None
        ((3, 3), (3, 5), (5, 3), (7, 1), (7, 3, None)), _bt_shapes,
        (_c_minus_one(Exact(1)),)),
)


def registry() -> list[Row]:
    return list(_ROWS)


def case_by_id(case_id: str) -> Row:
    for case in _ROWS:
        if case.id == case_id:
            return case
    raise KeyError(f"unknown case id {case_id!r}")


def applicable_cases(field: Field, d: int, c: int) -> list[Row]:
    """All registry rows that make a prediction at (field, d, c)."""
    return [case for case in _ROWS if case.predict(field, d, c) is not None]


# ---------------------------------------------------------------------------
# Verification engine
# ---------------------------------------------------------------------------

def verify_case(case: Row, max_size: int = DEFAULT_SIZE_CAP) -> VerificationReport:
    """Check every grid run of a case up to `max_size`; reports (never raises)
    on prediction failure, as the grid's runs with their columns filled, in
    grid order.  The runs with one (field, d) are one `ddt.sweep` over their
    c's, and each run takes its share of the uniformities in turn.  The sweep
    counts only the orbits of c that no earlier sweep in the process has
    counted for d's exponent class, so rows that share a field and an exponent
    class count each orbit once.  Where the row knows the field's value set, a
    value-set run of what the exponent's last branch observed follows its
    runs.  To check a row on other fields, give it other fields
    (`dataclasses.replace(row, fields=...)`)."""
    runs = []
    for (p, n, d), group in groupby(case.default_instances(max_size),
                                    attrgetter("p", "n", "d")):
        group, f = list(group), build_field(p, n)
        cs = [c for run in group for c in run.c_values]
        swept = np.array([r.uniformity for r in sweep(f, PowerMap(d), cs)])
        for run in group:
            observed, swept = swept[:len(run.c_values)], swept[len(run.c_values):]
            runs.append(run._replace(observed=tuple(observed.tolist()),
                                     ok=tuple(run.predicted.check(observed).tolist())))
        if (values := case.sweep(f)) is not None:
            label = _at(case.branches[-1].label, f, group[0].k)
            seen = tuple(sorted({u for run in runs[-len(group):] if run.c_label == label
                                 for u in run.observed}))
            runs.append(BranchRun(p, n, d, group[0].k, f"sweep {label}", ValueSet(values),
                                  (None,), (seen,), (ValueSet(values).check(seen),)))
    return VerificationReport(case.id, tuple(runs))


def verify_all(case_ids: list[str] | None = None,
               max_size: int = DEFAULT_SIZE_CAP) -> Iterator[VerificationReport]:
    """Verify the named cases, or the whole registry, yielding each row's
    report as soon as it is checked."""
    cases = [case_by_id(cid) for cid in case_ids] if case_ids is not None else registry()
    for case in cases:
        yield verify_case(case, max_size=max_size)


# ---------------------------------------------------------------------------
# Table artifact
# ---------------------------------------------------------------------------

TABLE_COLUMNS = ("case", "p", "n", "d", "condition", "predicted", "observed", "verdict")


def _summarize(report: VerificationReport) -> list[dict]:
    """One row per branch run of a case, in the runs' order."""
    rows = []
    for run in report.runs:
        observed = run.observed[0] if isinstance(run.predicted, ValueSet) else run.observed
        rows.append({"case": report.case_id, "p": run.p, "n": run.n, "d": run.d,
                     "condition": run.c_label, "predicted": run.predicted.render(),
                     "observed": "{" + ",".join(map(str, sorted(set(observed)))) + "}",
                     "verdict": "pass" if all(run.ok) else "FAIL"})
    return rows


def reproduce_table(max_size: int = DEFAULT_SIZE_CAP) -> tuple[str, list[dict]]:
    """Run every registry row over its default grid and render the verdict
    table (markdown text plus raw rows for CSV)."""
    rows = []
    for report in verify_all(max_size=max_size):
        rows.extend(_summarize(report))
    lines = ["| " + " | ".join(TABLE_COLUMNS) + " |",
             "|" + "|".join(["---"] * len(TABLE_COLUMNS)) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(row[h]) for h in TABLE_COLUMNS) + " |")
    return "\n".join(lines) + "\n", rows
