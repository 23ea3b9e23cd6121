import dataclasses
import hashlib
import json
from collections import Counter
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cdiff.field import build_field, is_prime, DEFAULT_SIZE_CAP
from cdiff import ddt
from cdiff.cli import main as cli_main
from cdiff.ddt import power_uniformity
from cdiff.theorems import (Exact, UpperBound, ValueSet, BranchRun, Branch, Row,
                            registry, case_by_id, applicable_cases, verify_case,
                            verify_all, reproduce_table)

from conftest import REF_CONDITIONS, RefField, off_grid_entries

EXPECTED_IDS = {
    "square", "inverse-c0", "inverse-bin-2", "inverse-bin-3", "inverse-odd-2",
    "inverse-odd-3", "gold-subfield", "gold-binary-outside", "half-gold-pcn",
    "half-pn-plus1", "half-pn-plus1-refined", "three-n-plus-3", "pn-plus-3",
    "pn-minus-3", "pn-minus-3-classical", "half-pn-minus-3", "two-thirds",
    "bt-rows",
}


def test_registry_is_complete():
    ids = {case.id for case in registry()}
    assert ids == EXPECTED_IDS
    assert case_by_id("square").id == "square"
    with pytest.raises(KeyError):
        case_by_id("nope")


def test_predictions_check_and_render():
    assert Exact(3).check(3) and not Exact(3).check(2)
    assert UpperBound(4).check(4) and not UpperBound(4).check(5)
    vs = ValueSet(frozenset({2, 4}))
    assert vs.check((2, 4)) and not vs.check((2,)) and not vs.check((2, 4, 5))
    assert Exact(3).render() == "= 3"
    assert UpperBound(4).render() == "<= 4"
    assert vs.render() == "= {2,4}"


# ---------------------------------------------------------------------------
# applicability
# ---------------------------------------------------------------------------

def test_applicable_cases_gf9_d6_c_minus_one():
    f = build_field(3, 2)
    ids = {case.id for case in applicable_cases(f, 6, f.neg(1))}
    # d = 6 is (3^2+3)/2, matches (3^k+1)/2 at k = 3 mod 8, and is 3^2 - 3
    assert "three-n-plus-3" in ids
    assert "half-gold-pcn" in ids
    assert "pn-minus-3" in ids
    # every applicable exact prediction agrees with brute force (value 2)
    for case in applicable_cases(f, 6, f.neg(1)):
        pred = case.predict(f, 6, f.neg(1))
        assert pred.check(power_uniformity(f, 6, f.neg(1)).uniformity)


def test_applicable_cases_gold_binary_small_m_excluded():
    f = build_field(2, 4)
    c_outside = f.generator            # not in GF(4)
    ids = {case.id for case in applicable_cases(f, 5, c_outside)}
    assert "gold-binary-outside" not in ids      # k=2, m=2 < 4
    c_in_gf4 = f.g_pow(5)
    ids = {case.id for case in applicable_cases(f, 5, c_in_gf4)}
    assert "gold-subfield" in ids


def test_applicable_cases_exclusions():
    f = build_field(7, 2)
    minus_one = f.neg(1)
    ids = {case.id for case in applicable_cases(f, 26, minus_one)}
    assert "half-pn-plus1" not in ids            # c = -1 is excluded there
    assert "pn-minus-3" not in ids               # p != 3
    # d = 26 != (q+1)/2 = 25 as a map, so the bound rows stay silent;
    # the half-gold shape d = (7^k+1)/2 mod 48: k=2 gives 25, k=3 gives 172=28:
    # no k matches 26, so nothing should claim it besides nothing
    assert not any(i.startswith("half-pn") for i in ids)


@pytest.mark.parametrize("d,c,match", [
    (-1, 0, "d = -1"), (0, 0, "d = 0"), (2.0, 0, "d = 2.0"),
    (2, 9, "c = 9 is not an element of GF"), (2, -1, "c = -1 is not an element of GF"),
    (2, 1.0, "c = 1.0 is not an element of GF"),
])
def test_predict_names_a_bad_exponent_or_c(d, c, match):
    # d = -1 is not read as x^(q-2), nor c = -1 as the field's -1 (encoding 2)
    f = build_field(3, 2)
    with pytest.raises(ValueError, match=match):
        applicable_cases(f, d, c)
    with pytest.raises(ValueError, match=match):
        case_by_id("square").predict(f, d, c)


def test_gold_binary_m3_applicable():
    f = build_field(2, 6)
    c_outside = f.generator
    ids = {case.id for case in applicable_cases(f, 5, c_outside)}
    assert "gold-binary-outside" in ids          # k=2, d'=2, m=3 (odd, >= 3)
    case = case_by_id("gold-binary-outside")
    assert case.predict(f, 5, c_outside) == Exact(5)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_half_gold_instance():
    # (p=3, n=4, k=2, c=-1): 2n/gcd(2n,k) = 4 even, prediction (3^2+1)/2 = 5
    case = dataclasses.replace(case_by_id("half-gold-pcn"), fields=((3, 4, 2),))
    report = verify_case(case)
    assert report.passed and report.runs == (
        BranchRun(3, 4, (3**2 + 1) // 2, 2, "c = -1", Exact(5), (2,), (5,), (True,)),)


def test_verify_two_thirds_default_grid():
    report = verify_case(case_by_id("two-thirds"), max_size=200)
    assert report.passed
    assert report.max_attained is not None and report.max_attained <= 3
    ps = {(run.p, run.n) for run in report.runs}
    assert (5, 1) in ps


def test_verify_inverse_c0_example():
    case = dataclasses.replace(case_by_id("inverse-c0"), fields=((7, 2),))
    report = verify_case(case)
    assert report.passed and report.runs == (
        BranchRun(7, 2, 47, None, "c = 0", Exact(1), (0,), (1,), (True,)),)


def test_verify_gold_binary_example():
    case = dataclasses.replace(case_by_id("gold-binary-outside"), fields=((2, 6, 2),))
    f = build_field(2, 6)
    cs = tuple(c for c in range(f.q) if not f.in_subfield(c, 2))
    report = verify_case(case)
    assert report.passed and len(cs) == 64 - 4
    assert report.runs == (BranchRun(2, 6, 5, 2, "c outside GF(2^2)", Exact(5),
                                     cs, (5,) * len(cs), (True,) * len(cs)),)


def test_verify_value_set_instance():
    # over GF(81) the last run is the value set of the last branch's run,
    # the 78 c not in {0, 1, -1}; the c = -1 run observes 6, not in the set
    case = dataclasses.replace(case_by_id("pn-minus-3"), fields=((3, 4),))
    others = tuple(c for c in range(81) if c not in (0, 1, 2))
    report = verify_case(case)
    assert report.passed and report.runs[-1] == BranchRun(
        3, 4, 78, None, "sweep c not in {0,1,-1}", ValueSet(frozenset({2, 4, 5})),
        (None,), ((2, 4, 5),), (True,))
    assert report.runs[-2].c_values == others
    assert report.runs[0].observed == (6,)
    assert [entry.c_label for entry in case.default_instances(DEFAULT_SIZE_CAP)] == [
        "c = -1", "c = 0", "c not in {0,1,-1}"]


def test_verify_asks_for_each_grid_c_once(monkeypatch):
    # every row over its whole grid asks `power_uniformity` for each c of its
    # grid entries once, and nothing else; the value-set run reads the
    # uniformities its branch run observed, so x^78 over GF(3^4) asks for
    # its 80 grid c's, not 158
    asked, count = [], ddt.power_uniformity

    def spy(field, d, c, **kwargs):
        asked.append((field.p, field.n, d, c))
        return count(field, d, c, **kwargs)
    monkeypatch.setattr(ddt, "power_uniformity", spy)
    for case in registry():
        grid = case.default_instances(DEFAULT_SIZE_CAP)
        for entry in grid:
            assert entry.c is None and entry.observed == entry.ok == ()
            assert all(type(c) is int for c in entry.c_values), (case.id, entry[:5])
            assert list(entry.c_values) == sorted(set(entry.c_values)), (case.id, entry[:5])
        asked.clear()
        assert verify_case(case).passed, case.id
        assert Counter(asked) == Counter((e.p, e.n, e.d, c) for e in grid
                                         for c in e.c_values), case.id
    case = dataclasses.replace(case_by_id("pn-minus-3"), fields=((3, 4),))
    asked.clear()
    assert verify_case(case).passed
    assert sorted(c for *_, c in asked) == [0] + list(range(2, 81))


def test_grid_runs_are_the_verified_runs_with_empty_columns():
    # one record carries an (exponent, branch) from the grid to the verdict:
    # verifying fills the columns of each grid run, in grid order, and
    # changes nothing else
    for case in registry():
        runs = [run for run in verify_case(case).runs
                if not isinstance(run.predicted, ValueSet)]
        assert case.default_instances(DEFAULT_SIZE_CAP) == [
            run._replace(observed=(), ok=()) for run in runs], case.id
        assert all(run.observed and run.ok for run in runs), case.id


def test_value_set_row_on_a_field_without_a_known_set():
    # pn-minus-3 knows its c-sweep value sets for n = 2..6 only
    row = dataclasses.replace(case_by_id("pn-minus-3"), fields=((3, 7),))
    grid = row.default_instances(DEFAULT_SIZE_CAP)
    assert [entry.c_label for entry in grid] == ["c = -1", "c = 0", "c not in {0,1,-1}"]
    assert sum(len(entry.c_values) for entry in grid) == 2 + 3**7 - 3


def test_verify_records_failures_without_raising():
    fake = Row("fake", "always wrong", ((3, 2),), lambda f: [(2, None)],
               (Branch("c = 0", lambda f, k, c: c == 0, Exact(99)),))
    report = verify_case(fake)
    assert not report.passed
    assert report.counterexamples == [(report.runs[0], 0, 2)]
    assert report.runs[0][:6] == fake.default_instances(DEFAULT_SIZE_CAP)[0][:6]


def test_records_are_immutable_and_hash_by_value():
    square = dataclasses.replace(case_by_id("square"), fields=((3, 2),))
    report, again = verify_case(square), verify_case(square)
    assert report == again and hash(report) == hash(again)
    run = report.runs[0]
    cs = (0, 2, 3, 4, 5, 6, 7, 8)
    assert run == BranchRun(3, 2, 2, None, "c != 1", Exact(2), cs, (2,) * 8, (True,) * 8)
    assert run != run._replace(c_values=cs[:-1] + (9,))
    entry, = square.default_instances(DEFAULT_SIZE_CAP)
    assert entry == run._replace(observed=(), ok=())
    for record, attr in ((entry, "c_values"), (run, "ok"), (report, "runs")):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)


@pytest.mark.parametrize("accepts", [
    lambda f, k, c: c not in (0, 1),                # numpy: truth value is ambiguous
    lambda f, k, c: c,                              # an int array, not a bool mask
    lambda f, k, c: (c == 0)[:1],                   # the wrong shape
])
def test_a_c_filter_must_return_a_bool_mask(accepts):
    fake = Row("fake", "a malformed c-filter", ((3, 2),), lambda f: [(2, None)],
               (Branch("bad label", accepts, Exact(2)),))
    with pytest.raises(ValueError, match="row 'fake', branch 'bad label'"):
        fake.default_instances(DEFAULT_SIZE_CAP)


def test_predict_rejects_a_scalar_only_c_filter():
    # on a one-element array `c not in (0, 1)` gives a Python bool, not a mask
    fake = Row("fake", "a malformed c-filter", ((3, 2),), lambda f: [(2, None)],
               (Branch("bad label", lambda f, k, c: c not in (0, 1), Exact(2)),))
    with pytest.raises(ValueError, match="row 'fake', branch 'bad label'.*got bool"):
        fake.predict(build_field(3, 2), 2, 5)


def test_verify_case_threads_deterministic():
    case = case_by_id("square")
    a = verify_case(case, max_size=200)
    b = verify_case(case, max_size=200)
    assert a == b


def test_verify_all_filter_and_max_size():
    reports = list(verify_all(case_ids=["square", "bt-rows"], max_size=150))
    assert [r.case_id for r in reports] == ["square", "bt-rows"]
    assert all(r.passed for r in reports)
    for r in reports:
        assert all(run.p ** run.n <= 150 for run in r.runs)
    assert list(verify_all(case_ids=[])) == []


def test_runs_are_the_branches_in_grid_order_then_the_sweep(capsys):
    report = verify_case(case_by_id("pn-minus-3"), max_size=9)
    assert [(run[:5], len(run.c_values)) for run in report.runs] == [
        ((3, 2, 6, None, "c = -1"), 1), ((3, 2, 6, None, "c = 0"), 1),
        ((3, 2, 6, None, "c not in {0,1,-1}"), 6),
        ((3, 2, 6, None, "sweep c not in {0,1,-1}"), 1)]
    key = attrgetter("p", "n", "d", "k", "c_label", "predicted")
    assert cli_main(["verify", "--max-size", "250"]) == 0
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    counts = {r["case"]: r["instances"] for r in printed if r["record"] == "case-verdict"}
    reports = list(verify_all(max_size=250))
    assert {report.case_id for report in reports if report.runs} == set(counts)
    for report in reports:
        runs = report.runs
        assert all(key(a) != key(b) for a, b in zip(runs, runs[1:])), report.case_id
        for run in runs:
            assert len(run.observed) == len(run.ok) == len(run.c_values) > 0
            if not isinstance(run.predicted, ValueSet):
                assert list(run.c_values) == sorted(set(run.c_values)), report.case_id
        assert sum(len(run.c_values) for run in runs) == counts.get(report.case_id, 0)


def test_verify_all_equals_one_verify_case_per_row():
    # verify_all counts each orbit once across rows that share a field and an
    # exponent class; each reference row counts its own from a cold cache
    shared = list(verify_all(max_size=250))
    expected = []
    for case in registry():
        ddt._CONTEXTS.clear()
        expected.append(verify_case(case, max_size=250))
    assert shared == expected


def _orbit_classes(runs) -> set:
    """(p, n, class of d, orbit of c) of every c the grid entries or branch
    runs ask for, with the class {d p^i mod q-1} and the orbit of c under
    c -> c^p and c -> 1/c."""
    keys = set()
    for run in runs:
        f, m = build_field(run.p, run.n), run.p ** run.n - 1
        d_class = min(run.d * run.p**i % m for i in range(run.n))
        for c in run.c_values:
            key = -1 if c == 0 else min(s * int(f.log[c]) * run.p**i % m
                                        for i in range(run.n) for s in (1, -1))
            keys.add((run.p, run.n, d_class, key))
    return keys


def test_verify_all_counts_each_orbit_once(counted_rows):
    keys = _orbit_classes(entry for case in registry()
                          for entry in case.default_instances(DEFAULT_SIZE_CAP))
    assert all(r.passed for r in verify_all())
    assert len(counted_rows) == len(keys) == 2328


def test_off_grid_rows_sharing_an_exponent_count_each_orbit_once(counted_rows):
    # GF(3^4) is on none of these grids; the half-pn-plus1 rows ask for
    # overlapping c's of x^41, the inverse-odd rows for disjoint unions of
    # orbits of x^79
    runs = []
    for case_id in ("inverse-odd-2", "inverse-odd-3",
                    "half-pn-plus1", "half-pn-plus1-refined"):
        report = verify_case(dataclasses.replace(case_by_id(case_id), fields=((3, 4),)))
        assert report.passed, case_id
        runs.extend(report.runs)
    assert len(counted_rows) == len(_orbit_classes(runs)) == 26


def test_reproduce_table_rows():
    markdown, rows = reproduce_table(max_size=130)
    assert markdown.startswith("| case | p | n | d | condition")
    assert all(row["verdict"] == "pass" for row in rows)
    cases_seen = {row["case"] for row in rows}
    assert "square" in cases_seen and "two-thirds" in cases_seen
    # summary line for the square row over GF(5): observed must be exactly {2}
    sq5 = [row for row in rows if row["case"] == "square" and row["p"] == 5
           and row["n"] == 1]
    assert sq5 and sq5[0]["observed"] == "{2}"


# ---------------------------------------------------------------------------
# pinned registry: grids and applicability, byte for byte
# ---------------------------------------------------------------------------

def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_default_grids_are_pinned():
    # one line per c of the runs' columns, in grid order, each value-set run
    # after the branch run it summarizes, with that run's c's
    lines = []
    for case in registry():
        runs = verify_case(case).runs
        for before, run in zip((None,) + runs, runs):
            summarized = None
            if isinstance(run.predicted, ValueSet):
                assert run.c_values == (None,)
                assert run.c_label == "sweep " + before.c_label
                summarized = list(before.c_values)
            for c in run.c_values:
                lines.append(json.dumps([case.id, run.p, run.n, run.d, run.k, c, run.c_label,
                                         run.predicted.render(), summarized]))
    assert len(lines) == 25327
    assert _sha256(lines) == \
        "da6a3680abfa814d80c4aece157e999ea2d690398af2c7606ab53281da5d39a4"


def test_applicable_cases_are_pinned():
    fields = sorted((build_field(p, n) for p in range(2, 82) if is_prime(p)
                     for n in range(1, 7) if 2 < p**n <= 81), key=lambda f: f.q)
    assert len(fields) == 31
    lines = []
    for f in fields:
        for d in range(1, f.q):
            for c in range(f.q):
                hits = [(case.id, case.predict(f, d, c).render())
                        for case in applicable_cases(f, d, c)]
                if hits:
                    lines.append(json.dumps([f.p, f.n, d, c, hits]))
    assert len(lines) == 3973
    assert _sha256(lines) == \
        "32b1f3da0fdef4d4d00a24c412a979d5006fc244e4f2902dd5f09c1e8efa28ae"


def test_default_grids_agree_with_the_predicate():
    for case in registry():
        groups = {}
        for entry in case.default_instances(DEFAULT_SIZE_CAP):
            group = groups.setdefault((entry.p, entry.n, entry.d), {})
            assert group.keys().isdisjoint(entry.c_values), case.id
            group.update(dict.fromkeys(entry.c_values, entry.predicted))
        for (p, n, d), predicted in groups.items():
            f = build_field(p, n)
            assert set(predicted) == {c for c in range(f.q)
                                      if case.predict(f, d, c) is not None}
            assert all(case.predict(f, d, c) == pred for c, pred in predicted.items())


# Every field with 4 < q <= 1000; a row's grid holds only some of them.
_SMALL_FIELDS = [(p, n) for p in range(2, 1001) if is_prime(p)
                 for n in range(1, 10) if 4 < p**n <= 1000]


@st.composite
def _off_grid_checks(draw):
    """A row and the entries of one field that check the row's exponents its
    grid leaves out there: the whole field, or the k's no grid entry pins."""
    row = draw(st.sampled_from(registry()))
    checks = [entries for p, n in _SMALL_FIELDS if (entries := off_grid_entries(row, p, n))]
    assume(checks)
    return row, draw(st.sampled_from(checks))


@settings(derandomize=True, deadline=None, max_examples=250)
@given(_off_grid_checks())
def test_claims_hold_off_their_grids(check):
    # the claims are stated for every field; a failure here is a finding
    # about the claim or its declared condition, not a reason to narrow it
    row, entries = check
    assert verify_case(dataclasses.replace(row, fields=entries)).passed, (row.id, entries)


def test_off_grid_entries_leave_out_only_what_the_grid_pins():
    # an entry (p, n, k) pins one k: the scan and the property above check
    # every other k of the family over that field
    gold, bt = case_by_id("gold-subfield"), case_by_id("bt-rows")
    assert off_grid_entries(gold, 2, 4) == ((2, 4, 1), (2, 4, 3))
    assert off_grid_entries(case_by_id("gold-binary-outside"), 2, 10) == \
        ((2, 10, 2), (2, 10, 4), (2, 10, 6), (2, 10, 8))
    assert off_grid_entries(bt, 7, 3) == ((7, 3, 2),)
    assert off_grid_entries(case_by_id("square"), 3, 2) == ()
    assert off_grid_entries(gold, 5, 3) == ((5, 3),)


# ---------------------------------------------------------------------------
# branch masks against one-c-at-a-time references
# ---------------------------------------------------------------------------

# Every field with q <= 2500, on a row's grid or off it.
_MASK_FIELDS = [(p, n) for p in range(2, 2501) if is_prime(p)
                for n in range(1, 12) if p**n <= 2500]


def test_branch_masks_match_reference_conditions():
    rows = registry()
    assert sorted(REF_CONDITIONS) == sorted(row.id for row in rows)
    covered = set()
    for p, n in _MASK_FIELDS:
        f = build_field(p, n)
        F = RefField(f)
        for row in rows:
            refs = REF_CONDITIONS[row.id]
            assert len(refs) == len(row.branches), row.id
            for d, k in row.family(f):
                covered.add(row.id)
                accepted = np.zeros(f.q, dtype=int)
                for branch, ref in zip(row.branches, refs):
                    mask = branch.accepts(f, k, f.elements())
                    assert mask.dtype == bool and mask.shape == (f.q,)
                    want = [c for c in range(f.q) if ref(F, k, c)]
                    assert np.flatnonzero(mask).tolist() == want, (row.id, p, n, d)
                    accepted += mask
                # `predict` takes the first accepting branch and the grid lists
                # c under every one: the two agree only on disjoint branches
                assert accepted.max() <= 1, (row.id, p, n, d)
    assert covered == set(REF_CONDITIONS)
