import dataclasses
import hashlib
import json

import pytest

from cdiff.field import build_field, is_prime, DEFAULT_SIZE_CAP
from cdiff.ddt import power_uniformity
from cdiff.theorems import (Exact, UpperBound, ValueSet, Instance, Branch, Row,
                            registry, case_by_id, applicable_cases, verify_case,
                            verify_all, reproduce_table)

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
    case = case_by_id("half-gold-pcn")
    inst = Instance(3, 4, (3**2 + 1) // 2, 2, 2, "c = -1", Exact(5))
    report = verify_case(case, instances=[inst])
    assert report.passed
    assert report.results[0].observed == 5


def test_verify_two_thirds_default_grid():
    report = verify_case(case_by_id("two-thirds"), max_size=200)
    assert report.passed
    assert report.max_attained is not None and report.max_attained <= 3
    ps = {(r.instance.p, r.instance.n) for r in report.results}
    assert (5, 1) in ps


def test_verify_inverse_c0_example():
    case = case_by_id("inverse-c0")
    inst = Instance(7, 2, 47, None, 0, "c = 0", Exact(1))
    report = verify_case(case, instances=[inst])
    assert report.passed and report.results[0].observed == 1


def test_verify_gold_binary_example():
    case = case_by_id("gold-binary-outside")
    f = build_field(2, 6)
    insts = [Instance(2, 6, 5, 2, c, "c outside GF(2^2)", Exact(5))
             for c in range(f.q) if not f.in_subfield(c, 2)]
    report = verify_case(case, instances=insts)
    assert report.passed and len(report.results) == 64 - 4


def test_verify_value_set_instance():
    case = case_by_id("pn-minus-3")
    f = build_field(3, 4)
    others = tuple(c for c in range(81) if c not in (0, 1, 2))
    inst = Instance(3, 4, 78, None, None, "sweep", ValueSet(frozenset({2, 4, 5})),
                    c_values=others)
    report = verify_case(case, instances=[inst])
    assert report.passed
    assert report.results[0].observed == (2, 4, 5)


def test_value_set_row_on_a_field_without_a_known_set():
    # pn-minus-3 knows its c-sweep value sets for n = 2..6 only
    row = dataclasses.replace(case_by_id("pn-minus-3"), fields=((3, 7),))
    insts = row.default_instances(DEFAULT_SIZE_CAP)
    assert all(inst.c is not None for inst in insts)
    assert [inst.c_label for inst in insts[:2]] == ["c = -1", "c = 0"]
    assert len(insts) == 2 + 3**7 - 3


def test_verify_records_failures_without_raising():
    fake = Row("fake", "always wrong", ((3, 2),), lambda f: [(2, None)],
               (Branch("c = 0", lambda f, k, c: c == 0, Exact(99)),))
    report = verify_case(fake)
    assert not report.passed
    assert len(report.counterexamples) == 1
    assert report.counterexamples[0].observed == 2


def test_verify_case_threads_deterministic():
    case = case_by_id("square")
    a = verify_case(case, max_size=200)
    b = verify_case(case, max_size=200)
    assert a == b


def test_verify_all_filter_and_max_size():
    reports = verify_all(case_ids=["square", "bt-rows"], max_size=150)
    assert [r.case_id for r in reports] == ["square", "bt-rows"]
    assert all(r.passed for r in reports)
    for r in reports:
        assert all(res.instance.p ** res.instance.n <= 150 for res in r.results)


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
    lines = []
    for case in registry():
        insts = sorted(case.default_instances(DEFAULT_SIZE_CAP),
                       key=lambda i: (i.p, i.n, i.d))
        for i in insts:
            lines.append(json.dumps([
                case.id, i.p, i.n, i.d, i.k, i.c, i.c_label, i.predicted.render(),
                list(i.c_values) if i.c_values is not None else None]))
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
        for inst in case.default_instances(DEFAULT_SIZE_CAP):
            if inst.c is not None:
                groups.setdefault((inst.p, inst.n, inst.d), {})[inst.c] = inst.predicted
        for (p, n, d), predicted in groups.items():
            f = build_field(p, n)
            assert set(predicted) == {c for c in range(f.q) if case.applies(f, d, c)}
            assert all(case.predict(f, d, c) == pred for c, pred in predicted.items())
