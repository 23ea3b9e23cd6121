import hashlib
import json
import pathlib
import re
import subprocess
import sys

import pytest

from cdiff.cli import main, parse_element
from cdiff.ddt import power_uniformity
from cdiff.field import build_field
from cdiff import theorems

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines()]


def test_parse_element():
    f = build_field(3, 2)
    assert parse_element(f, "0") == 0
    assert parse_element(f, "-1") == 2
    assert parse_element(f, "g") == f.generator
    assert parse_element(f, "g^3") == f.g_pow(3)
    assert parse_element(f, "5") == 2        # 5 mod 3
    for bad in ("g^x", "x", "g^", "1.5"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            parse_element(f, bad)


def test_integer_elements_are_reduced_mod_p(capsys):
    assert parse_element(build_field(2, 3), "9") == 1
    _, by_nine, _ = run_cli(capsys, "uniformity", "-p", "2", "-n", "3", "-d", "3", "-c", "9")
    _, by_one, _ = run_cli(capsys, "uniformity", "-p", "2", "-n", "3", "-d", "3", "-c", "1")
    assert by_nine == by_one


def test_field_command(capsys):
    code, out, _ = run_cli(capsys, "field", "-p", "2", "-n", "3")
    assert code == 0
    rec = records(out)[0]
    assert rec["p"] == 2 and rec["n"] == 3
    assert rec["modulus"] == [1, 1, 0, 1]
    assert rec["schema"] == "cdiff/1"


def test_field_modulus_override(capsys):
    code, out, _ = run_cli(capsys, "field", "-p", "3", "-n", "2",
                           "--modulus", "2,2,1")
    assert code == 0
    assert records(out)[0]["modulus"] == [2, 2, 1]
    code, _, err = run_cli(capsys, "field", "-p", "3", "-n", "2",
                           "--modulus", "0,0,1")
    assert code == 2 and "reducible" in err
    code, out, err = run_cli(capsys, "field", "-p", "3", "-n", "2",
                             "--modulus", "1,x")
    assert code == 2 and out == ""
    assert "'1,x'" in err and "invalid literal" not in err


def test_field_over_cap_exits_2_without_computing_q(capsys):
    for n in ("10000", "30000000"):
        code, out, err = run_cli(capsys, "field", "-p", "3", "-n", n)
        assert code == 2 and out == ""
        assert f"3^{n} exceeds cap" in err and "digits" not in err


def test_uniformity_known_value(capsys):
    code, out, _ = run_cli(capsys, "uniformity", "-p", "3", "-n", "4",
                           "-d", "78", "-c", "-1")
    assert code == 0
    rec = records(out)[0]
    assert rec["uniformity"] == 6 and rec["classification"] == "6"
    assert rec["c"] == 2
    assert max(v for v, _ in rec["spectrum"]) == 6


def test_spectrum_matches_uniformity_value(capsys):
    _, fast_out, _ = run_cli(capsys, "uniformity", "-p", "3", "-n", "2",
                             "-d", "6", "-c", "-1")
    _, full_out, _ = run_cli(capsys, "spectrum", "-p", "3", "-n", "2",
                             "-d", "6", "-c", "-1")
    fast, full = records(fast_out)[0], records(full_out)[0]
    assert fast["uniformity"] == full["uniformity"] == 2
    assert fast["mode"] == "power-reduced" and full["mode"] == "full"


def test_eval_command(capsys):
    code, out, _ = run_cli(capsys, "eval", "-p", "3", "-n", "1", "-d", "2", "-x", "2")
    assert code == 0
    assert records(out)[0]["value"] == 1


def test_sweep_stream_and_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "-p", "3", "-n", "2", "-d", "4",
                           "--c-set", "not-one")
    assert code == 0
    recs = records(out)
    assert [r["c"] for r in recs] == [c for c in range(9) if c != 1]
    code, out, _ = run_cli(capsys, "sweep", "-p", "3", "-n", "2", "-d", "4",
                           "--c-set", "not-one", "--csv")
    lines = out.splitlines()
    assert lines[0] == "p,n,d,c,uniformity,classification,spectrum"
    assert len(lines) == 9


@pytest.mark.parametrize("argv", [
    ("sweep", "-p", "3", "-n", "4", "-d", "4", "--c-set", "not-pm-one"),
    ("sweep", "-p", "2", "-n", "1", "-d", "3"),
    ("uniformity", "-p", "2", "-n", "10", "-d", "7", "-c", "g"),
    ("spectrum", "-p", "5", "-n", "2", "-d", "2", "-c", "0")])
def test_uniformity_lines_are_sorted_key_json(capsys, argv):
    # the report emitter writes its keys in a fixed order; each line must be
    # what json.dumps(sort_keys=True) makes of it
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    for line in out.splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))


def test_sweep_thread_count_does_not_change_bytes(capsys):
    args = ["sweep", "-p", "3", "-n", "3", "-d", "24", "--c-set", "not-pm-one"]
    _, out1, _ = run_cli(capsys, *args, "--threads", "1")
    _, out4, _ = run_cli(capsys, *args, "--threads", "4")
    assert out1 == out4


def test_verify_case_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "two-thirds",
                           "--max-size", "200")
    assert code == 0
    recs = records(out)
    verdicts = [r for r in recs if r["record"] == "case-verdict"]
    assert verdicts == [{"schema": "cdiff/1", "record": "case-verdict",
                         "case": "two-thirds", "passed": True,
                         "instances": len(recs) - 1,
                         "max_attained": verdicts[0]["max_attained"]}]
    assert all(r["observed"] <= 3 for r in recs if r["record"] == "instance")


@pytest.mark.parametrize("argv,max_size,smallest", [
    (("verify",), "3", 5),
    (("verify", "--case", "two-thirds"), "4", 5),
    (("verify", "--case", "bt-rows"), "6", 7),
    (("table",), "-5", 5),
    (("table", "--csv"), "4", 5)])
def test_max_size_that_selects_nothing_exits_2(capsys, argv, max_size, smallest):
    code, out, err = run_cli(capsys, *argv, "--max-size", max_size)
    assert code == 2 and out == ""
    assert f"--max-size {max_size} selects no instance" in err
    assert f"q = {smallest}" in err


def test_verify_reports_only_rows_with_instances(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-size", "5")
    assert code == 0
    verdicts = [r for r in records(out) if r["record"] == "case-verdict"]
    with_instances = [row.id for row in theorems.registry() if row.default_instances(5)]
    assert 0 < len(with_instances) < len(theorems.registry())
    assert [r["case"] for r in verdicts] == with_instances
    assert all(r["instances"] > 0 for r in verdicts)


def test_verify_writes_each_row_before_checking_the_next(capsys, monkeypatch):
    # written[i] is the stdout between the checks of rows i - 1 and i, and the
    # last entry what followed the last check
    written, check = [], theorems.verify_case

    def spy(case, **kwargs):
        written.append(capsys.readouterr().out)
        return check(case, **kwargs)

    monkeypatch.setattr(theorems, "verify_case", spy)
    code = main(["verify", "--max-size", "250"])
    written.append(capsys.readouterr().out)
    assert code == 0
    rows = theorems.registry()
    assert len(written) == len(rows) + 1 and written[0] == ""
    for row, out in zip(rows, written[1:]):
        recs = records(out)
        if not row.default_instances(250):
            assert recs == []
            continue
        assert {r["case"] for r in recs} == {row.id}
        assert [r["record"] for r in recs] == ["instance"] * (len(recs) - 1) + ["case-verdict"]


def test_verify_unknown_case_is_usage_error(capsys):
    for case_id in ("nope", ""):
        code, out, err = run_cli(capsys, "verify", "--case", case_id)
        assert code == 2 and out == ""
        assert err == f"cdiff: error: unknown case id {case_id!r}\n"


def _install_failing_row(monkeypatch):
    """Make the registry one row whose claim fails; its id and label need
    escaping in JSON."""
    fake = theorems.Row(
        'fake "row" \u00e9', "always wrong", ((3, 2),), lambda f: [(2, None)],
        (theorems.Branch("c = 0 \u2260 \\", lambda f, k, c: c == 0, theorems.Exact(99)),))
    monkeypatch.setattr(theorems, "_ROWS", (fake,))


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    _install_failing_row(monkeypatch)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    recs = records(out)
    assert recs[-1]["passed"] is False


def test_verify_output_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "b6430508e4c4c7c5dfd9a27981b15b219c8ebbf480b15bc214364ffa699469e0"


def test_instance_lines_are_sorted_key_json(capsys, monkeypatch):
    # the instance emitter writes its keys in a fixed order; each line must be
    # what json.dumps(sort_keys=True) makes of it
    code, out, _ = run_cli(capsys, "verify", "--case", "pn-minus-3", "--max-size", "81")
    assert code == 0
    _install_failing_row(monkeypatch)
    code, failing, _ = run_cli(capsys, "verify")
    assert code == 1
    lines = out.splitlines() + failing.splitlines()
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
    instances = [r for r in records("\n".join(lines)) if r["record"] == "instance"]
    assert any(r["ok"] is False and r["case"] == 'fake "row" \u00e9' for r in instances)
    assert any(r["c"] is None and isinstance(r["observed"], list) for r in instances)
    assert any(r["k"] is None for r in instances)


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "-p", "3"])          # missing required flags
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "uniformity", "-p", "9", "-n", "1",
                           "-d", "2", "-c", "0")
    assert code == 2 and "prime" in err
    code, out, err = run_cli(capsys, "uniformity", "-p", "2", "-n", "3",
                             "-d", "3", "-c", "g^x")
    assert code == 2 and out == "" and "'g^x'" in err
    code, out, err = run_cli(capsys, "field", "-p", "3", "-n", "2", "--modulus", "")
    assert code == 2 and out == ""
    assert "modulus '' is not a comma-separated list of ints" in err


def test_uniformity_rejects_exponent_zero(capsys):
    code, out, err = run_cli(capsys, "uniformity", "-p", "2", "-n", "3",
                             "-d", "0", "-c", "0")
    assert code == 2 and out == ""
    assert "power-map exponent must be >= 1" in err


@pytest.mark.parametrize("argv,message", [
    (("eval", "-p", "3", "-n", "2", "-d", "-1", "-x", "g"),
     "exponent must be >= 0, got d = -1"),
    (("dickson", "-p", "3", "-n", "2", "-m", "-1"),
     "Dickson degree must be >= 0, got m = -1"),
    (("field", "-p", "2", "-n", "0"), "extension degree must be >= 1, got n = 0"),
    (("gold-dist", "-n", "0", "-k", "1"), "extension degree must be >= 1, got n = 0"),
    (("field", "-p", "5", "-n", "1", "--modulus", "1,1"),
     "degree-1 modulus must be x (0,1), got modulus = 1,1"),
    (("field", "-p", "3", "-n", "2", "--modulus", "1,0,0,1"),
     "modulus must be monic of degree n = 2 (3 coefficients c0..c2), got modulus = 1,0,0,1"),
    (("field", "-p", "3", "-n", "2", "--modulus", "0,0,1"),
     "modulus override is reducible over GF(3), got modulus = 0,0,1"),
    (("dickson", "-p", "2", "-n", "3", "-m", "3", "--preimage", "g"),
     "preimage branch formula requires odd characteristic, got p = 2"),
    (("partition", "-p", "2", "-n", "3"),
     "sign partition requires odd characteristic, got p = 2"),
])
def test_negative_exponent_or_degree_is_named(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"cdiff: error: {message}\n"


def test_sweep_bad_c_set_names_it(capsys):
    code, out, err = run_cli(capsys, "sweep", "-p", "3", "-n", "2", "-d", "2",
                             "--c-set", "subfield:0")
    assert code == 2 and out == ""
    assert "'subfield:0'" in err and "modulo" not in err


def test_sweep_empty_c_set_names_it(capsys):
    code, out, err = run_cli(capsys, "sweep", "-p", "2", "-n", "3", "-d", "3",
                             "--c-set", "outside-subfield:3")
    assert code == 2 and out == ""
    assert err == ("cdiff: error: c-set 'outside-subfield:3' selects no element "
                   "of GF(2^3)\n")


def test_verify_names_a_scalar_only_c_filter(capsys, monkeypatch):
    # `c not in (0, 1)` asks numpy for the truth value of a whole array
    fake = theorems.Row(
        "scalar-row", "a c-filter written for one c", ((3, 2),), lambda f: [(2, None)],
        (theorems.Branch("c != 0, 1", lambda f, k, c: c not in (0, 1), theorems.Exact(2)),))
    monkeypatch.setattr(theorems, "_ROWS", (fake,))
    code, out, err = run_cli(capsys, "verify")
    assert code == 2 and out == ""
    assert "row 'scalar-row', branch 'c != 0, 1'" in err and "ambiguous" in err


def test_dickson_commands(capsys):
    code, out, _ = run_cli(capsys, "dickson", "-p", "3", "-n", "2", "-m", "2")
    assert code == 0
    rec = records(out)[0]
    f = build_field(3, 2)
    assert rec["values"] == [f.sub(f.mul(x, x), f.from_int(2)) for x in range(9)]
    code, out, _ = run_cli(capsys, "dickson", "-p", "3", "-n", "2", "-m", "6",
                           "--preimage", "g")
    rec = records(out)[0]
    assert rec["count"] == rec["predicted"]


def test_dickson_preimage_disagreement_exits_1(capsys, monkeypatch):
    from dataclasses import replace
    from cdiff import closedform

    args = ("dickson", "-p", "3", "-n", "2", "-m", "6", "--preimage", "g^2")
    code, out, _ = run_cli(capsys, *args)
    good = records(out)[0]
    assert code == 0 and good["branch"] == "square-disc"
    params = closedform.dickson_params
    monkeypatch.setattr(closedform, "dickson_params",
                        lambda f, d: replace(params(f, d), m_gcd=params(f, d).m_gcd + 1))
    code, out, _ = run_cli(capsys, *args)
    assert code == 1
    assert records(out) == [{**good, "predicted": good["predicted"] + 1}]


def test_dickson_preimage_rejects_degree_zero(capsys):
    code, out, err = run_cli(capsys, "dickson", "-p", "3", "-n", "2", "-m", "0",
                             "--preimage", "1")
    assert code == 2 and out == ""
    assert "m = 0" in err


def test_gold_dist_command(capsys):
    code, out, _ = run_cli(capsys, "gold-dist", "-n", "5", "-k", "1")
    assert code == 0
    rec = records(out)[0]
    assert rec["counts"] == [[0, 11], [1, 15], [3, 5]]
    assert rec["counts"] == rec["predicted"]


def test_gold_dist_disagreement_exits_1(capsys, monkeypatch):
    from dataclasses import replace
    from cdiff import cli, closedform

    # gcd(6, 2) = 2: only the top count is predicted, the other keys are not
    code, out, _ = run_cli(capsys, "gold-dist", "-n", "6", "-k", "2")
    good = records(out)[0]
    assert code == 0 and len(good["predicted"]) == 1 and len(good["counts"]) > 1
    top = closedform._gold_top_count
    monkeypatch.setattr(closedform, "_gold_top_count", lambda m, d: top(m, d) + 1)
    code, out, _ = run_cli(capsys, "gold-dist", "-n", "6", "-k", "2")
    assert code == 1
    (solutions, number), = good["predicted"]
    assert records(out) == [{**good, "predicted": [[solutions, number + 1]]}]

    # gcd(5, 1) = 1: three counts are predicted; one wrong count fails
    dist = closedform.gold_solution_distribution
    def one_wrong(n, k):
        right = dist(n, k)
        (m, number), *rest = right.predicted
        return replace(right, predicted=((m, number + 1), *rest))
    monkeypatch.setattr(cli, "gold_solution_distribution", one_wrong)
    code, out, _ = run_cli(capsys, "gold-dist", "-n", "5", "-k", "1")
    assert code == 1
    assert records(out)[0]["predicted"] == [[0, 12], [1, 15], [3, 5]]


def test_gold_dist_rejects_k_below_one(capsys):
    for k in ("-1", "0", "3", "6"):
        code, out, err = run_cli(capsys, "gold-dist", "-n", "3", "-k", k)
        assert code == 2 and out == ""
        assert f"k = {k}" in err


def test_partition_command(capsys):
    code, out, _ = run_cli(capsys, "partition", "-p", "5", "-n", "1")
    rec = records(out)[0]
    by_key = {(c["eta_x_plus_1"], c["eta_x"]): c["elements"] for c in rec["cells"]}
    assert by_key[(1, -1)] == [3]
    assert by_key[(-1, 1)] == [1]
    assert by_key[(-1, -1)] == [2]


def test_table_matches_golden_fixture(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-size", "250")
    assert code == 0
    golden = (FIXTURES / "table_small.md").read_text()
    assert out == golden


def test_table_after_verify_counts_no_orbit_and_matches_golden_fixture(capsys, counted_rows):
    # `verify` counts every orbit the registry asks for, so a `table` run
    # after it in the same process reads all its reports from the cache
    code, _, _ = run_cli(capsys, "verify")
    assert code == 0 and counted_rows
    counted_rows.clear()
    code, out, _ = run_cli(capsys, "table", "--max-size", "250")
    assert code == 0 and counted_rows == []
    assert out == (FIXTURES / "table_small.md").read_text()


def test_table_csv_headers(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-size", "50", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "case,p,n,d,condition,predicted,observed,verdict"


@pytest.mark.parametrize("argv,digest", [
    (("table", "--max-size", "250", "--csv"),
     "eadb880c8d6066ab957430038e539cba7252008a7a73e290c66a975e02c344d2"),
    (("sweep", "-p", "3", "-n", "3", "-d", "24", "--c-set", "not-pm-one", "--csv"),
     "d6fc384ea191beccbf9d38fd407b9b2e51b5485c52951866bae6e3575ab158e3"),
    (("table", "--csv"),
     "b5561240bfdbe35764929fee11c1f15f51e4cdbeb79bdba0bbce8eeed68748ce"),
    # the general route: x^4 is linear, so every count is 4096 and each slab
    # takes the bincount; at d = 21 only the slab of a = 0 (top count 21)
    # does; odd p at c = g and at c = 1
    (("spectrum", "-p", "2", "-n", "12", "-d", "4", "-c", "1", "--csv"),
     "882b58990d751e286371bcd5b66d69a2561be4372289083d6753e9aa4cd4f489"),
    (("spectrum", "-p", "2", "-n", "12", "-d", "21", "-c", "g", "--csv"),
     "d073e76c3af009b90716e9d3039831ea71fc80ce6ea390795bf3d9e722cc6cf5"),
    (("spectrum", "-p", "5", "-n", "5", "-d", "3", "-c", "g", "--csv"),
     "780af36dc7fe535da7d3939bb5dc517bf19e312a19d8c5d196a286300ebcf5df"),
    (("spectrum", "-p", "3", "-n", "7", "-d", "5", "-c", "1", "--csv"),
     "0030727bb1c3aeaf574c05f08c6a93df81693573c022783fb939fc08d89391d0"),
])
def test_csv_output_is_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    # 2,185 records from 157 orbit reports, and 25 from 5 over GF(27)
    (("sweep", "-p", "3", "-n", "7", "-d", "4", "--c-set", "not-pm-one"),
     "d7e1ee248316e474c1b0784a2b931b1f0d3ff45da905228054961021b5f124b4"),
    (("sweep", "-p", "3", "-n", "3", "-d", "24", "--c-set", "not-pm-one"),
     "abb1b5b1615c273dd70fa82690f4dcd36ea0a6c65f61060be25d22e78cc0e313"),
])
def test_sweep_json_output_is_pinned(capsys, argv, digest):
    # each distinct report's keys after "c" are rendered once and reused
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("p,n,d", [(3, 4, 4), (3, 5, 11), (2, 8, 7)])
def test_sweep_records_are_the_reports_of_their_own_c(capsys, p, n, d):
    # in each sweep some reports share a uniformity but not a spectrum, so a
    # record's text must come from its own c's report
    code, out, _ = run_cli(capsys, "sweep", "-p", str(p), "-n", str(n), "-d", str(d))
    f = build_field(p, n)
    want = [{"schema": "cdiff/1", "record": "uniformity", "p": p, "n": n, "d": d, "c": c,
             **power_uniformity(f, d, c)._asdict()} for c in range(f.q)]
    assert code == 0 and records(out) == json.loads(json.dumps(want))


def test_installed_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "cdiff", "field", "-p", "5", "-n", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p"] == 5


@pytest.mark.parametrize("argv", [
    ("verify",),
    ("sweep", "-p", "3", "-n", "7", "-d", "4", "--c-set", "all"),
])
def test_closed_stdout_exits_141_quietly(argv):
    # both write far more than a pipe holds, so the reader's close meets a write
    with subprocess.Popen([sys.executable, "-m", "cdiff", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait() == 141
