import json
import pathlib
import re
import subprocess
import sys

import pytest

from cdiff.cli import main, parse_element
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


def test_verify_unknown_case_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--case", "nope")
    assert code == 2 and "nope" in err


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    from cdiff import theorems

    fake = theorems.Row(
        "fake", "always wrong", ((3, 2),), lambda f: [(2, None)],
        (theorems.Branch("c = 0", lambda f, k, c: c == 0, theorems.Exact(99)),))
    monkeypatch.setattr(theorems, "_ROWS", (fake,))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    recs = records(out)
    assert recs[-1]["passed"] is False


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


def test_uniformity_rejects_exponent_zero(capsys):
    code, out, err = run_cli(capsys, "uniformity", "-p", "2", "-n", "3",
                             "-d", "0", "-c", "0")
    assert code == 2 and out == ""
    assert "power-map exponent must be >= 1" in err


def test_sweep_bad_c_set_names_it(capsys):
    code, out, err = run_cli(capsys, "sweep", "-p", "3", "-n", "2", "-d", "2",
                             "--c-set", "subfield:0")
    assert code == 2 and out == ""
    assert "'subfield:0'" in err and "modulo" not in err


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


def test_table_csv_headers(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-size", "50", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "case,p,n,d,condition,predicted,observed,verdict"


def test_installed_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "cdiff", "field", "-p", "5", "-n", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p"] == 5
