"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import workloads

sys.path.insert(0, str(run.SRC))


def _run_bench(*args, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _corrupting(mutate):
    """run_rep, with the first command's stdout passed through `mutate`."""
    real = run.run_rep

    def fake(wl, trace):
        rep = real(wl, trace)
        rep["outputs"][0] = mutate(rep["outputs"][0])
        return rep
    return fake


def _flip_digit(out: bytes) -> bytes:
    """Change the first multiplicity in the spectrum by one."""
    rec = json.loads(out)
    rec["spectrum"][0][1] += 1
    return (json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n").encode()


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7])
def test_corrupted_stdout_counts_as_failed_op(monkeypatch, seed):
    # At the default seed the recorded reference catches it; at other seeds
    # the spectrum invariants do.
    monkeypatch.setattr(run, "run_rep", _corrupting(_flip_digit))
    wl = workloads.generate("kernels", seed)
    result = run.measure(wl, 0.01, False, run.Checker())
    assert result["attempted"] == len(wl.commands)
    assert result["failed"] == 1
    assert result["failures"][0]["command"] == " ".join(wl.commands[0])
    assert result["error_rate"] == pytest.approx(1 / len(wl.commands))


def test_sweep_checks_accept_real_output_and_catch_changes():
    import contextlib
    import io
    from cdiff import cli
    argv = ("sweep", "-p", "3", "-n", "3", "-d", "4", "--c-set", "not-pm-one")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    out = buf.getvalue().encode()
    oracle = checks.Oracle()
    assert checks.check_output(argv, out, {}, b"", oracle) == []
    lines = out.splitlines(keepends=True)
    dropped = b"".join(lines[:-1])
    assert checks.check_output(argv, dropped, {}, b"", oracle)
    rec = json.loads(lines[3])
    rec["classification"] = "changed"      # now differs from the report of c^p
    edited = b"".join([*lines[:3], json.dumps(rec).encode() + b"\n", *lines[4:]])
    assert any("c^p" in e for e in checks.check_output(argv, edited, {}, b"", oracle))


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, table in (("0", "end_to_end"), ("1", "per_layer")):
        got = _run_bench("--workload", "kernels", "--seed", "3", "--seconds", "0.01",
                         "--trace", trace)
        assert got.returncode == 0, got.stderr
        lines = got.stdout.splitlines()
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        names = {m["name"]: m["unit"] for m in spec[table]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == names
        for name, unit in names.items():
            assert any(line.split()[:1] == [name] and line.split()[2] == unit
                       for line in lines[:-1]), name


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    got = _run_bench("--workload", "kernels", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert got.returncode != 0
    assert "metrics" not in got.stdout


def test_workloads_are_deterministic_and_default_matches_reference():
    reference = json.loads((run.HERE / "reference.json").read_text())
    for name in workloads.NAMES:
        assert workloads.generate(name, 11) == workloads.generate(name, 11)
        for argv in workloads.generate(name, workloads.DEFAULT_SEED).commands:
            assert " ".join(argv) in reference
