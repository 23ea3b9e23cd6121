"""The cdiff benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in `workloads.py`, or `all` to run each in turn.
Each repetition runs the workload's command lines one after another in a
fresh single-threaded Python process (`child.py`), and repetitions follow one
another until the next would end after S seconds (at least one runs).  Every
command's stdout is checked (`checks.py`); a failed check counts as a failed
op.

With `--trace 0` the end-to-end metrics of `BENCHMARK.json` are reported over
the run's repetitions: the times wall_s, cpu_s and solve_s as their minimum,
setup_s and peak_rss_mb as their median.  With `--trace 1` untraced and traced
repetitions alternate: the traced ones wrap the public functions of each cdiff
layer (`tracer.py`) and give the per-layer metrics, as medians, and the
difference of the two kinds' median wall time is `trace.overhead_s`.

The program prints every metric with its unit, then, as its last line, one
JSON object with the keys correct, attempted, failed and metrics.  It also
writes a results file with the machine, the seed, the command lines and every
repetition's numbers to `perfbench/out/`.  It exits 2, printing no result,
when the checkout holds no cdiff sources, and 1 when a workload process fails.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True     # keep the checkout free of __pycache__

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN_TABLE = ROOT / "tests" / "fixtures" / "table_small.md"
CHILD_TIMEOUT_S = 120

# One process at a time, pinned to one thread of everything that could start
# more: cdiff's own pools and the BLAS under numpy.
CHILD_ENV = {"CDIFF_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1",
             "PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cdiff").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def run_rep(wl: workloads.Workload, trace: bool) -> dict:
    """One repetition in a fresh process; returns its timings and outputs."""
    rep_dir = OUT / "rep"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps({"src": str(SRC), "out_dir": str(rep_dir),
                                     "trace": trace, "fields": wl.fields,
                                     "commands": wl.commands}))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-s", str(HERE / "child.py"), str(spec_path)],
                            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{wl.name}: workload process ran over {CHILD_TIMEOUT_S} s")
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        tail = err.decode(errors="replace")[-2000:]
        raise BenchError(f"{wl.name}: workload process exited {proc.returncode}\n{tail}")
    rep = json.loads((rep_dir / "result.json").read_text())
    rep["wall_s"] = wall
    rep["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    rep["outputs"] = [(rep_dir / f"op{i}.out").read_bytes()
                      for i in range(1, len(wl.commands) + 1)]
    rep["stdout_bytes"] = sum(len(out) for out in rep["outputs"])
    if trace:
        rep["spans"] = tracer.read_spans(rep_dir / "spans.jsonl")
    return rep


class Checker:
    """Checks each command's output, once per distinct (command, stdout)."""

    def __init__(self):
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.oracle = checks.Oracle()
        self.golden = None
        self.seen: dict[tuple, list[str]] = {}

    def op_errors(self, argv, op: dict, out: bytes) -> list[str]:
        if op["error"]:
            return [op["error"].strip().splitlines()[-1]]
        if op["exit"] != 0:
            return [f"exit code {op['exit']}"]
        key = (tuple(argv), hashlib.sha256(out).digest())
        if key not in self.seen:
            if self.golden is None and tuple(argv) == checks.GOLDEN_TABLE_ARGV:
                self.golden = GOLDEN_TABLE.read_bytes()
            self.seen[key] = checks.check_output(argv, out, self.reference,
                                                 self.golden, self.oracle)
        return self.seen[key]


def line_counts() -> dict[str, int]:
    counts = {f"{layer}.lines": len((SRC / "cdiff" / f"{layer}.py").read_text().splitlines())
              for layer in tracer.LAYERS}
    counts["src.lines"] = sum(len(p.read_text().splitlines())
                              for p in (SRC / "cdiff").glob("*.py"))
    return counts


def case_ids() -> list[str]:
    from cdiff import theorems
    return [case.id for case in theorems.registry()]


# End-to-end times reported as the fastest of a run's repetitions.
FASTEST = ("wall_s", "cpu_s", "solve_s")


def measure(wl: workloads.Workload, seconds: float, trace: bool, checker: Checker) -> dict:
    """Repetitions of one workload for `seconds`, with checks and statistics."""
    kinds = (False, True) if trace else (False,)
    reps = {kind: [] for kind in kinds}
    failures, self_check, attempted = [], [], 0
    cases = case_ids()
    start = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        for kind in kinds:
            rep = run_rep(wl, kind)
            reps[kind].append(rep)
            for argv, op, out in zip(wl.commands, rep["ops"], rep["outputs"]):
                attempted += 1
                errors = checker.op_errors(argv, op, out)
                if errors:
                    failures.append({"command": " ".join(argv), "errors": errors[:5]})
            if kind:
                self_check += tracer.self_check(rep["spans"], wl.commands,
                                                len(wl.fields), len(cases))
            rep.pop("outputs")
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if now - start + longest > seconds:
            break

    def med(kind, key):
        return statistics.median(r[key] for r in reps[kind])

    spread = {}
    if trace:
        per_rep = []
        for rep in reps[True]:
            m = dict.fromkeys((f"theorems.case.{cid}_s" for cid in cases), 0.0)
            m.update(tracer.layer_metrics(rep.pop("spans")))
            m["cli.import_s"] = rep["import_s"]
            m["cli.stdout_bytes"] = rep["stdout_bytes"]
            per_rep.append(m)
        metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        metrics.update(line_counts())
        metrics["trace.overhead_s"] = med(True, "wall_s") - med(False, "wall_s")
    else:
        keys = ("wall_s", "cpu_s", "setup_s", "solve_s", "peak_rss_mb")
        # Other tenants of the host only ever add time, in bursts that come
        # and go within a run: the fastest repetition follows the program's
        # own cost more steadily than the median.  Set-up and memory are
        # medians.
        metrics = {k: med(False, k) for k in keys}
        metrics.update({k: min(r[k] for r in reps[False]) for k in FASTEST})
        spread = {k: (min(r[k] for r in reps[False]), max(r[k] for r in reps[False]))
                  for k in keys}
    return {"workload": wl.name, "seed": wl.seed, "why": workloads.WHY[wl.name],
            "commands": [" ".join(argv) for argv in wl.commands],
            "trace": trace, "seconds": seconds,
            "samples": len(reps[True if trace else False]),
            "attempted": attempted, "failed": len(failures),
            "error_rate": len(failures) / attempted,
            "failures": failures, "self_check": sorted(set(self_check)),
            "metrics": metrics, "spread": spread, "reps": reps}


def reported(result: dict, spec: dict) -> dict:
    """The metrics BENCHMARK.json names for this mode, each with its unit."""
    table = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    names = {m["name"] for m in table}
    if set(result["metrics"]) != names:
        raise BenchError(f"metrics {sorted(set(result['metrics']) ^ names)} "
                         "differ from BENCHMARK.json")
    return {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in table}


def print_result(result: dict, shown: dict) -> None:
    kind = "traced" if result["trace"] else "untraced"
    stat = "median" if result["trace"] else "minimum (times) or median"
    print(f"== {result['workload']} seed {result['seed']}: {stat} of {result['samples']} "
          f"{kind} repetitions in {result['seconds']} s [min .. max]")
    for cmd in result["commands"]:
        print(f"   cdiff {cmd}")
    spread = result["spread"]
    for name, m in shown.items():
        lo_hi = f"  [{spread[name][0]:.6g} .. {spread[name][1]:.6g}]" if name in spread else ""
        print(f"   {name:44s} {m['value']:>14.6g} {m['unit']}{lo_hi}")
    print(f"   {'error_rate':44s} {result['error_rate']:>14.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} ops)")
    for failure in result["failures"][:10] + [{"command": "self-check", "errors": e}
                                              for e in result["self_check"]]:
        print(f"   FAILED {failure['command']}: {failure['errors']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cdiff" / "cli.py").is_file():
        print(f"perfbench: no cdiff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    OUT.mkdir(exist_ok=True)
    checker = Checker()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    # `all` runs every workload untraced, and traced as well with --trace 1;
    # a single workload runs in the one mode asked for.
    modes = (False, True) if args.workload == "all" and args.trace else (bool(args.trace),)
    results, metrics = [], {}
    try:
        for name in names:
            for trace in modes:
                wl = workloads.generate(name, args.seed)
                result = measure(wl, args.seconds, trace, checker)
                shown = reported(result, spec)
                print_result(result, shown)
                results.append(result)
                prefix = f"{name}." if args.workload == "all" else ""
                metrics.update({prefix + k: v for k, v in shown.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / "rep", ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["self_check"] for r in results)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"machine": machine(), "env": CHILD_ENV,
                                    "results": results}, indent=1) + "\n")
    print(f"results: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
