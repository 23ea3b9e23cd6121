"""One repetition of one workload, in a fresh process.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON names the checkout's `src` directory, the workload's fields and
command lines, whether to trace, and an output directory.  The process imports
cdiff and builds every field through `build_field` (set-up), then runs each
command through `cdiff.cli.main(argv)` with stdout captured (solve).  After
the timed part it writes `opN.out` per command, `spans.jsonl` when traced, and
`result.json` with the timings, exit codes and any exception text.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def peak_rss_mb() -> float:
    """This process's own peak RSS.  ru_maxrss is not: on Linux it keeps the
    high-water mark of the parent's memory image replaced at exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def main(spec_path: str) -> int:
    t0 = time.perf_counter()
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    out_dir = Path(spec["out_dir"])
    sys.path.insert(0, str(src))
    import cdiff.cli
    if src not in Path(cdiff.cli.__file__).resolve().parents:
        print(f"cdiff was imported from {cdiff.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    t_import = time.perf_counter()

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from cdiff.field import build_field
    t_fields = time.perf_counter()
    for p, n in spec["fields"]:
        build_field(p, n)
    t_setup = time.perf_counter()

    outputs, ops = [], []
    for i, argv in enumerate(spec["commands"], 1):
        if tracer is not None:
            tracer.op = i
        buf = io.StringIO()
        op = {"exit": None, "error": None}
        try:
            with contextlib.redirect_stdout(buf):
                op["exit"] = cdiff.cli.main(list(argv))
        except SystemExit as exc:       # argparse rejects the command line
            op["exit"] = exc.code
        except Exception:               # counted as a failed op, never dropped
            op["error"] = traceback.format_exc()
        outputs.append(buf.getvalue())
        ops.append(op)
    t_solve = time.perf_counter()

    for i, text in enumerate(outputs, 1):
        (out_dir / f"op{i}.out").write_bytes(text.encode())
    if tracer is not None:
        tracer.add_orbits()
        tracer.write(out_dir / "spans.jsonl")
    result = {
        "import_s": t_import - t0,
        # with tracing on, wrapping the functions is not part of set-up
        "setup_s": (t_import - t0) + (t_setup - t_fields),
        "solve_s": t_solve - t_setup,
        "ops": ops,
        "peak_rss_mb": peak_rss_mb(),
    }
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
