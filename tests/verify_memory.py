"""Run `cdiff verify` and then `cdiff table --max-size 250` in one process
and check their peak traced memory.

Usage: PYTHONPATH=src python3 tests/verify_memory.py

Runs the two commands in this process, as the benchmark's `registry`
workload does, with stdout discarded, under tracemalloc; prints the peak of
Python-allocated memory to stderr, and exits 1 if a command fails or the
peak exceeds LIMIT_MB.  `verify` writes each row's records as soon as the
row is checked, so its peak holds one row's results and the power contexts,
not the whole registry's results.  The contexts stay in `ddt`'s cache for
the life of the process, so `table` reads its reports from them and counts
nothing, and the peak covers the contexts of the whole registry.
"""

from __future__ import annotations

import contextlib
import os
import sys
import tracemalloc

from cdiff.cli import main as cdiff_main

COMMANDS = (["verify"], ["table", "--max-size", "250"])
LIMIT_MB = 8


def main() -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            codes = [cdiff_main(argv) for argv in COMMANDS]
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    runs = ", then ".join(f"cdiff {' '.join(argv)}: exit {code}"
                          for argv, code in zip(COMMANDS, codes))
    print(f"{runs}; traced peak {peak:.2f} MB (limit {LIMIT_MB} MB)", file=sys.stderr)
    return 1 if any(codes) or peak > LIMIT_MB else 0


if __name__ == "__main__":
    sys.exit(main())
