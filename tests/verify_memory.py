"""Run `cdiff verify` over the whole registry and check its peak traced memory.

Usage: PYTHONPATH=src python3 tests/verify_memory.py

Runs `cdiff verify` in this process with stdout discarded, under
tracemalloc, prints the peak of Python-allocated memory to stderr, and exits
1 if the command fails or the peak exceeds LIMIT_MB.  `verify` writes each
row's records as soon as the row is checked, so its peak holds one row's
results and the power contexts still in use, not the whole registry's
results.
"""

from __future__ import annotations

import contextlib
import os
import sys
import tracemalloc

from cdiff.cli import main as cdiff_main

ARGV = ["verify"]
LIMIT_MB = 8


def main() -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = cdiff_main(ARGV)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    print(f"cdiff {' '.join(ARGV)}: exit {code}, traced peak {peak:.2f} MB "
          f"(limit {LIMIT_MB} MB)", file=sys.stderr)
    return 1 if code != 0 or peak > LIMIT_MB else 0


if __name__ == "__main__":
    sys.exit(main())
