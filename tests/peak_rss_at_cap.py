"""Count one c over GF(2^22), the largest field under the size cap, and check
the process's peak resident memory.

Usage: PYTHONPATH=src python3 tests/peak_rss_at_cap.py

Runs `cdiff uniformity -p 2 -n 22 -d 3 -c g` in this process, prints the
peak RSS (VmHWM, Linux only) to stderr, and exits 1 if the command fails or
the peak exceeds LIMIT_MB.
"""

from __future__ import annotations

import contextlib
import io
import sys

from cdiff.cli import main as cdiff_main

ARGV = ["uniformity", "-p", "2", "-n", "22", "-d", "3", "-c", "g"]
LIMIT_MB = 230


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def main() -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cdiff_main(ARGV)
    peak = peak_rss_mb()
    print(f"cdiff {' '.join(ARGV)}: exit {code}, peak RSS {peak:.1f} MB "
          f"(limit {LIMIT_MB} MB)", file=sys.stderr)
    return 1 if code != 0 or peak > LIMIT_MB else 0


if __name__ == "__main__":
    sys.exit(main())
