"""Record `reference.json`: the sha256 of the stdout of each workload's
command lines at the default seed.

Run from the root of a checkout of the commit whose outputs are the
reference; later commits must reproduce them byte for byte:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import contextlib
import hashlib
import io
import json
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cdiff import cli  # noqa: E402


def main() -> int:
    reference = {}
    for name in workloads.NAMES:
        for argv in workloads.generate(name, workloads.DEFAULT_SEED).commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                if cli.main(list(argv)) != 0:
                    raise SystemExit(f"cdiff {' '.join(argv)} failed")
            reference[" ".join(argv)] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
