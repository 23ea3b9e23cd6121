"""Workloads of the cdiff benchmark.

A workload is a short list of `cdiff` command lines, run one after another in
one fresh process (a closed loop with one client).  The seed picks the
exponent d and the element c = g^K within each workload's family; the cost
shape of a family does not depend on d or c, so every seed costs about the
same.  Seed 0 gives the reference command lines whose stdout was recorded in
`reference.json`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# Every field that `cdiff verify` and `cdiff table --max-size 250` build: the
# union of the registry's default grids.
REGISTRY_FIELDS = (
    (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (2, 10),
    (3, 2), (3, 3), (3, 4), (3, 5), (3, 6),
    (5, 1), (5, 2), (5, 3), (5, 4),
    (7, 1), (7, 2), (7, 3), (7, 4),
    (11, 1), (11, 2), (11, 3),
    (13, 1), (13, 2), (13, 3),
)

WHY = {
    "registry": "the paper's headline job: verify plus table, about 30k "
                "power_uniformity calls over 27 small fields; ignores the seed",
    "kernels": "large-field builds, the Dickson closed form, a c sweep and "
               "Theta(q^2) general scans in one process: every route the "
               "registry does not take",
}
NAMES = tuple(WHY)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    commands: tuple[tuple[str, ...], ...]
    fields: tuple[tuple[int, int], ...]     # every (p, n) the commands build


def _cmd(*words) -> tuple[str, ...]:
    return tuple(str(w) for w in words)


def generate(name: str, seed: int) -> Workload:
    """The command lines of workload `name` for `seed` (same seed, same lines)."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(f"{name}:{seed}")
    default = seed == DEFAULT_SEED

    def pick(lo: int, hi: int, fallback: int) -> int:
        """fallback at the default seed, otherwise uniform in [lo, hi)."""
        return fallback if default else rng.randrange(lo, hi)

    def g_pow(q: int) -> str:
        """g at the default seed, otherwise g^K with g^K != 1."""
        return "g" if default else f"g^{rng.randrange(1, q - 1)}"

    if name == "registry":
        commands = (_cmd("verify"), _cmd("table", "--max-size", 250))
        fields = REGISTRY_FIELDS
    else:  # kernels
        commands = (
            # few answers from large binary and odd-p fields: Field.build
            # dominates and the c axis is bypassed
            _cmd("uniformity", "-p", 2, "-n", 17, "-d", pick(2, 64, 3),
                 "-c", g_pow(2**17)),
            _cmd("uniformity", "-p", 3, "-n", 10, "-d", pick(2, 64, 5),
                 "-c", g_pow(3**10)),
            # m - 1 is 5 or 6 (binary 101, 110): D_m costs the same number
            # of matrix products at every seed
            _cmd("dickson", "-p", 3, "-n", 9, "-m", pick(6, 8, 6),
                 "--preimage", g_pow(3**9)),
            # GF(3^7): 2,185 values of c on one value table, the c axis and
            # the odd-p digit-loop add_v
            _cmd("sweep", "-p", 3, "-n", 7, "-d", pick(2, 3**7 - 1, 4),
                 "--c-set", "not-pm-one"),
        )
        # the general route over (a, x) slabs, with c != 1 and c = 1; its
        # slabs set the peak memory
        d2 = pick(2, 64, 7)
        commands += (
            _cmd("spectrum", "-p", 2, "-n", 12, "-d", d2,
                 "-c", g_pow(2**12)),
            _cmd("spectrum", "-p", 2, "-n", 12, "-d", d2, "-c", 1),
            _cmd("spectrum", "-p", 5, "-n", 5, "-d", pick(2, 64, 3),
                 "-c", g_pow(5**5)),
        )
        fields = ((2, 17), (3, 10), (3, 9), (3, 7), (2, 12), (5, 5))
    return Workload(name=name, seed=seed, commands=commands, fields=fields)
