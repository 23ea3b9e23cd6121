"""Spans around the public functions of each cdiff layer, installed from
outside the package so that no line of `src/` changes.

Recording (in the workload process): `Tracer.install()` replaces each traced
function by a wrapper that appends one span per call, and it does so in every
module namespace that holds the function, because `theorems` and `cli` import
`power_uniformity`, `build_field` and others by name.  Spans stay in memory
until `Tracer.write()`.

Analysis (in the benchmark process): `layer_metrics()` derives per-layer
times, counts and ratios from the written spans, and `self_check()` compares
span counts with call counts known from the workload.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("field", "funcs", "ddt", "closedform", "theorems", "cli")

# Module-level functions traced per layer; `Field` methods are listed apart.
# These are the layer boundaries: entry points called across modules.
FUNCTIONS = {
    "field": ("build_field",),
    "funcs": ("value_table", "as_lookup"),
    "ddt": ("power_uniformity", "general_uniformity", "uniformity", "sweep",
            "c_set", "ddt_row"),
    "closedform": ("dickson_values", "dickson_params", "dickson_preimage_count",
                   "dickson_max_preimage", "subfield_embedding",
                   "gold_solution_distribution", "cm_zero_count",
                   "sign_partition", "jacobsthal_counts"),
    "theorems": ("verify_all", "verify_case", "reproduce_table",
                 "applicable_cases"),
    "cli": ("main",),
}
FIELD_METHODS = ("build", "add_v", "mul_v", "pow_all")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _elems(args, kwargs, result):
    return {"elems": int(np.size(result))}


def _power_key(args, kwargs, result):
    field, d, c = (_arg(args, kwargs, i, k) for i, k in enumerate(("field", "d", "c")))
    return {"p": field.p, "n": field.n, "d": int(d), "c": int(c)}


def _pairs(args, kwargs, result):
    field, c = _arg(args, kwargs, 0, "field"), _arg(args, kwargs, 2, "c")
    return {"pairs": (field.q - (1 if c == 1 else 0)) * field.q}


def _length(args, kwargs, result):
    return {"len": len(result)}


def _case(args, kwargs, result):
    return {"case": args[0].id}


def _grid(args, kwargs, result):
    calls = sum(1 if inst.c is not None else len(inst.c_values) for inst in result)
    return {"len": len(result), "pu_calls": calls}


ATTRS = {
    "field.add_v": _elems, "field.mul_v": _elems,
    "ddt.power_uniformity": _power_key, "ddt.general_uniformity": _pairs,
    "ddt.c_set": _length, "theorems.verify_case": _case,
    "theorems.default_instances": _grid,
}


class Tracer:
    """In-memory span log: [name, start, end, parent index, op id, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every traced function in every cdiff namespace that holds it."""
        import cdiff
        from cdiff import theorems
        from cdiff.field import Field

        modules = [sys.modules[f"cdiff.{layer}"] for layer in LAYERS] + [cdiff]
        replaced = {}
        for layer, names in FUNCTIONS.items():
            module = sys.modules[f"cdiff.{layer}"]
            for fname in names:
                fn = getattr(module, fname)
                replaced[id(fn)] = self.wrap(f"{layer}.{fname}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])
        for meth in FIELD_METHODS:
            fn = Field.__dict__[meth]
            if isinstance(fn, staticmethod):
                setattr(Field, meth, staticmethod(self.wrap("field.Field.build",
                                                            fn.__func__)))
            else:
                setattr(Field, meth, self.wrap(f"field.{meth}", fn))
        # A case's grid is a field of a frozen dataclass; the registry hands
        # out the same case objects that verify_all uses.
        for case in theorems.registry():
            object.__setattr__(case, "default_instances",
                               self.wrap("theorems.default_instances",
                                         case.default_instances))

    def add_orbits(self) -> None:
        """Tag each power_uniformity span with the Frobenius coset of its c
        (the smallest log of c, c^p, c^p^2, ...), for the wasted-work ratios."""
        from cdiff.field import build_field
        recorded = len(self.spans)
        for span in self.spans[:recorded]:
            if span[0] == "ddt.power_uniformity":
                a = span[5]
                f = build_field(a["p"], a["n"])
                k = int(f.log[a["c"]]) if a["c"] else -1
                a["orbit"] = -1 if k < 0 else min(
                    k * a["p"] ** i % (f.q - 1) for i in range(a["n"]))
        del self.spans[recorded:]      # the lookups above are not workload calls

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def read_spans(path: Path) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _self_times(spans: list[list]) -> list[float]:
    self_t = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_t[s[3]] -= s[2] - s[1]
    return self_t


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (times in s unless named)."""
    self_t = _self_times(spans)
    incl: dict[str, float] = defaultdict(float)
    selft: dict[str, float] = defaultdict(float)
    calls = Counter(s[0] for s in spans)
    for s, st in zip(spans, self_t):
        incl[s[0]] += s[2] - s[1]
        selft[s[0]] += st

    def attr_sum(name, key):
        return sum(s[5][key] for s in spans if s[0] == name)

    def per(total, count, scale):
        return total / count * scale if count else 0.0

    has_build = {s[3] for s in spans if s[0] == "field.Field.build"}
    pu = [s[5] for s in spans if s[0] == "ddt.power_uniformity"]
    m = {
        "field.build_s": selft["field.Field.build"],
        "field.build_calls": calls["field.Field.build"],
        "field.cache_hits": sum(1 for i, s in enumerate(spans)
                                if s[0] == "field.build_field" and i not in has_build),
        "field.add_v_s": incl["field.add_v"],
        "field.add_v_elems": attr_sum("field.add_v", "elems"),
        "field.mul_v_s": incl["field.mul_v"],
        "field.pow_all_s": incl["field.pow_all"],
        "funcs.value_table_s": incl["funcs.value_table"],
        "funcs.value_table_calls": calls["funcs.value_table"],
        "ddt.power_uniformity_s": selft["ddt.power_uniformity"],
        "ddt.power_uniformity_calls": len(pu),
        "ddt.sweep_s": incl["ddt.sweep"],
        "ddt.c_set_s": incl["ddt.c_set"],
        "ddt.distinct_c_ratio": per(len({(a["p"], a["n"], a["d"], a["c"]) for a in pu}),
                                    len(pu), 1),
        "ddt.orbit_ratio": per(len({(a["p"], a["n"], a["d"], a["orbit"]) for a in pu}),
                               len(pu), 1),
        "ddt.general_uniformity_s": incl["ddt.general_uniformity"],
        "ddt.general_pairs": attr_sum("ddt.general_uniformity", "pairs"),
        "closedform.dickson_preimage_count_s":
            incl["closedform.dickson_preimage_count"],
        "closedform.calls": sum(c for n, c in calls.items()
                                if n.startswith("closedform.")),
        "theorems.grid_s": incl["theorems.default_instances"],
        "theorems.instances": attr_sum("theorems.default_instances", "len"),
        "cli.emit_s": selft["cli.main"],
    }
    m["field.add_v_ns_per_elem"] = per(m["field.add_v_s"], m["field.add_v_elems"], 1e9)
    m["field.mul_v_ns_per_elem"] = per(m["field.mul_v_s"],
                                       attr_sum("field.mul_v", "elems"), 1e9)
    m["ddt.power_uniformity_us_per_call"] = per(incl["ddt.power_uniformity"],
                                                len(pu), 1e6)
    m["ddt.general_ns_per_pair"] = per(m["ddt.general_uniformity_s"],
                                       m["ddt.general_pairs"], 1e9)
    for s, st in zip(spans, self_t):
        if s[0] == "theorems.verify_case":
            key = f"theorems.case.{s[5]['case']}_s"
            m[key] = m.get(key, 0.0) + st
    return m


# Spans each command line must produce, by subcommand.
PER_COMMAND = {
    "uniformity": {"ddt.power_uniformity": 1},
    "spectrum": {"ddt.general_uniformity": 1},
    "dickson": {"closedform.dickson_preimage_count": 1},
    "sweep": {"ddt.sweep": 1, "ddt.c_set": 1},
    "verify": {"theorems.verify_all": 1},
    "table": {"theorems.reproduce_table": 1, "theorems.verify_all": 1},
}


def self_check(spans: list[list], commands, n_fields: int, n_cases: int) -> list[str]:
    """Span counts against the call counts the commands fix; [] when all agree.

    Each command is one `cli.main` span.  Every field is built once, in
    set-up (op 0), so the commands run with the field cache warm.  The number
    of `power_uniformity` calls follows from the c-set a sweep asked for and
    from the instances the registry grids returned.
    """
    counts = Counter(s[0] for s in spans)
    want = Counter({"cli.main": len(commands), "field.Field.build": n_fields})
    for argv in commands:
        want.update(PER_COMMAND[argv[0]])
    want["theorems.verify_case"] = n_cases * want["theorems.verify_all"]
    want["theorems.default_instances"] = want["theorems.verify_case"]
    want["ddt.power_uniformity"] += sum(
        s[5]["pu_calls"] for s in spans if s[0] == "theorems.default_instances")
    want["ddt.power_uniformity"] += sum(
        s[5]["len"] for s in spans if s[0] == "ddt.c_set")
    errors = [f"span count {name}: {counts[name]} != {n}"
              for name, n in sorted(want.items()) if counts[name] != n]
    ops = sorted(s[4] for s in spans if s[0] == "cli.main")
    if ops != list(range(1, len(commands) + 1)):
        errors.append(f"cli.main spans per op: {ops}")
    if any(s[4] != 0 for s in spans if s[0] == "field.Field.build"):
        errors.append("a field was built outside set-up")
    return errors
