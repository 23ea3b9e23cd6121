"""Mutation gate: each listed mutant must be killed by the tests named for it.

A mutant is one exact text replacement in one file of `src/`, together with
the test ids that must fail on it.  For each mutant the script copies `src/`,
`tests/` and `pyproject.toml` to a temporary directory, applies the mutant
there and runs only its tests, with `pytest -x`, in a child process whose
address space is capped at `AS_LIMIT` bytes: a mutant that reads a stale
buffer can ask numpy for a petabyte, which then fails as a MemoryError.
Before any mutant, the union of the named tests must pass on the unmutated
copy, or no kill would mean anything.

The gate fails when a mutant survives (its tests pass), when its old text
does not occur exactly once in its file, or when pytest reports something
other than failed tests (a test id that no longer exists, say).  A mutant
whose old text moved is re-pointed at the current code; it is deleted only
when the code it mutated is gone.

Usage: python3 tests/mutants.py

Prints one line per mutant and exits 1 unless every one is killed.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
AS_LIMIT = 2**31            # bytes of address space for each pytest child
TIMEOUT = 300               # seconds for each pytest child


class Mutant(NamedTuple):
    name: str
    path: str               # relative to the repository root
    old: str                # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids that must fail on the mutant


MUTANTS = (
    Mutant("byte-count loop ends at top - 1", "src/cdiff/ddt.py",
           "for v in range(1, top + 1):", "for v in range(1, top):",
           ("tests/test_ddt.py::test_count_histogram_equals_bincount",)),
    Mutant("odd-p slab pairing loses its weight 2 at c = 1", "src/cdiff/ddt.py",
           "hist[:len(counts)] += 2 * counts if half else counts",
           "hist[:len(counts)] += counts",
           ("tests/test_ddt.py::test_general_route_over_every_slab_shape",)),
    Mutant("x = 0 correction of the power route dropped", "src/cdiff/ddt.py",
           "rows[:, 0] += 1", "rows[:, 0] += 0",
           ("tests/test_ddt.py::test_power_route_over_many_x_chunks_against_digit_add_rows",)),
    Mutant("first unsigned-minimum reduction dropped", "src/cdiff/ddt.py",
           "np.add(diff[xs], lnc, out=z)\n            np.minimum(u, u - um, out=u)\n",
           "np.add(diff[xs], lnc, out=z)\n",
           ("tests/test_ddt.py::test_power_route_over_many_x_chunks_against_digit_add_rows",)),
    Mutant("lo / -lo slab pairing made strict", "src/cdiff/ddt.py",
           "los = los[los <= field.sub_v(0, los)]", "los = los[los < field.sub_v(0, los)]",
           ("tests/test_ddt.py::test_general_route_over_every_slab_shape",)),
    Mutant("generator search starts at p + 1", "src/cdiff/field.py",
           "for e in range(2 if n == 1 else p, q):", "for e in range(2 if n == 1 else p + 1, q):",
           ("tests/test_field.py::test_gf4_modulus_and_generator",
            "tests/test_field.py::test_exp_log_tables_match_schoolbook_walk")),
    Mutant("UpperBound.check loosened by one", "src/cdiff/theorems.py",
           "return observed <= self.value", "return observed <= self.value + 1",
           ("tests/test_theorems.py::test_predictions_check_and_render",)),
    Mutant("Jacobsthal prediction uses eta(-1)", "src/cdiff/closedform.py",
           "field.quadratic_character(field.from_int(2))",
           "field.quadratic_character(field.neg(1))",
           ("tests/test_closedform.py::test_jacobsthal_counts_beyond_characteristic_three",)),
    Mutant("one-row power slabs count only four x-chunks", "src/cdiff/ddt.py",
           "for x0 in range(0, len(diff), _SLAB_PAIRS):",
           "for x0 in range(0, min(len(diff), 4 * _SLAB_PAIRS), _SLAB_PAIRS):",
           ("tests/test_ddt.py::test_power_route_over_many_x_chunks_against_digit_add_rows",)),
    Mutant("element maps look at their first operand only", "src/cdiff/field.py",
           "for x in operands:", "for x in operands[:1]:",
           ("tests/test_field.py::test_element_maps_take_an_int_or_an_array",)),
    Mutant("mul's zero mask misses y = 0", "src/cdiff/field.py",
           "np.where((x == 0) | (y == 0),", "np.where((x == 0),",
           ("tests/test_field.py::test_element_maps_take_an_int_or_an_array",)),
    Mutant("pow(0, d) is 1 for d >= 1", "src/cdiff/field.py",
           "np.where((x == 0) & (d > 0),", "np.where((x == 0) & (d < 0),",
           ("tests/test_field.py::test_element_maps_take_an_int_or_an_array",)),
    Mutant("byte compares past the uint8 range", "src/cdiff/ddt.py",
           "_BYTE_COUNTS = 16", "_BYTE_COUNTS = 300",
           ("tests/test_ddt.py::test_count_histogram_equals_bincount",)),
    Mutant("byte-compare histogram leaves H[0] unset", "src/cdiff/ddt.py",
           "hist[0] = len(cnt) - hist[1:].sum()", "pass",
           ("tests/test_ddt.py::test_count_histogram_equals_bincount",)),
    Mutant("binary half view loses its x2 credit", "src/cdiff/ddt.py",
           "hist[:2 * len(counts):2] += counts", "hist[:len(counts)] += counts",
           ("tests/test_ddt.py::test_general_route_at_c1_over_binary_fields",)),
    Mutant("generator of any order", "src/cdiff/field.py",
           "if _multiplicative_order_is_full(_digits(e, p, n), modulus, p, q, factors):",
           "if True:",
           ("tests/test_field.py::test_exp_log_tables_match_schoolbook_walk",)),
    Mutant("value set read from every run of the exponent", "src/cdiff/theorems.py",
           "for run in runs[-len(group):] if run.c_label == label",
           "for run in runs[-len(group):]",
           ("tests/test_theorems.py::test_verify_value_set_instance",)),
    Mutant("registry sweep asked for each c twice", "src/cdiff/theorems.py",
           "cs = [c for run in group for c in run.c_values]",
           "cs = [c for run in group for c in run.c_values] * 2",
           ("tests/test_theorems.py::test_verify_asks_for_each_grid_c_once",)),
    Mutant("each later run of a group reads its uniformities one c early",
           "src/cdiff/theorems.py",
           "swept[:len(run.c_values)], swept[len(run.c_values):]",
           "swept[:len(run.c_values)], swept[len(run.c_values) - 1:]",
           ("tests/test_theorems.py::test_verify_value_set_instance",
            "tests/test_cli.py::test_verify_output_is_pinned")),
    Mutant("sweep reports in ascending-c order, not the caller's", "src/cdiff/ddt.py",
           "return cs.tolist()", "return np.sort(cs).tolist()",
           ("tests/test_ddt.py::test_sweep_keeps_the_callers_c_order_and_repeats",
            "tests/test_theorems.py::test_verify_value_set_instance",
            "tests/test_cli.py::test_verify_output_is_pinned")),
    Mutant("orbit reports returned in orbit-key order, not the c's", "src/cdiff/ddt.py",
           "return [reports[key] for key in keys]",
           "return [reports[k] for k in sorted(keys)]",
           ("tests/test_ddt.py::test_sweep_keeps_the_callers_c_order_and_repeats",
            "tests/test_cli.py::test_verify_output_is_pinned")),
    # the memo's lookup and its store both keyed by the uniformity: a mutant of
    # the lookup alone misses and renders again, which changes no output
    Mutant("a record's text reused for every report of its uniformity", "src/cdiff/cli.py",
           "write, tails = sys.stdout.write, {}",
           "write, tails = sys.stdout.write, type('ByUniformity', (dict,), {"
           "'get': lambda s, r: dict.get(s, r.uniformity), "
           "'__setitem__': lambda s, r, t: dict.__setitem__(s, r.uniformity, t)})()",
           ("tests/test_cli.py::test_sweep_records_are_the_reports_of_their_own_c",)),
    # keyed by the verdict alone in both places; as above, a mutant of the
    # lookup or of the store alone renders again and changes no output, and
    # one keyed by `observed` alone changes none either, since a run's verdict
    # follows from its observed value
    Mutant("instance text reused across observed values with one verdict",
           "src/cdiff/cli.py",
           "if (tail := tails.get((observed, ok))) is None:\n"
           "                tail = tails[observed, ok] =",
           "if (tail := tails.get(ok)) is None:\n"
           "                tail = tails[ok] =",
           ("tests/test_cli.py::test_verify_output_is_pinned",)),
    Mutant("a comma-holding CSV value left unquoted", "src/cdiff/cli.py",
           """f'"{v}"' if "," in str(v) else str(v) for v in values""",
           "str(v) for v in values",
           ("tests/test_cli.py::test_csv_output_is_pinned[argv0-eadb880c8d6066ab957430038e539cba"
            "7252008a7a73e290c66a975e02c344d2]",
            "tests/test_cli.py::test_csv_output_is_pinned[argv2-b5561240bfdbe35764929fee11c1f15f"
            "51e4cdbeb79bdba0bbce8eeed68748ce]")),
    Mutant("text after c cut one character late", "src/cdiff/cli.py",
           "return _json(rest)[1:]", "return _json(rest)[2:]",
           ("tests/test_cli.py::test_verify_output_is_pinned",
            "tests/test_cli.py::test_uniformity_lines_are_sorted_key_json[argv0]")),
    Mutant("a grid entry drops its last c", "src/cdiff/theorems.py",
           "cs = np.flatnonzero(self._mask(branch, f, k, f.elements()))",
           "cs = np.flatnonzero(self._mask(branch, f, k, f.elements()))[:-1]",
           ("tests/test_theorems.py::test_default_grids_agree_with_the_predicate",
            "tests/test_theorems.py::test_default_grids_are_pinned")),
    Mutant("power route adds the a = 0 row at c = 1 too", "src/cdiff/ddt.py",
           "hists[c != 1, :len(a0)] += a0", "hists[:, :len(a0)] += a0",
           ("tests/test_ddt.py::test_power_route_over_many_x_chunks_against_digit_add_rows",)),
    Mutant("c = 0 report counts the a = 0 row once", "src/cdiff/ddt.py",
           "_slab_reports(2 * a0[None],", "_slab_reports(a0[None],",
           ("tests/test_ddt.py::test_power_route_over_many_x_chunks_against_digit_add_rows",)),
    Mutant("a = 0 row loses its x = 0 solution at b = 0", "src/cdiff/ddt.py",
           "a0[1] += 1", "a0[1] += 0",
           ("tests/test_ddt.py::test_power_route_over_many_x_chunks_against_digit_add_rows",)),
    Mutant("Dickson half-branch predictions swapped", "src/cdiff/closedform.py",
           'm_gcd // 2, "square-disc-half"\n    elif eta_disc == -1 and dv == minus_two '
           'and 1 <= t <= r - 2:\n        predicted, branch = lbar // 2,',
           'lbar // 2, "square-disc-half"\n    elif eta_disc == -1 and dv == minus_two '
           'and 1 <= t <= r - 2:\n        predicted, branch = m_gcd // 2,',
           ("tests/test_closedform.py::test_dickson_preimage_branches_agree_with_enumeration",)),
)


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))


def _pytest(tree: Path, tests) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src"),
                       "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=TIMEOUT, preexec_fn=_cap_address_space)


def _copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _last_line(proc: subprocess.CompletedProcess) -> str:
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return lines[-1] if lines else f"exit {proc.returncode}"


def main() -> int:
    start, bad = time.perf_counter(), 0
    with tempfile.TemporaryDirectory(prefix="cdiff-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        proc = _pytest(clean, tests)
        if proc.returncode != 0:
            print(f"the named tests fail without a mutant: {_last_line(proc)}")
            print(proc.stdout[-4000:])
            return 1
        for i, m in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{i}"
            _copy_tree(tree)
            target = tree / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                print(f"STALE    {m.name}: the old text occurs {text.count(m.old)} "
                      f"times in {m.path}")
                bad += 1
                continue
            target.write_text(text.replace(m.old, m.new))
            t0 = time.perf_counter()
            proc = _pytest(tree, m.tests)
            took = time.perf_counter() - t0
            if proc.returncode == 1 or proc.returncode < 0:
                print(f"killed   {m.name} ({took:.1f} s): {_last_line(proc)}")
            else:
                verdict = "SURVIVED" if proc.returncode == 0 else "ERROR   "
                print(f"{verdict} {m.name} ({took:.1f} s): {_last_line(proc)}")
                bad += 1
    print(f"{len(MUTANTS)} mutants, {len(MUTANTS) - bad} killed, {bad} not, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
