"""Acceptance suite: every check is an exact integer comparison.

Each criterion prints one PASS/FAIL line (visible under pytest -s); a FAIL
line is followed by the assertion failure itself.
"""

import functools
import math
import random


from cdiff.field import build_field
from cdiff.funcs import PowerMap, as_lookup
from cdiff.ddt import power_uniformity, general_uniformity, ddt_row, sweep
from cdiff.closedform import (gcd_power_plus_one, gold_solution_distribution,
                              cm_zero_count, jacobsthal_counts,
                              dickson_max_preimage, dickson_eval)
from cdiff import theorems
from cdiff.cli import main as cli_main


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                message = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            print(f"ACCEPTANCE {name}: PASS" + (f" ({message})" if message else ""))
        return wrapper
    return deco


@criterion("1 gold-exact")
def test_gold_exact_values():
    for n in range(3, 11):
        f = build_field(2, n)
        cs = [c for c in range(f.q) if c not in (0, 1)]
        for k in range(1, n):
            if math.gcd(n, k) != 1:
                continue
            observed = {r.uniformity for r in sweep(f, PowerMap(2**k + 1), cs)}
            assert observed == {3}, (n, k, observed)
    for (n, k), expected in {(6, 2): 5, (9, 3): 9, (8, 2): 5}.items():
        f = build_field(2, n)
        dd = math.gcd(n, k)
        cs = [c for c in range(f.q) if not f.in_subfield(c, dd)]
        observed = {r.uniformity for r in sweep(f, PowerMap(2**k + 1), cs)}
        assert observed == {expected}, (n, k, observed)


@criterion("2 gold-subfield")
def test_subfield_gold():
    for (p, n, k) in [(3, 2, 1), (3, 4, 2), (5, 2, 1), (7, 2, 1)]:
        f = build_field(p, n)
        d = p**k + 1
        expected = math.gcd(d, f.q - 1)
        g = math.gcd(k, n)
        cs = [c for c in range(f.q) if c != 1 and f.in_subfield(c, g)]
        observed = {r.uniformity for r in sweep(f, PowerMap(d), cs)}
        assert observed == {expected}, (p, n, k, observed)


@criterion("3 pcn-boundary")
def test_pcn_boundary():
    # closed form checked for k != n (at k = n the map is x^((q+1)/2), whose
    # Dickson preimage spectrum collapses to the mixed branch and the closed
    # form overshoots: GF(9), k=2 gives 3, not 5); the enumeration identity
    # below covers k = n as well
    for p in (3, 5, 7):
        for n in (2, 3, 4):
            f = build_field(p, n)
            minus_one = f.neg(1)
            for k in range(1, 2 * n):
                d = (p**k + 1) // 2
                observed = power_uniformity(f, d, minus_one).uniformity
                assert observed == dickson_max_preimage(f, d), (p, n, k)
                if k == n:
                    continue
                if (2 * n // math.gcd(2 * n, k)) % 2 == 1:
                    assert observed == 1, (p, n, k, observed)
                else:
                    expected = (p ** math.gcd(k, n) + 1) // 2
                    assert observed == expected, (p, n, k, observed)
    return "closed form for k != n; enumeration identity for all k < 2n"


@criterion("4 three-n-minus-3")
def test_power_3n_minus_3_family():
    value_sets = {2: {2}, 3: {3, 4}, 4: {2, 4, 5}, 5: {4}, 6: {4, 5}}
    # at n = 2 the exponent 3^n - 3 = 6 coincides with (3^2+3)/2, which is
    # APcN at c = -1; the value 4 holds from n = 3 on
    minus_one_expect = {2: 2, 3: 4, 4: 6, 5: 4, 6: 4}
    for n in range(2, 7):
        f = build_field(3, n)
        d = f.q - 3
        assert power_uniformity(f, d, f.neg(1)).uniformity == minus_one_expect[n], n
        assert power_uniformity(f, d, 0).uniformity == 2, n
        cs = [c for c in range(f.q) if c not in (0, 1, f.neg(1))]
        observed = {r.uniformity for r in sweep(f, PowerMap(d), cs)}
        assert observed == value_sets[n], (n, observed)


@criterion("5 upper-bounds")
def test_upper_bound_rows():
    attained = {}
    for cid in ("half-pn-plus1", "half-pn-plus1-refined", "pn-plus-3",
                "half-pn-minus-3", "two-thirds"):
        report = theorems.verify_case(theorems.case_by_id(cid), max_size=2500)
        assert report.passed, (cid, report.counterexamples[:3])
        attained[cid] = report.max_attained
    assert attained["half-pn-plus1"] <= 4
    assert attained["half-pn-plus1-refined"] <= 2
    assert attained["pn-plus-3"] <= 4
    assert attained["half-pn-minus-3"] <= 4
    assert attained["two-thirds"] <= 3
    return "attained maxima " + str(sorted(attained.items()))


@criterion("6 inverse-rows")
def test_inverse_function_rows():
    for n in range(3, 9):
        f = build_field(2, n)
        d = f.q - 2
        cs = list(range(2, f.q))
        for c, rep in zip(cs, sweep(f, PowerMap(d), cs)):
            both_one = f.trace(c) == 1 and f.trace(f.inv(c)) == 1
            assert rep.uniformity == (2 if both_one else 3), (n, c, rep.uniformity)
    for p in (3, 5, 7):
        for n in (1, 2, 3):
            if p**n <= 3:
                continue
            f = build_field(p, n)
            d = f.q - 2
            four = f.from_int(4)
            cs = list(range(2, f.q))
            for c, rep in zip(cs, sweep(f, PowerMap(d), cs)):
                e1 = f.quadratic_character(f.sub(f.mul(c, c), f.mul(four, c)))
                e2 = f.quadratic_character(f.sub(1, f.mul(four, c)))
                assert rep.uniformity == (2 if (e1 != 1 and e2 != 1) else 3), (p, n, c)


@criterion("7 closed-form-oracles")
def test_closed_form_oracles():
    for p in (2, 3, 5, 7):
        for n in range(1, 13):
            for k in range(1, n + 1):
                case = gcd_power_plus_one(p, k, n)      # raises on mismatch
                assert case.value == math.gcd(p**k + 1, p**n - 1)
    for n in (3, 4, 5, 6, 8):
        for k in range(1, n):
            if math.gcd(n, k) == 1:
                dist = gold_solution_distribution(n, k)
                assert dist.predicted_dict() == {
                    m: c for m, c in dist.counts_dict().items() if m in (0, 1, 3)}
                assert set(dist.counts_dict()) == {0, 1, 3}
    d62 = gold_solution_distribution(6, 2)
    assert d62.counts_dict()[5] == d62.predicted_dict()[5] == 1
    for n in (3, 4, 5):
        z = cm_zero_count(n, 1, n)
        assert z.count == z.predicted, n
    for n in (2, 3, 4, 5):
        j = jacobsthal_counts(build_field(3, n))
        assert j.n1 == j.n2 == j.predicted == (3**n - 4 -
                                               build_field(3, n).quadratic_character(
                                                   build_field(3, n).neg(1))) // 2


@criterion("8 structural-properties")
def test_structural_properties():
    rng = random.Random(6121981)
    fields = [(2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 2), (3, 3), (3, 4),
              (3, 5), (5, 2), (5, 3), (7, 2), (11, 1), (13, 1)]
    for p, n in fields:
        f = build_field(p, n)
        pairs = {(rng.randrange(1, f.q), rng.randrange(f.q)) for _ in range(40)}
        pairs = sorted(pairs)[:25]
        assert len(pairs) >= 20
        for d, c in pairs:
            fast = power_uniformity(f, d, c).uniformity
            slow = general_uniformity(f, as_lookup(f, PowerMap(d)), c).uniformity
            assert fast == slow, (p, n, d, c)
        # row sums
        for _ in range(10):
            d, c, a = rng.randrange(1, f.q), rng.randrange(f.q), rng.randrange(f.q)
            assert int(ddt_row(f, PowerMap(d), c, a).sum()) == f.q
        # quadratic character multiplicativity
        if p > 2:
            eta = f.eta_all()
            for _ in range(100):
                a, b = rng.randrange(1, f.q), rng.randrange(1, f.q)
                assert int(eta[f.mul(a, b)]) == int(eta[a]) * int(eta[b])
    # Dickson functional identity on >= 100 sampled u per field
    for p, n in [(3, 2), (5, 1), (7, 1), (2, 3), (3, 3)]:
        ext = build_field(p, 2 * n)
        for _ in range(100):
            u = rng.randrange(1, ext.q)
            m = rng.randrange(0, 60)
            z = ext.add(u, ext.inv(u))
            assert dickson_eval(ext, m, z) == ext.add(ext.pow(u, m),
                                                      ext.pow(ext.inv(u), m) if m else 1)


@criterion("9 determinism")
def test_determinism(capsys):
    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out

    sweep_args = ["sweep", "-p", "3", "-n", "4", "-d", "78", "--c-set", "not-pm-one"]
    assert run(sweep_args + ["--threads", "1"]) == run(sweep_args + ["--threads", "8"])
    verify_args = ["verify", "--case", "two-thirds", "--max-size", "1400"]
    assert run(verify_args + ["--threads", "1"]) == run(verify_args + ["--threads", "8"])
    repeat = run(sweep_args + ["--threads", "8"])
    assert repeat == run(sweep_args + ["--threads", "8"])


@criterion("registry-full-grid")
def test_every_registry_row_passes_default_grid():
    reports = list(theorems.verify_all())
    failing = [r.case_id for r in reports if not r.passed]
    assert not failing, failing
    return f"{len(reports)} cases"
