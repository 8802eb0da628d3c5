"""Acceptance suite: every criterion at its stated range, all comparisons exact.

Each test prints one PASS line when its criterion holds; any failure shows
up as an ordinary pytest failure.
"""

import math
import random
import time

from oracles import LOMADZE_CLAIM, f2_moments_direct, lomadze_term, report_json_dict

from hexrep import forms, identities, lattice
from hexrep.cli import main
from hexrep.series import QSeries

N = 200


def _announce(label, detail):
    print(f"ACCEPTANCE {label}: PASS ({detail})", flush=True)


def test_criterion_1_theta_oracle():
    start = time.monotonic()
    direct = f2_moments_direct(30)
    assert list(lattice.s2k_bruteforce(2, 30)[:31]) == direct[0][:31]
    tables = {k: lattice.s2k_bruteforce(k, N) for k in range(1, 15)}
    one = tables[1]
    for k in range(2, 15):
        prev = tables[k - 1]
        for n in range(N + 1):
            assert tables[k][n] == sum(one[a] * prev[n - a] for a in range(n + 1))
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"theta oracle took {elapsed:.1f}s"
    _announce(
        "1 theta-oracle",
        f"k<=14 block recurrence on n<=200 + 4-variable check, {elapsed:.2f}s",
    )


def test_criterion_2_decompositions():
    for k in (7, 9, 11, 12, 14):
        report = identities.check(f"f{k}-decomposition", N, N)
        assert report.all_match, f"decomposition k={k}: {report.first_mismatch}"
        assert report.constant_term == (1, 1)
    _announce("2 decompositions", "F7/F9/F11/F12/F14 equal brute force for n=0..200")


def test_criterion_3_tau_formula():
    start = time.monotonic()
    tau = forms.named_form("delta", N).series.coeffs
    assert tau[1] == 1 and tau[2] == -24 and tau[3] == 252
    for n in range(1, 51):
        assert identities.tau_from_lattice_sums(n, N) == tau[n]
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"tau formula took {elapsed:.1f}s"
    _announce("3 tau-formula", f"lattice-sum tau equals eta^24 for n=1..50, {elapsed:.2f}s")


def test_criterion_4_newform_identities():
    reports = identities.newform_coeff_identities(100, N)
    for report in reports:
        assert report.all_match, f"{report.name}: {report.first_mismatch}"
    # the weight-10 sequence really divides out: substantive part of w10
    assert all(v % 120 == 0 for v in lattice.lomadze_values("L_10_6", 100))
    _announce("4 newform-identities", "weights 6,7,8,9,10,11 exact for n=1..100")


def test_criterion_5_lomadze_cross_checks():
    ref12 = lattice.s2k_bruteforce(12, N)
    ref14 = lattice.s2k_bruteforce(14, N)
    s24, s28 = (identities.formula_table(name, N) for name in ("lomadze-s24", "lomadze-s28"))
    for n in range(1, 61):
        assert s24[n] == ref12[n]
        assert s28[n] == ref14[n]
    assert lomadze_term("L_10_6", 2, 1) == -21
    assert lattice.lomadze_spec("L_10_6") == LOMADZE_CLAIM["L_10_6"]
    _announce("5 lomadze-formulas", "24- and 28-variable formulas exact for n=1..60")


def test_criterion_6_convolution_identities():
    r1 = identities.check("ramanujan-convolution", 200, N)
    assert r1.all_match, r1.first_mismatch
    r2 = identities.check("e2-delta-convolution", 150, N)
    assert r2.all_match, r2.first_mismatch
    assert r2.note  # records which index convention held
    r3 = identities.check("s28-convolution", 100, N)
    assert r3.all_match, r3.first_mismatch
    _announce(
        "6 convolutions",
        f"sigma*tau n<=200, three-block n<=150 ({r2.note.split(';')[0]}), six-sum n<=100",
    )


def test_criterion_7_property_suites():
    # newform multiplicativity on coprime pairs up to the precision
    for name in forms.NEWFORM_NAMES:
        coeffs = forms.named_form(name, N).series.coeffs
        for m in range(2, 15):
            for n in range(m + 1, N // m + 1):
                if math.gcd(m, n) == 1:
                    assert coeffs[m * n] == coeffs[m] * coeffs[n], name
    # odd moments vanish
    bound = math.isqrt(4 * 50 // 3) + 1
    for t in (1, 3, 5, 7):
        sums = [0] * 51
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                v = x * x + x * y + y * y
                if v <= 50:
                    sums[v] += x**t
        assert all(s == 0 for s in sums)
    # series ring axioms and inversion on randomized exact inputs
    rng = random.Random(99)
    for _ in range(25):
        a = QSeries([rng.randint(-(2**70), 2**70) for _ in range(9)])
        b = QSeries([rng.randint(-5, 5) for _ in range(9)])
        c = QSeries([rng.randint(-5, 5) for _ in range(9)])
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        unit = QSeries([rng.choice((1, -1))] + list(a.coeffs[1:]))
        assert unit * unit.invert() == QSeries.one(a.precision)
    _announce("7 properties", "multiplicativity, odd moments, ring axioms, inversion")


def test_criterion_8_discrepancy_report_and_exit_status(capsys):
    reports = {r.name: r for r in identities.verify_all(50, "all", N)}
    for ell in (6, 8, 10):
        report = reports[f"rho-star-{ell}"]
        payload = report_json_dict(report)
        assert payload["n_max"] == 50
        assert payload["mismatches"], "table must quantify the differences"
        for row in payload["mismatches"]:
            assert set(row) == {"n", "lhs", "rhs"}
    for name, report in reports.items():
        if name not in identities.DOCUMENTED_DISCREPANCIES:
            assert report.all_match, f"{name}: {report.first_mismatch}"
    code = main(["verify", "--all", "--nmax", "50"])
    capsys.readouterr()  # swallow the table output
    assert code == 0
    _announce("8 discrepancy-report", "rho-star tables emitted; verify --all exits 0")
