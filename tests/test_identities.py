"""The closed-form identities, their reports, and the verification run."""

import ast
import importlib.util
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from memos import clear_all
from oracles import (
    FORMULAS_DIRECT,
    SIGMA_AT_ZERO,
    catalog_values,
    conv_direct,
    eisenstein_times_form,
    quasimodular_combination,
    report_json_dict,
    s2k_odd_direct,
)

from hexrep import arith, forms, identities, lattice
from hexrep.identities import (
    DOCUMENTED_DISCREPANCIES,
    IDENTITY_NAMES,
    IdentityReport,
    ONE,
    PrecisionTooLow,
    UnknownIdentity,
    check,
    combine,
    decomposition,
    formula_table,
    newform_coeff_identities,
    s2k_from_divisor_sums,
    table,
    tau_from_lattice_sums,
    verification_passed,
    verify_all,
)
from hexrep.series import linear_combination

N = 200


def _with_zero(c, power, name, scale=1):
    """c sum(sigma_power(a) * x[b]), scale*a + b = n, a >= 0, b >= 1, as two terms: the sums over a >= 1 and sigma_power(0) x[n]."""
    return (c, ("conv", power, name, scale)), (c * SIGMA_AT_ZERO[power], name)


def test_convention_constants():
    # delta_8_3 is normalized (first coefficient 1), so at n = 1 the a = 0
    # term alone gives sigma_r(0)
    for power, sigma_at_zero in SIGMA_AT_ZERO.items():
        assert table(("conv", power, "delta_8_3", 1), N)[1] == 0  # plain sums start at a = 1
        assert combine(_with_zero(1, power, "delta_8_3"), N)[1] == sigma_at_zero
        # E_(r+1) is -(2(r+1)/B_(r+1)) times the sigma_r series with its a = 0 term, constant
        # term 1, so the weight terms write the a = 0 term of E_j x as the bare x
        assert -2 * (power + 1) / arith.bernoulli(power + 1) * sigma_at_zero == 1
    # cusp expansions and finite sums vanish at index 0, so b = 0 never contributes
    for name in forms.CATALOG_NAMES:
        assert forms.named_form(name, 5).series.coeffs[0] == 0
    for spec in lattice.LOMADZE_CATALOG:
        assert lattice.lomadze_values(spec.name, 5)[0] == 0


def test_boundary_term_of_zero_inclusive_convolution():
    # a = 0 adds sigma_r(0) * cusp[n], with the boundary constants sigma_r(0)
    tau83 = forms.named_form("delta_8_3", 30).series.coeffs
    assert tau83[0] == 0  # so b = 0 adds nothing
    for power, sigma_at_zero in ((3, Fraction(1, 240)), (5, Fraction(-1, 504)), (7, Fraction(1, 480))):
        plain = table(("conv", power, "delta_8_3", 1), 30)
        with_zero = combine(_with_zero(1, power, "delta_8_3"), 30)
        for n in (1, 5, 12):
            assert with_zero[n] - plain[n] == sigma_at_zero * tau83[n]


#: Every convolution the identities and the weight-12 and weight-14 decompositions
#: take, as (power, sequence, with_zero, scale); with_zero is the 0-inclusive sum.
CONVOLUTIONS = (
    (1, "delta", False, 1),
    (1, "delta", False, 3),
    (1, "delta", True, 1),
    (1, "delta", True, 3),
    (3, "delta_8_3", True, 1),
    (5, "delta_6_3", True, 1),
    (5, "delta_8_3", False, 1),
    (5, "delta_8_3", True, 1),
    (7, "delta_6_3", False, 1),
    (7, "delta_6_3", True, 1),
    (3, "L_8_4", False, 1),
    (5, "L_6_2", False, 1),
    (3, "L_10_6", False, 1),
    (7, "L_6_2", False, 1),
    (5, "L_8_4", False, 1),
)


@pytest.mark.parametrize("power, name, with_zero, scale", CONVOLUTIONS)
def test_conv_against_per_n_oracle(power, name, with_zero, scale):
    x = catalog_values(name, 100)
    expected = tuple(conv_direct(power, x, n, with_zero, scale) for n in range(101))
    if with_zero:
        terms = _with_zero(1, power, name, scale)
        assert all(type(v) is int for _, source in terms for v in table(source, 100))  # the boundary is a term, not a Fraction table
        assert combine(terms, 100) == expected
    else:
        assert table(("conv", power, name, scale), 100) == expected


def test_convolution_list_is_complete():
    sources = {
        source
        for sides in identities.SIDES.values()
        for terms in (sides.lhs, sides.rhs)
        for _, source in terms
        if source[0] == "conv"
    }
    assert sources == {("conv", power, name, scale) for power, name, _, scale in CONVOLUTIONS}


def _eisenstein_times(c, k, name, scale=1):
    """c E_k(scale z) x for a catalog form x as two terms: E_k is -(2k/B_k) times the sigma_(k-1) series with its a = 0 term."""
    return _with_zero(c * -2 * k / arith.bernoulli(k), k - 1, name, scale)


@pytest.mark.parametrize("k, name", ((4, "delta_8_3"), (6, "delta_6_3"), (8, "delta_6_3"), (6, "delta_8_3")))
def test_eisenstein_terms_against_series_product(k, name):
    terms = _eisenstein_times(1, k, name)
    assert all(type(v) is int for _, source in terms for v in table(source, 400))
    as_weight_terms = ((1, name), (-2 * k / arith.bernoulli(k), ("conv", k - 1, name, 1)))  # as _weight_terms writes it
    assert combine(terms, 400) == combine(as_weight_terms, 400) == eisenstein_times_form(k, name, 400).coeffs


def test_e2_delta_terms_against_quasimodular_product():
    # (3 E_2(3z) - E_2(z)) / 2 delta = delta + 12 sigma * delta - 36 sigma(./3) * delta
    terms = (*_eisenstein_times(Fraction(3, 2), 2, "delta", 3), *_eisenstein_times(Fraction(-1, 2), 2, "delta"))
    assert combine(terms, 400) == quasimodular_combination(400).coeffs
    expected = ((1, "delta"), (12, ("conv", 1, "delta", 1)), (-36, ("conv", 1, "delta", 3)))
    assert combine(terms, 400) == combine(expected, 400)


def test_formula_tables_against_per_n_oracles():
    assert set(FORMULAS_DIRECT) < set(identities.SIDES)
    clear_all()
    for precision in (50, 300):  # built at 50, then grown
        for name, direct in FORMULAS_DIRECT.items():
            table = formula_table(name, precision)
            assert len(table) == precision + 1
            assert table[1:] == tuple(direct(n, precision) for n in range(1, precision + 1)), name
        for k in identities.WEIGHTS:  # the even k against the typed constants of s24_direct and s28_direct
            direct = partial(s2k_odd_direct, k) if k % 2 else FORMULAS_DIRECT[f"s{2 * k}-formula"]
            values = [s2k_from_divisor_sums(k, n, precision) for n in range(1, precision + 1)]
            assert values == [direct(n, precision) for n in range(1, precision + 1)], k


def _lomadze_sum(n, precision=None):
    return lattice.lomadze_sum(lattice.lomadze_spec("L_12_4"), n, precision)


#: Every public per-n formula, as f(n, precision).
PER_N_FORMULAS = (
    _lomadze_sum,
    tau_from_lattice_sums,
    *(partial(s2k_from_divisor_sums, k) for k in identities.FORMULA_KS),
)


def test_per_n_formulas_reject_indices_below_their_range():
    for formula in PER_N_FORMULAS:
        for precision in (None, N):
            with pytest.raises(ValueError, match="n must be >= "):
                formula(-1, precision)
            if formula in (tau_from_lattice_sums, _lomadze_sum):  # both defined at n = 0
                assert formula(0, precision) == 0
            else:
                with pytest.raises(ValueError, match="n must be >= 1"):
                    formula(0, precision)


def test_verify_all_does_no_trial_division(monkeypatch):
    def refuse(n):
        raise AssertionError("trial division on the verify path")

    monkeypatch.setattr(arith, "divisors", refuse)
    clear_all()
    reports = verify_all(200)
    assert {r.name for r in reports if not r.all_match} == set(DOCUMENTED_DISCREPANCIES)


def test_decompositions_equal_brute_force():
    for k in (7, 9, 11, 12, 14):
        series = decomposition(k, N)
        ref = lattice.s2k_bruteforce(k, N)
        assert series.coeffs == ref, f"decomposition failed for k={k}"


def test_decomposition_constant_terms_are_one():
    # resolved question: the combinations hold at q^0 as well
    for k in (7, 9, 11, 12, 14):
        report = check(f"f{k}-decomposition", 10, N)
        assert report.constant_term == (1, 1)
        assert report.constant_term_matches


def test_s14_formula_printed_variant():
    # the printed rho* gives 216/7 at n = 1 while the count is 42
    assert formula_table("s14-theorem", N)[1] == Fraction(216, 7)
    assert lattice.s2k_bruteforce(7, 1)[1] == 42
    assert decomposition(7, N).coefficient(1) == 42


def test_scalar_formula_path_matches_brute_force():
    for k in (7, 9, 11, 12, 14):
        ref = lattice.s2k_bruteforce(k, N)
        for n in range(1, 61):
            assert s2k_from_divisor_sums(k, n, N) == ref[n], (k, n)


def test_s24_s28_formulas():
    ref12 = lattice.s2k_bruteforce(12, N)
    ref14 = lattice.s2k_bruteforce(14, N)
    s24, s28 = (formula_table(name, N) for name in ("s24-formula", "s28-formula"))
    for n in range(1, 101):
        assert s24[n] == s2k_from_divisor_sums(12, n, N) == ref12[n]
        assert s28[n] == s2k_from_divisor_sums(14, n, N) == ref14[n]
    assert s28[1] == 84


def test_lomadze_formulas():
    ref12 = lattice.s2k_bruteforce(12, N)
    ref14 = lattice.s2k_bruteforce(14, N)
    s24, s28 = (formula_table(name, N) for name in ("lomadze-s24", "lomadze-s28"))
    for n in range(1, 61):
        assert s24[n] == ref12[n]
        assert s28[n] == ref14[n]


def test_tau_from_lattice_sums():
    tau = forms.named_form("delta", N).series.coeffs
    assert tau_from_lattice_sums(1, N) == 1
    assert tau_from_lattice_sums(2, N) == -24
    assert tau_from_lattice_sums(5, N) == 4830
    for n in range(1, 51):
        assert tau_from_lattice_sums(n, N) == tau[n]


def test_newform_identities():
    reports = newform_coeff_identities(100, N)
    assert [r.name for r in reports] == [
        "newform-w6",
        "newform-w7",
        "newform-w8",
        "newform-w9",
        "newform-w10",
        "newform-w11",
    ]
    for r in reports:
        assert r.all_match, r.name


def test_weight_ten_values_are_integers():
    # the weight-10 coefficients are L_10_6(n) / 120
    l106 = lattice.lomadze_values("L_10_6", N)
    assert l106[1] == 120  # value 1 at n = 1
    assert all(isinstance(v, int) for v in l106)
    assert all(v % 120 == 0 for v in l106)


def test_ramanujan_convolution():
    report = check("ramanujan-convolution", 200, N)
    assert report.all_match
    # two-term evaluation at n = 2
    assert report.lhs[1] == 1 and report.rhs[1] == 1
    assert report.lhs[0] == 0  # empty sum at n = 1


def test_ramanujan_convolution_series_oracle():
    # sum(sigma(a) tau(b)) = (tau(n) - [q^n](E_2 * delta)) / 24, and the
    # weight-12 logarithmic derivative gives [q^n](E_2 * delta) = n tau(n)
    e2 = forms.eisenstein_classical(2, 100)
    delta = forms.named_form("delta", 100).series
    product = e2 * delta
    for n in range(1, 101):
        assert product.coefficient(n) == n * delta.coefficient(n)


def test_e2_delta_convolution():
    report = check("e2-delta-convolution", 150, N)
    assert report.all_match
    assert "a, b >= 1" in report.note
    assert report.lhs[0] == 0 and report.lhs[1] == 0  # empty sums at n = 1, 2
    assert report.lhs[2] == 0  # n = 3 still empty: b = n - 3a >= 1 fails


def test_e2_delta_lhs_against_series_product():
    scaled = forms.eisenstein_classical(2, 150).scale_argument(3)
    delta = forms.named_form("delta", 150).series
    product = scaled * delta
    report = check("e2-delta-convolution", 150, N)
    for n in range(1, 151):
        assert product.coefficient(n) == delta.coefficient(n) - 24 * report.lhs[n - 1]


def test_e2_delta_convolution_takes_its_inner_sums_over_a_b_at_least_one():
    # the 0-inclusive convention adds sigma_r(0) x[n] to each inner sum, which
    # already breaks the identity at n = 1, where every sum over a, b >= 1 is empty
    fixed = (
        (Fraction(3, 72), "delta"),
        (Fraction(-1, 72), ("n", "delta")),
        (-Fraction(1, 576), "delta_6_3"),
        (-Fraction(1, 96), "delta_8_3"),
        (-Fraction(1, 64 * 120), "L_10_6"),
    )
    sums = ((-Fraction(5, 6), 7, "delta_6_3"), (Fraction(21, 4), 5, "delta_8_3"), (-Fraction(15, 4) / 120, 3, "L_10_6"))
    with_zero = combine((*fixed, *(term for c, r, name in sums for term in _with_zero(c, r, name))), 30)
    lhs = table(("conv", 1, "delta", 3), 30)
    assert lhs[1] == 0 != with_zero[1]
    report = check("e2-delta-convolution", 150)
    assert report.all_match
    assert report.note == "inner sums taken over a, b >= 1; no boundary terms needed"


def test_s28_convolution_identity():
    report = check("s28-convolution", 100, N)
    assert report.all_match
    assert report.lhs[0] == 0 and report.rhs[0] == 0  # all sums empty at n = 1


def test_rho_star_reports():
    r6, r8, r10 = (check(f"rho-star-{ell}", 50, N) for ell in (6, 8, 10))
    assert r6.mismatches[0] == (1, 0, 26)
    assert r8.mismatches[0] == (1, 162, 82)
    assert r10.mismatches[0] == (1, 0, 242)
    for r in (r6, r8, r10):
        assert not r.all_match
        assert r.n_max == 50 and len(r.entries) == 50


#: The k of s_2k that each formula's report compares against the counts.
FORMULA_K = {
    "s14-theorem": 7,
    "s18-theorem": 9,
    "s22-theorem": 11,
    "s24-formula": 12,
    "s28-formula": 14,
    "lomadze-s24": 12,
    "lomadze-s28": 14,
}


def test_formula_reports_compare_with_their_own_counts():
    for name, k in FORMULA_K.items():
        report = check(name, 5, N)
        assert report.name == name
        assert report.rhs == lattice.s2k_bruteforce(k, N)[1:6]
    assert check("s24-formula", 5, N).all_match


def test_every_sides_entry_is_built_by_check():
    assert IDENTITY_NAMES == tuple(identities.SIDES)
    assert len(identities.SIDES) == 25
    for name in identities.SIDES:
        builder = identities.IDENTITY_BUILDERS[name]
        assert (builder.func, builder.args) == (check, (name,))


@pytest.mark.parametrize("k", (12, 14))
def test_even_weight_formulas_read_the_weights_entry(monkeypatch, k):
    # one cusp coefficient off by one in its numerator: the decomposition and
    # the s_2k formula both read it, the oracle's own typed constants do not
    a, b, ((c, name, j, scale), *rest) = identities.WEIGHTS[k]
    monkeypatch.setitem(identities.WEIGHTS, k, (a, b, ((Fraction(c.numerator + 1, c.denominator), name, j, scale), *rest)))
    for entry in (f"f{k}-decomposition", f"s{2 * k}-formula"):  # SIDES is built from WEIGHTS at import
        monkeypatch.setitem(identities.SIDES, entry, identities.SIDES[entry]._replace(lhs=identities._weight_terms(k)))
    clear_all()
    try:
        reports = verify_all(50, (f"f{k}-decomposition", f"s{2 * k}-formula"))
        assert all(r.first_mismatch for r in reports)
        direct = FORMULAS_DIRECT[f"s{2 * k}-formula"]
        assert [direct(n, 50) for n in range(1, 51)] == list(lattice.s2k_bruteforce(k, 50)[1:])
    finally:
        clear_all()  # drop the tables built from the patched entry


def test_even_weight_eisenstein_parts_are_the_printed_sigma_star_terms():
    # a E_k(z) + b E_k(3z) = a + b + a (-2k/B_k) sigma*_(k-1) with b = a (-3)^(k/2)
    for k, printed in ((12, Fraction(6552, 50443)), (14, Fraction(12, 1093))):
        a, b, _ = identities.WEIGHTS[k]
        assert b == a * (-3) ** (k // 2)
        assert a * -2 * k / arith.bernoulli(k) == printed


def test_names_without_term_lists_are_refused():
    # rho-star-7 and newform-w12 do not exist
    for name in ("rho-star-7", "newform-w12", "nope"):
        message = (
            rf"no term lists for '{name}'; known: f7-decomposition, .*, s14-theorem, .*, "
            r"newform-w9, newform-w10, newform-w11, .*, s28-convolution$"
        )
        with pytest.raises(UnknownIdentity, match=message):
            check(name, 5, N)
        with pytest.raises(UnknownIdentity, match=message):
            formula_table(name, 5)


def test_sides_are_term_lists_that_check_combines():
    decompositions = {f"f{k}-decomposition" for k in identities.FORMULA_KS}
    assert {name for name, sides in identities.SIDES.items() if sides.at_zero} == decompositions
    for name, (lhs, rhs, note, _) in identities.SIDES.items():
        combined = []
        for terms in (lhs, rhs):
            assert type(terms) is tuple and terms and not callable(terms), name
            for c, source in terms:
                assert type(c) in (int, Fraction), name
                assert not callable(source), name
                hash(source)
                values = table(source, 40)
                assert type(values) is tuple and len(values) == 41, name
                assert all(type(v) is int for v in values), name
            combined.append(combine(terms, 40)[1:])
        report = check(name, 40)
        assert (report.lhs, report.rhs, report.note) == (*combined, note), name
        assert report.constant_term == ((1, 1) if name in decompositions else None), name
    for source in (("nope", 3), ("conv", 1, "delta"), ("sigma", 3)):
        with pytest.raises(ValueError, match=rf"^unknown source \('{source[0]}',"):
            table(source, 5)


def test_combine_against_linear_combination():
    # linear_combination, which forms and scalar products use, is the independent oracle of combine
    fraction_sides = set()
    for name, sides in identities.SIDES.items():
        for side, terms in zip(("lhs", "rhs"), sides[:2]):
            combined = combine(terms, 300)
            expected = linear_combination(*((c, table(source, 300)) for c, source in terms)).coeffs
            assert len(combined) == 301, (name, side)
            assert combined == expected, (name, side)
            assert list(map(type, combined)) == list(map(type, expected)), (name, side)
            if Fraction in map(type, combined):
                fraction_sides.add((name, side))
    # the printed rho* theorems and the rho* values they force are the sides off the integers
    theorems = {(f"s{2 * k}-theorem", "lhs") for k in identities.THEOREM_KS}
    assert fraction_sides == theorems | {(f"rho-star-{k - 1}", "rhs") for k in identities.THEOREM_KS}
    for source in (ONE, ("s2k", 7), "delta", ("conv", 1, "delta", 3)):
        assert combine(((1, source),), 300) is table(source, 300)
    assert combine(identities.SIDES["newform-w10"].rhs, 300) == (0,) * 301


def test_equal_lhs_share_one_stored_table():
    clear_all()
    verify_all(200)
    assert len(identities._lhs_table.stored()) == len(identities.SIDES) - 2 == 23
    for formula, decomposed in (("s24-formula", "f12-decomposition"), ("s28-formula", "f14-decomposition")):
        assert identities.SIDES[formula].lhs is identities.SIDES[decomposed].lhs  # built once at import
        assert formula_table(formula, N) is formula_table(decomposed, N)
        assert check(formula, 5, N).lhs == check(decomposed, 5, N).lhs


def _replace_coefficient(terms, old, new):
    return tuple((new if c == old else c, source) for c, source in terms)


@pytest.mark.parametrize(
    "name, side, old, new",
    (
        ("s28-convolution", 1, -Fraction(461, 3), -Fraction(460, 3)),
        ("newform-w9", 0, 168 * 27, 168 * 28),
        ("e2-delta-convolution", 1, Fraction(21, 4), Fraction(22, 4)),
    ),
)
def test_one_changed_constant_fails_only_its_own_report(monkeypatch, name, side, old, new):
    sides = list(identities.SIDES[name])
    assert old in [c for c, _ in sides[side]]
    sides[side] = _replace_coefficient(sides[side], old, new)
    monkeypatch.setitem(identities.SIDES, name, identities.Sides(*sides))
    clear_all()  # stored lhs tables were built from the printed constants
    try:
        reports = verify_all(50)
        assert {r.name for r in reports if not r.all_match} == DOCUMENTED_DISCREPANCIES | {name}
    finally:
        clear_all()


def test_every_src_function_is_referenced_in_src():
    # a module-level function that only its own def and the re-export in
    # hexrep/__init__.py name is kept alive by the benchmark tracer's WRAPPED table
    package = Path(identities.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    referenced = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias) and module != "__init__":
                referenced.add(node.name)
    unreferenced = {(module, name) for module, name in defined if name not in referenced}
    assert unreferenced == {
        ("arith", "rho_star"),
        ("arith", "sigma_star"),
        ("arith", "sigma_twisted"),
        ("forms", "eisenstein_twisted"),
        ("forms", "eta_quotient"),
        ("lattice", "lomadze_sum"),
        ("identities", "newform_coeff_identities"),
        ("identities", "s2k_from_divisor_sums"),  # the per-n API; the command line reads whole tables
        ("identities", "tau_from_lattice_sums"),
    }
    spec = importlib.util.spec_from_file_location("perfbench_tracer", package.parents[1] / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert unreferenced <= {(module, attr) for module, attr, _ in tracer.WRAPPED}


def test_theorem_reports_are_documented_mismatches():
    reports = verify_all(30, ("s14-theorem", "s18-theorem", "s22-theorem"), N)
    for r in reports:
        assert not r.all_match
        assert r.name in DOCUMENTED_DISCREPANCIES


def test_report_structure():
    report = check("ramanujan-convolution", 25, N)
    assert report.n_max == 25
    assert len(report.entries) == 25
    assert report.entries[0][0] == 1
    assert report.status == "match"
    assert report.first_mismatch is None
    for _, lhs, rhs in report.entries:
        assert isinstance(lhs, (int, Fraction))
        assert isinstance(rhs, (int, Fraction))
    with pytest.raises(ValueError):
        IdentityReport("bad", 3, (1,), (1, 1, 1))


def test_a_matching_report_lists_its_mismatches_without_a_walk(monkeypatch):
    matching, documented = check("ramanujan-convolution", 25, N), check("s14-theorem", 25, N)
    differing = sum(l != r for l, r in zip(documented.lhs, documented.rhs))
    assert len(documented.mismatches) == differing > 0
    monkeypatch.setattr(IdentityReport, "_mismatches", lambda self: pytest.fail("walked a matching report"))
    assert matching.mismatches == ()


@dataclass(frozen=True)
class ReportSummary:
    """The JSON-visible projection of an IdentityReport (mismatches only)."""

    name: str
    n_max: int
    status: str
    mismatches: tuple
    constant_term: tuple | None = None
    note: str = ""


def exact(value):
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def summary(report: IdentityReport) -> ReportSummary:
    return ReportSummary(
        name=report.name,
        n_max=report.n_max,
        status=report.status,
        mismatches=tuple((n, exact(l), exact(r)) for n, l, r in report.mismatches),
        constant_term=None if report.constant_term is None else tuple(map(exact, report.constant_term)),
        note=report.note,
    )


def decode_value(v):
    if isinstance(v, str):
        num, _, den = v.partition("/")
        return Fraction(int(num), int(den))
    return v


def report_from_json_dict(d: dict) -> ReportSummary:
    constant_term = None
    if "constant_term" in d:
        constant_term = (decode_value(d["constant_term"]["lhs"]), decode_value(d["constant_term"]["rhs"]))
    return ReportSummary(
        name=d["name"],
        n_max=d["n_max"],
        status=d["status"],
        mismatches=tuple((m["n"], decode_value(m["lhs"]), decode_value(m["rhs"])) for m in d["mismatches"]),
        constant_term=constant_term,
        note=d.get("note", ""),
    )


def test_report_json_round_trip():
    for name in ("tau-eq", "rho-star-6", "f7-decomposition"):
        (report,) = verify_all(20, (name,), N)
        text = json.dumps(report_json_dict(report))
        parsed = report_from_json_dict(json.loads(text))
        assert parsed == summary(report)
        # serialization is stable under a second round trip
        assert json.loads(text) == report_json_dict(report)


def test_json_rational_encoding():
    report = verify_all(3, ("s14-theorem",), N)[0]
    payload = report_json_dict(report)
    assert payload["status"] == "mismatch"
    lhs_values = [m["lhs"] for m in payload["mismatches"]]
    assert "216/7" in lhs_values  # non-integers ride as p/q strings


def test_verify_all_policy():
    reports = verify_all(50, "all", N)
    assert [r.name for r in reports] == list(IDENTITY_NAMES)
    assert verification_passed(reports)
    assert not verification_passed(reports, strict=True)
    failing = {r.name for r in reports if not r.all_match}
    assert failing == set(DOCUMENTED_DISCREPANCIES)


def test_verify_all_builds_one_report_per_identity(monkeypatch):
    built = []

    class CountingReport(IdentityReport):
        def __new__(cls, *args, **kwargs):
            report = super().__new__(cls, *args, **kwargs)
            built.append(report.name)
            return report

    def fail(*args, **kwargs):
        raise AssertionError("the registry builds each newform report on its own")

    monkeypatch.setattr(identities, "IdentityReport", CountingReport)
    monkeypatch.setattr(identities, "newform_coeff_identities", fail)
    reports = verify_all(5, "all", N)
    assert built == [r.name for r in reports] == list(IDENTITY_NAMES)


def test_verify_all_takes_one_identity_name_as_a_string():
    assert verify_all(5, "tau-eq") == verify_all(5, ["tau-eq"])
    with pytest.raises(UnknownIdentity, match=r"unknown identities \['nope'\]"):
        verify_all(5, "nope")


def test_verify_all_contracts():
    with pytest.raises(PrecisionTooLow):
        verify_all(10_000, "all", 200)
    with pytest.raises(UnknownIdentity):
        verify_all(10, ("no-such-identity",), N)
    reports = verify_all(0, ("tau-eq",), N)
    assert reports[0].n_max == 0 and reports[0].all_match
    for name in ("tau-eq", "f7-decomposition", "e2-delta-convolution"):
        for precision in (None, N):
            with pytest.raises(ValueError, match="^n_max must be >= 0$"):
                check(name, -1, precision)


def test_default_precision_resolution():
    # per-n helpers size their tables to max(n, 200) when not told otherwise
    assert tau_from_lattice_sums(3) == 252
    with pytest.raises(PrecisionTooLow):
        s2k_from_divisor_sums(12, 300, 200)


@pytest.mark.slow
def test_verify_all_to_2000():
    reports = verify_all(2000, precision=2000)
    matching = {r.name for r in reports if r.all_match}
    assert len(matching) == 19
    assert matching == set(IDENTITY_NAMES) - DOCUMENTED_DISCREPANCIES


@pytest.mark.slow
def test_verify_all_to_5000():
    reports = verify_all(5000, precision=5000)
    matching = {r.name for r in reports if r.all_match}
    assert len(matching) == 19
    assert {r.name for r in reports} - matching == DOCUMENTED_DISCREPANCIES
