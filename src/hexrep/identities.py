"""Closed-form identities for representation numbers, checked exactly.

Every check compares two exact rational computations coefficient by
coefficient and produces an IdentityReport; no comparison in this module
is ever approximate.  The brute-force theta coefficients from the lattice
module are the universal reference side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import forms, lattice
from .arith import CHI3, CHI_TRIVIAL, bernoulli, rho_star, sigma_star, sigma_twisted
from .lattice import lomadze_values
from .series import DEFAULT_PRECISION, QSeries, grow_only, linear_combination, prefix


class PrecisionTooLow(ValueError):
    """Requested range exceeds the working table precision."""


class UnknownIdentity(ValueError):
    """Identity name not in the registry."""


def _exact(value):
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


# -- divisor convolutions ------------------------------------------------------


def _coeffs(name: str, precision: int) -> tuple:
    """Coefficients 0..precision of a catalog cusp form or a catalog finite sum."""
    if name in forms.CATALOG_NAMES:
        return forms.named_form(name, precision).series.coeffs
    return lomadze_values(name, precision)


@grow_only(prefix)
def _conv(power: int, name: str, precision: int, *, with_zero: bool = False, scale: int = 1) -> tuple:
    """The table over n <= precision of sum(sigma_power(a) * x[b]), scale*a + b = n, a, b >= 1.

    x is the named sequence of `_coeffs`.  The sigma series is
    sigma_r(0) (E_(r+1) - 1), where sigma_r(0) = -B_(r+1) / (2(r+1)) is
    1/240, -1/504, 1/480 for r = 3, 5, 7; with_zero adds the a = 0 term
    sigma_r(0) x[n].  b = 0 adds nothing: x[0] = 0.
    """
    sigma_at_zero = -bernoulli(power + 1) / (2 * (power + 1))
    sigmas = sigma_at_zero * (forms.eisenstein_classical(power + 1, precision) - 1)
    x = QSeries(_coeffs(name, precision))
    product = sigmas.scale_argument(scale) * x
    if with_zero:
        product = linear_combination((1, product), (sigma_at_zero, x))
    return product.coeffs


# -- coefficient tables -------------------------------------------------------


def _resolve_precision(n: int, precision: int | None) -> int:
    if precision is None:
        return max(n, DEFAULT_PRECISION)
    if n > precision:
        raise PrecisionTooLow(f"n={n} exceeds the working precision {precision}")
    return precision


@grow_only(prefix)
def tau_10_3_2_values(precision: int) -> tuple:
    """Weight-10 coefficient sequence, defined as L_10_6(n) / 120 (exact)."""
    return tuple(_exact(Fraction(v, 120)) for v in lomadze_values("L_10_6", precision))


# -- the odd weights ----------------------------------------------------------

#: F_k = a E_k(chi3, 1) + b E_k(1, chi3) + sum(c * cusp) for k = 7, 9, 11, as
#: k: (a, b, ((c, cusp form name), ...)).  The large coefficient a goes with
#: the series twisted on the cofactor (zero constant term) and b with the one
#: twisted on the divisor; the assignment is forced: the other pairing
#: already fails at n = 2, while this one matches the counts at every n and
#: gives the constant term exactly 1.  The paper restates the Eisenstein
#: part as (a / 3^((k-1)/2)) rho*_(k-1), printed as 3/7, 27/809 and 3/1847.
ODD_WEIGHTS = {
    7: (Fraction(81, 7), Fraction(-3, 7), ((Fraction(216, 7), "delta_7_3"),)),
    9: (Fraction(2187, 809), Fraction(27, 809), ((Fraction(1119744, 809), "delta_9_3_1"), (Fraction(41472, 809), "delta_9_3_2"))),
    11: (Fraction(729, 1847), Fraction(-3, 1847), ((Fraction(60588, 9235), "delta_11_3_1"), (Fraction(545292, 9235), "delta_11_3_2"))),
}


def _cusp_part(k: int, n: int, precision: int):
    return sum(c * _coeffs(name, precision)[n] for c, name in ODD_WEIGHTS[k][2])


def theorem_formula(k: int, n: int, precision: int | None = None):
    """Printed statement for k in ODD_WEIGHTS: (a / 3^((k-1)/2)) rho*_(k-1)(n) + cusp part.

    Uses the literal rho* definition, which the rho-star reports show to be
    inconsistent with the counts; kept as stated so the discrepancy is
    measurable.
    """
    N = _resolve_precision(n, precision)
    a = ODD_WEIGHTS[k][0]
    return _exact(a / 3 ** ((k - 1) // 2) * rho_star(k - 1, n) + _cusp_part(k, n, N))


# -- per-n scalar formulas ----------------------------------------------------


def s24_formula(n: int, precision: int | None = None):
    """s_24(n) from starred divisor sums, tau, and two boundary convolutions."""
    N = _resolve_precision(n, precision)
    tau = _coeffs("delta", N)
    return _exact(
        Fraction(6552, 73 * 691) * sigma_star(11, n)
        + Fraction(29824, 691) * tau[n]
        + Fraction(240 * 1186848, 50443) * _conv(3, "delta_8_3", N, with_zero=True)[n]
        - Fraction(504 * 261344, 50443) * _conv(5, "delta_6_3", N, with_zero=True)[n]
    )


def s28_formula(n: int, precision: int | None = None):
    """s_28(n) from starred divisor sums, tau convolutions, and two boundary convolutions."""
    N = _resolve_precision(n, precision)
    tau = _coeffs("delta", N)
    return _exact(
        Fraction(12, 1093) * sigma_star(13, n)
        + Fraction(107264, 1093) * tau[n]
        + Fraction(107264 * 12, 1093)
        * (_conv(1, "delta", N)[n] - 3 * _conv(1, "delta", N, scale=3)[n])
        + Fraction(12448 * 504, 1093) * _conv(5, "delta_8_3", N, with_zero=True)[n]
        - Fraction(3016 * 480, 1093) * _conv(7, "delta_6_3", N, with_zero=True)[n]
    )


def lomadze_s24(n: int, precision: int | None = None):
    """s_24(n) from the starred divisor sum and three F-block finite sums."""
    N = _resolve_precision(n, precision)
    return _exact(
        Fraction(1, 73 * 691)
        * (
            6552 * sigma_star(11, n)
            + Fraction(291096, 35) * lomadze_values("L_12_8", N)[n]
            + 864 * lomadze_values("L_12_6", N)[n]
            + 360 * lomadze_values("L_12_4", N)[n]
        )
    )


def lomadze_s28(n: int, precision: int | None = None):
    """s_28(n) from the starred divisor sum and three F-block finite sums."""
    N = _resolve_precision(n, precision)
    return _exact(
        Fraction(12, 1093) * sigma_star(13, n)
        + Fraction(188954, 803355) * lomadze_values("L_14_10", N)[n]
        + Fraction(1728, 267785) * lomadze_values("L_14_8", N)[n]
        + Fraction(288, 191275) * lomadze_values("L_14_6", N)[n]
    )


def tau_from_lattice_sums(n: int, precision: int | None = None):
    """Ramanujan tau from finite lattice sums and two divisor convolutions."""
    N = _resolve_precision(n, precision)
    inner = (
        Fraction(36387, 35) * lomadze_values("L_12_8", N)[n]
        + 108 * lomadze_values("L_12_6", N)[n]
        + Fraction(1, 3) * lomadze_values("Lcal_4", N)[n]
        - Fraction(32668, 12) * lomadze_values("L_6_2", N)[n]
        - 329680 * _conv(3, "L_8_4", N)[n]
        + 1372056 * _conv(5, "L_6_2", N)[n]
    )
    return _exact(Fraction(1, 73 * 3728) * inner)


#: Weights 2k for which a closed formula (and a decomposition) is implemented.
FORMULA_KS = (7, 9, 11, 12, 14)


def s2k_from_divisor_sums(k: int, n: int, precision: int | None = None):
    """Per-n scalar formula for s_2k, k in FORMULA_KS.

    For the odd weights this is a sigma(chi3, 1) + b sigma(1, chi3) + cusp
    part, read off ODD_WEIGHTS as the decomposition series is; the printed
    rho* restatement is measured separately by the rho-star reports.
    """
    N = _resolve_precision(n, precision)
    if k == 12:
        return s24_formula(n, precision)
    if k == 14:
        return s28_formula(n, precision)
    if k not in ODD_WEIGHTS:
        raise ValueError(f"no closed formula for k={k}; supported: {FORMULA_KS}")
    a, b, _ = ODD_WEIGHTS[k]
    return _exact(
        a * sigma_twisted(k - 1, CHI3, CHI_TRIVIAL, n)
        + b * sigma_twisted(k - 1, CHI_TRIVIAL, CHI3, n)
        + _cusp_part(k, n, N)
    )


# -- basis decompositions -----------------------------------------------------


@grow_only(QSeries.truncate)
def decomposition(k: int, precision: int) -> QSeries:
    """The basis combination equal to the theta series of F_k, k in FORMULA_KS."""
    if k in ODD_WEIGHTS:
        a, b, cusps = ODD_WEIGHTS[k]
        return linear_combination(
            (a, forms.eisenstein_twisted(k, CHI3, CHI_TRIVIAL, precision)),
            (b, forms.eisenstein_twisted(k, CHI_TRIVIAL, CHI3, precision)),
            *((c, forms.named_form(name, precision).series) for c, name in cusps),
        )
    if k == 12:
        e12 = forms.eisenstein_classical(12, precision)
        e4 = forms.eisenstein_classical(4, precision)
        e6 = forms.eisenstein_classical(6, precision)
        delta = forms.named_form("delta", precision).series
        d83 = forms.named_form("delta_8_3", precision).series
        d63 = forms.named_form("delta_6_3", precision).series
        return linear_combination(
            (Fraction(1, 730), e12),
            (Fraction(729, 730), e12.scale_argument(3)),
            (Fraction(29824, 691), delta),
            (Fraction(1186848, 50443), e4 * d83),
            (Fraction(261344, 50443), e6 * d63),
        )
    if k == 14:
        e14 = forms.eisenstein_classical(14, precision)
        e8 = forms.eisenstein_classical(8, precision)
        e6 = forms.eisenstein_classical(6, precision)
        d83 = forms.named_form("delta_8_3", precision).series
        d63 = forms.named_form("delta_6_3", precision).series
        return linear_combination(
            (-Fraction(1, 2186), e14),
            (Fraction(2187, 2186), e14.scale_argument(3)),
            (-Fraction(3016, 1093), e8 * d63),
            (-Fraction(12448, 1093), e6 * d83),
            (Fraction(107264, 1093), forms.quasimodular_combination(precision)),
        )
    raise ValueError(f"no decomposition for k={k}; supported: {FORMULA_KS}")


# -- reports -------------------------------------------------------------------


def encode_value(v):
    v = _exact(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


def decode_value(v):
    if isinstance(v, str):
        num, _, den = v.partition("/")
        return Fraction(int(num), int(den))
    return v


@dataclass(frozen=True)
class IdentityReport:
    """Exact per-n verdicts for one identity over the range 1..n_max.

    ``lhs[i]`` and ``rhs[i]`` are the two sides at n = i + 1, stored as
    exact rationals.  ``constant_term`` optionally carries the (lhs, rhs)
    pair at n = 0 for identities that also evaluate there; it does not
    affect the match status, which only covers n >= 1.
    """

    name: str
    n_max: int
    lhs: tuple
    rhs: tuple
    constant_term: tuple | None = None
    note: str = ""

    def __post_init__(self):
        if len(self.lhs) != self.n_max or len(self.rhs) != self.n_max:
            raise ValueError("a report over 1..N must carry exactly N entries per side")

    @property
    def entries(self) -> tuple:
        return tuple(
            (i + 1, self.lhs[i], self.rhs[i]) for i in range(self.n_max)
        )

    @property
    def mismatches(self) -> tuple:
        return tuple(e for e in self.entries if e[1] != e[2])

    @property
    def all_match(self) -> bool:
        return all(l == r for _, l, r in self.entries)

    @property
    def first_mismatch(self):
        for entry in self.entries:
            if entry[1] != entry[2]:
                return entry
        return None

    @property
    def status(self) -> str:
        return "match" if self.all_match else "mismatch"

    @property
    def constant_term_matches(self) -> bool | None:
        if self.constant_term is None:
            return None
        return self.constant_term[0] == self.constant_term[1]

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "n_max": self.n_max,
            "status": self.status,
            "mismatches": [
                {"n": n, "lhs": encode_value(l), "rhs": encode_value(r)}
                for n, l, r in self.mismatches
            ],
        }
        if self.constant_term is not None:
            out["constant_term"] = {
                "lhs": encode_value(self.constant_term[0]),
                "rhs": encode_value(self.constant_term[1]),
                "match": self.constant_term_matches,
            }
        if self.note:
            out["note"] = self.note
        return out

    def summary(self) -> "ReportSummary":
        return ReportSummary(
            name=self.name,
            n_max=self.n_max,
            status=self.status,
            mismatches=tuple((n, _exact(l), _exact(r)) for n, l, r in self.mismatches),
            constant_term=(
                None
                if self.constant_term is None
                else tuple(_exact(v) for v in self.constant_term)
            ),
            note=self.note,
        )


@dataclass(frozen=True)
class ReportSummary:
    """The JSON-visible projection of an IdentityReport (mismatches only)."""

    name: str
    n_max: int
    status: str
    mismatches: tuple
    constant_term: tuple | None = None
    note: str = ""


def report_from_json_dict(d: dict) -> ReportSummary:
    constant_term = None
    if "constant_term" in d:
        constant_term = (
            decode_value(d["constant_term"]["lhs"]),
            decode_value(d["constant_term"]["rhs"]),
        )
    return ReportSummary(
        name=d["name"],
        n_max=d["n_max"],
        status=d["status"],
        mismatches=tuple(
            (m["n"], decode_value(m["lhs"]), decode_value(m["rhs"]))
            for m in d["mismatches"]
        ),
        constant_term=constant_term,
        note=d.get("note", ""),
    )


def _pointwise_report(name, n_max, lhs_fn, rhs_fn, constant_term=None, note=""):
    lhs = tuple(_exact(lhs_fn(n)) for n in range(1, n_max + 1))
    rhs = tuple(_exact(rhs_fn(n)) for n in range(1, n_max + 1))
    return IdentityReport(name, n_max, lhs, rhs, constant_term, note)


# -- identity checks ------------------------------------------------------------


def check_decomposition(k: int, n_max: int, precision: int | None = None) -> IdentityReport:
    """Basis decomposition of the weight-k theta power against brute force."""
    N = _resolve_precision(n_max, precision)
    dec = decomposition(k, N).coeffs
    ref = lattice.s2k_bruteforce(k, N)
    note = ""
    if dec[0] != ref[0]:
        note = (
            "the combination reproduces every coefficient n >= 1; its constant "
            "term differs (the closed formulas are statements about positive n)"
        )
    return IdentityReport(
        f"f{k}-decomposition",
        n_max,
        tuple(_exact(c) for c in dec[1 : n_max + 1]),
        tuple(ref[1 : n_max + 1]),
        constant_term=(_exact(dec[0]), ref[0]),
        note=note,
    )


def check_against_counts(
    name: str, k: int, formula, n_max: int, precision: int | None = None, note: str = ""
) -> IdentityReport:
    """A per-n formula for s_2k, formula(n, precision), against the brute-force counts."""
    N = _resolve_precision(n_max, precision)
    ref = lattice.s2k_bruteforce(k, N)
    return _pointwise_report(name, n_max, lambda n: formula(n, N), lambda n: ref[n], note=note)


def check_s2k_theorem(k: int, n_max: int, precision: int | None = None) -> IdentityReport:
    """Printed rho*-based statement for weight k in {7, 9, 11} against brute force."""
    return check_against_counts(
        f"s{2 * k}-theorem",
        k,
        partial(theorem_formula, k),
        n_max,
        precision,
        note=(
            "uses the printed rho* definition; mismatches are expected and "
            "quantified by the rho-star reports"
        ),
    )


def check_rho_star(ell: int, n_max: int, precision: int | None = None) -> IdentityReport:
    """Printed rho*_ell against the value the decomposition forces from the counts.

    Solving s_2k(n) = (a / 3^(ell/2)) rho*_ell(n) + cusp part for rho*, with
    k = ell + 1, gives (s_2k(n) - cusp part) 3^(ell/2) / a.
    """
    N = _resolve_precision(n_max, precision)
    k = ell + 1
    a = ODD_WEIGHTS[k][0]
    ref = lattice.s2k_bruteforce(k, N)
    return _pointwise_report(
        f"rho-star-{ell}",
        n_max,
        lambda n: rho_star(ell, n),
        lambda n: (ref[n] - _cusp_part(k, n, N)) * 3 ** (ell // 2) / a,
        note=(
            "lhs is the printed definition, rhs the value forced by the "
            "brute-force counts and the cusp coefficients; entries listed "
            "under mismatches quantify the difference"
        ),
    )


def check_tau_eq(n_max: int, precision: int | None = None) -> IdentityReport:
    """The lattice-sum expression for tau against the eta-power expansion."""
    N = _resolve_precision(n_max, precision)
    tau = _coeffs("delta", N)
    return _pointwise_report(
        "tau-eq", n_max, lambda n: tau_from_lattice_sums(n, N), lambda n: tau[n]
    )


#: The newform coefficient identities, weights 6 to 11.
NEWFORM_NAMES = tuple(f"newform-w{w}" for w in range(6, 12))

#: scale * sum(c * cusp(n)) = m * L(n), as (scale, ((c, cusp form name), ...), m, sum name);
#: weight 10 has no independent cusp expansion and is checked on its own.
NEWFORM_SUMS = {
    "newform-w6": (12, ((1, "delta_6_3"),), 1, "L_6_2"),
    "newform-w7": (30, ((1, "delta_7_3"),), 1, "L_7_3"),
    "newform-w8": (108, ((1, "delta_8_3"),), 1, "L_8_4"),
    "newform-w9": (168, ((27, "delta_9_3_1"), (1, "delta_9_3_2")), 1, "L_9_5"),
    "newform-w11": (81, ((1, "delta_11_3_1"), (9, "delta_11_3_2")), 5, "L_11_7"),
}


def check_newform(name: str, n_max: int, precision: int | None = None) -> IdentityReport:
    """One coefficient identity tying a cusp expansion to a finite sum."""
    N = _resolve_precision(n_max, precision)
    if name == "newform-w10":
        l106 = lomadze_values("L_10_6", N)
        return _pointwise_report(
            name,
            n_max,
            lambda n: l106[n] % 120,
            lambda n: 0,
            note=(
                "the weight-10 coefficients are defined as L_10_6(n)/120, so "
                "exact divisibility by 120 is the verifiable content here; the "
                "values themselves are exercised by the convolution identities"
            ),
        )
    scale, cusps, m, sum_name = NEWFORM_SUMS[name]
    cusps = [(c, _coeffs(form, N)) for c, form in cusps]
    values = lomadze_values(sum_name, N)
    return _pointwise_report(
        name,
        n_max,
        lambda n: scale * sum(c * coeffs[n] for c, coeffs in cusps),
        lambda n: m * values[n],
    )


def newform_coeff_identities(n_max: int, precision: int | None = None) -> list[IdentityReport]:
    """The six coefficient identities tying cusp expansions to finite sums."""
    return [check_newform(name, n_max, precision) for name in NEWFORM_NAMES]


def ramanujan_convolution(n_max: int, precision: int | None = None) -> IdentityReport:
    """sum(sigma(a) tau(b), a + b = n) = (1 - n) tau(n) / 24, exactly."""
    N = _resolve_precision(n_max, precision)
    tau = _coeffs("delta", N)
    return _pointwise_report(
        "ramanujan-convolution",
        n_max,
        lambda n: _conv(1, "delta", N)[n],
        lambda n: Fraction((1 - n) * tau[n], 24),
    )


def e2_delta_convolution(n_max: int, precision: int | None = None) -> IdentityReport:
    """The seven-term expression for sum(sigma(a) tau(b), 3a + b = n).

    The inner sums are first taken over a, b >= 1; if that fails anywhere
    the 0-inclusive convention is tried and the outcome of both attempts is
    recorded in the report note.
    """
    N = _resolve_precision(n_max, precision)
    tau = _coeffs("delta", N)
    tau63 = _coeffs("delta_6_3", N)
    tau83 = _coeffs("delta_8_3", N)
    tau1032 = tau_10_3_2_values(N)

    def rhs(with_zero):
        c63 = _conv(7, "delta_6_3", N, with_zero=with_zero)
        c83 = _conv(5, "delta_8_3", N, with_zero=with_zero)
        c106 = _conv(3, "L_10_6", N, with_zero=with_zero)  # tau_10_3_2 is L_10_6 / 120
        return tuple(
            _exact(
                Fraction(3 - n, 72) * tau[n]
                - Fraction(1, 576) * tau63[n]
                - Fraction(1, 96) * tau83[n]
                - Fraction(1, 64) * tau1032[n]
                - Fraction(5, 6) * c63[n]
                + Fraction(21, 4) * c83[n]
                - Fraction(15, 4) * c106[n] / 120
            )
            for n in range(1, n_max + 1)
        )

    lhs = tuple(_exact(c) for c in _conv(1, "delta", N, scale=3)[1 : n_max + 1])
    conventions = (
        (False, "inner sums taken over a, b >= 1; no boundary terms needed"),
        (True, "inner sums over a, b >= 1 fail; the identity holds under the "
         "0-inclusive convention with the stated boundary constants"),
    )
    with_zero, note = next(
        ((with_zero, note) for with_zero, note in conventions if rhs(with_zero) == lhs),
        (False, "neither index convention reproduces the left side; values shown use a, b >= 1"),
    )
    return IdentityReport("e2-delta-convolution", n_max, lhs, rhs(with_zero), note=note)


def s28_convolution_identity(n_max: int, precision: int | None = None) -> IdentityReport:
    """Three divisor convolutions of finite sums against six finite sums.

    The first term on the right enters with coefficient -461/3: that sign
    follows from the substitution chain and the n = 1 evaluation, where all
    convolutions are empty and the right side must vanish.
    """
    N = _resolve_precision(n_max, precision)
    l62 = lomadze_values("L_6_2", N)
    l84 = lomadze_values("L_8_4", N)
    l106 = lomadze_values("L_10_6", N)
    l14_10 = lomadze_values("L_14_10", N)
    l14_8 = lomadze_values("L_14_8", N)
    l14_6 = lomadze_values("L_14_6", N)
    c62, c84, c106 = _conv(7, "L_6_2", N), _conv(5, "L_8_4", N), _conv(3, "L_10_6", N)

    def lhs(n):
        return 73760 * c62[n] - Fraction(194432, 3) * c84[n] + 60336 * c106[n]

    def rhs(n):
        return (
            -Fraction(461, 3) * l62[n]
            - Fraction(3472, 27) * l84[n]
            - Fraction(1257, 5) * l106[n]
            + Fraction(94477, 735) * l14_10[n]
            + Fraction(864, 245) * l14_8[n]
            + Fraction(144, 175) * l14_6[n]
        )

    return _pointwise_report(
        "s28-convolution",
        n_max,
        lhs,
        rhs,
        note="right-hand L_6_2 coefficient is -461/3 (sign fixed by the empty-sum case n = 1)",
    )


# -- the registry and the full run ----------------------------------------------

IDENTITY_BUILDERS = {
    **{f"f{k}-decomposition": partial(check_decomposition, k) for k in FORMULA_KS},
    **{f"s{2 * k}-theorem": partial(check_s2k_theorem, k) for k in ODD_WEIGHTS},
    **{f"rho-star-{k - 1}": partial(check_rho_star, k - 1) for k in ODD_WEIGHTS},
    "s24-formula": partial(check_against_counts, "s24-formula", 12, s24_formula),
    "s28-formula": partial(check_against_counts, "s28-formula", 14, s28_formula),
    "lomadze-s24": partial(check_against_counts, "lomadze-s24", 12, lomadze_s24),
    "lomadze-s28": partial(check_against_counts, "lomadze-s28", 14, lomadze_s28),
    "tau-eq": check_tau_eq,
    **{name: partial(check_newform, name) for name in NEWFORM_NAMES},
    "ramanujan-convolution": ramanujan_convolution,
    "e2-delta-convolution": e2_delta_convolution,
    "s28-convolution": s28_convolution_identity,
}

IDENTITY_NAMES = tuple(IDENTITY_BUILDERS)

#: Printed statements known to disagree with the counts; reported, and
#: excluded from the default pass/fail verdict.
DOCUMENTED_DISCREPANCIES = frozenset(
    {
        "s14-theorem",
        "s18-theorem",
        "s22-theorem",
        "rho-star-6",
        "rho-star-8",
        "rho-star-10",
    }
)


def verify_all(
    n_max: int,
    selection="all",
    precision: int | None = None,
) -> list[IdentityReport]:
    """Run the selected identity checks for n = 1..n_max at the given precision."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if precision is None:
        precision = DEFAULT_PRECISION
    if n_max > precision:
        raise PrecisionTooLow(
            f"n_max={n_max} exceeds the working precision {precision}"
        )
    if selection == "all":
        names = IDENTITY_NAMES
    else:
        names = tuple(selection)
        unknown = [name for name in names if name not in IDENTITY_BUILDERS]
        if unknown:
            raise UnknownIdentity(
                f"unknown identities {unknown}; known: {', '.join(IDENTITY_NAMES)}"
            )
    return [IDENTITY_BUILDERS[name](n_max, precision) for name in names]


def verification_passed(reports, strict: bool = False) -> bool:
    """True when every report matches, ignoring documented discrepancies unless strict."""
    return all(
        r.all_match or (not strict and r.name in DOCUMENTED_DISCREPANCIES)
        for r in reports
    )
