"""Closed-form identities for representation numbers, checked exactly.

Every check compares two exact rational computations coefficient by
coefficient and produces an IdentityReport; no comparison in this module
is ever approximate.  The brute-force theta coefficients from the lattice
module are the universal reference side.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import chain

from . import forms, lattice
from .arith import CHI3, CHI_TRIVIAL, bernoulli, bernoulli_generalized, rho_star_table, sigma_star_table, sigma_table
from .lattice import lomadze_values
from .series import DEFAULT_PRECISION, QSeries, grow_only, linear_combination, prefix


class PrecisionTooLow(ValueError):
    """Requested range exceeds the working table precision."""


class UnknownIdentity(ValueError):
    """Identity name not in the registry."""


# -- divisor convolutions ------------------------------------------------------


def _coeffs(name: str, precision: int) -> tuple:
    """Coefficients 0..precision of a catalog cusp form or a catalog finite sum."""
    if name in forms.CATALOG_NAMES:
        return forms.named_form(name, precision).series.coeffs
    return lomadze_values(name, precision)


@grow_only(prefix)
def _sigma_product(power: int, name: str, precision: int, *, scale: int = 1) -> tuple:
    """The table over n <= precision of sum(sigma_power(a) * x[b]), scale*a + b = n, a, b >= 1.

    x is the named sequence of `_coeffs` (x[0] = 0), times the sigma_r table.
    """
    sigmas = QSeries._trusted(sigma_table(power, CHI_TRIVIAL, CHI_TRIVIAL, precision))
    return (sigmas.scale_argument(scale) * QSeries._trusted(_coeffs(name, precision))).coeffs


def _with_zero(c, power: int, name: str, N: int, scale: int = 1) -> tuple:
    """c sum(sigma_power(a) * x[b]), scale*a + b = n, a >= 0, b >= 1, as two integer terms.

    They are the `_sigma_product` (a >= 1) and the a = 0 term sigma_r(0) x[n],
    with sigma_r(0) = -B_(r+1) / (2(r+1)): 1/240, -1/504, 1/480 for r = 3, 5, 7.
    """
    sigma_at_zero = -bernoulli(power + 1) / (2 * (power + 1))
    return (c, _sigma_product(power, name, N, scale=scale)), (c * sigma_at_zero, _coeffs(name, N))


def _eisenstein_times(c, k: int, name: str, N: int, scale: int = 1) -> tuple:
    """c E_k(scale z) x for a catalog form x, read off the convolution memo as two integer terms.

    E_k = 1 - (2k/B_k) sum(sigma_(k-1)(n) q^n) is -(2k/B_k) times the
    sigma_(k-1) series with its a = 0 term.
    """
    return _with_zero(c * -2 * k / bernoulli(k), k - 1, name, N, scale)


def _times_n(table: tuple) -> tuple:
    """The table n * table[n]."""
    return tuple(n * v for n, v in enumerate(table))


# -- coefficient tables -------------------------------------------------------


def _resolve_precision(n: int, precision: int | None) -> int:
    if precision is None:
        return max(n, DEFAULT_PRECISION)
    if n > precision:
        raise PrecisionTooLow(f"n={n} exceeds the working precision {precision}")
    return precision


# -- the weights --------------------------------------------------------------

#: F_k = a E + b E' + sum(c E_j(scale z) form) for k in FORMULA_KS, as
#: k: (a, b, ((c, catalog form, j, scale), ...)); j = 0 for a bare form.
#: For odd k, E and E' are E_k(chi3, 1) and E_k(1, chi3).  The large
#: coefficient a goes with the series twisted on the cofactor (zero constant
#: term); the assignment is forced: the other pairing already fails at n = 2,
#: while this one matches the counts at every n and gives the constant term
#: exactly 1.  The paper restates that part as (a / 3^((k-1)/2)) rho*_(k-1),
#: printed as 3/7, 27/809 and 3/1847.  For even k, E and E' are E_k(z) and
#: E_k(3z), and the paper restates that part at n >= 1 as a (-2k/B_k) sigma*_(k-1).
WEIGHTS = {
    7: (Fraction(81, 7), Fraction(-3, 7), ((Fraction(216, 7), "delta_7_3", 0, 1),)),
    9: (
        Fraction(2187, 809),
        Fraction(27, 809),
        ((Fraction(1119744, 809), "delta_9_3_1", 0, 1), (Fraction(41472, 809), "delta_9_3_2", 0, 1)),
    ),
    11: (
        Fraction(729, 1847),
        Fraction(-3, 1847),
        ((Fraction(60588, 9235), "delta_11_3_1", 0, 1), (Fraction(545292, 9235), "delta_11_3_2", 0, 1)),
    ),
    12: (
        Fraction(1, 730),
        Fraction(729, 730),
        (
            (Fraction(29824, 691), "delta", 0, 1),
            (Fraction(1186848, 50443), "delta_8_3", 4, 1),
            (Fraction(261344, 50443), "delta_6_3", 6, 1),
        ),
    ),
    14: (
        -Fraction(1, 2186),
        Fraction(2187, 2186),
        (
            (-Fraction(3016, 1093), "delta_6_3", 8, 1),
            (-Fraction(12448, 1093), "delta_8_3", 6, 1),
            # the quasimodular (3 E_2(3z) - E_2(z)) / 2 times delta
            *(
                (Fraction(107264, 1093) * e, "delta", 2, scale)
                for e, scale in ((Fraction(3, 2), 3), (-Fraction(1, 2), 1))
            ),
        ),
    ),
}

#: Weights 2k for which a closed formula (and a decomposition) is implemented.
FORMULA_KS = tuple(WEIGHTS)

#: The odd k, whose s_2k the paper also states through rho*.
THEOREM_KS = tuple(k for k in WEIGHTS if k % 2)


def _weight_terms(k: int, N: int) -> tuple:
    """F_k from its WEIGHTS entry as (coefficient, integer table) terms over n = 0..N."""
    a, b, cusps = WEIGHTS[k]
    if k % 2:  # sigma(chi3, 1) and sigma(1, chi3); only E_k(1, chi3) has a constant term
        constant = b * -bernoulli_generalized(k, CHI3) / (2 * k)
        sigmas = sigma_table(k - 1, CHI3, CHI_TRIVIAL, N), sigma_table(k - 1, CHI_TRIVIAL, CHI3, N)
    else:  # the constant a + b, and the sigma_(k-1) table at n and at n/3
        c = -2 * k / bernoulli(k)
        constant, a, b = a + b, a * c, b * c
        sigma = QSeries._trusted(sigma_table(k - 1, CHI_TRIVIAL, CHI_TRIVIAL, N))
        sigmas = sigma.coeffs, sigma.scale_argument(3).coeffs
    return (
        (constant, QSeries.one(N).coeffs),
        (a, sigmas[0]),
        (b, sigmas[1]),
        *chain.from_iterable(
            _eisenstein_times(c, j, name, N, scale) if j else ((c, _coeffs(name, N)),)
            for c, name, j, scale in cusps
        ),
    )


def _cusp_terms(k: int, precision: int, scale=1) -> list:
    """The cusp part of F_k for odd k, times scale, as (coefficient, table) terms."""
    return [(scale * c, _coeffs(name, precision)) for c, name, _, _ in WEIGHTS[k][2]]


def _theorem_terms(k: int, N: int) -> tuple:
    a = WEIGHTS[k][0]
    return ((a / 3 ** ((k - 1) // 2), rho_star_table(k - 1, N)), *_cusp_terms(k, N))


# -- the two sides of every identity ------------------------------------------


def _counts(k: int, N: int) -> tuple:
    """The brute-force counts s_2k(0..N), the reference side of every s_2k formula."""
    return ((1, lattice.s2k_bruteforce(k, N)),)


def _named(*terms):
    """The side sum(c x) over (c, catalog form or finite sum name) terms, as a function of N."""
    return lambda N: tuple((c, _coeffs(name, N)) for c, name in terms)


def _rho_star_forced(ell: int, N: int) -> tuple:
    """rho*_ell solved from s_2k = (a / 3^(ell/2)) rho*_ell + cusp part, k = ell + 1, and the counts."""
    k = ell + 1
    f = 3 ** (ell // 2) / WEIGHTS[k][0]
    return ((f, lattice.s2k_bruteforce(k, N)), *_cusp_terms(k, N, -f))


def _lomadze_s24_terms(N: int) -> tuple:
    c = Fraction(1, 73 * 691)
    return (
        (c * 6552, sigma_star_table(11, N)),
        (c * Fraction(291096, 35), lomadze_values("L_12_8", N)),
        (c * 864, lomadze_values("L_12_6", N)),
        (c * 360, lomadze_values("L_12_4", N)),
    )


def _lomadze_s28_terms(N: int) -> tuple:
    return (
        (Fraction(12, 1093), sigma_star_table(13, N)),
        (Fraction(188954, 803355), lomadze_values("L_14_10", N)),
        (Fraction(1728, 267785), lomadze_values("L_14_8", N)),
        (Fraction(288, 191275), lomadze_values("L_14_6", N)),
    )


def _tau_terms(N: int) -> tuple:
    c = Fraction(1, 73 * 3728)
    return (
        (c * Fraction(36387, 35), lomadze_values("L_12_8", N)),
        (c * 108, lomadze_values("L_12_6", N)),
        (c * Fraction(1, 3), lomadze_values("Lcal_4", N)),
        (-c * Fraction(32668, 12), lomadze_values("L_6_2", N)),
        (-c * 329680, _sigma_product(3, "L_8_4", N)),
        (c * 1372056, _sigma_product(5, "L_6_2", N)),
    )


def _ramanujan_rhs(N: int) -> tuple:
    """(1 - n) tau(n) / 24."""
    tau = _coeffs("delta", N)
    return (Fraction(1, 24), tau), (Fraction(-1, 24), _times_n(tau))


def _e2_delta_rhs(N: int) -> tuple:
    """(3 - n) tau(n) / 72, three cusp terms, and three sums sum(sigma_r(a) x[b]), a + b = n, a, b >= 1."""
    tau = _coeffs("delta", N)
    return (
        (Fraction(3, 72), tau),
        (Fraction(-1, 72), _times_n(tau)),
        (-Fraction(1, 576), _coeffs("delta_6_3", N)),
        (-Fraction(1, 96), _coeffs("delta_8_3", N)),
        (-Fraction(1, 64 * 120), lomadze_values("L_10_6", N)),  # tau_10_3_2 is L_10_6 / 120
        (-Fraction(5, 6), _sigma_product(7, "delta_6_3", N)),
        (Fraction(21, 4), _sigma_product(5, "delta_8_3", N)),
        (-Fraction(15, 4) / 120, _sigma_product(3, "L_10_6", N)),
    )


#: One identity: lhs and rhs each map N to ((c, integer table over 0..N), ...)
#: terms, and the identity is the exact equality of the two combinations at
#: every n >= 1; at_zero also reports the pair at n = 0 as the constant term.
Sides = namedtuple("Sides", "lhs rhs note at_zero", defaults=("", False))

#: Every identity, in report order.
SIDES = {
    **{f"f{k}-decomposition": Sides(partial(_weight_terms, k), partial(_counts, k), at_zero=True) for k in WEIGHTS},
    **{
        f"s{2 * k}-theorem": Sides(
            partial(_theorem_terms, k),
            partial(_counts, k),
            "uses the printed rho* definition; mismatches are expected and quantified by the rho-star reports",
        )
        for k in THEOREM_KS
    },
    **{
        f"rho-star-{k - 1}": Sides(
            lambda N, ell=k - 1: ((1, rho_star_table(ell, N)),),
            partial(_rho_star_forced, k - 1),
            "lhs is the printed definition, rhs the value forced by the brute-force counts and the "
            "cusp coefficients; entries listed under mismatches quantify the difference",
        )
        for k in THEOREM_KS
    },
    **{f"s{2 * k}-formula": Sides(partial(_weight_terms, k), partial(_counts, k)) for k in WEIGHTS if k % 2 == 0},
    "lomadze-s24": Sides(_lomadze_s24_terms, partial(_counts, 12)),
    "lomadze-s28": Sides(_lomadze_s28_terms, partial(_counts, 14)),
    "tau-eq": Sides(_tau_terms, _named((1, "delta"))),
    # the newform coefficient identities scale * sum(c cusp(n)) = m L(n)
    "newform-w6": Sides(_named((12, "delta_6_3")), _named((1, "L_6_2"))),
    "newform-w7": Sides(_named((30, "delta_7_3")), _named((1, "L_7_3"))),
    "newform-w8": Sides(_named((108, "delta_8_3")), _named((1, "L_8_4"))),
    "newform-w9": Sides(_named((168 * 27, "delta_9_3_1"), (168, "delta_9_3_2")), _named((1, "L_9_5"))),
    "newform-w10": Sides(
        lambda N: ((1, tuple(v % 120 for v in lomadze_values("L_10_6", N))),),
        lambda N: ((1, (0,) * (N + 1)),),
        "the weight-10 coefficients are defined as L_10_6(n)/120, so exact divisibility by 120 is the "
        "verifiable content here; the values themselves are exercised by the convolution identities",
    ),
    "newform-w11": Sides(_named((81, "delta_11_3_1"), (81 * 9, "delta_11_3_2")), _named((5, "L_11_7"))),
    # sum(sigma(a) tau(b), a + b = n) = (1 - n) tau(n) / 24
    "ramanujan-convolution": Sides(lambda N: ((1, _sigma_product(1, "delta", N)),), _ramanujan_rhs),
    # sum(sigma(a) tau(b), 3a + b = n) as seven terms; the 0-inclusive sums already differ at n = 1
    "e2-delta-convolution": Sides(
        lambda N: ((1, _sigma_product(1, "delta", N, scale=3)),),
        _e2_delta_rhs,
        "inner sums taken over a, b >= 1; no boundary terms needed",
    ),
    # the sign of -461/3 follows from the substitution chain and from n = 1,
    # where every convolution is empty and the right side must vanish
    "s28-convolution": Sides(
        lambda N: (
            (73760, _sigma_product(7, "L_6_2", N)),
            (-Fraction(194432, 3), _sigma_product(5, "L_8_4", N)),
            (60336, _sigma_product(3, "L_10_6", N)),
        ),
        _named(
            (-Fraction(461, 3), "L_6_2"),
            (-Fraction(3472, 27), "L_8_4"),
            (-Fraction(1257, 5), "L_10_6"),
            (Fraction(94477, 735), "L_14_10"),
            (Fraction(864, 245), "L_14_8"),
            (Fraction(144, 175), "L_14_6"),
        ),
        "right-hand L_6_2 coefficient is -461/3 (sign fixed by the empty-sum case n = 1)",
    ),
}


@grow_only(prefix)
def formula_table(name: str, precision: int) -> tuple:
    """The lhs of the named SIDES identity at n = 0..precision: one exact combination of integer tables."""
    if name not in SIDES:
        raise UnknownIdentity(f"no term lists for {name!r}; known: {', '.join(SIDES)}")
    return linear_combination(*SIDES[name][0](precision)).coeffs


def tau_from_lattice_sums(n: int, precision: int | None = None):
    """Ramanujan tau from finite lattice sums and two divisor convolutions (0 at n = 0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return formula_table("tau-eq", _resolve_precision(n, precision))[n]


def s2k_from_divisor_sums(k: int, n: int, precision: int | None = None):
    """Per-n scalar formula for s_2k, k in FORMULA_KS: the decomposition table at n >= 1.

    Its Eisenstein coefficients are the divisor sums of the WEIGHTS entry:
    a sigma(chi3, 1) + b sigma(1, chi3) for odd k, the starred sigma*_(k-1)
    for even k.  The printed rho* restatement is measured separately by the
    rho-star reports.
    """
    if k not in WEIGHTS:
        raise ValueError(f"no closed formula for k={k}; supported: {FORMULA_KS}")
    if n < 1:
        raise ValueError("n must be >= 1")
    return formula_table(f"f{k}-decomposition", _resolve_precision(n, precision))[n]


def decomposition(k: int, precision: int) -> QSeries:
    """The basis combination equal to the theta series of F_k, k in FORMULA_KS."""
    return QSeries._trusted(formula_table(f"f{k}-decomposition", precision))


# -- reports -------------------------------------------------------------------


class IdentityReport(
    namedtuple("IdentityReport", "name n_max lhs rhs constant_term note", defaults=(None, ""))
):
    """Exact per-n verdicts for one identity over the range 1..n_max.

    ``lhs[i]`` and ``rhs[i]`` are the two sides at n = i + 1, stored as
    exact rationals.  ``constant_term`` optionally carries the (lhs, rhs)
    pair at n = 0 for identities that also evaluate there; it does not
    affect the match status, which only covers n >= 1.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        report = super().__new__(cls, *args, **kwargs)
        if len(report.lhs) != report.n_max or len(report.rhs) != report.n_max:
            raise ValueError("a report over 1..N must carry exactly N entries per side")
        return report

    @classmethod
    def _make(cls, iterable):  # so that _replace checks the lengths too
        return cls(*iterable)

    @property
    def entries(self) -> tuple:
        return tuple(zip(range(1, self.n_max + 1), self.lhs, self.rhs))

    def _mismatches(self):
        return ((n, l, r) for n, (l, r) in enumerate(zip(self.lhs, self.rhs), 1) if l != r)

    @property
    def mismatches(self) -> tuple:
        return tuple(self._mismatches())

    @property
    def all_match(self) -> bool:
        return self.lhs == self.rhs

    @property
    def first_mismatch(self):
        return next(self._mismatches(), None)

    @property
    def status(self) -> str:
        return "match" if self.all_match else "mismatch"

    @property
    def constant_term_matches(self) -> bool | None:
        if self.constant_term is None:
            return None
        return self.constant_term[0] == self.constant_term[1]


def check(name: str, n_max: int, precision: int | None = None) -> IdentityReport:
    """The named SIDES identity: its two term lists combined over n = 0..N, compared at n = 1..n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    N = _resolve_precision(n_max, precision)
    lhs = formula_table(name, N)  # refuses a name not in SIDES
    _, rhs_terms, note, at_zero = SIDES[name]
    rhs = linear_combination(*rhs_terms(N)).coeffs
    constant_term = (lhs[0], rhs[0]) if at_zero else None
    return IdentityReport(name, n_max, lhs[1 : n_max + 1], rhs[1 : n_max + 1], constant_term, note)


def newform_coeff_identities(n_max: int, precision: int | None = None) -> list[IdentityReport]:
    """The six coefficient identities tying cusp expansions to finite sums."""
    return verify_all(n_max, [f"newform-w{w}" for w in range(6, 12)], precision)


# -- the registry and the full run ----------------------------------------------

#: Every report builder, in report order.  verify_all could call check
#: directly; the table stays because the benchmark's tracer
#: (perfbench/tracer.py) wraps each entry for its per-identity metrics.
IDENTITY_BUILDERS = {name: partial(check, name) for name in SIDES}

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
    """Run the selected identity checks for n = 1..n_max at the given precision (default n_max).

    selection is "all", one identity name, or an iterable of names.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if precision is None:
        precision = n_max
    if n_max > precision:
        raise PrecisionTooLow(
            f"n_max={n_max} exceeds the working precision {precision}"
        )
    if isinstance(selection, str):
        selection = IDENTITY_NAMES if selection == "all" else (selection,)
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
