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
from math import lcm
from operator import add

from . import forms, lattice
from .arith import CHI3, CHI_TRIVIAL, bernoulli, bernoulli_generalized, rho_star_table, sigma_star_table, sigma_table
from .lattice import lomadze_values
from .series import DEFAULT_PRECISION, QSeries, _over, grow_only, prefix


class PrecisionTooLow(ValueError):
    """Requested range exceeds the working table precision."""


class UnknownIdentity(ValueError):
    """Identity name not in the registry."""


# -- sources: the integer tables every identity combines ------------------------

#: The source of the constant series 1.
ONE = ("one",)


@grow_only(prefix)
def table(source, precision: int) -> tuple:
    """The integer table at n = 0..precision of a source, a small hashable value.

    A source is a catalog form or catalog sum name, or one of ONE,
    ("s2k", k) the counts s_2k, ("rho*", ell), ("sigma*", ell),
    ("sigma", r, chi, psi, scale) the table sigma_(r; chi, psi) at n / scale
    (0 where scale does not divide n), ("conv", r, x, scale) the sums
    sum(sigma_r(a) * x[b]) over scale*a + b = n with a, b >= 1, ("n", x) the
    table n x[n] and ("mod", m, x) the table x[n] mod m, for sources x.
    """
    match source:
        case str() if source in forms.CATALOG_NAMES:
            return forms.named_form(source, precision).series.coeffs
        case str():
            return lomadze_values(source, precision)
        case ("one",):
            return QSeries.one(precision).coeffs
        case ("s2k", k):
            return lattice.s2k_bruteforce(k, precision)
        case ("rho*", ell):
            return rho_star_table(ell, precision)
        case ("sigma*", ell):
            return sigma_star_table(ell, precision)
        case ("sigma", r, chi, psi, scale):
            return QSeries._trusted(sigma_table(r, chi, psi, precision)).scale_argument(scale).coeffs
        case ("conv", r, x, scale):
            sigmas = table(("sigma", r, CHI_TRIVIAL, CHI_TRIVIAL, scale), precision)
            return (QSeries._trusted(sigmas) * QSeries._trusted(table(x, precision))).coeffs
        case ("n", x):
            return tuple(n * v for n, v in enumerate(table(x, precision)))
        case ("mod", m, x):
            return tuple(v % m for v in table(x, precision))
    raise ValueError(f"unknown source {source!r}")


def combine(terms: tuple, precision: int) -> tuple:
    """sum(c * table(source)) over the (c, source) terms, at n = 0..precision.

    One lone term of coefficient 1 is its table itself.  Otherwise every int
    table is added times c * den, den the lcm of the coefficients'
    denominators, and the int sum is divided by den once.
    """
    if len(terms) == 1 and terms[0][0] == 1:
        return table(terms[0][1], precision)
    den = lcm(*(c.denominator for c, _ in terms))
    total = [0] * (precision + 1)
    for c, source in terms:
        factor = c.numerator * (den // c.denominator)
        total = list(map(add, total, map(factor.__mul__, table(source, precision))))
    return _over(total, den)


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


def _weight_terms(k: int) -> tuple:
    """F_k from its WEIGHTS entry as (coefficient, source) terms.

    E_j(scale z) x for a catalog form x is x - (2j/B_j) times the sums of
    sigma_(j-1)(a) x[b] over scale*a + b = n, a, b >= 1.
    """
    a, b, cusps = WEIGHTS[k]
    if k % 2:  # sigma(chi3, 1) and sigma(1, chi3); only E_k(1, chi3) has a constant term
        constant = b * -bernoulli_generalized(k, CHI3) / (2 * k)
        sigmas = ("sigma", k - 1, CHI3, CHI_TRIVIAL, 1), ("sigma", k - 1, CHI_TRIVIAL, CHI3, 1)
    else:  # the constant a + b, and the sigma_(k-1) table at n and at n/3
        c = -2 * k / bernoulli(k)
        constant, a, b = a + b, a * c, b * c
        sigmas = ("sigma", k - 1, CHI_TRIVIAL, CHI_TRIVIAL, 1), ("sigma", k - 1, CHI_TRIVIAL, CHI_TRIVIAL, 3)
    return (
        (constant, ONE),
        (a, sigmas[0]),
        (b, sigmas[1]),
        *_cusp_terms(k),
        *((c * -2 * j / bernoulli(j), ("conv", j - 1, name, scale)) for c, name, j, scale in cusps if j),
    )


def _cusp_terms(k: int, scale=1) -> tuple:
    """The catalog forms of F_k with their coefficients times scale: the cusp part for odd k."""
    return tuple((scale * c, name) for c, name, _, _ in WEIGHTS[k][2])


def _rho_star_forced(ell: int) -> tuple:
    """rho*_ell solved from s_2k = (a / 3^(ell/2)) rho*_ell + cusp part, k = ell + 1, and the counts."""
    k = ell + 1
    f = 3 ** (ell // 2) / WEIGHTS[k][0]
    return ((f, ("s2k", k)), *_cusp_terms(k, -f))


# -- the two sides of every identity ------------------------------------------

#: One identity: lhs and rhs are ((c, source), ...) terms, and the identity is
#: the exact equality of the two combinations at every n >= 1; at_zero also
#: reports the pair at n = 0 as the constant term.
Sides = namedtuple("Sides", "lhs rhs note at_zero", defaults=("", False))

#: F_k as terms, shared by the f{k}-decomposition and s{2k}-formula entries.
_WEIGHT_TERMS = {k: _weight_terms(k) for k in WEIGHTS}

#: Every identity, in report order.
SIDES = {
    **{f"f{k}-decomposition": Sides(_WEIGHT_TERMS[k], ((1, ("s2k", k)),), at_zero=True) for k in WEIGHTS},
    **{
        f"s{2 * k}-theorem": Sides(
            ((WEIGHTS[k][0] / 3 ** ((k - 1) // 2), ("rho*", k - 1)), *_cusp_terms(k)),
            ((1, ("s2k", k)),),
            "uses the printed rho* definition; mismatches are expected and quantified by the rho-star reports",
        )
        for k in THEOREM_KS
    },
    **{
        f"rho-star-{k - 1}": Sides(
            ((1, ("rho*", k - 1)),),
            _rho_star_forced(k - 1),
            "lhs is the printed definition, rhs the value forced by the brute-force counts and the "
            "cusp coefficients; entries listed under mismatches quantify the difference",
        )
        for k in THEOREM_KS
    },
    **{f"s{2 * k}-formula": Sides(_WEIGHT_TERMS[k], ((1, ("s2k", k)),)) for k in WEIGHTS if k % 2 == 0},
    "lomadze-s24": Sides(
        tuple(
            (Fraction(c) / (73 * 691), source)
            for c, source in (
                (6552, ("sigma*", 11)), (Fraction(291096, 35), "L_12_8"), (864, "L_12_6"), (360, "L_12_4")
            )
        ),
        ((1, ("s2k", 12)),),
    ),
    "lomadze-s28": Sides(
        (
            (Fraction(12, 1093), ("sigma*", 13)),
            (Fraction(188954, 803355), "L_14_10"),
            (Fraction(1728, 267785), "L_14_8"),
            (Fraction(288, 191275), "L_14_6"),
        ),
        ((1, ("s2k", 14)),),
    ),
    "tau-eq": Sides(
        tuple(
            (Fraction(c) / (73 * 3728), source)
            for c, source in (
                (Fraction(36387, 35), "L_12_8"),
                (108, "L_12_6"),
                (Fraction(1, 3), "Lcal_4"),
                (-Fraction(32668, 12), "L_6_2"),
                (-329680, ("conv", 3, "L_8_4", 1)),
                (1372056, ("conv", 5, "L_6_2", 1)),
            )
        ),
        ((1, "delta"),),
    ),
    # the newform coefficient identities scale * sum(c cusp(n)) = m L(n)
    "newform-w6": Sides(((12, "delta_6_3"),), ((1, "L_6_2"),)),
    "newform-w7": Sides(((30, "delta_7_3"),), ((1, "L_7_3"),)),
    "newform-w8": Sides(((108, "delta_8_3"),), ((1, "L_8_4"),)),
    "newform-w9": Sides(((168 * 27, "delta_9_3_1"), (168, "delta_9_3_2")), ((1, "L_9_5"),)),
    "newform-w10": Sides(
        ((1, ("mod", 120, "L_10_6")),),
        ((0, ONE),),
        "the weight-10 coefficients are defined as L_10_6(n)/120, so exact divisibility by 120 is the "
        "verifiable content here; the values themselves are exercised by the convolution identities",
    ),
    "newform-w11": Sides(((81, "delta_11_3_1"), (81 * 9, "delta_11_3_2")), ((5, "L_11_7"),)),
    # sum(sigma(a) tau(b), a + b = n) = (1 - n) tau(n) / 24
    "ramanujan-convolution": Sides(
        ((1, ("conv", 1, "delta", 1)),), ((Fraction(1, 24), "delta"), (Fraction(-1, 24), ("n", "delta")))
    ),
    # sum(sigma(a) tau(b), 3a + b = n) as (3 - n) tau(n) / 72, three cusp terms and
    # three sums over a + b = n, a, b >= 1; the 0-inclusive sums already differ at n = 1
    "e2-delta-convolution": Sides(
        ((1, ("conv", 1, "delta", 3)),),
        (
            (Fraction(3, 72), "delta"),
            (Fraction(-1, 72), ("n", "delta")),
            (-Fraction(1, 576), "delta_6_3"),
            (-Fraction(1, 96), "delta_8_3"),
            (-Fraction(1, 64 * 120), "L_10_6"),  # tau_10_3_2 is L_10_6 / 120
            (-Fraction(5, 6), ("conv", 7, "delta_6_3", 1)),
            (Fraction(21, 4), ("conv", 5, "delta_8_3", 1)),
            (-Fraction(15, 4) / 120, ("conv", 3, "L_10_6", 1)),
        ),
        "inner sums taken over a, b >= 1; no boundary terms needed",
    ),
    # the sign of -461/3 follows from the substitution chain and from n = 1,
    # where every convolution is empty and the right side must vanish
    "s28-convolution": Sides(
        (
            (73760, ("conv", 7, "L_6_2", 1)),
            (-Fraction(194432, 3), ("conv", 5, "L_8_4", 1)),
            (60336, ("conv", 3, "L_10_6", 1)),
        ),
        (
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

#: Each SIDES name -> the first SIDES name with an equal lhs, whose stored table it shares.
_LHS_OWNER = {name: next(first for first in SIDES if SIDES[first].lhs == sides.lhs) for name, sides in SIDES.items()}


@grow_only(prefix)
def _lhs_table(name: str, precision: int) -> tuple:
    return combine(SIDES[name].lhs, precision)


def formula_table(name: str, precision: int) -> tuple:
    """The lhs of the named SIDES identity at n = 0..precision: one exact combination of integer tables.

    Entries with equal lhs share one memoized table, stored under the first such name.
    """
    if name not in _LHS_OWNER:
        raise UnknownIdentity(f"no term lists for {name!r}; known: {', '.join(SIDES)}")
    return _lhs_table(_LHS_OWNER[name], precision)


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
        return () if self.all_match else tuple(self._mismatches())

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
    rhs = combine(rhs_terms, N)
    constant_term = (lhs[0], rhs[0]) if at_zero else None
    return IdentityReport(name, n_max, lhs[1 : n_max + 1], rhs[1 : n_max + 1], constant_term, note)


def newform_coeff_identities(n_max: int, precision: int | None = None) -> list[IdentityReport]:
    """The six coefficient identities tying cusp expansions to finite sums."""
    return verify_all(n_max, [f"newform-w{w}" for w in range(6, 12)], precision)


# -- the registry and the full run ----------------------------------------------

#: Every report builder, in report order.  verify_all and verify_stream
#: could call check directly; the table stays because the benchmark's
#: tracer (perfbench/tracer.py) wraps each entry for its per-identity metrics.
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


def _selected(n_max: int, selection, precision: int | None) -> tuple:
    """The names and the precision of a verify request; refuses a bad one before any check runs."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if precision is None:
        precision = n_max
    if n_max > precision:
        raise PrecisionTooLow(f"n_max={n_max} exceeds the working precision {precision}")
    if isinstance(selection, str):
        selection = IDENTITY_NAMES if selection == "all" else (selection,)
    names = tuple(selection)
    unknown = [name for name in names if name not in IDENTITY_BUILDERS]
    if unknown:
        raise UnknownIdentity(f"unknown identities {unknown}; known: {', '.join(IDENTITY_NAMES)}")
    return names, precision


def verify_all(n_max: int, selection="all", precision: int | None = None) -> list[IdentityReport]:
    """Run the selected identity checks for n = 1..n_max at the given precision (default n_max).

    selection is "all", one identity name, or an iterable of names.  Every
    table built on the way stays in its memo.
    """
    names, precision = _selected(n_max, selection, precision)
    return [IDENTITY_BUILDERS[name](n_max, precision) for name in names]


def _reads(source) -> tuple:
    """The source and every source its table build reads, by the grammar of table."""
    match source:
        case ("conv", r, x, scale):
            return (source, ("sigma", r, CHI_TRIVIAL, CHI_TRIVIAL, scale), *_reads(x))
        case ("n", x) | ("mod", _, x):
            return (source, *_reads(x))
    return (source,)


def _last_readers(names: tuple) -> list:
    """Per position in names, the (memo, key) entries that no later position reads.

    A report reads its lhs entry of _lhs_table and every table of its rhs;
    the tables of a lhs are read only by the first report that builds it,
    since its entry is kept up to the last report sharing it.
    """
    last = {}
    for i, name in enumerate(names):
        lhs, rhs = SIDES[name][:2]
        owner = (_LHS_OWNER[name],)
        terms = rhs if (_lhs_table, owner) in last else lhs + rhs
        last[(_lhs_table, owner)] = i
        for _, source in terms:
            for read in _reads(source):
                last[(table, (read,))] = i
    released = [[] for _ in names]
    for entry, i in last.items():
        released[i].append(entry)
    return released


def verify_stream(n_max: int, selection="all", precision: int | None = None):
    """verify_all's reports one at a time, each table dropped from its memo after its last reader.

    The request is checked at the call, before any report is built.  Only
    the entries of table and _lhs_table that this run stores are dropped:
    those stored before it stay, as a value query left them.
    """
    names, precision = _selected(n_max, selection, precision)
    kept = {table: set(table.stored()), _lhs_table: set(_lhs_table.stored())}

    def reports():
        for name, released in zip(names, _last_readers(names)):
            report = IDENTITY_BUILDERS[name](n_max, precision)
            for memo, key in released:
                if key not in kept[memo]:
                    memo.discard(*key)
            yield report

    return reports()


def verification_passed(reports, strict: bool = False) -> bool:
    """True when every report matches, ignoring documented discrepancies unless strict."""
    return all(
        r.all_match or (not strict and r.name in DOCUMENTED_DISCREPANCIES)
        for r in reports
    )
