"""Exact arithmetic for representation numbers of sums of hexagonal forms.

The package computes, entirely in exact integer arithmetic, the theta
series of the quadratic forms F_k (direct sums of k blocks
x^2 + xy + y^2), the q-expansions of the Eisenstein series, eta quotients
and level-3 cusp forms that decompose them, and the finite lattice sums
appearing in the closed formulas for the representation numbers s_2k(n).
It then verifies all of those identities coefficient by coefficient,
including a lattice-sum expression for the Ramanujan tau function.
"""

from .arith import CHI3, CHI_TRIVIAL, DirichletCharacter, bernoulli, bernoulli_generalized, sigma, sigma_star, sigma_twisted
from .forms import EtaQuotientSpec, NamedForm, eisenstein_classical, eisenstein_twisted, eta_quotient, named_form
from .identities import IdentityReport, tau_from_lattice_sums, verification_passed, verify_all
from .lattice import LomadzeSumSpec, MomentTable, enumerate_f1, lomadze_sum, moment_table, s2k_bruteforce
from .series import DEFAULT_PRECISION, QSeries

__version__ = "0.1.0"

__all__ = [
    "CHI3",
    "CHI_TRIVIAL",
    "DEFAULT_PRECISION",
    "DirichletCharacter",
    "EtaQuotientSpec",
    "IdentityReport",
    "LomadzeSumSpec",
    "MomentTable",
    "NamedForm",
    "QSeries",
    "bernoulli",
    "bernoulli_generalized",
    "eisenstein_classical",
    "eisenstein_twisted",
    "enumerate_f1",
    "eta_quotient",
    "lomadze_sum",
    "moment_table",
    "named_form",
    "s2k_bruteforce",
    "sigma",
    "sigma_star",
    "sigma_twisted",
    "tau_from_lattice_sums",
    "verification_passed",
    "verify_all",
]
