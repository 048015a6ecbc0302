"""Genocchi-type Bernoulli sequences, irregular-prime classification, and
exact Artin-constant densities, with a survey CLI that reproduces the
reference ratio tables."""

from .classify import (
    IrregularPair,
    PrimeClassification,
    b_irregular_pairs,
    classify_prime,
    wieferich_search,
)
from .density import (
    ARTIN,
    LinearInA,
    alpha_minus,
    alpha_primroot,
    conjectured_ratio,
    delta_g,
    delta_minus_total,
    lower_bound_ratio,
    r_factor,
    rho_plus_one,
)
from .exactseq import BernoulliCache, bernoulli, genocchi_number
from .modarith import jacobi, mult_order, sieve_primes
from .survey import SurveyConfig, SurveyRow, emit_table, run_survey, run_table

__version__ = "0.1.0"

__all__ = [
    "ARTIN",
    "BernoulliCache",
    "IrregularPair",
    "LinearInA",
    "PrimeClassification",
    "SurveyConfig",
    "SurveyRow",
    "alpha_minus",
    "alpha_primroot",
    "b_irregular_pairs",
    "bernoulli",
    "classify_prime",
    "conjectured_ratio",
    "delta_g",
    "delta_minus_total",
    "emit_table",
    "genocchi_number",
    "jacobi",
    "lower_bound_ratio",
    "mult_order",
    "r_factor",
    "rho_plus_one",
    "run_survey",
    "run_table",
    "sieve_primes",
    "wieferich_search",
]
