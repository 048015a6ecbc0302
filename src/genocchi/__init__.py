"""Genocchi-type Bernoulli sequences, irregular-prime classification, and
exact Artin-constant densities, with a survey CLI that reproduces the
reference ratio tables."""

from .classify import (
    IrregularPair,
    PrimeClassification,
    b_irregular_pairs,
    classify_prime,
    divides_sequence,
    emma_lehmer_check,
    kummer_check,
    order_criterion_oracle,
    valuation_h,
    voronoi_h,
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
from .exactseq import (
    BernoulliCache,
    bernoulli,
    class_number_neg_p,
    genocchi_number,
    h_value,
    tangent_number,
    valuation,
    von_staudt_clausen_check,
)
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
    "class_number_neg_p",
    "classify_prime",
    "conjectured_ratio",
    "delta_g",
    "delta_minus_total",
    "divides_sequence",
    "emit_table",
    "emma_lehmer_check",
    "genocchi_number",
    "h_value",
    "jacobi",
    "kummer_check",
    "lower_bound_ratio",
    "mult_order",
    "order_criterion_oracle",
    "r_factor",
    "rho_plus_one",
    "run_survey",
    "run_table",
    "sieve_primes",
    "tangent_number",
    "valuation",
    "valuation_h",
    "von_staudt_clausen_check",
    "voronoi_h",
    "wieferich_search",
]
