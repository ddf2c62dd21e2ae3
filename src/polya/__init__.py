"""Polya groups of real quadratic and totally real bi-quadratic number fields.

The pipeline: classify a real quadratic field by its fundamental unit
(`zantema_classify`, cross-checked by the ideal-based
`quadratic_polya_oracle`), then assemble a bi-quadratic field's first unit
cohomology from square classes of subfield data read off continued-fraction
periods (`period_invariants`, `polya_report`) and read the Polya group's
order off the ramification exact sequence.  `verify` declares three
theorem families claiming Polya order 2 (`FAMILIES`) and checks them, and `cli`
exposes everything as a command-line tool.  Every result type is an
immutable record on `record.Record`, whose classes compile no code when
they are created, so a one-command CLI process starts without that cost.
"""

from .arith import (DEFAULT_FACTOR_BUDGET, FactorBudgetError, Factorization, factor,
                    is_prime, is_square, jacobi, sieve_primes, squarefree_part)
from .biquad import (OUTSIDE_PROPOSITION, BiquadraticField, LericheVerdict,
                     PolyaReport, RamificationProfile, biquadratic_field,
                     h1_order, h_generators, leriche_classify, polya_report,
                     ramification)
from .quadratic import (NOT_POLYA, POLYA, ContinuedFraction,
                        DirichletReport, FundamentalUnit, NormEquationSolution,
                        PeriodInvariants, UnitSplit, ZantemaVerdict, a_value,
                        cf_expand, dirichlet_norm_criterion, epsilon_decomposition,
                        fundamental_unit, norm_equation, period_invariants,
                        quadratic_polya_oracle, ramified_primes, zantema_classify)
from .sqclass import IDENTITY, SquareClass, class_of, span
from .verify import (FAMILIES, T1, T2, T3, TABLE_ROWS, THEOREMS, ContrastReport, Family,
                     HypothesisReport, TheoremReport, admissible_triples,
                     check_hypotheses, contrast_rajaei, pollack_search, scan,
                     smallest_admissible, verify_table, verify_theorem)

__all__ = [
    "DEFAULT_FACTOR_BUDGET", "FactorBudgetError", "Factorization", "factor",
    "is_prime", "is_square", "jacobi", "sieve_primes", "squarefree_part",
    "OUTSIDE_PROPOSITION", "BiquadraticField", "LericheVerdict", "PolyaReport",
    "RamificationProfile", "biquadratic_field", "h1_order", "h_generators",
    "leriche_classify", "polya_report", "ramification",
    "NOT_POLYA", "POLYA", "ContinuedFraction", "DirichletReport",
    "FundamentalUnit", "NormEquationSolution", "PeriodInvariants", "UnitSplit",
    "ZantemaVerdict", "a_value", "cf_expand",
    "dirichlet_norm_criterion", "epsilon_decomposition", "fundamental_unit",
    "norm_equation", "period_invariants", "quadratic_polya_oracle", "ramified_primes",
    "zantema_classify",
    "IDENTITY", "SquareClass", "class_of", "span",
    "FAMILIES", "T1", "T2", "T3", "TABLE_ROWS", "THEOREMS", "ContrastReport", "Family",
    "HypothesisReport", "TheoremReport", "admissible_triples", "check_hypotheses",
    "contrast_rajaei", "pollack_search", "scan", "smallest_admissible", "verify_table",
    "verify_theorem",
]
