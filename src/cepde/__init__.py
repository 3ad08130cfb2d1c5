"""cepde: decide whether a scalar 2nd-order PDE is completely exceptional
(equivalently, Monge-Ampere).

The pipeline: parse F over jet variables (expr), compute the principal and
second symbols and run the divisibility test on sampled zero-locus points
(symbol, tensor), cross-check against the Hessian-minor expansion (ma), and,
for n=2 hyperbolic equations, against characteristic-speed criteria
(charvar).  The cli module ties everything into JSON reports.
"""

from .charvar import (CharSpeeds, EquivalenceReport, NearParabolicError,
                      ProjectiveRoot, StrongCharResult, char_poly_coeffs,
                      characteristic_speeds, equivalence_report,
                      hyperbolicity_scan, lax_residual, speed_gradient,
                      strong_char_test)
from .expr import (EvaluationDomainError, Expr, ExprDimensionError, JetPoint,
                   ParseError, UnknownVariableError, differentiate, evaluate,
                   parse, swap_xy, to_text)
from .ma import (BasePoint, MAClassification, MACoefficients, classify,
                 fit_minor_expansion)
from .symbol import (ExceptionalityVerdict, SampleRecord, SamplingError,
                     exceptionality_at_point, is_completely_exceptional,
                     principal_symbol, sample_zero_locus, second_symbol)
from .tensor import (MinorBasis, QuadraticForm, QuarticForm, factor_quartic,
                     minor_basis, multiply_quadratics)

__version__ = "0.1.0"

# There is one evaluator, in pure Python and numpy.  The constant stays
# because the benchmark runner prints it.
USING_COMPILED = False

__all__ = [
    "USING_COMPILED", "__version__",
    # expr
    "Expr", "JetPoint", "parse", "evaluate", "differentiate", "to_text",
    "swap_xy", "ParseError", "UnknownVariableError", "ExprDimensionError",
    "EvaluationDomainError",
    # tensor
    "QuadraticForm", "QuarticForm", "MinorBasis", "multiply_quadratics",
    "factor_quartic", "minor_basis",
    # symbol
    "principal_symbol", "second_symbol", "sample_zero_locus",
    "exceptionality_at_point", "is_completely_exceptional",
    "ExceptionalityVerdict", "SampleRecord", "SamplingError",
    # ma
    "BasePoint", "MACoefficients", "MAClassification", "fit_minor_expansion",
    "classify",
    # charvar
    "CharSpeeds", "ProjectiveRoot", "char_poly_coeffs", "characteristic_speeds",
    "speed_gradient", "lax_residual", "strong_char_test", "hyperbolicity_scan",
    "equivalence_report", "EquivalenceReport", "StrongCharResult",
    "NearParabolicError",
]


def bundled_corpus_path() -> str:
    """Filesystem path of the packaged 10-entry regression corpus."""
    from importlib.resources import files

    return str(files("cepde").joinpath("data/bundled_corpus.json"))
