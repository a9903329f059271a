"""Hermite/Bargmann calculus on truncated graded bases.

Library layout:

  core       multi-indices, graded bases, Gauss-Hermite quadrature, expansions
  hermite    real-side calculus (Hermite functions, ladder operators, R)
  bargmann   the Bargmann transform and Fock-side quadrature oracles
  symbols    Wick / anti-Wick / Kohn-Nirenberg / Weyl quantization matrices
  expansion  the Wick-to-anti-Wick operator decomposition
  analysis   coefficient decay classification and spectral lower-bound probes
  cli        batch front end (`wickops` entry point)
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    CalculusError,
    CoefficientExpansion,
    InputDataError,
    MultiIndex,
    NumericalError,
    QuadratureRule,
    UsageError,
    enumerate_basis,
    expansion_inner,
    gauss_hermite,
)
from .hermite import (  # noqa: F401
    LadderKind,
    apply_hermite_operator,
    apply_ladder,
    hermite_coefficients,
    hermite_function,
    norm_growth_probe,
    synthesize,
)
from .bargmann import (  # noqa: F401
    bargmann_coeff,
    bargmann_integral,
    bargmann_kernel,
    evaluate_fock,
    fock_inner_quadrature,
)
from .symbols import (  # noqa: F401
    BoundReport,
    OperatorMatrix,
    RealSymbol,
    ShubinWeight,
    WickSymbol,
    antiwick_matrix,
    kn_matrix,
    real_to_wick_symbol,
    shubin_estimate_check,
    symbol_bound_check,
    weyl_matrix,
    wick_matrix,
)
from .expansion import (  # noqa: F401
    WickToAntiWickDecomposition,
    decompose,
    diagonal_derivative_symbol,
    remainder_symbol,
    verify_decomposition,
)
from .analysis import (  # noqa: F401
    DecayFit,
    GardingReport,
    classify_decay,
    fit_norm_growth,
    garding_check,
)
