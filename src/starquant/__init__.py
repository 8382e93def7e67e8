"""starquant: symbolic-numeric engine for graph-expansion star products.

Admissible two-target graphs are enumerated, their half-plane angle-form
weights integrated, and the resulting polydifferential operators
assembled into deformation series whose algebraic identities
(associativity, graded symmetry, the homotopy relations) are verified
exactly where weights are exact and statistically where they are
sampled.
"""

__version__ = "0.1.0"

from .errors import (ArityMismatchError, ConfigError, ConvergenceWarning,
                     DegreeMismatchError, DimensionMismatchError, DomainError,
                     EngineError, EnumerationCapError, ParseError,
                     SamplingError)
from .formality import (ghost_argument_count, graded_symmetry_check,
                        linfty_check, u_n)
from .graphs import KGraph, count_graphs, enumerate_graphs, parse, serialize, star_graphs
from .poly import Polynomial
from .polyvector import (JacobiReport, PolyVectorField, schouten,
                         validate_poisson, wedge)
from .rational import QI
from .series import FormalSeries
from .star import (CenterProbeReport, ResidualReport, ResidualRow, StarConfig,
                   StarExpansion, check_associativity, moyal_reference,
                   poisson_center_probe, star, star_expansion)
from .weights import (IntegrationConfig, WeightEstimate, WeightTable,
                      exact_weight, i_p_integral, i_p_rational,
                      integrate_graph_form, stable_seed, weight)

__all__ = [
    "__version__",
    "QI", "Polynomial", "FormalSeries",
    "KGraph", "enumerate_graphs", "count_graphs", "star_graphs",
    "parse", "serialize",
    "PolyVectorField", "JacobiReport", "schouten", "wedge",
    "validate_poisson",
    "IntegrationConfig", "WeightEstimate", "WeightTable", "weight",
    "exact_weight", "integrate_graph_form", "stable_seed",
    "i_p_integral", "i_p_rational",
    "StarConfig", "StarExpansion", "star", "star_expansion",
    "moyal_reference", "check_associativity", "poisson_center_probe",
    "ResidualReport", "ResidualRow", "CenterProbeReport",
    "u_n", "ghost_argument_count", "graded_symmetry_check", "linfty_check",
    "EngineError", "DomainError", "ParseError", "EnumerationCapError",
    "DegreeMismatchError", "ArityMismatchError", "DimensionMismatchError",
    "ConfigError", "SamplingError", "ConvergenceWarning",
]
