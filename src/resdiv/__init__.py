"""Exact divisor computations on resolutions of normal surface singularities.

The package works with combinatorial models of resolutions (weighted dual
graphs plus strict-curve incidences) in exact rational arithmetic, and
constructively realizes integral antinef divisors on log terminal models
as multiplier-ideal data, verifying every step of the construction.
"""

from .blowup import (MAX_BLOWN_CURVES, ChainInfo, ChainModel,
                     GenericConfiguration, PullbackMap, TooManyCurves)
from .canonical import (ClosureTrace, DiscrepancyReport, NonIntegralInput,
                        NonPositiveLambda, NotAntinef, NotEffective,
                        NotLogTerminal, antinef_closure, discrepancies,
                        is_antinef, multiplier_divisor, relative_canonical)
from .divisor import Divisor, ModelMismatch
from .graphfile import (GraphDoc, GraphSyntaxError, format_divisor,
                        parse_graph, parse_graph_file, serialize_model)
from .lattice import (NegDefResult, check_negative_definite, dual_basis,
                      numerical_pullback)
from .linalg import NotNegativeDefinite
from .model import (ExcCurve, MalformedGraph, ResolutionModel, StrictCurve,
                    build_model)
from .rationals import NotRational, format_rational, parse_rational
from .realize import (CheckResult, RealizationCertificate, choose_epsilon,
                      choose_mu, realize, verify_certificate)

__version__ = "0.1.0"

__all__ = [
    "MAX_BLOWN_CURVES", "ChainInfo", "ChainModel", "CheckResult", "ClosureTrace",
    "DiscrepancyReport", "Divisor", "ExcCurve", "GenericConfiguration",
    "GraphDoc", "GraphSyntaxError", "MalformedGraph", "ModelMismatch",
    "NegDefResult", "NonIntegralInput", "NonPositiveLambda", "NotAntinef",
    "NotEffective", "NotLogTerminal", "NotNegativeDefinite", "NotRational",
    "PullbackMap", "RealizationCertificate", "ResolutionModel",
    "StrictCurve", "TooManyCurves", "antinef_closure", "build_model",
    "check_negative_definite", "choose_epsilon", "choose_mu",
    "discrepancies", "dual_basis", "format_divisor", "format_rational",
    "is_antinef", "multiplier_divisor", "numerical_pullback",
    "parse_graph", "parse_graph_file", "parse_rational", "realize",
    "relative_canonical", "serialize_model", "verify_certificate",
]
