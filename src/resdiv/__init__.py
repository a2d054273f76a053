"""Exact divisor computations on resolutions of normal surface singularities.

The package works with combinatorial models of resolutions (weighted dual
graphs plus strict-curve incidences) in exact rational arithmetic, and
constructively realizes integral antinef divisors on log terminal models
as multiplier-ideal data, verifying every step of the construction.
"""

from .antinef import (ClosureTrace, NonIntegralInput, antinef_closure,
                      is_antinef)
from .blowup import (ChainInfo, GenericConfiguration, LemmaGenReport,
                     PreconditionViolated, PullbackMap, verify_lemma_gen)
from .canonical import (DiscrepancyReport, NonPositiveLambda, NotAntinef,
                        NotEffective, NotLogTerminal, discrepancies,
                        multiplier_divisor, relative_canonical)
from .divisor import Divisor, ModelMismatch, decompose
from .graphfile import (GraphDoc, GraphSyntaxError, format_divisor,
                        parse_graph, parse_graph_file, serialize_model)
from .lattice import (NegDefResult, SingularLattice, check_negative_definite,
                      dual_basis, numerical_pullback)
from .model import (ExcCurve, MalformedGraph, ResolutionModel, StrictCurve,
                    build_model)
from .rationals import Rational, format_rational, parse_rational
from .realize import (CheckResult, DecompositionWitness,
                      RealizationCertificate, VerificationReport,
                      build_ample_negative, choose_epsilon, choose_mu,
                      realize, verify_certificate)

__version__ = "0.1.0"

__all__ = [
    "ChainInfo", "CheckResult", "ClosureTrace", "DecompositionWitness",
    "DiscrepancyReport", "Divisor", "ExcCurve", "GenericConfiguration",
    "GraphDoc", "GraphSyntaxError", "LemmaGenReport", "MalformedGraph",
    "ModelMismatch", "NegDefResult", "NonIntegralInput", "NonPositiveLambda",
    "NotAntinef", "NotEffective", "NotLogTerminal", "PreconditionViolated",
    "PullbackMap", "Rational", "RealizationCertificate", "ResolutionModel",
    "SingularLattice", "StrictCurve", "VerificationReport", "antinef_closure",
    "build_ample_negative", "build_model", "check_negative_definite",
    "choose_epsilon", "choose_mu", "decompose", "discrepancies", "dual_basis",
    "format_divisor", "format_rational", "is_antinef", "multiplier_divisor",
    "numerical_pullback", "parse_graph", "parse_graph_file", "parse_rational",
    "realize", "relative_canonical", "serialize_model", "verify_certificate",
    "verify_lemma_gen",
]
