"""Exceptional intersection lattice: definiteness, dual basis, pullback.

The intersection matrix of the exceptional curves of a resolution is
negative definite; everything in this module rests on that.  Every
computation here goes through ``linalg.solve_columns``, the symmetric
elimination with diagonal pivots, whose first pivot >= 0 proves that the
form is not negative definite.  Definiteness is treated as an input
validation (with an explicit witness on failure) rather than assumed,
since the inputs here are arbitrary combinatorial models.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import linalg
from .divisor import Divisor
from .model import ResolutionModel


@dataclass(frozen=True)
class NegDefResult:
    """Outcome of the definiteness check.

    When the form is not negative definite, ``witness`` is a rational
    vector v with v.M.v >= 0.
    """

    is_negative_definite: bool
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.is_negative_definite


def check_negative_definite(model: ResolutionModel) -> NegDefResult:
    """Decide negative definiteness of the exceptional intersection matrix.

    The first pivot d >= 0 of the symmetric elimination, at index k, yields
    the witness v = (w, 1, 0, ..., 0) with M[:k,:k] w = -M[:k,k], for which
    v.M.v = d >= 0; the leading block M[:k,:k] is negative definite.
    """
    matrix = model.matrix
    try:
        linalg.solve_columns(matrix, [])
    except linalg.NotNegativeDefinite as exc:
        k = exc.index
        block = [row[:k] for row in matrix[:k]]
        (head,) = linalg.solve_columns(
            block, [[-matrix[r][k] for r in range(k)]])
        return NegDefResult(False, tuple(head) + (Fraction(1),)
                            + (Fraction(0),) * (model.u - k - 1))
    return NegDefResult(True)


def dual_basis(model: ResolutionModel):
    """The effective rational divisors E*_i with E*_i . E_j = -delta_ij.

    Solved exactly by one elimination of the intersection matrix against
    the negated identity; results are cached on the model.
    """
    if model._dual_basis is None:
        n = model.u
        neg_identity = [[Fraction(-int(i == j)) for i in range(n)]
                        for j in range(n)]
        cols = linalg.solve_columns(model.matrix, neg_identity)
        zeros = (Fraction(0),) * len(model.strict_curves)
        model._dual_basis = tuple(
            Divisor(model, tuple(col), zeros) for col in cols)
    return model._dual_basis


def numerical_pullback(model: ResolutionModel, c: Divisor) -> Divisor:
    """Extend a strict-part divisor C to the unique divisor with
    zero products against every exceptional curve and pushforward C."""
    if any(c.exc):
        raise ValueError("numerical_pullback expects a strict-part divisor")
    if not any(c.strict):
        return Divisor.zero(model)
    rhs = [Fraction(0)] * model.u
    for s, coeff in enumerate(c.strict):
        if coeff:
            for k, v in model.strict_sparse[s]:
                rhs[k] -= coeff * v
    (exc,) = linalg.solve_columns(model.matrix, [rhs])
    return Divisor(model, tuple(exc), c.strict)

