"""Exceptional intersection lattice: definiteness, dual basis, pullback.

The intersection matrix of the exceptional curves of a resolution is
negative definite; everything in this module rests on that.  Definiteness
is treated as an input validation (with an explicit witness on failure)
rather than assumed, since the inputs here are arbitrary combinatorial
models.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import linalg
from .divisor import Divisor
from .model import ResolutionModel


class SingularLattice(Exception):
    """The intersection form is singular (cannot happen after the
    definiteness check; kept as a defensive error)."""


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

    Runs symmetric Gaussian elimination without pivot search: for a
    negative definite matrix every pivot is negative.  The first pivot
    d >= 0 yields a witness v (supported on the leading block) with
    v.M.v = d >= 0.
    """
    n = model.u
    work = [[Fraction(v) for v in row] for row in model.matrix]

    for k in range(n):
        pivot = work[k][k]
        if pivot >= 0:
            # witness: v = (w, 1, 0, ..., 0) with M[:k,:k] w = -M[:k,k]
            if k == 0:
                witness = [Fraction(0)] * n
                witness[0] = Fraction(1)
            else:
                block = [[Fraction(model.matrix[r][c]) for c in range(k)]
                         for r in range(k)]
                rhs = [-Fraction(model.matrix[r][k]) for r in range(k)]
                head = linalg.solve(block, rhs)
                witness = head + [Fraction(1)] + [Fraction(0)] * (n - k - 1)
            return NegDefResult(False, tuple(witness))
        row_k = work[k]
        for r in range(k + 1, n):
            factor = work[r][k] / pivot
            if factor:
                row_r = work[r]
                for c in range(k, n):
                    row_r[c] -= factor * row_k[c]
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
        try:
            cols = linalg.solve_columns(model.matrix, neg_identity)
        except linalg.SingularMatrixError as exc:
            raise SingularLattice(str(exc)) from exc
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
    try:
        exc = linalg.solve(model.matrix, rhs)
    except linalg.SingularMatrixError as exc_err:
        raise SingularLattice(str(exc_err)) from exc_err
    return Divisor(model, tuple(exc), c.strict)

