"""Exceptional intersection lattice: definiteness, dual basis, pullback.

The intersection matrix of the exceptional curves of a resolution is
negative definite; everything in this module rests on that.  Every
elimination here goes through ``linalg.solve_columns``, the fraction-free
symmetric elimination on sparse rows whose first leading minor of the
wrong sign, in index order, proves that the form is not negative definite,
and reads its int numerators over |det M| straight into Divisors.  The
dual basis is solved once per model and cached on it; the numerical
pullback is read off it; definiteness is read off the cached solve of
the discrepancies.  Definiteness is treated as an input validation
(with an explicit witness on failure) rather than assumed, since the
inputs here are arbitrary combinatorial models.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from . import linalg
from .canonical import discrepancies
from .divisor import Divisor, ModelMismatch
from .model import ResolutionModel


class NegDefResult(NamedTuple):
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

    The cached solve of discrepancies decides it.  Its first rational pivot
    d = det_{k+1}/det_k >= 0 in index order, at index k, yields the witness
    v = (w, 1, 0, ..., 0) with M[:k,:k] w = -M[:k,k], for which
    v.M.v = d >= 0; the leading block M[:k,:k] is negative definite.
    """
    rows = model.sparse_rows
    try:
        discrepancies(model)
    except linalg.NotNegativeDefinite as exc:
        k = exc.index
        block = [[(j, v) for j, v in row if j < k] for row in rows[:k]]
        column = dict(rows[k])
        den, (head,) = linalg.solve_columns(
            block, [[-column.get(r, 0) for r in range(k)]])
        return NegDefResult(False, tuple(
            Fraction(v, den) for v in head + [den] + [0] * (model.u - k - 1)))
    return NegDefResult(True)


def dual_basis(model: ResolutionModel):
    """The effective rational divisors E*_i with E*_i . E_j = -delta_ij.

    Solved exactly, as int numerators over |det M|, by one elimination
    against the negated identity; results are cached on the model.  A
    configuration's ChainModel, no resolution, has none.
    """
    if not isinstance(model, ResolutionModel):
        raise ModelMismatch("a model of chain classes is not a resolution")
    if model._dual_basis is None:
        n = model.u
        den, cols = linalg.solve_columns(
            model.sparse_rows, [[0] * j + [-1] + [0] * (n - j - 1) for j in range(n)])
        zeros = [0] * len(model.strict_curves)
        model._dual_basis = tuple(
            Divisor._of(model, col + zeros, den) for col in cols)
    return model._dual_basis


def numerical_pullback(model: ResolutionModel, c: Divisor) -> Divisor:
    """Extend a strict-part divisor C to the unique divisor with
    zero products against every exceptional curve and pushforward C:
    C + sum_i (C.E_i) E*_i, over the cached dual basis."""
    u = model.u
    if any(c.num[:u]):
        raise ValueError("numerical_pullback expects a strict-part divisor")
    if not any(c.num[u:]):
        return Divisor.zero(model)
    return sum((dual.scale(Fraction(p, c.den)) for p, dual
                in zip(c.product_numerators(), dual_basis(model)) if p), c)
