"""Truncated power series in the formal parameter hbar.

A series holds the coefficients of hbar^0 .. hbar^N, N its order;
coefficients above the order are unknown (discarded by truncation).  A
sum, difference or product is known through the least order of its
operands.  The one quotient, by q^{-1} - 1 in
winf.lemma_variable_residuals, is again a power series: a quotient by a
series of valuation v is known through the least order less v, and a
quotient that would have a pole raises SeriesError.  All coefficient
arithmetic is exact (rational or cyclotomic).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .scalars import inverse as scalar_inverse


class SeriesError(ArithmeticError):
    pass


class HbarSeries:
    """sum_{j=0}^{order} coeffs[j] * hbar^j with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("HbarSeries is immutable")

    @property
    def order(self):
        return len(self.coeffs) - 1

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(order):
        return HbarSeries([Fraction(0)] * (order + 1))

    @staticmethod
    def const(value, order):
        return HbarSeries([value] + [Fraction(0)] * order)

    @staticmethod
    def exp_hbar(scale, order):
        """exp(scale * hbar) truncated at the given order."""
        return HbarSeries(
            scale**k * Fraction(1, factorial(k)) for k in range(order + 1)
        )

    # -- access -------------------------------------------------------

    def coeff(self, j):
        """Coefficient of hbar^j: 0 below hbar^0, raises above the order."""
        if j > self.order:
            raise SeriesError(f"coefficient {j} beyond truncation order {self.order}")
        return self.coeffs[j] if j >= 0 else Fraction(0)

    def valuation(self):
        """Exponent of the lowest nonzero known coefficient (None if zero)."""
        return next((j for j, c in enumerate(self.coeffs) if c), None)

    def is_zero(self):
        return self.valuation() is None

    # -- ring operations ----------------------------------------------

    def _coerce(self, x):
        return x if isinstance(x, HbarSeries) else HbarSeries.const(x, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        return HbarSeries(a + b for a, b in zip(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return HbarSeries(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) + -self

    def __mul__(self, other):
        if not isinstance(other, HbarSeries):
            return HbarSeries(other * c for c in self.coeffs)
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a:
                for j, b in enumerate(other.coeffs[: n + 1 - i]):
                    if b:
                        out[i + j] += a * b
        return HbarSeries(out)

    __rmul__ = __mul__

    def divide(self, other):
        """Exact formal division by a series of valuation v.

        The quotient is known through the least order less v; raises
        SeriesError if the dividend has a nonzero coefficient below
        hbar^v (the quotient would have a pole).
        """
        other = self._coerce(other)
        v = other.valuation()
        if v is None:
            raise ZeroDivisionError("division by zero series")
        if any(self.coeffs[:v]):
            raise SeriesError(f"quotient has a pole: dividend nonzero below hbar^{v}")
        lead_inv = scalar_inverse(other.coeffs[v])
        out = []
        for j in range(min(self.order, other.order) - v + 1):
            acc = self.coeffs[j + v]
            for i, c in enumerate(out):
                acc = acc - c * other.coeffs[j + v - i]
            out.append(lead_inv * acc)
        return HbarSeries(out)

    def __eq__(self, other):
        """Equality of the coefficients known on both sides."""
        other = self._coerce(other)
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        parts = [f"{c}*h^{j}" for j, c in enumerate(self.coeffs) if c]
        return f"HbarSeries({' + '.join(parts) or '0'}; order<={self.order})"
