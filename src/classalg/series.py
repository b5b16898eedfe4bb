"""Truncated Laurent series in the formal parameter hbar.

A series carries an explicit window [lo, hi] of known coefficients:
coefficients below lo are zero, coefficients above hi are unknown
(discarded by truncation).  Poles are bounded by order 2, which is all
the one quotient left needs: winf.lemma_variable_residuals divides by
q^{-1} - 1.  All coefficient arithmetic is exact (rational or
cyclotomic).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .scalars import inverse as scalar_inverse

POLE_BOUND = 2


class SeriesError(ArithmeticError):
    pass


class HbarSeries:
    """sum_{j=lo}^{hi} coeffs[j-lo] * hbar^j with exact coefficients."""

    __slots__ = ("lo", "hi", "coeffs")

    def __init__(self, lo, coeffs, hi):
        # normalize: strip leading zeros, clamp to the window
        coeffs = list(coeffs)
        if len(coeffs) != hi - lo + 1:
            raise ValueError("coefficient count does not match window")
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            lo += 1
        if lo < -POLE_BOUND and any(coeffs[: -POLE_BOUND - lo]):
            raise SeriesError(f"pole order exceeds {POLE_BOUND}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("HbarSeries is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(order):
        return HbarSeries(order + 1, [], order)

    @staticmethod
    def const(value, order):
        return HbarSeries(0, [value] + [0] * order, order)

    @staticmethod
    def hbar_power(k, order):
        if k > order:
            return HbarSeries.zero(order)
        return HbarSeries(k, [1] + [0] * (order - k), order)

    @staticmethod
    def exp_hbar(scale, order):
        """exp(scale * hbar) truncated at the given order."""
        return HbarSeries(
            0,
            [scale**k * Fraction(1, factorial(k)) for k in range(order + 1)],
            order,
        )

    # -- access -------------------------------------------------------

    def coeff(self, j):
        """Coefficient of hbar^j; raises if j is beyond the known window."""
        if j > self.hi:
            raise SeriesError(f"coefficient {j} beyond truncation order {self.hi}")
        if j < self.lo:
            return Fraction(0)
        return self.coeffs[j - self.lo]

    def valuation(self):
        """Exponent of the lowest nonzero known coefficient (None if zero)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return self.lo + i
        return None

    def is_zero(self):
        return self.valuation() is None

    def __bool__(self):
        return not self.is_zero()

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(x, other):
        if isinstance(x, HbarSeries):
            return x
        return HbarSeries.const(x, other.hi)

    def __add__(self, other):
        other = HbarSeries._coerce(other, self)
        hi = min(self.hi, other.hi)
        lo = min(self.lo, other.lo)
        if lo > hi:
            return HbarSeries.zero(hi)
        out = [self.coeff(j) + other.coeff(j) for j in range(lo, hi + 1)]
        return HbarSeries(lo, out, hi)

    __radd__ = __add__

    def __neg__(self):
        return HbarSeries(self.lo, [-c for c in self.coeffs], self.hi)

    def __sub__(self, other):
        return self + (-HbarSeries._coerce(other, self))

    def __rsub__(self, other):
        return HbarSeries._coerce(other, self) + (-self)

    def __mul__(self, other):
        if not isinstance(other, HbarSeries):
            return HbarSeries(
                self.lo, [other * c for c in self.coeffs], self.hi
            )
        if self.is_zero() or other.is_zero():
            # the product window is still limited by what is known
            return HbarSeries.zero(min(self.hi + other.lo, other.hi + self.lo))
        lo = self.lo + other.lo
        hi = min(self.hi + other.lo, other.hi + self.lo)
        if lo > hi:
            return HbarSeries.zero(hi)
        out = [0] * (hi - lo + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            ja = self.lo + i
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                k = ja + other.lo + j
                if lo <= k <= hi:
                    out[k - lo] = out[k - lo] + a * b
        return HbarSeries(lo, out, hi)

    __rmul__ = __mul__

    def divide(self, other):
        """Exact formal division by a series with known valuation.

        The quotient window is determined by the known windows; raises
        SeriesError if the quotient would exceed the pole bound.
        """
        if not isinstance(other, HbarSeries):
            other = HbarSeries.const(other, self.hi)
        val = other.valuation()
        if val is None:
            raise ZeroDivisionError("division by zero series")
        sval = self.valuation()
        if sval is None:
            return HbarSeries.zero(min(self.hi - val, other.hi - 2 * val))
        lo = sval - val
        if lo < -POLE_BOUND:
            raise SeriesError(
                f"quotient pole order {-lo} exceeds bound {POLE_BOUND}"
            )
        hi = min(self.hi - val, other.hi - val + lo)
        if hi < lo:
            raise SeriesError("no known coefficients in quotient window")
        lead = other.coeff(val)
        lead_inv = scalar_inverse(lead)
        out = []
        for j in range(lo, hi + 1):
            acc = self.coeff(j + val)
            for i, q in enumerate(out):
                acc = acc - q * other.coeff(j + val - (lo + i))
            out.append(lead_inv * acc)
        return HbarSeries(lo, out, hi)

    def __eq__(self, other):
        """Equality of all known coefficients over the common window."""
        if not isinstance(other, HbarSeries):
            other = HbarSeries.const(other, self.hi)
        hi = min(self.hi, other.hi)
        lo = min(self.lo, other.lo)
        return all(self.coeff(j) == other.coeff(j) for j in range(lo, hi + 1))

    def __repr__(self):
        parts = [
            f"{c}*h^{self.lo + i}" for i, c in enumerate(self.coeffs) if c
        ]
        body = " + ".join(parts) if parts else "0"
        return f"HbarSeries({body}; order<={self.hi})"
