"""Exact scalar arithmetic: rationals with a cyclotomic extension.

A scalar is an ``int``, a ``Fraction`` (the fast path used by all
combinatorial code), or a :class:`Cyc` living in the m-th cyclotomic
field.  Every ``Cyc`` is kept in a canonical reduced form: ``coeffs`` is
a tuple of ``Fraction`` of length phi(m), the coefficients of
1, z, ..., z^(phi(m)-1) modulo the m-th cyclotomic polynomial, and the
conductor m is minimal.  Rational values are always unwrapped to
``Fraction``, so equality and hashing behave uniformly.  The public
constructor ``Cyc(m, coeffs)`` raises ``ValueError`` on anything else;
the arithmetic builds its results with the unchecked :func:`_cyc`.

The arithmetic keeps that form without re-solving it on every operation:

- ``Cyc * rational`` scales the coefficients and ``Cyc + rational``
  shifts the constant one; neither can change the conductor.
- Operands of one conductor are added or multiplied on their coefficient
  tuples.  A product is reduced with a cached table of z^k for
  phi(m) <= k <= 2 phi(m) - 2 (:func:`_mul_vec`).
- Operands of different conductors are first lifted to the least common
  multiple of the two.
- A result whose non-constant coefficients vanish is returned as a
  ``Fraction``.  Only when Q(zeta_m) has a proper non-rational cyclotomic
  subfield (m = 8, 9, 12, ...) does a result go through :func:`_make`,
  which finds the minimal conductor by exact linear algebra.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

_RATIONAL = (int, Fraction)
_ZERO = Fraction(0)
_setattr = object.__setattr__


# -- polynomials: coefficient tuples, lowest degree first --------------


def poly_trim(c):
    """The polynomial c as a tuple without trailing zeros."""
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def poly_scale(a, s):
    if not s:
        return ()
    return poly_trim([s * x for x in a])


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return poly_trim(out)


def poly_divmod(num, den):
    """Quotient and remainder of num by den, with rational coefficients."""
    num = [Fraction(x) for x in num]
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    inv_lead = Fraction(1) / Fraction(den[-1])
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] * inv_lead
        if c:
            q[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return tuple(q), poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_poly(m):
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    num = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            num, r = poly_divmod(num, cyclotomic_poly(d))
            if r:
                raise ArithmeticError(f"Phi_{d} leaves a remainder dividing x^{m} - 1")
    return tuple(int(c) for c in num)


def _divisors(m):
    return sorted(d for d in range(1, m + 1) if m % d == 0)


@lru_cache(maxsize=None)
def _phi(m):
    return len(cyclotomic_poly(m)) - 1


@lru_cache(maxsize=None)
def _power_vec(m, k):
    """z_m^k reduced mod Phi_m, as a coefficient tuple of length phi(m)."""
    phi = _phi(m)
    p = [Fraction(0)] * (k % m) + [Fraction(1)]
    _, r = poly_divmod(p, cyclotomic_poly(m))
    r = list(r) + [Fraction(0)] * (phi - len(r))
    return tuple(r[:phi])


@lru_cache(maxsize=None)
def _reduction_table(m):
    """``(k, ((i, c), ...))`` for phi(m) <= k <= 2 phi(m) - 2, where the
    c are the nonzero (integer) coefficients of z^i in z_m^k mod Phi_m."""
    phi = _phi(m)
    return tuple(
        (k, tuple((i, int(c)) for i, c in enumerate(_power_vec(m, k)) if c))
        for k in range(phi, 2 * phi - 1)
    )


@lru_cache(maxsize=None)
def _has_proper_subfield(m):
    """Whether Q(zeta_m) contains some Q(zeta_d) other than Q, d < m."""
    return any(2 < d < m for d in _divisors(m))


def _mul_vec(m, a, b):
    """Product of two coefficient tuples of Q(zeta_m), reduced mod Phi_m."""
    phi = len(a)
    prod = [_ZERO] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    out = prod[:phi]
    for k, row in _reduction_table(m):
        x = prod[k]
        if x:
            for i, c in row:
                out[i] += x * c
    return tuple(out)


def _solve_columns(cols, target):
    """Solve sum_j y_j * cols[j] = target exactly; None if inconsistent."""
    nrows = len(target)
    ncols = len(cols)
    aug = [[cols[j][i] for j in range(ncols)] + [target[i]] for i in range(nrows)]
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if aug[r][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    for r in range(row, nrows):
        if aug[r][ncols]:
            return None
    y = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        y[col] = aug[r][ncols]
    return y


def _make(m, vec):
    """Canonicalize a coefficient vector in Q(zeta_m); unwrap rationals."""
    vec = tuple(Fraction(v) for v in vec)
    if m == 1:
        return vec[0] if vec else Fraction(0)
    if all(v == 0 for v in vec[1:]):
        return vec[0]
    for d in _divisors(m):
        if d == m or d == 1:
            continue
        cols = [_power_vec(m, (m // d) * j) for j in range(_phi(d))]
        y = _solve_columns(cols, vec)
        if y is not None:
            return _cyc(d, tuple(y))
    return _cyc(m, vec)


def _canon(m, vec):
    """Canonical form of a tuple of phi(m) ``Fraction`` in Q(zeta_m)."""
    if not any(vec[1:]):
        return vec[0]
    if _has_proper_subfield(m):
        return _make(m, vec)
    return _cyc(m, vec)


def _cyc(m, coeffs):
    """A Cyc from an already canonical ``(m, coeffs)``, unchecked."""
    x = object.__new__(Cyc)
    _setattr(x, "m", m)
    _setattr(x, "coeffs", coeffs)
    return x


class Cyc:
    """An element of the m-th cyclotomic field in canonical form.

    Immutable; interoperates with ``int`` and ``Fraction`` in arithmetic.
    ``Cyc(m, coeffs)`` raises ``ValueError`` unless ``coeffs`` holds
    phi(m) values whose element is not rational and has conductor
    exactly m; :func:`zeta` and arithmetic build any other value.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"conductor must be a positive integer, not {m!r}")
        if len(coeffs) != _phi(m):
            raise ValueError(
                f"Q(zeta_{m}) needs {_phi(m)} coefficients, got {len(coeffs)}"
            )
        canon = _make(m, coeffs)
        if not isinstance(canon, Cyc) or canon.m != m:
            raise ValueError(
                f"Cyc({m}, {[str(c) for c in coeffs]}) is not canonical: "
                f"it equals {scalar_to_string(canon)}"
            )
        _setattr(self, "m", m)
        _setattr(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Cyc is immutable")

    def _lift(self, m):
        """Coefficient tuple of self in Q(zeta_m), self.m | m."""
        if m == self.m:
            return self.coeffs
        step = m // self.m
        out = [Fraction(0)] * _phi(m)
        for k, c in enumerate(self.coeffs):
            if c:
                for i, v in enumerate(_power_vec(m, step * k)):
                    out[i] += c * v
        return tuple(out)

    def __add__(self, other):
        if isinstance(other, _RATIONAL):
            if not other:
                return self
            c = self.coeffs
            return _cyc(self.m, (c[0] + other,) + c[1:])
        if not isinstance(other, Cyc):
            return NotImplemented
        m = lcm(self.m, other.m)
        a, b = self._lift(m), other._lift(m)
        return _canon(m, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.m, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, (*_RATIONAL, Cyc)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _RATIONAL):
            if not other:
                return _ZERO
            return _cyc(self.m, tuple(c * other if c else c for c in self.coeffs))
        if not isinstance(other, Cyc):
            return NotImplemented
        m = lcm(self.m, other.m)
        return _canon(m, _mul_vec(m, self._lift(m), other._lift(m)))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        phi = cyclotomic_poly(self.m)
        a = poly_trim(self.coeffs)
        if not a:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        # extended gcd of a and Phi_m over Q[x]
        r0, r1 = phi, a
        s0, s1 = (), (Fraction(1),)
        while r1:
            q, r = poly_divmod(r0, r1)
            s = poly_add(s0, poly_scale(poly_mul(q, s1), -1))
            r0, r1, s0, s1 = r1, r, s1, s
        # r0 = gcd (a nonzero constant since Phi_m is irreducible)
        if len(r0) != 1:
            raise ArithmeticError("cyclotomic gcd not constant")
        inv = [c / r0[0] for c in s0]
        _, rr = poly_divmod(inv, phi)
        rr = list(rr) + [Fraction(0)] * (_phi(self.m) - len(rr))
        return _make(self.m, rr)

    def __truediv__(self, other):
        if not isinstance(other, (*_RATIONAL, Cyc)):
            return NotImplemented
        return self * inverse(other)

    def __rtruediv__(self, other):
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        return self.inverse() * other

    def conjugate(self):
        """Galois conjugate sending zeta to zeta^{-1}."""
        out = [Fraction(0)] * _phi(self.m)
        for k, c in enumerate(self.coeffs):
            if c:
                for i, v in enumerate(_power_vec(self.m, (-k) % self.m)):
                    out[i] += c * v
        return _make(self.m, out)

    def __eq__(self, other):
        if isinstance(other, _RATIONAL):
            return False  # canonical Cyc is never rational
        if isinstance(other, Cyc):
            return self.m == other.m and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return scalar_to_string(self)


def zeta(m, k=1):
    """The primitive m-th root of unity zeta_m^k, canonicalized."""
    return _make(m, _power_vec(m, k))


def conjugate(x):
    """zeta -> zeta^{-1} conjugation; identity on rationals."""
    if isinstance(x, Cyc):
        return x.conjugate()
    return Fraction(x)


def inverse(x):
    if isinstance(x, Cyc):
        return x.inverse()
    return Fraction(1) / Fraction(x)


def scalar_to_string(x):
    """Exact string form; rationals as 'p/q', z denotes zeta_conductor."""
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    parts = []
    for k, c in enumerate(x.coeffs):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            mono = f"z{x.m}" + (f"^{k}" if k > 1 else "")
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
    if not parts:
        return "0"
    s = parts[0]
    for p in parts[1:]:
        s += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return s


_TERM_RE = re.compile(
    r"^\s*(?P<coef>[+-]?\d+(?:/\d+)?)?\s*"
    r"(?P<star>\*)?\s*"
    r"(?:z(?P<cond>\d*)(?:\^(?P<pow>\d+))?)?\s*$"
)


class ScalarParseError(ValueError):
    pass


def scalar_from_string(text, conductor=1):
    """Parse expressions like '3/2*z5^2 - 1' into an exact scalar.

    `z` (or `z<m>` with m equal to the declared conductor) denotes the
    primitive conductor-th root of unity.
    """
    text = text.strip()
    if not text:
        raise ScalarParseError("empty scalar expression")
    # split on top-level + and -, keeping signs
    terms = re.findall(r"[+-]?[^+-]+|[+-](?=[+-])", text.replace(" ", ""))
    total = Fraction(0)
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("cond") is None and not term):
            raise ScalarParseError(f"cannot parse term {term!r}")
        has_z = "z" in term
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        if has_z:
            cond = m.group("cond")
            if cond and int(cond) != conductor:
                raise ScalarParseError(
                    f"root z{cond} does not match declared conductor {conductor}"
                )
            k = int(m.group("pow") or 1)
            total = total + sign * coef * zeta(conductor, k)
        else:
            if m.group("coef") is None:
                raise ScalarParseError(f"cannot parse term {term!r}")
            total = total + sign * coef
    return total
