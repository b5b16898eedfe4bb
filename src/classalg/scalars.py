"""Exact scalar arithmetic: rationals with a cyclotomic extension.

A scalar is an ``int``, a ``Fraction`` (the fast path used by all
combinatorial code), or a :class:`Cyc` living in the m-th cyclotomic
field.  A ``Cyc`` is sum_k nums[k] z^k / den, z = zeta_m, with phi(m)
int numerators over one positive int denominator, the fraction reduced,
as in ANTIC (Hart, 2015).  The form is canonical: m is minimal and the
value is never rational, so equality and hashing behave uniformly; a
``Cyc`` operation or :func:`zeta` returns an integer as an ``int``.
``coeffs`` reads the values nums[k] / den as ``Fraction``; ``numerator``
and ``denominator`` split a ``Cyc`` as they split an ``int`` or a
``Fraction``, so :func:`_over_lcm` puts any of them over one
denominator.  The public constructor ``Cyc(m, coeffs)`` raises
``ValueError`` on anything but a canonical element; the arithmetic
builds its results with the unchecked :func:`_cyc`, in ints:

- One function, :func:`_reduce`, reduces an int polynomial of any
  degree mod Phi_m, by long division after z^m = 1; Phi_m itself comes
  from exact division of x^m - 1 by the monic Phi_d.  Products, lifts,
  the Galois conjugate, the table :func:`powers` and the characters of
  wreath.WreathCharacters (lifted by :func:`_integral_numerators`) all
  go through it.
- ``Cyc * rational`` scales the numerators and ``Cyc + rational`` shifts
  the constant one; neither can change the conductor.  Operands of
  different conductors are first lifted to the lcm of the two.
- A result whose non-constant numerators vanish is rational: an ``int``
  when den divides the constant numerator, else a ``Fraction``.  Only
  when Q(zeta_m) has a proper non-rational cyclotomic subfield (m = 8, 9,
  12, ...) does :func:`_canon` search for the minimal conductor, by
  exact linear algebra on the int rows of :class:`_RowSpace`, the one
  exact elimination of the program (the generators suite's rank too),
  fraction-free after Bareiss (1968).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

_RATIONAL = (int, Fraction)
_setattr = object.__setattr__


# -- cyclotomic polynomials, as coefficient tuples lowest degree first --


@lru_cache(maxsize=None)
def cyclotomic_poly(m):
    """Coefficients (ascending) of the m-th cyclotomic polynomial: x^m - 1
    divided by every monic Phi_d, d | m, d < m, exactly in ints."""
    num = [-1] + [0] * (m - 1) + [1]
    for den in [cyclotomic_poly(d) for d in range(1, m) if m % d == 0]:
        k = len(den) - 1
        quot = [0] * (len(num) - k)
        for i in range(len(quot) - 1, -1, -1):
            c = quot[i] = num[i + k]
            if c:
                for j, e in enumerate(den):
                    num[i + j] -= c * e
        if any(num):
            raise ArithmeticError(f"a Phi_d leaves a remainder dividing x^{m} - 1")
        num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _phi(m):
    return len(cyclotomic_poly(m)) - 1


@lru_cache(maxsize=None)
def powers(m):
    """z^k mod Phi_m for 0 <= k < m, z = zeta_m, each as the phi(m) int
    coefficients of 1, z, ..., z^(phi(m)-1)."""
    return tuple(tuple(_reduce(m, (0,) * k + (1,))) for k in range(m))


@lru_cache(maxsize=None)
def _subfields(m):
    """The d, 2 < d < m, d | m, in increasing order: the conductors of the
    proper non-rational cyclotomic subfields Q(zeta_d) of Q(zeta_m)."""
    return tuple(d for d in range(3, m) if m % d == 0)


def _reduce(m, poly):
    """The phi(m) numerators of sum_k poly[k] z^k, z = zeta_m, for int
    coefficients poly of any length: the one reduction mod Phi_m."""
    out = [0] * m
    for k, c in enumerate(poly):
        out[k % m] += c
    divisor = cyclotomic_poly(m)
    phi = len(divisor) - 1
    for k in range(m - 1, phi - 1, -1):
        c = out[k]
        if c:
            for j, p in enumerate(divisor, k - phi):
                out[j] -= c * p
    return out[:phi]


def _mul_vec(m, a, b):
    """Product of two numerator tuples of Q(zeta_m), reduced mod Phi_m."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return _reduce(m, prod)


def _power_map(m, nums, e):
    """sum_k nums[k] z^(e k) in Q(zeta_m), reduced mod Phi_m."""
    poly = [0] * m
    for k, c in enumerate(nums):
        poly[e * k % m] += c
    return _reduce(m, poly)


def _integral_numerators(rows):
    """(m, rows of numerator tuples): each value of a character table's
    ``rows`` as its phi(m) int numerators in Q(zeta_m), m the least
    common conductor (1 when every value is rational).  Raises
    ArithmeticError on a value that is not an algebraic integer."""
    m = lcm(1, *(v.m for row in rows for v in row if isinstance(v, Cyc)))
    bad = next((v for row in rows for v in row if v.denominator != 1), None)
    if bad is not None:
        raise ArithmeticError(f"character value {bad} is not an algebraic integer")
    return m, [
        [tuple(v._lift(m) if isinstance(v, Cyc) else _reduce(m, (v.numerator,))) for v in row]
        for row in rows
    ]


def _over_lcm(scalars):
    """(den, numerators): int, Fraction or Cyc scalars over the lcm of
    their denominators; a numerator is an int or an algebraic-integer
    Cyc."""
    split = [(s.numerator, s.denominator) for s in scalars]
    den = lcm(*(d for _, d in split))
    return den, [n if d == den else n * (den // d) for n, d in split]


class _RowSpace:
    """The span of int rows in fraction-free reduced echelon form: each
    row primitive (the gcd of its entries is 1), its pivot positive, and
    zero at every other row's pivot.  A rational row goes in with its
    denominators cleared, since a scaled row spans the same line."""

    def __init__(self, dim):
        self.dim = dim
        self.rows = {}  # pivot column -> row (list of int)

    def insert(self, vec):
        """Insert vector; return True if it enlarged the space."""
        if len(self.rows) == self.dim:  # the whole space: nothing to add
            return False
        v = list(vec)
        for piv, row in self.rows.items():
            c = v[piv]
            if c:
                a = row[piv]
                v = [a * x - c * y for x, y in zip(v, row)]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        v = _primitive(v if v[piv] > 0 else [-x for x in v])
        a = v[piv]
        for p, row in self.rows.items():
            c = row[piv]
            if c:
                self.rows[p] = _primitive([a * x - c * y for x, y in zip(row, v)])
        self.rows[piv] = v
        return True


def _primitive(v):
    """v, not all zero, divided by the gcd of its entries."""
    g = gcd(*v)
    return v if g == 1 else [x // g for x in v]


def _solve_columns(cols, target):
    """Solve sum_j y_j * cols[j] = target exactly for rational entries:
    (nums, den) with y_j = nums[j] / den, the free unknowns 0; None if
    inconsistent.  The augmented rows go into a _RowSpace."""
    ncols = len(cols)
    space = _RowSpace(ncols + 1)
    for i, t in enumerate(target):
        space.insert(_over_lcm([c[i] for c in cols] + [t])[1])
    if ncols in space.rows:  # 0 = 1
        return None
    den = lcm(*(row[p] for p, row in space.rows.items()))
    nums = [0] * ncols
    for p, row in space.rows.items():
        nums[p] = row[-1] * (den // row[p])
    return nums, den


def _canon(m, nums, den):
    """The scalar sum_k nums[k] z^k / den of Q(zeta_m), den > 0, in
    canonical form: an int if integral, a Fraction if otherwise rational,
    else a reduced Cyc of least conductor."""
    if not any(nums[1:]):
        return Fraction(nums[0], den) if nums[0] % den else nums[0] // den
    table = powers(m)
    for d in _subfields(m):
        y = _solve_columns([table[m // d * j] for j in range(_phi(d))], nums)
        if y is not None:
            return _reduced(d, y[0], den * y[1])
    return _reduced(m, nums, den)


def _reduced(m, nums, den):
    """The Cyc sum_k nums[k] z^k / den, given canonical up to the common
    factor of den and nums, which is divided out."""
    g = gcd(den, *nums)
    if g == 1:
        return _cyc(m, tuple(nums), den)
    return _cyc(m, tuple(n // g for n in nums), den // g)


def _cyc(m, nums, den):
    """A Cyc from an already canonical ``(m, nums, den)``, unchecked."""
    x = object.__new__(Cyc)
    _setattr(x, "m", m)
    _setattr(x, "nums", nums)
    _setattr(x, "den", den)
    return x


class Cyc:
    """An element sum_k nums[k] zeta_m^k / den of the m-th cyclotomic
    field in canonical form.

    Immutable, and true (it is never 0); interoperates with ``int`` and
    ``Fraction`` in arithmetic.  ``Cyc(m, coeffs)`` raises ``ValueError``
    unless ``coeffs`` holds phi(m) values whose element is not rational
    and has conductor exactly m; :func:`zeta` and arithmetic build any
    other value.
    """

    __slots__ = ("m", "nums", "den")

    def __init__(self, m, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"conductor must be a positive integer, not {m!r}")
        if len(coeffs) != _phi(m):
            raise ValueError(
                f"Q(zeta_{m}) needs {_phi(m)} coefficients, got {len(coeffs)}"
            )
        den, nums = _over_lcm(coeffs)
        canon = _canon(m, nums, den)
        if not isinstance(canon, Cyc) or canon.m != m:
            raise ValueError(
                f"Cyc({m}, {[str(c) for c in coeffs]}) is not canonical: "
                f"it equals {scalar_to_string(canon)}"
            )
        _setattr(self, "m", m)
        _setattr(self, "nums", canon.nums)
        _setattr(self, "den", canon.den)

    def __setattr__(self, *a):
        raise AttributeError("Cyc is immutable")

    @property
    def coeffs(self):
        """The phi(m) coefficients nums[k] / den, as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def numerator(self):
        """self * den, an algebraic integer."""
        return self if self.den == 1 else _cyc(self.m, self.nums, 1)

    @property
    def denominator(self):
        return self.den

    def _lift(self, m):
        """The numerators of self in Q(zeta_m), self.m | m."""
        if m == self.m:
            return self.nums
        return _power_map(m, self.nums, m // self.m)

    def __add__(self, other):
        if isinstance(other, _RATIONAL):
            if not other:
                return self
            p, q = other.numerator, other.denominator
            nums, den = self.nums, self.den
            return _reduced(
                self.m, [nums[0] * q + p * den] + [n * q for n in nums[1:]], den * q
            )
        if not isinstance(other, Cyc):
            return NotImplemented
        m = lcm(self.m, other.m)
        a, b = self._lift(m), other._lift(m)
        da, db = self.den, other.den
        return _canon(m, [x * db + y * da for x, y in zip(a, b)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.m, tuple(-n for n in self.nums), self.den)

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
                return 0
            p, q = other.numerator, other.denominator
            return _reduced(self.m, [n * p for n in self.nums], self.den * q)
        if not isinstance(other, Cyc):
            return NotImplemented
        m = lcm(self.m, other.m)
        prod = _mul_vec(m, self._lift(m), other._lift(m))
        return _canon(m, prod, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: den * y with nums * y = 1, solved
        exactly on the columns nums * z^j.  It has the conductor of self."""
        m, table = self.m, powers(self.m)
        cols = [_mul_vec(m, self.nums, table[j]) for j in range(_phi(m))]
        y, e = _solve_columns(cols, table[0])
        return _reduced(m, [self.den * v for v in y], e)

    def __truediv__(self, other):
        if not isinstance(other, (*_RATIONAL, Cyc)):
            return NotImplemented
        return self * inverse(other)

    def __rtruediv__(self, other):
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        return self.inverse() * other

    def conjugate(self):
        """Galois conjugate sending zeta to zeta^{-1}, of the same
        conductor."""
        return _reduced(self.m, _power_map(self.m, self.nums, -1), self.den)

    def __eq__(self, other):
        if isinstance(other, _RATIONAL):
            return False  # canonical Cyc is never rational
        if isinstance(other, Cyc):
            return self.m == other.m and self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __hash__(self):
        return hash((self.m, self.nums, self.den))

    def __repr__(self):
        return scalar_to_string(self)


def zeta(m, k=1):
    """The primitive m-th root of unity zeta_m^k, canonicalized."""
    return _canon(m, powers(m)[k % m], 1)


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
    r"^\s*(?P<coef>[+-]?\d+(?:/0*[1-9]\d*)?)?\s*"
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
