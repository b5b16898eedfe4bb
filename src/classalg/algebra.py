"""The group algebra of Gamma_n and its center R(Gamma_n).

Provides SparseVector, the one sparse linear-combination type of the
program: integer (or Cyc) numerators over one positive int denominator,
in the manner of FLINT's fmpq_poly, with one linear-combination kernel
(_lincomb) behind its sums, differences and multiples.  On it sit
sparse group-algebra elements and class functions in the K^rho
(class-sum) basis, whose products add numerators over the product of
the denominators (the Fock space's FockVector and the W-algebra's
DiffOpElement are SparseVectors too); conversion of central elements
to class functions, Jucys-Murphy elements, the twisted power sums
Xi_n^k(alpha), the eta/epsilon products, elementary symmetric
functions of JM elements, and subalgebra generation by exact
elimination on int numerators (scalars._RowSpace).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from types import MappingProxyType

from .groups import ClassFunctionG, k_basis, unit_g
from .partitions import TypeFunction, class_size, enumerate_types
from .scalars import _over_lcm, _RowSpace
from .wreath import (
    WreathContext,
    WreathElement,
    type_of,
    wreath_identity,
    wreath_mul,
)


def _lincomb(terms, den=1):
    """(den', nums): the sum of n vec / den over (n, vec) in terms, for
    int or Cyc n (TypeError on a Fraction), as numerators without a zero
    over den' = den times the lcm of the vectors' denominators."""
    if len(terms) == 1 and type(terms[0][0]) is not Fraction:
        n, vec = terms[0]  # one nonzero term cancels nothing
        if n == 1:
            return den * vec.den, vec.nums
        if n:
            return den * vec.den, {b: n * w for b, w in vec.nums.items()}
    common = lcm(*(vec.den for _, vec in terms))
    out = {}
    get = out.get
    for n, vec in terms:
        if type(n) is Fraction:
            raise TypeError(f"multiplier {n} is a Fraction, not a numerator")
        if vec.den != common:
            n = n * (common // vec.den)
        for b, w in vec.nums.items():
            prev = get(b)
            out[b] = n * w if prev is None else prev + n * w
    return den * common, {b: v for b, v in out.items() if v}


class SparseVector:
    """The finite linear combination sum_b nums[b] / den b over one basis.

    group is the finite group Gamma the space is built from; den is a
    positive int; a numerator is an int, or where the scalars are
    cyclotomic an algebraic-integer Cyc over denominator 1, never a Fraction.
    No zero numerator is stored and the fraction is not reduced, so two
    vectors are equal when their numerators agree after cross-multiplying
    by the other's denominator.  Operands of + and - must lie in the
    same space: the same type over the same group (and, for the level-n
    types, the same n).  A vector is never mutated once built, so
    vectors may share their nums.  Unhashable.
    """

    __slots__ = ("group", "den", "nums")

    def __init__(self, group, coeffs=None):
        """The vector sum coeffs[b] b, for int, Fraction or Cyc
        coefficients."""
        coeffs = {b: v for b, v in (coeffs or {}).items() if v}
        self.group = group
        self.den, nums = _over_lcm(coeffs.values())
        self.nums = dict(zip(coeffs, nums))

    def _new(self, den, nums):
        """The vector nums / den in the space of self; nums must hold no
        zero."""
        out = object.__new__(type(self))
        out.group, out.den, out.nums = self.group, den, nums
        return out

    @property
    def coeffs(self):
        """The read-only map b -> nums[b] / den, reduced."""
        den = self.den
        return MappingProxyType(
            {
                b: Fraction(v, den) if type(v) is int else v * Fraction(1, den)
                for b, v in self.nums.items()
            }
        )

    def _same_space(self, other):
        return type(other) is type(self) and other.group is self.group

    def _check(self, other):
        if not self._same_space(other):
            raise ValueError(f"{type(self).__name__} operands from different spaces")

    def __add__(self, other):
        self._check(other)
        return self._new(*_lincomb([(1, self), (1, other)]))

    def __sub__(self, other):
        self._check(other)
        return self._new(*_lincomb([(1, self), (-1, other)]))

    def scale(self, s):
        d, (n,) = _over_lcm([s])
        return self._new(*_lincomb([(n, self)], d))

    def __eq__(self, other):
        if not self._same_space(other):
            return False
        if self.den == other.den:
            return self.nums == other.nums
        a, b, theirs = self.den, other.den, other.nums
        return self.nums.keys() == theirs.keys() and all(
            v * b == theirs[key] * a for key, v in self.nums.items()
        )

    __hash__ = None

    def is_zero(self):
        return not self.nums


class _LevelVector(SparseVector):
    """A SparseVector of one level n: in C[Gamma_n] or in R(Gamma_n)."""

    __slots__ = ("n",)

    def __init__(self, group, n, coeffs=None):
        super().__init__(group, coeffs)
        self.n = n

    def _new(self, den, nums):
        out = super()._new(den, nums)
        out.n = self.n
        return out

    def _same_space(self, other):
        return super()._same_space(other) and other.n == self.n


class GroupAlgebraElement(_LevelVector):
    """A sparse element of C[Gamma_n] over the basis of WreathElements."""

    __slots__ = ()

    def __mul__(self, other):
        """Convolution (group algebra) product, its numerators over the
        product of the denominators."""
        self._check(other)
        out = {}
        get = out.get
        group = self.group
        theirs = other.nums.items()
        for x, vx in self.nums.items():
            for y, vy in theirs:
                z = wreath_mul(group, x, y)
                prev = get(z)
                out[z] = vx * vy if prev is None else prev + vx * vy
        return self._new(self.den * other.den, {z: v for z, v in out.items() if v})


def algebra_unit(group, n):
    return GroupAlgebraElement(group, n, {wreath_identity(group, n): 1})


class WreathClassFunction(_LevelVector):
    """An element of R(Gamma_n) as sum_rho coeffs[rho] K^rho.

    K^rho is the class sum of the class of type rho; coefficients equal
    the values of the corresponding class function on each class.
    """

    __slots__ = ()

    def __init__(self, group, n, coeffs=None):
        coeffs = coeffs or {}
        for rho in coeffs:
            if rho.norm != n:
                raise ValueError(f"type of size {rho.norm} in R(Gamma_{n})")
        super().__init__(group, n, coeffs)

    def __repr__(self):
        inner = ", ".join(
            f"{rho.label()}: {v}" for rho, v in sorted(
                self.coeffs.items(), key=lambda kv: kv[0].sort_key())
        )
        return f"WreathClassFunction(n={self.n}, {{{inner}}})"


def k_class(group, n, rho):
    """K^rho as a WreathClassFunction."""
    return WreathClassFunction(group, n, {rho: 1})


def unit_class(group, n):
    """The unit: K^{(1^n) at c^0}."""
    return k_class(group, n, TypeFunction().pad_to(n))


def to_class_function(a):
    """Convert a central GroupAlgebraElement to the K^rho basis.

    Raises ValueError if the element is not constant on conjugacy
    classes (i.e. not central).
    """
    group, n = a.group, a.n
    by_type = {}
    counts = {}
    for x, v in a.nums.items():
        rho = type_of(group, x)
        if rho in by_type and by_type[rho] != v:
            raise ValueError("element is not constant on a conjugacy class")
        by_type[rho] = v
        counts[rho] = counts.get(rho, 0) + 1
    for rho, cnt in counts.items():
        if cnt != class_size(rho, group, n):
            raise ValueError("element is not supported on full conjugacy classes")
    return WreathClassFunction(group, n)._new(a.den, by_type)


def convolve_n(f, g):
    """Product in R(Gamma_n) through the rows of the class table
    (WreathContext.structure_constants), over the numerators of each
    factor in type-index order and the product of their denominators."""
    f._check(g)
    ctx = WreathContext.get(f.group, f.n)

    def indexed(h):
        return sorted((ctx.type_index[rho], v) for rho, v in h.nums.items())

    out = {}
    gs = indexed(g)
    for r, u in indexed(f):
        for s, v in gs:
            prod = u * v
            for t, c in enumerate(ctx.structure_constants(r, s)):
                if c:
                    out[t] = out.get(t, 0) + prod * c
    types = ctx.types
    return f._new(f.den * g.den, {types[t]: out[t] for t in sorted(out) if out[t]})


# -- JM elements and friends -----------------------------------------


def jm_element(group, j, n):
    """xi_j = sum_{i<j, a in Gamma} ((a at i, a^{-1} at j), (i j)).

    Positions are 1-based as in the definition; internally 0-based.
    """
    if not 1 <= j <= n:
        raise ValueError(f"j = {j} out of range 1..{n}")
    terms = {}
    jj = j - 1
    for i in range(jj):
        for a in range(group.order):
            g = [group.identity] * n
            g[i] = a
            g[jj] = group.inv[a]
            sigma = list(range(n))
            sigma[i], sigma[jj] = sigma[jj], sigma[i]
            terms[WreathElement(tuple(g), tuple(sigma))] = 1
    return GroupAlgebraElement(group, n, terms)


def embed_level(alpha, i, n):
    """alpha^{(i)}: the class function alpha placed in the i-th slot (1-based)."""
    group = alpha.group
    if not 1 <= i <= n:
        raise ValueError(f"slot {i} out of range 1..{n}")
    terms = {}
    for cid, members in enumerate(group.classes):
        v = alpha.values[cid]
        if not v:
            continue
        for a in members:
            g = [group.identity] * n
            g[i - 1] = a
            terms[WreathElement(tuple(g), tuple(range(n)))] = v
    return GroupAlgebraElement(group, n, terms)


def xi_power_sum(group, n, k, alpha):
    """Xi_n^k(alpha) = sum_i xi_i^k o alpha^{(i)} as a WreathClassFunction
    (centrality asserted).

    xi^0 is the algebra unit, so Xi_n^0(alpha) = sum_i alpha^{(i)}.
    """
    total = GroupAlgebraElement(group, n, {})
    for i in range(1, n + 1):
        xi = jm_element(group, i, n)
        xik = algebra_unit(group, n)
        for _ in range(k):
            xik = xik * xi
        total = total + xik * embed_level(alpha, i, n)
    return to_class_function(total)


def eta_n(group, n, gamma):
    """eta_n(gamma) = prod_j (gamma^{(j)} + xi_j)."""
    out = algebra_unit(group, n)
    for j in range(1, n + 1):
        out = out * (embed_level(gamma, j, n) + jm_element(group, j, n))
    return out


def epsilon_n(group, n, gamma):
    """epsilon_n(gamma) = prod_j (gamma^{(j)} - xi_j)."""
    out = algebra_unit(group, n)
    for j in range(1, n + 1):
        out = out * (embed_level(gamma, j, n) - jm_element(group, j, n))
    return out


def eta_value_formula(group, n, gamma, rho):
    """Value of eta_n(gamma) on class rho: prod_c gamma(c)^{l(rho(c))}."""
    if rho.norm != n:
        raise ValueError("type size mismatch")
    val = Fraction(1)
    for c, lam in rho.items:
        v = gamma.values[c]
        for _ in range(lam.length):
            val = val * v
    return val


def elementary_symmetric_jm(group, i, gamma, n):
    """E_i(gamma) = e_i(gamma^{(1)} + xi_1, ..., gamma^{(n)} + xi_n)."""
    zero = GroupAlgebraElement(group, n, {})
    # dp[k] = e_k of the factors seen so far
    dp = [algebra_unit(group, n)] + [zero] * i
    for j in range(1, n + 1):
        a = embed_level(gamma, j, n) + jm_element(group, j, n)
        for k in range(min(i, j), 0, -1):
            dp[k] = dp[k] + dp[k - 1] * a
    return to_class_function(dp[i])


# -- exact linear algebra over the K^rho basis ------------------------


def subalgebra_generated(gens, group, n):
    """Dimension and basis of the unital subalgebra generated by gens.

    Exact elimination in the K^rho basis, in the fraction-free
    scalars._RowSpace on the int numerators of each element: scaling a
    vector does not change the span.  The gens must be rational.  The
    basis starts with the unit and the generators, and each of its
    elements, those added on the way included, is multiplied by every
    generator once: the span then holds 1 and is closed under
    multiplication by the generators.  The walk ends as soon as the span
    is all of R(Gamma_n), and in any case because the basis has at most
    dim R(Gamma_n) elements.
    """
    ctx = WreathContext.get(group, n)
    full = len(ctx.types)
    space = _RowSpace(full)
    basis_elems = []

    def add(f):
        if space.insert([f.nums.get(rho, 0) for rho in ctx.types]):
            basis_elems.append(f)

    add(unit_class(group, n))
    for g in gens:
        add(g)
    for f in basis_elems:  # grows while it is walked
        for g in gens:
            if len(space.rows) == full:
                return full, basis_elems
            add(convolve_n(f, g))
    return len(space.rows), basis_elems


# -- verification -------------------------------------------------------


def verify_jm(group, n):
    """The commuting-family and product identities at level n:

    - the 2n elements xi_j and the slot-embedded class sums commute
      pairwise;
    - eta_n and epsilon_n as products match their closed value
      formulas on every class (epsilon picks up a sign per merged
      part);
    - the one-class products equal sums of one-class characteristic
      functions;
    - the trivial-character product equals the sum of all elements;
    - the elementary symmetric functions resum to eta_n shifted by
      the unit.

    Returns a list of failure descriptions (empty = pass).
    """
    failures = []
    elems = [jm_element(group, j, n) for j in range(1, n + 1)]
    for i in range(1, n + 1):
        for c in range(group.num_classes):
            elems.append(embed_level(k_basis(group, c), i, n))
    for i, a in enumerate(elems):
        for b in elems[i + 1:]:
            if not (a * b - b * a).is_zero():
                failures.append(f"commutativity pair at n={n}")
    # generic class function with distinct values separates the classes
    gamma = ClassFunctionG(
        group, tuple(Fraction(c + 2) for c in range(group.num_classes))
    )
    eta = to_class_function(eta_n(group, n, gamma))
    eps = to_class_function(epsilon_n(group, n, gamma))
    eta_values, eps_values = eta.coeffs, eps.coeffs
    for rho in enumerate_types(group, n):
        value = eta_value_formula(group, n, gamma, rho)
        length = sum(lam.length for _, lam in rho.items)
        if eta_values.get(rho, 0) != value:
            failures.append(f"eta value at {rho.label()}")
        if eps_values.get(rho, 0) != (-1) ** (n - length) * value:
            failures.append(f"epsilon value at {rho.label()}")
    for c in range(group.num_classes):
        lhs = to_class_function(eta_n(group, n, k_basis(group, c)))
        expected = WreathClassFunction(
            group,
            n,
            {
                rho: 1
                for rho in enumerate_types(group, n)
                if all(cid == c for cid, _ in rho.items)
            },
        )
        if lhs != expected:
            failures.append(f"one-class product at c{c}")
    trivial = ClassFunctionG(
        group, tuple(Fraction(1) for _ in range(group.num_classes))
    )
    all_elements = to_class_function(eta_n(group, n, trivial))
    expected = WreathClassFunction(
        group, n, {rho: 1 for rho in enumerate_types(group, n)}
    )
    if all_elements != expected:
        failures.append("sum of all elements")
    total = WreathClassFunction(group, n, {})
    for i in range(n + 1):
        total = total + elementary_symmetric_jm(group, i, gamma, n)
    shifted = to_class_function(eta_n(group, n, gamma + unit_g(group)))
    if total != shifted:
        failures.append("elementary symmetric resummation")
    return failures
