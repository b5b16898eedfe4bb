"""The group algebra of Gamma_n and its center R(Gamma_n).

Provides SparseVector, the one sparse linear-combination type of the
package, and on it sparse group-algebra elements and class functions in
the K^rho (class-sum) basis; conversion between the two, Jucys-Murphy
elements, the twisted power sums Xi_n^k(alpha), the eta/epsilon
products, elementary symmetric functions of JM elements, and subalgebra
generation by exact linear algebra.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import TypeFunction, class_size
from .scalars import inverse as scalar_inverse
from .wreath import (
    WreathContext,
    WreathElement,
    type_of,
    wreath_identity,
    wreath_mul,
)


class SparseVector:
    """A finite linear combination sum_b coeffs[b] b over one basis.

    group is the finite group Gamma the space is built from; coeffs
    maps basis elements to scalars and never stores a zero.  Operands of
    + and - must lie in the same space: the same type over the same
    group (and, for the level-n types, the same n).  Unhashable (it
    defines __eq__ and no __hash__), as the coefficients may change.
    """

    __slots__ = ("group", "coeffs")

    def __init__(self, group, coeffs=None):
        self.group = group
        self.coeffs = {b: v for b, v in (coeffs or {}).items() if v}

    def _new(self, coeffs):
        """A vector in the same space; coeffs must hold no zero."""
        out = object.__new__(type(self))
        out.group = self.group
        out.coeffs = coeffs
        return out

    def _same_space(self, other):
        return type(other) is type(self) and other.group is self.group

    def _check(self, other):
        if not self._same_space(other):
            raise ValueError(f"{type(self).__name__} operands from different spaces")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for b, v in other.coeffs.items():
            s = out.get(b, 0) + v
            if s:
                out[b] = s
            else:
                out.pop(b, None)
        return self._new(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        if not s:
            return self._new({})
        return self._new({b: w for b, v in self.coeffs.items() if (w := s * v)})

    def __eq__(self, other):
        return self._same_space(other) and self.coeffs == other.coeffs

    def is_zero(self):
        return not self.coeffs


class _LevelVector(SparseVector):
    """A SparseVector of one level n: in C[Gamma_n] or in R(Gamma_n)."""

    __slots__ = ("n",)

    def __init__(self, group, n, coeffs=None):
        super().__init__(group, coeffs)
        self.n = n

    def _new(self, coeffs):
        out = super()._new(coeffs)
        out.n = self.n
        return out

    def _same_space(self, other):
        return super()._same_space(other) and other.n == self.n


class GroupAlgebraElement(_LevelVector):
    """A sparse element of C[Gamma_n]: coeffs maps WreathElement -> scalar."""

    __slots__ = ()

    def __mul__(self, other):
        """Convolution (group algebra) product."""
        self._check(other)
        out = {}
        group = self.group
        for x, vx in self.coeffs.items():
            for y, vy in other.coeffs.items():
                z = wreath_mul(group, x, y)
                s = out.get(z, 0) + vx * vy
                if s:
                    out[z] = s
                else:
                    out.pop(z, None)
        return self._new(out)

    def support_size(self):
        return len(self.coeffs)


def algebra_unit(group, n):
    return GroupAlgebraElement(group, n, {wreath_identity(group, n): Fraction(1)})


def algebra_power(a, k):
    out = algebra_unit(a.group, a.n)
    for _ in range(k):
        out = out * a
    return out


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

    def to_group_algebra(self):
        ctx = WreathContext.get(self.group, self.n)
        out = {}
        for x, r in ctx._elements_with_types():
            v = self.coeffs.get(ctx.types[r])
            if v:
                out[x] = v
        return GroupAlgebraElement(self.group, self.n, out)

    def vector(self, ctx):
        """Dense coefficient vector over ctx.types."""
        return [self.coeffs.get(rho, Fraction(0)) for rho in ctx.types]

    def __repr__(self):
        inner = ", ".join(
            f"{rho.label()}: {v}" for rho, v in sorted(
                self.coeffs.items(), key=lambda kv: kv[0].sort_key())
        )
        return f"WreathClassFunction(n={self.n}, {{{inner}}})"


def k_class(group, n, rho):
    """K^rho as a WreathClassFunction."""
    return WreathClassFunction(group, n, {rho: Fraction(1)})


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
    for x, v in a.coeffs.items():
        rho = type_of(group, x)
        if rho in by_type and by_type[rho] != v:
            raise ValueError("element is not constant on a conjugacy class")
        by_type[rho] = v
        counts[rho] = counts.get(rho, 0) + 1
    for rho, cnt in counts.items():
        if cnt != class_size(rho, group, n):
            raise ValueError("element is not supported on full conjugacy classes")
    return WreathClassFunction(group, n, by_type)


def convolve_n(f, g):
    """Product in R(Gamma_n) via class-representative counting."""
    f._check(g)
    ctx = WreathContext.get(f.group, f.n)
    table = ctx.structure_constants()
    k = len(ctx.types)
    out = [0] * k
    fv = f.vector(ctx)
    gv = g.vector(ctx)
    for r in range(k):
        if not fv[r]:
            continue
        for s in range(k):
            if not gv[s]:
                continue
            prod = fv[r] * gv[s]
            row = table[r][s]
            for t in range(k):
                if row[t]:
                    out[t] = out[t] + prod * row[t]
    return WreathClassFunction(
        f.group, f.n, {ctx.types[t]: out[t] for t in range(k) if out[t]}
    )


def bilinear_form_n(f, g):
    """<f, g> = sum_rho Z_rho^{-1} f(rho) g(rho^{-1}) on R(Gamma_n).

    On Fock vectors (as fock.fock_inner) it is the orthogonal sum of the
    level forms.
    """
    f._check(g)
    group = f.group
    total = 0
    for rho, v in f.coeffs.items():
        w = g.coeffs.get(rho.inverse(group))
        if w:
            total = total + v * w * Fraction(1, rho.centralizer_order(group))
    return total if total else Fraction(0)


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
            terms[WreathElement(tuple(g), tuple(sigma))] = Fraction(1)
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


def xi_power_sum_algebra(group, n, k, alpha):
    """Xi_n^k(alpha) = sum_i xi_i^k o alpha^{(i)} in C[Gamma_n].

    xi^0 is the algebra unit, so Xi_n^0(alpha) = sum_i alpha^{(i)}.
    """
    total = GroupAlgebraElement(group, n, {})
    for i in range(1, n + 1):
        xik = algebra_power(jm_element(group, i, n), k)
        total = total + xik * embed_level(alpha, i, n)
    return total


def xi_power_sum(group, n, k, alpha):
    """Xi_n^k(alpha) as a WreathClassFunction (centrality asserted)."""
    return to_class_function(xi_power_sum_algebra(group, n, k, alpha))


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


class _RowSpace:
    """Row space in reduced echelon form over the rationals (exact)."""

    def __init__(self, dim):
        self.dim = dim
        self.rows = {}  # pivot column -> row (list of scalars)

    def reduce(self, vec):
        v = list(vec)
        for piv in sorted(self.rows):
            if v[piv]:
                coef = v[piv]
                row = self.rows[piv]
                for j in range(piv, self.dim):
                    v[j] = v[j] - coef * row[j]
        return v

    def insert(self, vec):
        """Insert vector; return True if it enlarged the space."""
        v = self.reduce(vec)
        piv = next((j for j in range(self.dim) if v[j]), None)
        if piv is None:
            return False
        coef = scalar_inverse(v[piv])
        v = [coef * x for x in v]
        for p, row in self.rows.items():
            if row[piv]:
                c = row[piv]
                self.rows[p] = [a - c * b for a, b in zip(row, v)]
        self.rows[piv] = v
        return True

    @property
    def dimension(self):
        return len(self.rows)


def subalgebra_generated(gens, group, n):
    """Dimension and basis of the unital subalgebra generated by gens.

    Exact Gaussian elimination in the K^rho basis; closure under
    convolution, iterated to stability (at most dim R(Gamma_n) rounds).
    """
    ctx = WreathContext.get(group, n)
    dim = len(ctx.types)
    space = _RowSpace(dim)
    basis_elems = []

    def add(f):
        if space.insert(f.vector(ctx)):
            basis_elems.append(f)
            return True
        return False

    add(unit_class(group, n))
    for g in gens:
        add(g)
    changed = True
    rounds = 0
    while changed and rounds <= dim:
        changed = False
        rounds += 1
        snapshot = list(basis_elems)
        for f in snapshot:
            for g in gens:
                if add(convolve_n(f, g)):
                    changed = True
    return space.dimension, basis_elems


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
    from .groups import ClassFunctionG, k_basis, unit_g
    from .partitions import enumerate_types

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
    for rho in enumerate_types(group, n):
        value = eta_value_formula(group, n, gamma, rho)
        length = sum(lam.length for _, lam in rho.items)
        if eta.coeffs.get(rho, 0) != value:
            failures.append(f"eta value at {rho.label()}")
        if eps.coeffs.get(rho, 0) != (-1) ** (n - length) * value:
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
