"""The Fock space direct-sum of the class algebras R(Gamma_n).

A vector is one FockVector over all levels at once, K^rho lying at
level ||rho||: an algebra.SparseVector, integer (or Cyc) numerators over
one positive int denominator, whose component(n) keeps the numerators
of level n as a class function for the convolution product of
R(Gamma_n).

Creation and annihilation operators act by exact closed formulas on
that basis; the tests compare them with independent slower
constructions (induction from the big group, averaging over S_n, and
the adjoint characterization through the bilinear form).

On top of the Heisenberg operators sit the convolution operators
O^k(alpha) built from Jucys-Murphy power sums, normally ordered powers
of the generating field applied to diagonal pushforwards (giving the
Virasoro operators and the cubic operator), and the polynomial model
related to the level picture by the characteristic map.

The normally ordered powers are expanded one basis state at a time:
their annihilators remove only parts that the state has, so no term
that vanishes is enumerated.  The tests compare them with the unpruned
enumeration of mode tuples (tests/oracles.py).

Every such operator is linear and has one constructor (heis, op_O,
virasoro_op, cubic_op), which returns a FockOperator: its column on
K^rho is the FockVector that a kernel (heis_k, the convolution by
Xi_n^k(alpha), or normal_power_apply) returns on K^rho, computed once
and kept, and .apply maps a vector.  Every kernel builds its
numerators over one denominator, so sums, products and commutators of
operators add numerators in integer arithmetic, and a Fraction is made
only where coeffs reads a vector back.  The Fraction operator calculus
is the oracle in tests/oracles.py.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .algebra import (
    SparseVector,
    WreathClassFunction,
    _lincomb,
    convolve_n,
    k_class,
    subalgebra_generated,
    xi_power_sum,
)
from .groups import (
    convolve_g,
    euler_class,
    k_basis,
    pushforward_tauk,
    require_character_table,
    trace_g,
    unit_g,
)
from .partitions import EMPTY_TYPE, enumerate_types_upto
from .scalars import _over_lcm
from .wreath import WreathContext


class FockVector(SparseVector):
    """The vector sum_sigma nums[sigma] / den K^sigma, K^sigma at level
    ||sigma||: a SparseVector over the types of every level at once."""

    __slots__ = ()

    # bound in the class body so that perfbench/tracer.py counts Fock
    # additions apart from the level-n containers and reads is_zero here
    __add__ = SparseVector.__add__
    is_zero = SparseVector.is_zero

    def component(self, n):
        """The level-n part as an element of R(Gamma_n)."""
        return WreathClassFunction(self.group, n)._new(
            self.den, {rho: v for rho, v in self.nums.items() if rho.norm == n}
        )

    def __repr__(self):
        inner = ", ".join(
            f"{rho.label()}: {v}"
            for rho, v in sorted(
                self.coeffs.items(), key=lambda kv: kv[0].sort_key()
            )
        )
        return f"FockVector({{{inner}}})"


def _vector(group, den, nums):
    """The FockVector nums / den; nums must hold no zero."""
    out = object.__new__(FockVector)
    out.group, out.den, out.nums = group, den, nums
    return out


def _nonzero(group, den, nums):
    """The FockVector nums / den without its zero numerators."""
    return _vector(group, den, {sigma: v for sigma, v in nums.items() if v})


def vacuum(group):
    return _vector(group, 1, {EMPTY_TYPE: 1})


def basis_state(group, rho):
    """K^rho as a Fock vector at level ||rho||."""
    return _vector(group, 1, {rho: 1})


class FockOperator:
    """A linear operator on the Fock space, given by its columns.

    column_of maps a basis type rho to the FockVector image of K^rho.
    Each column is computed on first use and kept for the operator's
    lifetime, a sparse matrix filled on demand; applying the operator
    to a vector sums the cached columns weighted by the vector's
    numerators, in integer arithmetic over one denominator.
    """

    __slots__ = ("group", "column_of", "columns")

    def __init__(self, group, column_of):
        self.group = group
        self.column_of = column_of
        self.columns = {}

    def column(self, rho):
        col = self.columns.get(rho)
        if col is None:
            col = self.columns[rho] = self.column_of(rho)
        return col

    def apply(self, vec):
        """The image of a FockVector."""
        return _vector(
            self.group,
            *_lincomb([(n, self.column(rho)) for rho, n in vec.nums.items()], vec.den),
        )

    __call__ = apply


def operator_sum(group, terms, identity=0):
    """The operator sum s op over (s, op) in terms plus identity times
    the identity; the weights are put over one denominator once, so
    each column is one integer combination of the terms' columns."""
    den, nums = _over_lcm([s for s, _ in terms] + [identity])
    *nums, scalar = nums
    ops = [op for _, op in terms]

    def column_of(rho):
        cols = [(n, op.column(rho)) for n, op in zip(nums, ops)]
        if scalar:
            cols.append((scalar, basis_state(group, rho)))
        return _vector(group, *_lincomb(cols, den))

    return FockOperator(group, column_of)


def operator_of(group, fn):
    """The FockOperator whose column on K^rho is fn(K^rho), for a linear
    fn from FockVectors to FockVectors."""
    return FockOperator(group, lambda rho: fn(basis_state(group, rho)))


# -- Heisenberg operators, closed form --------------------------------


def heis_k(group, m, cid, vec):
    """p_m(K^c) on the K^rho basis.

    Creation (m < 0, r = -m) adds an r-part at class c with factor
    r * (multiplicity + 1); annihilation (m > 0, r = m) removes an
    r-part at the inverse class with factor zeta_c^{-1}; p_0 = 0.
    """
    if m == 0:
        return FockVector(group)
    if m < 0:
        r = -m
        out = {
            rho.add_part(r, cid): v * r * (rho.multiplicity(r, cid) + 1)
            for rho, v in vec.nums.items()
        }
        return _vector(group, vec.den, out)
    src = group.inv_class[cid]
    out = {}
    for rho, v in vec.nums.items():
        new = rho.remove_part(m, src)
        if new is not None:
            out[new] = v
    return _vector(group, vec.den * group.zeta[cid], out)


def heis(group, m, alpha):
    """p_m(alpha) for a class function alpha, by linearity over K^c."""
    den, nums = _over_lcm(alpha.values)

    def image(vec):
        terms = [(n, heis_k(group, m, cid, vec)) for cid, n in enumerate(nums) if n]
        return _vector(group, *_lincomb(terms, den))

    return operator_of(group, image)


# -- convolution operators O^k ----------------------------------------


def _xi_class(group, n, k, cid):
    """Xi_n^k(K^c), kept in the level-n context of the group."""
    cache = WreathContext.get(group, n).xi_classes
    if (k, cid) not in cache:
        cache[k, cid] = xi_power_sum(group, n, k, k_basis(group, cid))
    return cache[k, cid]


def xi_class_function(group, n, k, alpha):
    """Xi_n^k(alpha) in R(Gamma_n), linear in alpha over the K basis:
    one combination of the Xi_n^k(K^c) over the values' denominator."""
    den, nums = _over_lcm(alpha.values)
    terms = [(a, _xi_class(group, n, k, cid)) for cid, a in enumerate(nums) if a]
    return WreathClassFunction(group, n)._new(*_lincomb(terms, den))


def op_O(group, k, alpha):
    """O^k(alpha) on integer columns: the column of K^rho is the
    convolution of Xi_n^k(alpha), built once per level n, with K^rho."""
    xis = {}  # n -> Xi_n^k(alpha)

    def column_of(rho):
        n = rho.norm
        if not n:  # level 0 carries the empty power sum
            return FockVector(group)
        if n not in xis:
            xis[n] = xi_class_function(group, n, k, alpha)
        product = convolve_n(xis[n], k_class(group, n, rho))
        return _vector(group, product.den, product.nums)

    return FockOperator(group, column_of)


def op_b(group):
    """The distinguished operator b = O^1(1)."""
    return op_O(group, 1, unit_g(group))


# -- operator calculus helpers -----------------------------------------


def compose(f, g):
    """The operator f g, its columns read off the cached columns of f and g."""
    return FockOperator(f.group, lambda rho: f.apply(g.column(rho)))


def commutator(f, g):
    """The operator [f, g] = f g - g f, on cached columns like compose."""
    return FockOperator(
        f.group, lambda rho: f.apply(g.column(rho)) - g.apply(f.column(rho))
    )


def operator_difference_cells(group, op1, op2, max_level):
    """Basis states K^rho (||rho|| <= max_level) where op1 and op2 differ."""
    return [
        rho
        for rho in enumerate_types_upto(group, max_level)
        if op1.column(rho) != op2.column(rho)
    ]


# -- normally ordered powers and Virasoro ------------------------------
#
# In : p^k :_mode the annihilators stand to the right of the creators,
# and on K^rho an annihilator p_r(K^c) only removes an r-part that rho
# has at the inverse class.  So each term of the normal power is found
# by choosing the annihilation slots, a degree for each of them among
# the parts the state has, and an ordered composition of the remaining
# degree for the creation slots; no term that vanishes is enumerated.


def _annihilations(group, slots, memo):
    """(state, degree removed, denominator) for each way the annihilation
    slots, a tuple of class ids c, remove an r-part at the inverse class
    of c; each removal contributes zeta_c to the denominator.

    memo maps () to [(rho, 0, 1)] for the state rho and keeps the result
    for every tuple of slots, each extending the one without its last
    slot.
    """
    out = memo.get(slots)
    if out is None:
        cid = slots[-1]
        src = group.inv_class[cid]
        zeta = group.zeta[cid]
        out = memo[slots] = [
            (state.remove_part(r, src), total + r, den * zeta)
            for state, total, den in _annihilations(group, slots[:-1], memo)
            for r in dict.fromkeys(state.partition(src).parts)
        ]
    return out


def _creations(slots, degree, rho):
    """(state, numerator) for each ordered composition of degree into
    one positive part per creation slot; adding an r-part at class c
    contributes r * (multiplicity + 1) to the numerator."""
    out = [(rho, degree, 1)]
    for i, cid in enumerate(slots):
        after = len(slots) - 1 - i  # slots still to fill, one degree each
        grown = []
        for state, rest, num in out:
            for r in range(1, rest - after + 1) if after else (rest,):
                grown.append(
                    (
                        state.add_part(r, cid),
                        rest - r,
                        num * r * (state.multiplicity(r, cid) + 1),
                    )
                )
        out = grown
    return [(state, num) for state, _, num in out]


def _normal_power(group, k, tensor):
    """The constants of one normally ordered k-th power, computed once
    per operator: (terms, T, Z^k), with T the lcm of the denominators of
    the coefficients of the tensor (terms as pushforward_tauk returns)
    and Z the lcm of the zeta_c.  Each term is (numerator of its
    coefficient over T, its 2^k splits), a split being (the annihilation
    slots' classes as a tuple, the creation slots' classes as a list)."""
    if any(len(key) != k for key, _ in tensor):
        raise ValueError("tensor arity mismatch")
    masks = [
        (
            [i for i in range(k) if mask >> i & 1],
            [i for i in range(k) if not mask >> i & 1],
        )
        for mask in range(1 << k)
    ]
    tden, nums = _over_lcm([coeff for _, coeff in tensor])
    terms = [
        (num, [(tuple(key[i] for i in a), [key[i] for i in c]) for a, c in masks])
        for (key, _), num in zip(tensor, nums)
    ]
    return terms, tden, lcm(*group.zeta) ** k


def normal_power_apply(group, power, mode, rho):
    """The image of K^rho under mode `mode` of the normally ordered
    power of the field whose constants are power (_normal_power).

    Factors are ordered with smaller Heisenberg degree to the left
    (creation before annihilation); p_0 terms vanish.  Every term is an
    integer over T Z^k: the terms of one tensor coefficient are summed
    as integers, and a cyclotomic coefficient multiplies each of those
    sums once.
    """
    terms, tden, zk = power
    removed = {(): [(rho, 0, 1)]}
    out = {}
    for num, splits in terms:
        sums = {}
        for ann, created in splits:
            for state, total, den in _annihilations(group, ann, removed):
                degree = total - mode
                if degree < len(created) or (degree and not created):
                    continue
                scale = zk // den
                for sigma, c in _creations(created, degree, state):
                    sums[sigma] = sums.get(sigma, 0) + scale * c
        for sigma, c in sums.items():
            prev = out.get(sigma)
            out[sigma] = num * c if prev is None else prev + num * c
    return _nonzero(group, tden * zk, out)


def _scaled_pushforward(beta, k, s):
    """s tau_{k*} beta, the normal power's factor folded into its terms."""
    return tuple((key, coeff * s) for key, coeff in pushforward_tauk(beta, k))


def _normal_power_op(group, k, beta, scale, mode):
    """Mode `mode` of scale : p^k : through tau_{k*} beta, on columns."""
    power = _normal_power(group, k, _scaled_pushforward(beta, k, scale))
    return FockOperator(
        group, lambda rho: normal_power_apply(group, power, mode, rho)
    )


def virasoro_op(group, n, beta):
    """L_n(beta) = 1/2 : p^2 :_n through tau_{2*} beta."""
    return _normal_power_op(group, 2, beta, Fraction(1, 2), n)


def cubic_op(group, beta):
    """(1/6) : p^3 :_0 through tau_{3*} beta."""
    return _normal_power_op(group, 3, beta, Fraction(1, 6), 0)


# -- the polynomial model and the characteristic map -------------------
#
# A symbolic vector is a polynomial in commuting variables x_{r,c},
# encoded as a dict TypeFunction -> coefficient: the type rho encodes
# the monomial with exponent m_r(rho(c)) on x_{r,c}.


def sym_create(group, r, cid, p):
    """Multiplication by the variable x_{r,c}."""
    out = {}
    for rho, v in p.items():
        new = rho.add_part(r, cid)
        out[new] = out.get(new, 0) + v
    return {k: v for k, v in out.items() if v}


def sym_annihilate(group, r, cid, p):
    """r * zeta_c^{-1} * d/dx_{r, c^{-1}}, adjoint to sym_create."""
    src = group.inv_class[cid]
    scale = r * Fraction(1, group.zeta[cid])
    out = {}
    for rho, v in p.items():
        m = rho.multiplicity(r, src)
        if not m:
            continue
        new = rho.remove_part(r, src)
        out[new] = out.get(new, 0) + v * m * scale
    return {k: v for k, v in out.items() if v}


def characteristic_map(group, p):
    """The monomial of type rho maps to ztilde_rho K^rho at level ||rho||."""
    return FockVector(group, {rho: v * rho.ztilde() for rho, v in p.items()})


# -- the basis of monomials in the p_{-r}(gamma) -----------------------
#
# With gamma running over the irreducible characters of Gamma, the
# monomials prod p_{-r}(gamma)|0> form a basis indexed by types on
# Irr(Gamma): the type encodes an r-part at colour gamma for each factor
# p_{-r}(gamma).  The irreducibles are orthonormal, so
# [p_m(gamma), p_n(gamma')] = m delta_{m,-n} delta_{gamma gamma'} and
# each p_m(gamma) edits one colour with a rational factor.


def _p_image(group, rho):
    """K^rho in the p basis, a FockVector over the p-monomial types.

    K^rho = ztilde_rho^{-1} prod p_{-r}(K^c)|0> over the parts (r, c) of
    rho (the characteristic map), and column orthogonality gives
    p_{-r}(K^c) = sum_gamma gamma(c^{-1}) / zeta_c p_{-r}(gamma).  The
    weights gamma(c^{-1}) of a class are put over one denominator d_c,
    so each part (r, c) multiplies the denominator by zeta_c d_c.
    """
    rows = require_character_table(group).rows
    den, nums = rho.ztilde(), {EMPTY_TYPE: 1}
    for cid, lam in rho.items:
        src = group.inv_class[cid]
        colours = [gi for gi, row in enumerate(rows) if row.values[src]]
        d, weights = _over_lcm([rows[gi].values[src] for gi in colours])
        den *= (group.zeta[cid] * d) ** lam.length
        for r in lam.parts:
            grown = {}
            for mono, v in nums.items():
                for gi, w in zip(colours, weights):
                    key = mono.add_part(r, gi)
                    grown[key] = grown.get(key, 0) + v * w
            nums = {mono: v for mono, v in grown.items() if v}
    return _vector(group, den, nums)


def to_p_basis(group, vec):
    """The change of basis from the K^rho to the p-monomials."""
    return _vector(
        group,
        *_lincomb([(n, _p_image(group, rho)) for rho, n in vec.nums.items()], vec.den),
    )


# -- generators ---------------------------------------------------------


def p_i_vector(group, i, alpha, n):
    """P_i(alpha, n) = p_{-i-1}(alpha) p_{-1}(1)^{n-i-1} |0> / (n-i-1)!."""
    if not 0 <= i < n:
        raise ValueError("need 0 <= i < n")
    v, create = vacuum(group), heis(group, -1, unit_g(group))
    for _ in range(n - i - 1):
        v = create.apply(v)
    v = heis(group, -(i + 1), alpha).apply(v)
    return v.component(n).scale(Fraction(1, factorial(n - i - 1)))


def verify_generators(group, n):
    """Each of the families {Xi_n^i(K^c)} and {P_i(K^c, n)}, 0 <= i < n,
    generates the whole class algebra at level n.

    Returns ((dim_xi, dim_p), expected_dimension).
    """
    expected = len(WreathContext.get(group, n).types)
    family_xi = [
        xi_power_sum(group, n, i, k_basis(group, c))
        for i in range(n)
        for c in range(group.num_classes)
    ]
    family_p = [
        p_i_vector(group, i, k_basis(group, c), n)
        for i in range(n)
        for c in range(group.num_classes)
    ]
    dims = (
        subalgebra_generated(family_xi, group, n)[0],
        subalgebra_generated(family_p, group, n)[0],
    )
    return dims, expected


# -- verification routines ---------------------------------------------


def verify_heisenberg(group, max_level, max_mode=3):
    """[p_m(K^b), p_n(K^c)] = m delta_{m,-n} <K^b, K^c> id, exactly.

    Each p_m(K^c) is built once by heis, so each column is computed once
    for all the cells.
    The cells (m, n, b, c) and (n, m, c, b) read the same two products,
    so each unordered pair of operators is applied once.  Returns the
    list of failing (m, n, b, c, rho) cells, in the order of m, n, b, c
    and the basis.
    """
    basis = enumerate_types_upto(group, max_level)
    keys = [
        (m, c)
        for m in range(-max_mode, max_mode + 1)
        for c in range(group.num_classes)
    ]
    ops = {(m, c): heis(group, m, k_basis(group, c)) for m, c in keys}

    def holds(m, n, b, c, rho, pq, qp):
        if m == -n and m != 0 and c == group.inv_class[b]:
            return pq - qp == _vector(group, group.zeta[b], {rho: m})
        return pq == qp

    found = []
    for i, (m, b) in enumerate(keys):
        for n, c in keys[i:]:
            p, q = ops[m, b], ops[n, c]
            for j, rho in enumerate(basis):
                pq, qp = p.apply(q.column(rho)), q.apply(p.column(rho))
                if not holds(m, n, b, c, rho, pq, qp):
                    found.append((m, n, b, c, j, rho))
                if (n, c) != (m, b) and not holds(n, m, c, b, rho, qp, pq):
                    found.append((n, m, c, b, j, rho))
    found.sort(key=lambda cell: cell[:5])
    return [(m, n, b, c, rho.label()) for m, n, b, c, _, rho in found]


def verify_virasoro(group, max_level, max_mode=2):
    """Virasoro bracket with central term over the K basis of R(Gamma).

    The cells (n, m, b, c) and (m, n, c, b) read the same two products
    L_n(K^b) L_m(K^c) and L_m(K^c) L_n(K^b), so the modes are visited as
    unordered pairs {n, m} whose products are dropped once both cells
    are done.  Returns the failing (n, m, b, c, rho) cells in the order
    of n, m, b, c and the basis.
    """
    chi = euler_class(group)
    classes = range(group.num_classes)
    basis = enumerate_types_upto(group, max_level)
    modes = range(-max_mode, max_mode + 1)
    ops = {}

    def virasoro(j, beta):
        op = ops.get((j, beta))
        if op is None:
            op = ops[(j, beta)] = virasoro_op(group, j, beta)
        return op

    def product(j1, c1, j2, c2, products):
        """L_{j1}(K^{c1}) L_{j2}(K^{c2}), kept in products."""
        key = (j1, c1, j2, c2)
        if key not in products:
            products[key] = compose(
                virasoro(j1, k_basis(group, c1)), virasoro(j2, k_basis(group, c2))
            )
        return products[key]

    def cells(n, m, b, c, products):
        """The failing (n, m, b, c, basis index, rho) of one cell."""
        bg = convolve_g(k_basis(group, b), k_basis(group, c))
        central = Fraction(0)
        if n == -m:
            central = Fraction(n**3 - n, 12) * trace_g(convolve_g(chi, bg))
        nm = product(n, b, m, c, products)
        mn = product(m, c, n, b, products)
        op = virasoro(n + m, bg)
        # d (L_n L_m - L_m L_n - (n - m) L_{n+m} - central) on K^rho,
        # central = e / d, must vanish
        d, (e,) = _over_lcm([central])
        for i, rho in enumerate(basis):
            terms = [
                (d, nm.column(rho)),
                (-d, mn.column(rho)),
                ((m - n) * d, op.column(rho)),
            ]
            if e:
                terms.append((-e, basis_state(group, rho)))
            if _lincomb(terms)[1]:  # the numerators of the difference
                yield (n, m, b, c, i, rho)

    found = []
    for n in modes:
        for m in modes:
            if m < n:
                continue
            products = {}  # dropped once both orders of {n, m} are done
            for b in classes:
                for c in classes:
                    found.extend(cells(n, m, b, c, products))
                    if m != n:
                        found.extend(cells(m, n, c, b, products))
    found.sort(key=lambda cell: cell[:5])
    return [(n, m, b, c, rho.label()) for n, m, b, c, _, rho in found]


def verify_cubic(group, max_level):
    """O^1(beta) = (1/6) : p^3 :_0 (tau_{3*} beta) over the K basis."""
    failures = []
    for c in range(group.num_classes):
        beta = k_basis(group, c)
        bad = operator_difference_cells(
            group, op_O(group, 1, beta), cubic_op(group, beta), max_level
        )
        failures.extend((c, rho.label()) for rho in bad)
    return failures


def verify_covcomm(group, max_k, max_level):
    """[O^k(K^b), p_{-1}(K^c)] = (ad b)^k p_{-1}(K^b K^c) for
    1 <= k <= max_k and all classes b, c, with b = O^1(1).

    Each operator is built once and shares its cached columns across
    the cells that use it; (ad b)^k f is the commutator of b with
    (ad b)^{k-1} f, whose columns are already cached.  Returns the
    failing (k, b, c, rho label) cells.
    """
    classes = range(group.num_classes)
    basis = [k_basis(group, c) for c in classes]
    b_op = op_b(group)
    create = [heis(group, -1, alpha) for alpha in basis]
    ad_chain = {
        (b, c): heis(group, -1, convolve_g(basis[b], basis[c]))
        for b in classes
        for c in classes
    }
    failures = []
    for k in range(1, max_k + 1):
        for b in classes:
            conv = op_O(group, k, basis[b])
            for c in classes:
                lhs = commutator(conv, create[c])
                rhs = ad_chain[b, c] = commutator(b_op, ad_chain[b, c])
                bad = operator_difference_cells(group, lhs, rhs, max_level)
                failures.extend((k, b, c, rho.label()) for rho in bad)
    return failures


def verify_dictionary(group, max_degree):
    """The characteristic map intertwines the polynomial-model operators
    with the closed-form Heisenberg operators, monomial by monomial."""
    failures = []
    for rho in enumerate_types_upto(group, max_degree):
        p = {rho: Fraction(1)}
        image = characteristic_map(group, p)
        for r in range(1, max_degree + 1):
            for cid in range(group.num_classes):
                created = characteristic_map(group, sym_create(group, r, cid, p))
                if created != heis_k(group, -r, cid, image):
                    failures.append(("create", r, cid, rho.label()))
                killed = characteristic_map(
                    group, sym_annihilate(group, r, cid, p)
                )
                if killed != heis_k(group, r, cid, image):
                    failures.append(("annihilate", r, cid, rho.label()))
    return failures
