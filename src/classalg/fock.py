"""The Fock space direct-sum of the class algebras R(Gamma_n).

A vector is one sparse map from colored types to coefficients,
FockVector(group, {rho: coeff}): the sum of coeff K^rho over all
levels at once, K^rho lying at level ||rho||.  The polynomial model
and the cached operator columns use the same rho -> coefficient shape;
component(n) gives the level-n part as a class function for the
convolution product of R(Gamma_n).

Creation and annihilation operators act by exact closed formulas on
that basis; independent slower constructions (induction by averaging
over the big group, and the adjoint characterization through the
bilinear form) are provided as cross-check oracles.

On top of the Heisenberg operators sit the convolution operators
O^k(alpha) built from Jucys-Murphy power sums, normally ordered powers
of the generating field applied to diagonal pushforwards (giving the
Virasoro operators and the cubic operator), and the polynomial model
related to the level picture by the characteristic map.

Every such operator is linear, so the verification routines apply it
through a FockOperator: its column on a basis state K^rho is computed
once, by the code of the direct function (heis, op_O, virasoro_L,
cubic_zero_mode), and kept for the operator's lifetime; a vector's
image is the coefficient-weighted sum of cached columns.  The direct
functions take whole vectors and stay the oracle for the operators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .algebra import (
    GroupAlgebraElement,
    SparseVector,
    WreathClassFunction,
    bilinear_form_n as fock_inner,
    convolve_n,
    to_class_function,
    xi_power_sum,
)
from .groups import k_basis, pushforward_tauk, unit_g
from .partitions import EMPTY_TYPE, enumerate_types, single_cycle_type
from .series import HbarSeries
from .wreath import (
    WreathContext,
    WreathElement,
    type_of,
    wreath_inv,
    wreath_mul,
    wreath_order,
)


class FockVector(SparseVector):
    """A finitely supported vector sum_rho coeffs[rho] K^rho in the direct
    sum of the R(Gamma_n); K^rho lies at level ||rho||.  No zero
    coefficient is stored."""

    __slots__ = ()
    # bound in the class body so that perfbench/tracer.py counts Fock
    # additions apart from the level-n containers
    __add__ = SparseVector.__add__

    def component(self, n):
        """The level-n part as an element of R(Gamma_n)."""
        return WreathClassFunction(
            self.group,
            n,
            {rho: v for rho, v in self.coeffs.items() if rho.norm == n},
        )

    def levels(self):
        return sorted({rho.norm for rho in self.coeffs})

    def max_level(self):
        return max((rho.norm for rho in self.coeffs), default=-1)

    def __repr__(self):
        inner = ", ".join(
            f"{rho.label()}: {v}"
            for rho, v in sorted(
                self.coeffs.items(), key=lambda kv: kv[0].sort_key()
            )
        )
        return f"FockVector({{{inner}}})"


def vacuum(group):
    return FockVector(group, {EMPTY_TYPE: Fraction(1)})


def basis_state(group, rho):
    """K^rho as a Fock vector at level ||rho||."""
    return FockVector(group, {rho: Fraction(1)})


class FockOperator:
    """A linear operator on the Fock space, given by its columns.

    column_of maps a basis state K^rho (a FockVector) to its image.  Each
    column is computed on first use and kept for the operator's
    lifetime, a sparse matrix filled on demand; applying the operator
    to a vector sums the cached columns weighted by the coefficients.
    """

    __slots__ = ("group", "column_of", "columns")

    def __init__(self, group, column_of):
        self.group = group
        self.column_of = column_of
        self.columns = {}

    def column(self, rho):
        col = self.columns.get(rho)
        if col is None:
            col = self.columns[rho] = self.column_of(basis_state(self.group, rho))
        return col

    def __call__(self, vec):
        out = {}
        for rho, v in vec.coeffs.items():
            for sigma, w in self.column(rho).coeffs.items():
                out[sigma] = out.get(sigma, 0) + v * w
        return FockVector(self.group, out)


def domain_types(group, max_level):
    """All (n, rho) with n <= max_level, in deterministic order."""
    return [
        rho for n in range(max_level + 1) for rho in enumerate_types(group, n)
    ]


# -- Heisenberg operators, closed form --------------------------------


def heis_k(group, m, cid, vec):
    """p_m(K^c) on the K^rho basis.

    Creation (m < 0, r = -m) adds an r-part at class c with factor
    r * (multiplicity + 1); annihilation (m > 0, r = m) removes an
    r-part at the inverse class with factor zeta_c^{-1}; p_0 = 0.
    """
    if m == 0:
        return FockVector(group)
    out = {}
    if m < 0:
        r = -m
        for rho, v in vec.coeffs.items():
            out[rho.add_part(r, cid)] = v * r * (rho.multiplicity(r, cid) + 1)
    else:
        r = m
        src = group.inv_class[cid]
        scale = Fraction(1, group.zeta[cid])
        for rho, v in vec.coeffs.items():
            new = rho.remove_part(r, src)
            if new is not None:
                out[new] = v * scale
    return FockVector(group, out)


def heis(group, m, alpha, vec):
    """p_m(alpha) for a class function alpha, by linearity over K^c."""
    out = FockVector(group)
    for cid, a in enumerate(alpha.values):
        if a:
            out = out + heis_k(group, m, cid, vec).scale(a)
    return out


def heis_op(group, m, alpha):
    return FockOperator(group, lambda v: heis(group, m, alpha, v))


# -- Heisenberg oracles ------------------------------------------------


def sigma_class(group, r, alpha):
    """The level-r class function supported on single r-cycles.

    Its value on the class of r-cycles with cycle product in class c
    is r * alpha(c).
    """
    coeffs = {}
    for cid, a in enumerate(alpha.values):
        if a:
            coeffs[single_cycle_type(r, cid)] = r * a
    return WreathClassFunction(group, r, coeffs)


def induce_product(f, g):
    """Induction of f (x) g from Gamma_n x Gamma_m to Gamma_{n+m}.

    Oracle-grade: evaluates (1/|H|) sum_{y} F(y^{-1} x y) on every
    class representative by brute force over the big group.
    """
    if f.group is not g.group:
        raise ValueError("group mismatch")
    group = f.group
    n, m = f.n, g.n
    total = n + m
    ctx = WreathContext.get(group, total)
    sub_order = wreath_order(group, n) * wreath_order(group, m)
    first = set(range(n))
    coeffs = {}
    for rho, x in zip(ctx.types, ctx.reps):
        acc = 0
        for y, _ in ctx._elements_with_types():
            z = wreath_mul(group, wreath_inv(group, y), wreath_mul(group, x, y))
            if any((z.sigma[i] in first) != (i in first) for i in range(total)):
                continue
            left = WreathElement(z.g[:n], z.sigma[:n])
            right = WreathElement(
                z.g[n:], tuple(s - n for s in z.sigma[n:])
            )
            vl = f.coeffs.get(type_of(group, left))
            if not vl:
                continue
            vr = g.coeffs.get(type_of(group, right))
            if not vr:
                continue
            acc = acc + vl * vr
        if acc:
            coeffs[rho] = acc * Fraction(1, sub_order)
    return WreathClassFunction(group, total, coeffs)


def heis_create_bigsum(group, r, alpha, vec):
    """p_{-r}(alpha) computed through the induction definition."""
    sig = sigma_class(group, r, alpha)
    out = {}
    for n in vec.levels():
        out.update(induce_product(sig, vec.component(n)).coeffs)
    return FockVector(group, out)


def heis_create_avg(group, gamma, vec):
    """p_{-1}(gamma) by averaging ad g (y (x) gamma) over S_n."""
    import itertools

    out = {}
    for m in vec.levels():
        n = m + 1
        y = vec.component(m).to_group_algebra()
        terms = {}
        for w, v in y.coeffs.items():
            for cid, members in enumerate(group.classes):
                gv = gamma.values[cid]
                if not gv:
                    continue
                for a in members:
                    elem = WreathElement(w.g + (a,), w.sigma + (m,))
                    terms[elem] = terms.get(elem, 0) + v * gv
        tensor = GroupAlgebraElement(group, n, terms)
        acc = GroupAlgebraElement(group, n, {})
        for perm in itertools.permutations(range(n)):
            p = WreathElement((group.identity,) * n, perm)
            pinv = wreath_inv(group, p)
            conj = {}
            for w, v in tensor.coeffs.items():
                z = wreath_mul(group, p, wreath_mul(group, w, pinv))
                conj[z] = conj.get(z, 0) + v
            acc = acc + GroupAlgebraElement(group, n, conj)
        acc = acc.scale(Fraction(1, factorial(m)))
        out.update(to_class_function(acc).coeffs)
    return FockVector(group, out)


def heis_annihilate_adjoint(group, r, alpha, vec):
    """p_r(alpha) (r > 0) characterized as the adjoint of p_{-r}(alpha).

    Coefficient of K^nu in the image is Z_nu * <vec, p_{-r}(alpha) K^{nu^{-1}}>.
    """
    if r <= 0:
        raise ValueError("adjoint oracle needs r > 0")
    out = {}
    for n in vec.levels():
        if n < r:
            continue
        for nu in enumerate_types(group, n - r):
            probe = heis(group, -r, alpha, basis_state(group, nu.inverse(group)))
            out[nu] = fock_inner(vec, probe) * nu.centralizer_order(group)
    return FockVector(group, out)


# -- convolution operators O^k ----------------------------------------


@lru_cache(maxsize=None)
def _xi_class(group, n, k, cid):
    return xi_power_sum(group, n, k, k_basis(group, cid))


def xi_class_function(group, n, k, alpha):
    """Xi_n^k(alpha) in R(Gamma_n), linear in alpha over the K basis."""
    out = WreathClassFunction(group, n, {})
    for cid, a in enumerate(alpha.values):
        if a:
            out = out + _xi_class(group, n, k, cid).scale(a)
    return out


def op_O(group, k, alpha, vec):
    """O^k(alpha): levelwise convolution by Xi_n^k(alpha)."""
    out = {}
    for n in vec.levels():
        if n:  # level 0 carries the empty power sum
            f = xi_class_function(group, n, k, alpha)
            out.update(convolve_n(f, vec.component(n)).coeffs)
    return FockVector(group, out)


def op_O_op(group, k, alpha):
    return FockOperator(group, lambda v: op_O(group, k, alpha, v))


def op_b(group):
    """The distinguished operator b = O^1(1)."""
    return op_O_op(group, 1, unit_g(group))


def op_O_hbar(group, alpha, vec, order):
    """O_hbar(alpha) = sum_k hbar^k/k! O^k(alpha), through the given order.

    Coefficients of the result are HbarSeries.
    """
    out = FockVector(group)
    for k in range(order + 1):
        piece = op_O(group, k, alpha, vec).scale(Fraction(1, factorial(k)))
        out = out + piece.scale(HbarSeries.hbar_power(k, order))
    return out


# -- operator calculus helpers -----------------------------------------


def commutator(f, g):
    return lambda v: f(g(v)) - g(f(v))


def operator_difference_cells(group, op1, op2, max_level):
    """Basis states K^rho (||rho|| <= max_level) where op1 and op2 differ."""
    bad = []
    for rho in domain_types(group, max_level):
        u = op1(basis_state(group, rho))
        v = op2(basis_state(group, rho))
        if u != v:
            bad.append(rho)
    return bad


# -- normally ordered powers and Virasoro ------------------------------


def _mode_tuples(k, mode, level):
    """All k-tuples of nonzero integers summing to mode.

    Positive entries are annihilation degrees and are bounded in total
    by the input level (a term with larger total annihilation kills any
    vector of that level); negative entries are then bounded through
    the fixed sum.
    """
    neg_bound = level + abs(mode)

    def rec(pos, target, budget):
        # budget: annihilation degree still available in total
        if pos == k:
            if target == 0:
                yield ()
            return
        rest = k - pos - 1
        for m in range(-neg_bound, budget + 1):
            if m == 0:
                continue
            new_budget = budget - m if m > 0 else budget
            s = target - m
            if rest == 0:
                if s == 0:
                    yield (m,)
                continue
            if -rest * neg_bound <= s <= new_budget:
                for tail in rec(pos + 1, s, new_budget):
                    yield (m,) + tail

    yield from rec(0, mode, level)


def normal_power_apply(group, k, tensor, mode, vec):
    """Mode `mode` of the normally ordered k-th power of the field,
    with class-function slots given by an arity-k tensor.

    Factors are ordered with smaller Heisenberg degree to the left
    (creation before annihilation); p_0 terms vanish.
    """
    if tensor.arity != k:
        raise ValueError("tensor arity mismatch")
    level = vec.max_level()
    out = FockVector(group)
    if level < 0:
        return out
    for key, coeff in tensor.terms:
        for modes in _mode_tuples(k, mode, level):
            pairs = sorted(zip(modes, key), key=lambda p: p[0])
            w = vec
            for m, cid in reversed(pairs):
                w = heis_k(group, m, cid, w)
                if w.is_zero():
                    break
            else:
                out = out + w.scale(coeff)
    return out


def virasoro_L(group, n, beta, vec):
    """L_n(beta) = 1/2 : p^2 :_n applied through tau_{2*} beta."""
    tensor = pushforward_tauk(beta, 2)
    return normal_power_apply(group, 2, tensor, n, vec).scale(Fraction(1, 2))


def virasoro_op(group, n, beta):
    tensor = pushforward_tauk(beta, 2)
    return FockOperator(
        group,
        lambda v: normal_power_apply(group, 2, tensor, n, v).scale(Fraction(1, 2)),
    )


def cubic_zero_mode(group, beta, vec):
    """(1/6) : p^3 :_0 applied through tau_{3*} beta."""
    tensor = pushforward_tauk(beta, 3)
    return normal_power_apply(group, 3, tensor, 0, vec).scale(Fraction(1, 6))


def cubic_op(group, beta):
    tensor = pushforward_tauk(beta, 3)
    return FockOperator(
        group,
        lambda v: normal_power_apply(group, 3, tensor, 0, v).scale(Fraction(1, 6)),
    )


def ad_power(a, f, k):
    """(ad a)^k f for operators."""
    out = f
    for _ in range(k):
        out = commutator(a, out)
    return out


# -- the polynomial model and the characteristic map -------------------
#
# A symbolic vector is a polynomial in commuting variables x_{r,c},
# encoded as a dict TypeFunction -> coefficient: the type rho encodes
# the monomial with exponent m_r(rho(c)) on x_{r,c}.


def sym_from_type(rho):
    return {rho: Fraction(1)}


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


def characteristic_inverse(group, vec):
    return {rho: v * Fraction(1, rho.ztilde()) for rho, v in vec.coeffs.items()}


# -- generators ---------------------------------------------------------


def one_minus_k(group, k):
    """1_{-k} |0> = p_{-1}(1)^k / k! applied to the vacuum."""
    if k < 0:
        return FockVector(group)
    v = vacuum(group)
    for _ in range(k):
        v = heis(group, -1, unit_g(group), v)
    return v.scale(Fraction(1, factorial(k)))


def p_i_vector(group, i, alpha, n):
    """P_i(alpha, n) = p_{-i-1}(alpha) p_{-1}(1)^{n-i-1} |0> / (n-i-1)!."""
    if not 0 <= i < n:
        raise ValueError("need 0 <= i < n")
    v = one_minus_k(group, n - i - 1)
    v = heis(group, -(i + 1), alpha, v)
    return v.component(n)


def verify_generators(group, n):
    """Each of the families {Xi_n^i(K^c)} and {P_i(K^c, n)}, 0 <= i < n,
    generates the whole class algebra at level n.

    Returns ((dim_xi, dim_p), expected_dimension).
    """
    from .algebra import subalgebra_generated

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

    Returns the list of failing (m, n, b, c, rho) cells.
    """
    failures = []
    k = group.num_classes
    basis = domain_types(group, max_level)
    for m in range(-max_mode, max_mode + 1):
        for n in range(-max_mode, max_mode + 1):
            for b in range(k):
                for c in range(k):
                    expected = Fraction(0)
                    if m == -n and c == group.inv_class[b] and m != 0:
                        expected = m * Fraction(1, group.zeta[b])
                    for rho in basis:
                        v = basis_state(group, rho)
                        lhs = heis_k(group, m, b, heis_k(group, n, c, v)) - heis_k(
                            group, n, c, heis_k(group, m, b, v)
                        )
                        rhs = v.scale(expected)
                        if lhs != rhs:
                            failures.append((m, n, b, c, rho.label()))
    return failures


def verify_virasoro(group, max_level, max_mode=2):
    """Virasoro bracket with central term over the K basis of R(Gamma)."""
    from .groups import convolve_g, euler_class, trace_g

    failures = []
    chi = euler_class(group)
    k = group.num_classes
    ops = {}

    def virasoro(j, beta):
        op = ops.get((j, beta))
        if op is None:
            op = ops[(j, beta)] = virasoro_op(group, j, beta)
        return op

    for n in range(-max_mode, max_mode + 1):
        for m in range(-max_mode, max_mode + 1):
            for b in range(k):
                for c in range(k):
                    beta = k_basis(group, b)
                    gamma = k_basis(group, c)
                    bg = convolve_g(beta, gamma)
                    lhs = commutator(virasoro(n, beta), virasoro(m, gamma))
                    central = Fraction(0)
                    if n == -m:
                        central = Fraction(n**3 - n, 12) * trace_g(
                            convolve_g(chi, bg)
                        )

                    def rhs(v, n=n, m=m, op=virasoro(n + m, bg), central=central):
                        return op(v).scale(n - m) + v.scale(central)

                    bad = operator_difference_cells(group, lhs, rhs, max_level)
                    failures.extend(
                        (n, m, b, c, rho.label()) for rho in bad
                    )
    return failures


def verify_cubic(group, max_level):
    """O^1(beta) = (1/6) : p^3 :_0 (tau_{3*} beta) over the K basis."""
    failures = []
    for c in range(group.num_classes):
        beta = k_basis(group, c)
        bad = operator_difference_cells(
            group, op_O_op(group, 1, beta), cubic_op(group, beta), max_level
        )
        failures.extend((c, rho.label()) for rho in bad)
    return failures


def verify_covcomm(group, max_k, max_level):
    """[O^k(K^b), p_{-1}(K^c)] = (ad b)^k p_{-1}(K^b K^c) for
    1 <= k <= max_k and all classes b, c, with b = O^1(1).

    Each operator is built once and shares its cached columns across
    the cells that use it.  Returns the failing (k, b, c, rho) cells.
    """
    from .groups import convolve_g

    classes = range(group.num_classes)
    basis = [k_basis(group, c) for c in classes]
    b_op = op_b(group)
    create = [heis_op(group, -1, alpha) for alpha in basis]
    create_product = {
        (b, c): heis_op(group, -1, convolve_g(basis[b], basis[c]))
        for b in classes
        for c in classes
    }
    failures = []
    for k in range(1, max_k + 1):
        for b in classes:
            conv = op_O_op(group, k, basis[b])
            for c in classes:
                lhs = commutator(conv, create[c])
                rhs = ad_power(b_op, create_product[b, c], k)
                bad = operator_difference_cells(group, lhs, rhs, max_level)
                failures.extend((k, b, c, rho) for rho in bad)
    return failures


def verify_dictionary(group, max_degree):
    """The characteristic map intertwines the polynomial-model operators
    with the closed-form Heisenberg operators, monomial by monomial."""
    failures = []
    for rho in domain_types(group, max_degree):
        p = sym_from_type(rho)
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
