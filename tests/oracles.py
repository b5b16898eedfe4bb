"""Slow, independent constructions that the tests compare the library
against.  Nothing under src/ imports this module.

- A type read back from its label (``type_from_label``), for tests
  that name types by label.
- The wreath-element kernel: ``type_of`` by listing the cycles of sigma
  and multiplying each cycle product separately, and ``wreath_mul``
  through the inverse permutation.
- The level-n orbit-product table, multiplying each pair of partial
  permutations on the union of their supports.
- The stable structure constants, by counting the factorizations of one
  canonical element of each target type.
- A class function as an element of the group algebra, and the
  bilinear form on R(Gamma_n) and on Fock vectors.
- The diagonal pushforward tau_{k*} on R(Gamma) by its adjointness to
  k-fold convolution, one bilinear form of a product per coefficient.
- Exact elimination in Fraction arithmetic (Gauss-Jordan with unit
  pivots): the generated subalgebra's dimension and the solution of a
  linear system.
- The cyclotomic field over Fraction: polynomial long division for the
  cyclotomic polynomials and the powers of zeta_m modulo them, and the
  canonical form of an element (the least conductor, found by solving on
  each subfield's power basis).
- The Heisenberg operators by induction from the big group, by
  averaging over S_n, and as adjoints through the bilinear form.
- The Fock operator calculus in Fraction arithmetic: an operator whose
  columns are FockVectors, compose and commutator on those columns, the
  pruned normal powers with one Fraction per term, and the level-one
  realization as a sum of operator images.
- The normally ordered powers of the Heisenberg field in the K^rho
  basis (the Virasoro and cubic operators), and the level-one J-modes
  of the W-algebra there, through the Heisenberg operators and every
  mode tuple whose annihilation total fits the level.
- The W-algebra bracket on the polynomial f of each t^r f(D) (x)
  e_gamma, by shifting polynomials and evaluating the cocycle, with
  generic arithmetic on polynomials (coefficient tuples, lowest degree
  first).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from classalg.algebra import (
    GroupAlgebraElement,
    WreathClassFunction,
    convolve_n,
    to_class_function,
    unit_class,
)
import classalg.fock as fock
from classalg.fock import FockVector, basis_state, heis
from classalg.groups import (
    bilinear_form,
    convolve_g,
    k_basis,
    require_character_table,
)
from classalg.partitions import (
    Partition,
    TypeFunction,
    enumerate_types,
    enumerate_types_upto,
)
from classalg.stable import embed_support, enumerate_orbit, orbit_size
import classalg.winf as winf
from classalg.wreath import (
    WreathContext,
    WreathElement,
    canonical_representative,
    enumerate_group,
    type_of,
    wreath_inv,
    wreath_mul,
    wreath_order,
)


def type_from_label(text):
    """The TypeFunction whose label() is text, e.g. 'c0:[2,1]|c1:[1]'."""
    if text.strip() == "empty":
        return TypeFunction()
    data = {}
    for piece in text.split("|"):
        cpart, ppart = piece.split(":")
        inner = ppart.strip()[1:-1]
        parts = [int(v) for v in inner.split(",")] if inner else []
        data[int(cpart.lstrip("c"))] = Partition(parts)
    return TypeFunction(data)


# -- the wreath-element kernel -------------------------------------------


def permutation_cycles(sigma):
    """Cycles of sigma, each starting at its least element, sorted."""
    seen = [False] * len(sigma)
    cycles = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = sigma[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = sigma[j]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def cycle_product(group, x, cycle):
    """Class id of g_{i_k} g_{i_{k-1}} ... g_{i_1} for cycle (i_1 ... i_k)."""
    for idx, i in enumerate(cycle):
        expected = cycle[(idx + 1) % len(cycle)]
        if x.sigma[i] != expected:
            raise ValueError(f"{cycle} is not a cycle of the permutation")
    prod = group.identity
    for i in cycle:
        prod = group.mul[x.g[i]][prod]
    return group.class_of[prod]


def oracle_type_of(group, x):
    """The conjugacy type of x in Gamma_n, one cycle at a time."""
    data = {}
    for cyc in permutation_cycles(x.sigma):
        c = cycle_product(group, x, cyc)
        data.setdefault(c, []).append(len(cyc))
    return TypeFunction({c: Partition(parts) for c, parts in data.items()})


def oracle_wreath_mul(group, x, y):
    """(g, sigma)(h, tau) = (g . sigma(h), sigma tau), with
    sigma(h)_i = h_{sigma^{-1}(i)}."""
    if x.n != y.n:
        raise ValueError("level mismatch in wreath multiplication")
    sigma_inv = [0] * x.n
    for i, v in enumerate(x.sigma):
        sigma_inv[v] = i
    g = tuple(
        group.mul[x.g[i]][y.g[sigma_inv[i]]] for i in range(x.n)
    )
    sigma = tuple(x.sigma[y.sigma[i]] for i in range(x.n))
    return WreathElement(g, sigma)


# -- the level-n orbit products ------------------------------------------


def pp_mul(group, y1, a1, y2, a2):
    """Product of partial permutations (supports are sorted tuples)."""
    union = tuple(sorted(set(y1) | set(y2)))
    prod = oracle_wreath_mul(
        group,
        embed_support(group, a1, y1, union),
        embed_support(group, a2, y2, union),
    )
    return union, prod


def oracle_orbit_product_table(group, cap, n):
    """The structure constants at level n: every pair of orbit elements
    multiplied on the union of their supports, each orbit's mass divided
    by its size (exactness checked)."""
    types = [rho for rho in enumerate_types_upto(group, cap) if rho.norm <= n]
    orbits = {rho: list(enumerate_orbit(group, rho, n)) for rho in types}
    table = {}
    for rho in types:
        for sigma in types:
            mass = {}
            for y1, a1 in orbits[rho]:
                for y2, a2 in orbits[sigma]:
                    _, prod = pp_mul(group, y1, a1, y2, a2)
                    nu = oracle_type_of(group, prod)
                    mass[nu] = mass.get(nu, 0) + 1
            row = {}
            for nu, total in mass.items():
                size = orbit_size(group, nu, n)
                if total % size:
                    raise ArithmeticError(
                        f"orbit mass {total} not divisible by orbit size {size}"
                    )
                row[nu] = total // size
            table[(rho, sigma)] = row
    return table


# -- the stable structure constants by counting factorizations -----------


def restrict_support(group, elem, source, target):
    """Restrict an element on positions `source` to the sub-support
    `target`; requires every point outside `target` to be fixed."""
    pos = {p: i for i, p in enumerate(source)}
    keep = [pos[p] for p in target]
    for i in range(len(source)):
        if i not in keep and (
            elem.sigma[i] != i or elem.g[i] != group.identity
        ):
            raise ValueError("element does not fix the removed points")
    g = tuple(elem.g[i] for i in keep)
    sigma = tuple(keep.index(elem.sigma[i]) for i in keep)
    return WreathElement(g, sigma)


def minimal_support(group, elem, positions):
    """The points of `positions` genuinely moved or marked by elem."""
    return frozenset(
        p
        for i, p in enumerate(positions)
        if elem.sigma[i] != i or elem.g[i] != group.identity
    )


def oracle_stable_coefficient(group, rho, sigma, nu):
    """The orbit-sum structure constant d~: the number of factorizations
    of the canonical element of type nu into a type-rho and a type-sigma
    partial permutation with union of supports the canonical support.

    Independent of the ambient level by construction.
    """
    k = nu.norm
    if rho.norm > k or sigma.norm > k or k > rho.norm + sigma.norm:
        return 0
    y_nu = tuple(range(k))
    x_nu = canonical_representative(group, nu, k)
    members = [a for _, a in enumerate_orbit(group, rho, rho.norm)]
    count = 0
    for y1 in itertools.combinations(range(k), rho.norm):
        complement = frozenset(y_nu) - frozenset(y1)
        for a1 in members:
            a1_full = embed_support(group, a1, y1, y_nu)
            a2_full = wreath_mul(group, wreath_inv(group, a1_full), x_nu)
            mandatory = minimal_support(group, a2_full, y_nu) | complement
            extra = sigma.norm - len(mandatory)
            if extra < 0:
                continue
            base = tuple(sorted(mandatory))
            a2 = restrict_support(group, a2_full, y_nu, base)
            if type_of(group, a2).pad_to(sigma.norm) == sigma:
                count += comb(k - len(mandatory), extra)
    return count


def oracle_stable_structure_constants(group, cap):
    """All d~[(rho, sigma)][nu] with ||rho||, ||sigma|| <= cap, each by
    the factorization count; zero entries are left out."""
    types = enumerate_types_upto(group, cap)
    targets = enumerate_types_upto(group, 2 * cap)
    table = {}
    for rho in types:
        for sigma in types:
            row = {}
            for nu in targets:
                d = oracle_stable_coefficient(group, rho, sigma, nu)
                if d:
                    row[nu] = d
            table[(rho, sigma)] = row
    return table


# -- class functions in the group algebra and the bilinear form ---------


def to_group_algebra(f):
    """A WreathClassFunction as the element sum_x f(x) x of C[Gamma_n]."""
    coeffs = f.coeffs
    out = {}
    for x in enumerate_group(f.group, f.n):
        v = coeffs.get(type_of(f.group, x))
        if v:
            out[x] = v
    return GroupAlgebraElement(f.group, f.n, out)


def bilinear_form_n(f, g):
    """<f, g> = sum_rho Z_rho^{-1} f(rho) g(rho^{-1}) on R(Gamma_n).

    It takes Fock vectors too, where it is the orthogonal sum of the
    level forms.
    """
    f._check(g)
    group = f.group
    theirs = g.coeffs
    total = 0
    for rho, v in f.coeffs.items():
        w = theirs.get(rho.inverse(group))
        if w:
            total = total + v * w * Fraction(1, rho.centralizer_order(group))
    return total if total else Fraction(0)


def oracle_pushforward_tauk(f, k):
    """tau_{k*} f in the terms of groups.pushforward_tauk: the
    coefficient of K^{a_1^{-1}} x ... x K^{a_k^{-1}} is
    zeta_{a_1} ... zeta_{a_k} <f, K^{a_1} ... K^{a_k}>."""
    group = f.group
    data = {}
    for classes in itertools.product(range(group.num_classes), repeat=k):
        prod = k_basis(group, classes[0])
        for a in classes[1:]:
            prod = convolve_g(prod, k_basis(group, a))
        val = bilinear_form(f, prod)
        for a in classes:
            val *= group.zeta[a]
        if val:
            data[tuple(group.inv_class[a] for a in classes)] = val
    return tuple(sorted(data.items()))


# -- exact linear algebra over Fraction ---------------------------------


class OracleRowSpace:
    """Row space in reduced echelon form over the rationals, every pivot
    1: the Gauss-Jordan elimination in Fraction arithmetic."""

    def __init__(self, dim):
        self.dim = dim
        self.rows = {}  # pivot column -> row (list of Fraction)

    def reduce(self, vec):
        v = [Fraction(x) for x in vec]
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
        coef = 1 / v[piv]
        v = [coef * x for x in v]
        for p, row in self.rows.items():
            if row[piv]:
                c = row[piv]
                self.rows[p] = [a - c * b for a, b in zip(row, v)]
        self.rows[piv] = v
        return True


def oracle_solve_columns(cols, target):
    """sum_j y_j cols[j] = target by Gauss-Jordan on the augmented rows,
    the free unknowns 0; None if inconsistent."""
    ncols = len(cols)
    space = OracleRowSpace(ncols + 1)
    for i, t in enumerate(target):
        space.insert([c[i] for c in cols] + [t])
    if ncols in space.rows:
        return None
    y = [Fraction(0)] * ncols
    for p, row in space.rows.items():
        y[p] = row[-1]
    return y


# -- the cyclotomic field over Fraction -----------------------------------


def poly_trim(c):
    """The polynomial c as a tuple without trailing zeros."""
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


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
def oracle_cyclotomic_poly(m):
    """Phi_m, as Fractions lowest degree first: x^m - 1 divided by Phi_d
    for each proper divisor d of m."""
    num = (Fraction(-1),) + (Fraction(0),) * (m - 1) + (Fraction(1),)
    for d in range(1, m):
        if m % d == 0:
            num, r = poly_divmod(num, oracle_cyclotomic_poly(d))
            if r:
                raise ArithmeticError(f"Phi_{d} does not divide x^{m} - 1")
    return num


def oracle_phi(m):
    return len(oracle_cyclotomic_poly(m)) - 1


@lru_cache(maxsize=None)
def oracle_power_vec(m, k):
    """z_m^k mod Phi_m, as phi(m) Fractions."""
    _, r = poly_divmod((Fraction(0),) * (k % m) + (Fraction(1),), oracle_cyclotomic_poly(m))
    return r + (Fraction(0),) * (oracle_phi(m) - len(r))


def oracle_canonical(m, vec):
    """sum_k vec[k] z_m^k, for phi(m) rationals vec: a Fraction if it is
    rational, else (d, coeffs) on the power basis of Q(zeta_d), d the
    least divisor of m whose field holds it."""
    vec = tuple(Fraction(v) for v in vec)
    if not any(vec[1:]):
        return vec[0]
    for d in range(3, m):
        if m % d == 0:
            cols = [oracle_power_vec(m, m // d * j) for j in range(oracle_phi(d))]
            y = oracle_solve_columns(cols, vec)
            if y is not None:
                return d, tuple(y)
    return m, vec


def oracle_subalgebra_dim(gens, group, n):
    """The dimension of the unital subalgebra generated by gens, by the
    walk of subalgebra_generated on the reduced coefficients."""
    types = WreathContext.get(group, n).types
    space = OracleRowSpace(len(types))
    basis = []

    def add(f):
        if space.insert([f.coeffs.get(rho, 0) for rho in types]):
            basis.append(f)

    add(unit_class(group, n))
    for g in gens:
        add(g)
    for f in basis:
        for g in gens:
            add(convolve_n(f, g))
    return len(space.rows)


# -- the Heisenberg operators --------------------------------------------


def levels_of(vec):
    """The levels at which a FockVector has a nonzero coefficient."""
    return sorted({rho.norm for rho in vec.nums})


def max_level_of(vec):
    """The highest such level, -1 for the zero vector."""
    return max((rho.norm for rho in vec.nums), default=-1)


def single_cycle_type(r, cid):
    """The type of a single r-cycle with cycle product in class cid."""
    return TypeFunction({cid: Partition([r])})


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
        for y in enumerate_group(group, total):
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
    for n in levels_of(vec):
        out.update(induce_product(sig, vec.component(n)).coeffs)
    return FockVector(group, out)


def heis_create_avg(group, gamma, vec):
    """p_{-1}(gamma) by averaging ad g (y (x) gamma) over S_n."""
    out = {}
    for m in levels_of(vec):
        n = m + 1
        y = to_group_algebra(vec.component(m))
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
    for n in levels_of(vec):
        if n < r:
            continue
        for nu in enumerate_types(group, n - r):
            probe = heis(group, -r, alpha).apply(basis_state(group, nu.inverse(group)))
            out[nu] = bilinear_form_n(vec, probe) * nu.centralizer_order(group)
    return FockVector(group, out)


# -- the Fock operator calculus in Fraction arithmetic -------------------


class OracleFockOperator:
    """A linear operator whose column on K^rho is the FockVector
    column_of(K^rho), computed on first use and kept; applying it to a
    vector sums the columns weighted by the coefficients, in Fraction
    (and Cyc) arithmetic."""

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


def oracle_compose(f, g):
    return OracleFockOperator(f.group, lambda v: f(g(v)))


def oracle_commutator(f, g):
    return OracleFockOperator(f.group, lambda v: f(g(v)) - g(f(v)))


def oracle_pruned_normal_power_apply(group, k, tensor, mode, vec):
    """The pruned normal power of fock.normal_power_apply on a whole
    vector, each term built as one Fraction (times a Cyc scalar)."""
    if any(len(key) != k for key, _ in tensor):
        raise ValueError("tensor arity mismatch")
    out = {}
    splits = [
        (
            [i for i in range(k) if mask >> i & 1],
            [i for i in range(k) if not mask >> i & 1],
        )
        for mask in range(1 << k)
    ]
    for rho, v in vec.coeffs.items():
        removed = {(): [(rho, 0, 1)]}
        for key, coeff in tensor:
            scalar = coeff * v
            top, bottom = 1, 1
            if isinstance(scalar, Fraction):
                top, bottom, scalar = scalar.numerator, scalar.denominator, None
            for ann, cre in splits:
                created = [key[i] for i in cre]
                for state, total, den in fock._annihilations(
                    group, tuple(key[i] for i in ann), removed
                ):
                    degree = total - mode
                    if degree < len(created) or (degree and not created):
                        continue
                    for sigma, num in fock._creations(created, degree, state):
                        term = Fraction(top * num, bottom * den)
                        if scalar is not None:
                            term *= scalar
                        out[sigma] = out.get(sigma, 0) + term
    return FockVector(group, out)


def oracle_normal_power_op(group, k, beta, scale, mode):
    """The operator that fock.virasoro_op (k = 2, scale 1/2) or
    fock.cubic_op (k = 3, scale 1/6, mode 0) builds, on Fraction
    columns."""
    tensor = fock._scaled_pushforward(beta, k, scale)
    return OracleFockOperator(
        group, lambda v: oracle_pruned_normal_power_apply(group, k, tensor, mode, v)
    )


def oracle_realize(group, x):
    """winf.realize as a sum of J-mode images: t^k D^j (x) e_gamma acts
    as -sum_l S(j, l) J^l_k(gamma) and the central element as 1."""
    terms = []
    for k, gi, j, c in x.monomials():
        for l, s in enumerate(winf._stirling_row(j)):
            if s:
                op = OracleFockOperator(
                    group,
                    lambda v, l=l, k=k, gi=gi: winf.realize_J_mode(group, l, k, gi, v),
                )
                terms.append((op, -c * s))

    def run(vec):
        out = vec.scale(x.central)
        for op, c in terms:
            out = out + op(vec).scale(c)
        return out

    return run


# -- normally ordered powers of the Heisenberg field --------------------


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


def oracle_normal_power_apply(group, k, tensor, mode, vec):
    """Mode `mode` of the normally ordered k-th power of the field,
    with class-function slots given by an arity-k tensor, on a whole
    vector: every mode tuple whose annihilation total fits the level,
    each applied as a product of closed-form heis_k.

    Factors are ordered with smaller Heisenberg degree to the left
    (creation before annihilation); p_0 terms vanish.
    """
    if any(len(key) != k for key, _ in tensor):
        raise ValueError("tensor arity mismatch")
    level = max_level_of(vec)
    out = FockVector(group)
    if level < 0:
        return out
    for key, coeff in tensor:
        for modes in _mode_tuples(k, mode, level):
            pairs = sorted(zip(modes, key), key=lambda p: p[0])
            w = vec
            for m, cid in reversed(pairs):
                w = fock.heis_k(group, m, cid, w)
                if w.is_zero():
                    break
            else:
                out = out + w.scale(coeff)
    return out


def oracle_virasoro_L(group, n, beta, vec):
    """L_n(beta) = 1/2 : p^2 :_n through tau_{2*} beta, read through
    classalg.fock so that a patched pushforward reaches both paths."""
    tensor = fock.pushforward_tauk(beta, 2)
    return oracle_normal_power_apply(group, 2, tensor, n, vec).scale(Fraction(1, 2))


def oracle_cubic_zero_mode(group, beta, vec):
    """(1/6) : p^3 :_0 through tau_{3*} beta, as oracle_virasoro_L."""
    tensor = fock.pushforward_tauk(beta, 3)
    return oracle_normal_power_apply(group, 3, tensor, 0, vec).scale(Fraction(1, 6))


def oracle_verify_virasoro(group, max_level, max_mode=2):
    """The Virasoro check on the oracle operators, one cell (n, m, b, c)
    at a time with both products recomputed in each cell."""
    from classalg.groups import convolve_g, euler_class, k_basis, trace_g

    failures = []
    chi = euler_class(group)
    for n in range(-max_mode, max_mode + 1):
        for m in range(-max_mode, max_mode + 1):
            for b in range(group.num_classes):
                for c in range(group.num_classes):
                    beta, gamma = k_basis(group, b), k_basis(group, c)
                    bg = convolve_g(beta, gamma)
                    central = Fraction(0)
                    if n == -m:
                        central = Fraction(n**3 - n, 12) * trace_g(
                            convolve_g(chi, bg)
                        )
                    for rho in enumerate_types_upto(group, max_level):
                        v = basis_state(group, rho)
                        lhs = oracle_virasoro_L(
                            group, n, beta, oracle_virasoro_L(group, m, gamma, v)
                        ) - oracle_virasoro_L(
                            group, m, gamma, oracle_virasoro_L(group, n, beta, v)
                        )
                        rhs = oracle_virasoro_L(group, n + m, bg, v).scale(
                            n - m
                        ) + v.scale(central)
                        if lhs != rhs:
                            failures.append((n, m, b, c, rho.label()))
    return failures


def oracle_verify_cubic(group, max_level):
    """The cubic check on the oracle operator."""
    from classalg.groups import k_basis

    failures = []
    for c in range(group.num_classes):
        beta = k_basis(group, c)
        conv = fock.op_O(group, 1, beta)
        for rho in enumerate_types_upto(group, max_level):
            v = basis_state(group, rho)
            if conv.apply(v) != oracle_cubic_zero_mode(group, beta, v):
                failures.append((c, rho.label()))
    return failures


# -- the level-one J-modes -----------------------------------------------


def oracle_realize_J_mode(group, l, k, gamma_index, vec):
    """The realized J^l_k on an idempotent, via P_{l+1} mode extraction,
    on a vector in the K^rho basis.

    The degree-zero mode of the basic field acts as 0; the other modes
    act by the Heisenberg operators attached to the irreducible
    character itself.  The field modes come from classalg.winf, read
    through the module so that a patched factor reaches both paths.
    """
    gam = require_character_table(group).irreducible(gamma_index)
    level = max_level_of(vec)
    out = FockVector(group)
    if level < 0:
        return out
    for word, kappa in winf.p_l_polynomial(l + 1).items():
        for modes in _mode_tuples(len(word), k, level):
            coeff = kappa
            for a, m in zip(word, modes):
                coeff *= winf._derivative_mode_factor(a, m)
            if not coeff:
                continue
            w = vec
            for m in sorted(modes, reverse=True):
                w = heis(group, m, gam).apply(w)
                if w.is_zero():
                    break
            else:
                out = out + w.scale(coeff)
    return out.scale(Fraction(1, l + 1))


# -- the W-algebra bracket on polynomials ---------------------------------


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


def poly_eval(a, x):
    val = 0
    for coef in reversed(a):
        val = val * x + coef
    return val if val else Fraction(0)


def poly_shift(a, s):
    """f(D) -> f(D + s)."""
    out = ()
    power = (1,)
    shift = (s, 1)
    for coef in a:
        out = poly_add(out, poly_scale(power, coef))
        power = poly_mul(power, shift)
    return out


def _polynomials(x):
    """(r, gamma_index) -> the polynomial f of the terms t^r f(D) (x)
    e_gamma of x, lowest degree first."""
    monomials = {}
    for r, gi, j, c in x.monomials():
        monomials.setdefault((r, gi), {})[j] = c
    return {
        key: tuple(f.get(j, 0) for j in range(max(f) + 1))
        for key, f in monomials.items()
    }


def _oracle_psi(r, f, s, g):
    """The cocycle on (t^r f(D), t^s g(D)) by evaluating f and g."""
    if r + s != 0:
        return Fraction(0)
    if r < 0:
        return -_oracle_psi(s, g, r, f)
    return sum(
        (poly_eval(f, j) * poly_eval(g, j + r) for j in range(-r, 0)),
        Fraction(0),
    )


def oracle_winf_bracket(x, y):
    """The bracket term by term on the polynomials f of each (r, gamma):
    t^{r+s} (f(D+s) g(D) - f(D) g(D+r)) plus the cocycle."""
    out = {}
    central = Fraction(0)
    for (r, gi), f in _polynomials(x).items():
        for (s, gj), g in _polynomials(y).items():
            if gi != gj:
                continue
            poly = poly_add(
                poly_mul(poly_shift(f, s), g),
                poly_scale(poly_mul(f, poly_shift(g, r)), -1),
            )
            key = (r + s, gi)
            out[key] = poly_add(out.get(key, ()), poly)
            central = central + _oracle_psi(r, f, s, g)
    coeffs = {
        (r, gi, j): c for (r, gi), f in out.items() for j, c in enumerate(f)
    }
    coeffs[winf.CENTRAL] = central
    return winf.DiffOpElement(x.group, coeffs)
