"""Partial permutations and the stable class algebra.

A partial permutation at level n is a pair (Y, a) with Y a subset of
{0..n-1} and a an element of the wreath product on the positions of Y.
The product juxtaposes supports: (Y1, a1)(Y2, a2) = (Y1 u Y2, a1 a2).
Gamma_n acts by simultaneous conjugation and relabeling; orbits are
indexed by types rho with |Y| = ||rho|| (fixed points inside Y count as
1-cycles carrying the identity class).

The orbit-sum structure constants are independent of n and are
nonnegative integers; the forgetful map (Y, a) -> a carries orbit sums
to binomial multiples of class sums, matching the images of the
creation-operator monomials applied to the vacuum.

stable_coefficient reads them off the class tables of Gamma_n at the
levels a product reaches, by inverting that binomial relation.  The
independent check, orbit_product_table, works at a level n with full
elements of Gamma_n: it multiplies one representative of each orbit by
every element of the other orbit and scales the count by the orbit
size, which conjugation invariance allows; each class of Gamma_k it runs
over is enumerated once per group.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial

from .algebra import (
    GroupAlgebraElement,
    WreathClassFunction,
    convolve_n,
    k_class,
    to_class_function,
)
from .fock import heis, vacuum
from .groups import k_basis
from .partitions import Partition, TypeFunction, class_size, enumerate_types_upto
from .wreath import (
    WreathContext,
    WreathElement,
    enumerate_class,
    require_enumerable,
    type_of,
    wreath_mul,
)


# -- support bookkeeping -----------------------------------------------


def embed_support(group, elem, source, target):
    """Extend an element on positions `source` to positions `target`
    (both sorted tuples, source a subset of target) by fixed points."""
    pos = {p: i for i, p in enumerate(target)}
    g = [group.identity] * len(target)
    sigma = list(range(len(target)))
    for i, p in enumerate(source):
        g[pos[p]] = elem.g[i]
        sigma[pos[p]] = pos[source[elem.sigma[i]]]
    return WreathElement(tuple(g), tuple(sigma))


def orbit_size(group, rho, n):
    """|C_rho(n)| = binom(n, ||rho||) times the class size at ||rho||."""
    k = rho.norm
    if k > n:
        return 0
    return comb(n, k) * class_size(rho, group, k)


def _class_members(group, rho):
    """The elements of type rho in Gamma_{||rho||}, enumerated once and
    kept in the group's context for that level."""
    members = WreathContext.get(group, rho.norm).class_members
    if rho not in members:
        members[rho] = tuple(enumerate_class(group, rho, rho.norm))
    return members[rho]


def enumerate_orbit(group, rho, n):
    """All partial permutations of type rho at level n."""
    members = _class_members(group, rho)
    for y in itertools.combinations(range(n), rho.norm):
        for a in members:
            yield y, a


# -- structure constants ------------------------------------------------


def stable_coefficient(group, rho, sigma):
    """The row {nu: d~} of the orbit-sum product rho * sigma.

    The forgetful map sends O_nu, nu = mu u 1^j with mu free of identity
    1-cycles, to binom(N, j) K^{mu~} at level n = ||mu|| + N.  So the class
    tables at n = max(||rho||, ||sigma||) .. ||rho|| + ||sigma|| give
    p_mu(N) = sum_j d~_{mu u 1^j} binom(N, j), and binomial inversion
    gives the d~.
    """
    identity = group.class_of[group.identity]
    top = rho.norm + sigma.norm
    values = {}  # mu -> {N: p_mu(N)}
    for n in range(max(rho.norm, sigma.norm), top + 1):
        ctx = WreathContext.get(group, n)
        scale = padding_factor(group, rho, n) * padding_factor(group, sigma, n)
        row = ctx.structure_constants(
            ctx.type_index[rho.pad_to(n)], ctx.type_index[sigma.pad_to(n)]
        )
        for t, c in enumerate(row):
            if c:
                mu = TypeFunction(
                    (cid, Partition(r for r in lam.parts if r > 1 or cid != identity))
                    for cid, lam in ctx.types[t].items
                )
                values.setdefault(mu, {})[n - mu.norm] = scale * c
    out = {}
    for mu, p in values.items():
        for j in range(top - mu.norm + 1):
            d = sum((-1) ** (j - i) * comb(j, i) * p.get(i, 0) for i in range(j + 1))
            if d:
                out[mu.pad_to(mu.norm + j)] = d
    return out


def stable_structure_constants(group, cap):
    """All orbit-sum structure constants d[(rho, sigma)][nu] with
    ||rho||, ||sigma|| <= cap, from the level class tables.

    Without a character table those tables come from enumerating
    Gamma_n up to n = 2 cap, so the cap on |Gamma_{2 cap}| is checked
    before any of them is built."""
    if group.character_table is None:
        require_enumerable(group, 2 * cap)
    types = enumerate_types_upto(group, cap)
    return {
        (rho, sigma): stable_coefficient(group, rho, sigma)
        for rho in types
        for sigma in types
    }


def orbit_product_table(group, cap, n):
    """Structure constants at a concrete level n, from the orbit sums
    in the algebra of partial permutations, dividing each orbit's total
    mass by the orbit size (exactness checked).

    Each orbit element (Y, a) is embedded into {0..n-1} once, as the
    bit mask of Y and a extended by fixed points.  The product of two
    such elements is a1 a2 on Y1 u Y2 plus n - |Y1 u Y2| identity
    1-cycles, which are removed from its type before the division.
    Gamma_n acts on O_rho transitively and keeps the type of a product
    and the size of its support, so the mass of O_rho * O_sigma is
    |O_rho| times the count over y in O_sigma for one x0 in O_rho: a
    row costs |O_sigma| products, not |O_rho| |O_sigma|.  The product
    of every pair is tests/oracles.oracle_orbit_product_table.

    This is the level-dependent oracle: agreement across levels and with
    the constants read off the class tables is the stability statement.
    """
    types = [rho for rho in enumerate_types_upto(group, cap) if rho.norm <= n]
    positions = tuple(range(n))
    orbits = {
        rho: [
            (sum(1 << p for p in y), embed_support(group, a, y, positions))
            for y, a in enumerate_orbit(group, rho, n)
        ]
        for rho in types
    }
    identity = group.class_of[group.identity]
    table = {}
    for rho in types:
        # x0 = orbits[rho][0]; an empty orbit, which only a fault
        # produces, gives empty rows
        representative = orbits[rho][:1]
        for sigma in types:
            counts = {}
            for y1, a1 in representative:
                for y2, a2 in orbits[sigma]:
                    key = (type_of(group, wreath_mul(group, a1, a2)), (y1 | y2).bit_count())
                    counts[key] = counts.get(key, 0) + 1
            mass = {}
            for (full, k), total in counts.items():
                nu = _drop_fixed_points(full, n - k, identity)
                mass[nu] = mass.get(nu, 0) + total * len(orbits[rho])
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


def _drop_fixed_points(rho, m, cid):
    """rho with m of its 1-cycles on the class cid removed."""
    if not m:
        return rho
    lam = rho.partition(cid)
    if lam.multiplicity(1) < m:
        raise ValueError(f"{rho.label()} has fewer than {m} 1-cycles on class {cid}")
    data = dict(rho.items)
    data[cid] = Partition(lam.parts[:-m])
    return TypeFunction(data)


def unnormalized_constant(group, rho, sigma, nu, d_tilde):
    """The structure constant in the z-tilde-normalized basis:
    d = z(rho) z(sigma) / z(nu) * d_tilde."""
    value = Fraction(d_tilde) * rho.ztilde() * sigma.ztilde() / nu.ztilde()
    return value


# -- verification -------------------------------------------------------


def check_stability(group, cap, levels, stable):
    """Compare the level-n orbit products (one orbit representative
    times a whole orbit), which share no code with the class tables,
    across the given levels and against
    ``stable = stable_structure_constants(group, cap)``; check
    integrality and nonnegativity in both normalizations and the support
    filtration.

    A level whose orbit table raises ArithmeticError or ValueError is
    reported as one failure, and the other levels are still compared.
    Returns a list of failure descriptions (empty = pass).
    """
    failures = []
    per_level = {}
    for n in levels:
        try:
            per_level[n] = orbit_product_table(group, cap, n)
        except (ArithmeticError, ValueError) as exc:
            failures.append(f"level {n}: {exc}")
    types = enumerate_types_upto(group, cap)
    for rho in types:
        for sigma in types:
            reference = stable[(rho, sigma)]
            for n in per_level:
                # a pair with a factor above level n has no row there, and
                # by the filtration every nu of its reference is above n
                observed = per_level[n].get((rho, sigma), {})
                expected = {
                    nu: d for nu, d in reference.items() if nu.norm <= n
                }
                if observed != expected:
                    failures.append(
                        f"level {n}: {rho.label()} * {sigma.label()} mismatch"
                    )
            if reference != stable[(sigma, rho)]:
                failures.append(
                    f"commutativity: {rho.label()} * {sigma.label()}"
                )
            for nu, d in reference.items():
                if not (isinstance(d, int) and d >= 0):
                    failures.append(
                        f"integrality d~: {rho.label()},{sigma.label()},{nu.label()}"
                    )
                if nu.norm > rho.norm + sigma.norm:
                    failures.append(
                        f"filtration: {rho.label()},{sigma.label()},{nu.label()}"
                    )
                d_un = unnormalized_constant(group, rho, sigma, nu, d)
                if d_un.denominator != 1 or d_un < 0:
                    failures.append(
                        f"integrality d: {rho.label()},{sigma.label()},{nu.label()}"
                    )
    return failures


def forgetful_image(group, rho, n):
    """Sum of the underlying group elements over the orbit of type rho,
    as a central class function at level n."""
    positions = tuple(range(n))
    counts = {}
    for y, a in enumerate_orbit(group, rho, n):
        full = embed_support(group, a, y, positions)
        counts[full] = counts.get(full, 0) + 1
    return to_class_function(GroupAlgebraElement(group, n, counts))


def padding_factor(group, rho, n):
    """binom(n - ||rho|| + m, m), m the identity 1-cycles of rho."""
    m = rho.multiplicity(1, group.class_of[group.identity])
    return comb(n - rho.norm + m, m)


def padded_class_multiple(group, rho, n):
    """binom(n - ||rho|| + m, m) K^{rho padded to n}."""
    return k_class(group, n, rho.pad_to(n)).scale(padding_factor(group, rho, n))


def p_rho_vector(group, rho, n):
    """The creation-monomial image z(rho)^{-1} 1_{-(n-||rho||)}
    prod 𝔭_{-r}(K^c) |0> at level n, as a class function."""
    if rho.norm > n:
        return WreathClassFunction(group, n, {})
    vec = vacuum(group)
    for cid, lam in rho.items:
        alpha = k_basis(group, cid)
        for r in lam.parts:
            vec = heis(group, -r, alpha).apply(vec)
    create = heis(group, -1, k_basis(group, group.class_of[group.identity]))
    for _ in range(n - rho.norm):
        vec = create.apply(vec)
    scale = Fraction(1, factorial(n - rho.norm)) / rho.ztilde()
    return vec.component(n).scale(scale)


def verify_forgetful(group, cap, n, stable):
    """Check, for every type within the cap: the forgetful image of the
    orbit sum, the binomial multiple of the padded class sum, and the
    normalized creation-monomial image at level n all agree; and the
    forgetful map intertwines the two products, the stable one given
    by ``stable = stable_structure_constants(group, cap)``.

    The stable suite runs this at n = 2 cap, whose class table ``stable``
    partly comes from, not at 2 cap + 1, which costs far more on
    quaternion8 and on a group file without a character table;
    check_stability tests every d~ against brute-force orbit tables.

    Returns a list of failure descriptions (empty = pass).
    """
    failures = []
    types = [rho for rho in enumerate_types_upto(group, cap) if rho.norm <= n]
    images = {}
    for rho in types:
        expected = padded_class_multiple(group, rho, n)
        images[rho] = expected
        if forgetful_image(group, rho, n) != expected:
            failures.append(f"forgetful image: {rho.label()}")
        if p_rho_vector(group, rho, n) != expected:
            failures.append(f"creation monomial: {rho.label()}")
    for rho in types:
        for sigma in types:
            lhs = convolve_n(images[rho], images[sigma])
            rhs = {}  # sum_nu d binom(...) K^{nu padded to n}
            for nu, d in stable[(rho, sigma)].items():
                if nu.norm <= n:
                    key = nu.pad_to(n)
                    rhs[key] = rhs.get(key, 0) + d * padding_factor(group, nu, n)
            if lhs != WreathClassFunction(group, n, rhs):
                failures.append(
                    f"homomorphism: {rho.label()} * {sigma.label()}"
                )
    return failures
