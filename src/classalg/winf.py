"""The W-algebra of differential operators on the circle twisted by
R(Gamma), its 2-cocycle, and its realization on the Fock space.

Elements are finite sums of t^r f(D) (x) e_gamma (D = t d/dt, e_gamma
the normalized idempotent attached to an irreducible character) plus a
central scalar, stored in the monomials t^r D^j (x) e_gamma.  The
bracket carries the polynomial part

    t^{r+s} (f(D+s) g(D) - f(D) g(D+r)) (x) e_gamma

on matching idempotents plus the 2-cocycle times the central element,
both in closed form per pair of monomials.

The realization on the Fock space sends the degree-zero modes of the
basic field to the Heisenberg operators and extends to all of the
algebra through the normally ordered polynomials P_l in the basic
field and its derivatives; the central element acts as 1.

It runs in the basis of monomials prod p_{-r}(gamma)|0> over the
irreducible characters gamma, one Heisenberg algebra per irreducible:
a J-mode kernel (realize_J_mode) maps one p-monomial to its column,
editing the colour gamma with rational factors, as fock.to_p_basis maps
one K^rho.  The checks compare operators there and name failures by
the K^rho; the K-basis realization is the oracle in tests/oracles.py.

The vertex-operator identity O_hbar(gamma) = h Q/(Q-1)^2 (V_0(Q) - 1)
is checked in the K basis, one hbar-coefficient at a time after both
sides are multiplied by (Q-1)^2: each coefficient is an operator sum
of cached integer columns, the O^k(gamma) (fock.op_O) on one side and
on the other the products of Heisenberg chains that make up V_0, each
chain applying the shared p_m(gamma) (fock.heis) in turn, with rational
weights read off truncated power series in hbar (series.HbarSeries).
No Fock vector carries a series, and no series has a pole: the one
quotient, (q^d - 1)/(q^{-1} - 1) in the finite-difference lemma, is a
power series.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, factorial

from .algebra import SparseVector
from .fock import (
    FockOperator,
    _nonzero,
    commutator,
    compose,
    heis,
    op_O,
    operator_difference_cells,
    operator_sum,
    to_p_basis,
)
from .groups import require_character_table
from .partitions import enumerate_types_upto, partitions_of
from .series import HbarSeries

# -- exact polynomials in D: coefficient tuples, lowest degree first ----


@lru_cache(maxsize=None)
def falling_factorial_poly(l):
    """[D]_l = D (D-1) ... (D-l+1) = (D - l + 1) [D]_{l-1}."""
    if l == 0:
        return (1,)
    prev = falling_factorial_poly(l - 1) + (0,)
    return tuple((prev[i - 1] if i else 0) - (l - 1) * prev[i] for i in range(l + 1))


@lru_cache(maxsize=None)
def _stirling_row(j):
    """The Stirling numbers S(j, l) of the second kind, 0 <= l <= j:
    D^j = sum_l S(j, l) [D]_l."""
    if j == 0:
        return (1,)
    prev = _stirling_row(j - 1) + (0,)
    return tuple(l * prev[l] + (prev[l - 1] if l else 0) for l in range(j + 1))


# -- algebra elements ---------------------------------------------------


CENTRAL = "central"  # the basis key of the central element


class DiffOpElement(SparseVector):
    """A sum of t^r D^j (x) e_gamma monomials plus a central scalar.

    Its basis keys are (r, gamma_index, j) for t^r D^j (x) e_gamma and
    CENTRAL for the central element; gamma_index runs over the
    irreducible characters of the group.
    """

    __slots__ = ()

    def __init__(self, group, coeffs=None):
        require_character_table(group)
        super().__init__(group, coeffs)

    @property
    def central(self):
        return self.coeffs.get(CENTRAL, 0)

    def monomials(self):
        """(r, gamma_index, j, coefficient) of each t^r D^j (x) e_gamma."""
        return [(*key, c) for key, c in self.coeffs.items() if key != CENTRAL]

    def __repr__(self):
        bits = [f"{c} t^{r} D^{j} (x) e[{g}]" for r, g, j, c in sorted(self.monomials())]
        if self.central:
            bits.append(f"{self.central} C")
        return "DiffOpElement(" + (" + ".join(bits) or "0") + ")"


def _diffop(group, r, gamma_index, f):
    """t^r f(D) (x) e_gamma for a polynomial f, lowest degree first."""
    return DiffOpElement(group, {(r, gamma_index, j): c for j, c in enumerate(f)})


def basis_J(group, l, k, gamma_index):
    """J^l_k = -t^k [D]_l (x) e_gamma."""
    return _diffop(group, k, gamma_index, [-c for c in falling_factorial_poly(l)])


def psi_scalar(r, i, s, j):
    """Cocycle value on (t^r D^i, t^s D^j) per matching idempotent:
    sum_{m=-r}^{-1} m^i (m+r)^j when s = -r > 0, antisymmetric."""
    if r + s != 0:
        return 0
    if r < 0:
        return -psi_scalar(s, j, r, i)
    return sum(m**i * (m + r) ** j for m in range(-r, 0))


def winf_bracket(x, y):
    """The Lie bracket; the cocycle contributes to the central part.

    On matching idempotents [t^r D^i, t^s D^j] is
    t^{r+s} ((D+s)^i D^j - D^i (D+r)^j), each shifted power expanded by
    the binomial theorem.  The numerators are multiplied over the
    product of the denominators.
    """
    x._check(y)
    out = {}
    y_terms = [(*key, b) for key, b in y.nums.items() if key != CENTRAL]
    for key, a in x.nums.items():
        if key == CENTRAL:
            continue
        r, gi, i = key
        for s, gj, j, b in y_terms:
            if gi != gj:
                continue  # orthogonal idempotents
            ab, rs = a * b, r + s
            for e in range(i + 1):
                t = (rs, gi, e + j)
                out[t] = out.get(t, 0) + ab * comb(i, e) * s ** (i - e)
            for e in range(j + 1):
                t = (rs, gi, i + e)
                out[t] = out.get(t, 0) - ab * comb(j, e) * r ** (j - e)
            out[CENTRAL] = out.get(CENTRAL, 0) + ab * psi_scalar(r, i, s, j)
    return x._new(x.den * y.den, {t: v for t, v in out.items() if v})


# -- normally ordered polynomials P_l ----------------------------------


@lru_cache(maxsize=None)
def p_l_polynomial(l):
    """P_l as a dict: multiset of derivative orders -> integer coefficient.

    P_1 is the basic field; P_{l+1} = :field * P_l: + d(P_l).
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if l == 1:
        return {(0,): 1}
    prev = p_l_polynomial(l - 1)
    out = {}
    for word, coef in prev.items():
        grown = tuple(sorted(word + (0,)))
        out[grown] = out.get(grown, 0) + coef
        for i in range(len(word)):
            bumped = tuple(sorted(word[:i] + (word[i] + 1,) + word[i + 1:]))
            out[bumped] = out.get(bumped, 0) + coef
    return {w: c for w, c in out.items() if c}


def p_l_string(l):
    """Human-readable rendering, e.g. ':(J0)^3: + 3 :J0 d1J0: + d2J0'."""
    def field(a):
        return "J0" if a == 0 else f"d{a}J0"

    pieces = []
    for word, coef in sorted(p_l_polynomial(l).items()):
        factors = []
        for a in sorted(set(word)):
            m = word.count(a)
            factors.append(field(a) if m == 1 else f"({field(a)})^{m}")
        body = " ".join(factors)
        if len(word) > 1:
            body = f":{body}:"
        pieces.append(body if coef == 1 else f"{coef} {body}")
    return " + ".join(pieces)


# -- realization on the Fock space -------------------------------------


def _derivative_mode_factor(a, m):
    """Coefficient of the mode m term of the a-th derivative field."""
    out = (-1) ** a
    for t in range(1, a + 1):
        out *= m + t
    return out


def _annihilation_factor(r, multiplicity):
    """p_r(gamma), r > 0, on a p-monomial with `multiplicity` r-parts at
    colour gamma: r d/dp_{-r}(gamma)."""
    return r * multiplicity


def _mode_terms(word, k, parts):
    """The mode tuples of one word of P_{l+1} at total mode k, summed by
    their effect on a colour with the given parts.

    Entries are nonzero; the positive ones (annihilation degrees) form a
    sub-multiset of `parts`.  Returns (removed, created) -> coefficient:
    the sorted annihilation and creation degrees, and the sum over the
    ordered tuples with that effect of the product of the derivative
    mode factors.
    """
    out = {}
    last = len(word) - 1

    def rec(pos, target, avail, removed, created, coeff):
        if pos == last:
            candidates = (target,) if target else ()
        else:
            candidates = list(dict.fromkeys(avail))
            candidates += range(target - sum(avail), 0)
        for m in candidates:
            rest = avail
            if m > 0:
                if m not in avail:
                    continue
                i = avail.index(m)
                rest = avail[:i] + avail[i + 1:]
            f = _derivative_mode_factor(word[pos], m)
            if not f:
                continue
            kill = removed + (m,) if m > 0 else removed
            make = created if m > 0 else created + (-m,)
            if pos == last:
                key = (tuple(sorted(kill)), tuple(sorted(make)))
                out[key] = out.get(key, 0) + coeff * f
            else:
                rec(pos + 1, target - m, rest, kill, make, coeff * f)

    rec(0, k, parts, (), (), 1)
    return out


def realize_J_mode(group, l, k, gamma_index, rho):
    """The realized J^l_k on an idempotent, via P_{l+1} mode extraction,
    on the p-monomial of type rho: its column in the p basis.

    The modes are those of the Heisenberg algebra of the irreducible
    character itself: p_{-r}(gamma) adds an r-part at colour gamma with
    factor 1, p_r(gamma) removes one with factor r times its
    multiplicity, and the degree-zero mode acts as 0.  Annihilation
    modes are drawn only from the parts that the colour has.
    """
    require_character_table(group)
    parts = rho.partition(gamma_index).parts
    out = {}
    for word, kappa in p_l_polynomial(l + 1).items():
        for (removed, created), c in _mode_terms(word, k, parts).items():
            mono = rho
            factor = kappa * c
            for r in removed:
                factor *= _annihilation_factor(r, mono.multiplicity(r, gamma_index))
                mono = mono.remove_part(r, gamma_index)
            for r in created:
                mono = mono.add_part(r, gamma_index)
            out[mono] = out.get(mono, 0) + factor
    return _nonzero(group, l + 1, out)


def realize(group, x, j_ops=None):
    """The level-one action of a DiffOpElement (central element -> id)
    on the p basis: t^k D^j (x) e_gamma acts as
    -sum_l S(j, l) J^l_k(gamma).  One FockOperator, whose column on a
    p-monomial is the weighted sum of the J-mode columns plus the
    central term.

    j_ops maps (l, k, gamma_index) to the J-mode operator; realizations
    that share it share the cached columns.  A fresh dict by default.
    """
    if j_ops is None:
        j_ops = {}
    weights = {}
    for k, gi, j, c in x.monomials():
        for l, s in enumerate(_stirling_row(j)):
            weights[l, k, gi] = weights.get((l, k, gi), 0) - c * s
    terms = []
    for key, c in weights.items():
        if c:
            if key not in j_ops:
                j_ops[key] = FockOperator(
                    group, lambda rho, key=key: realize_J_mode(group, *key, rho)
                )
            terms.append((c, j_ops[key]))
    return operator_sum(group, terms, x.central)


# -- images of the convolution operators -------------------------------


def convdiff_poly(h, k):
    """The degree-(k+1) polynomial in D with
    sum_k hbar^k/k! * poly_k(D) = (q^{h D} - 1)/(q^{-h} - 1), q = e^hbar.

    At D = d >= 0 the series is -sum_{m=1}^{d} q^{h m}, so poly_k(d) =
    -h^k (sum_{m=0}^{d} m^k - 0^k), and the power sum is
    sum_j S(k, j) (d+1) [d]_j / (j+1) with the Stirling numbers S(k, j).
    """
    out = [Fraction(0)] * (k + 2)
    for j, s in enumerate(_stirling_row(k)):
        c = Fraction(s, j + 1)
        for i, a in enumerate(falling_factorial_poly(j)):
            out[i] += c * a  # (D + 1) [D]_j
            out[i + 1] += c * a
    out[0] -= 0**k
    return tuple(-(h**k) * c for c in out)


def convdiff_image(group, k, gamma_index):
    """The differential-operator image of O^k on one irreducible.

    The operator attached to the character equals h * (series
    coefficient polynomial) on its idempotent.
    """
    h = require_character_table(group).h[gamma_index]
    return _diffop(group, 0, gamma_index, [h * c for c in convdiff_poly(h, k)])


def convdiff_image_unit(group, k):
    """The image of O^k(1) = sum over irreducibles of O^k on idempotents."""
    ct = require_character_table(group)
    return DiffOpElement(
        group,
        {
            (0, i, j): c
            for i, h in enumerate(ct.h)
            for j, c in enumerate(convdiff_poly(h, k))
        },
    )


def verify_convdiff(group, max_level, max_k=3):
    """The realized differential-operator image of O^k on each
    irreducible matches the group-theoretic convolution operator.

    Both sides are compared in the p basis on the image of each K^rho,
    and a failure names the K^rho.  The change of basis is the operator
    whose column on K^rho is to_p_basis(group, rho), read through the
    module at call time; each column is computed once per call."""
    ct = require_character_table(group)
    p_basis = FockOperator(group, lambda rho: to_p_basis(group, rho))
    failures = []
    j_ops = {}
    for k in range(max_k + 1):
        for gi in range(len(ct.rows)):
            op = realize(group, convdiff_image(group, k, gi), j_ops)
            conv = op_O(group, k, ct.irreducible(gi))
            bad = operator_difference_cells(
                group, compose(op, p_basis), compose(p_basis, conv), max_level
            )
            failures.extend((k, gi, rho.label()) for rho in bad)
    return failures


# -- the vertex-operator identity ---------------------------------------


@lru_cache(maxsize=None)
def _partition_weight(lam, sign, exponent_scale, order):
    """prod over the parts k of lam of weight(k)^{m_k} / m_k!, where
    weight(k) is (Q^k - 1)/k for sign +1 (the creation half) and
    (1 - Q^{-k})/k for sign -1 (the annihilation half), with
    Q = exp(exponent_scale * hbar) truncated at the given order.

    Kept for the process: the arguments are all the weight depends on,
    and HbarSeries is immutable.
    """
    one = HbarSeries.const(Fraction(1), order)
    out = one
    for part, mult in lam.multiplicities().items():
        if sign > 0:
            base = HbarSeries.exp_hbar(part * exponent_scale, order) - one
        else:
            base = one - HbarSeries.exp_hbar(-part * exponent_scale, order)
        base = base * Fraction(1, part)
        for _ in range(mult):
            out = out * base
        out = out * Fraction(1, factorial(mult))
    return out


def verify_vo(group, gamma_index, max_level, order, corrected=True):
    """O_hbar(gamma) = overall Q'/(Q'-1)^2 (V_0(Q) - 1) through hbar^order
    on every K^rho of level <= max_level.  With h the group order over
    the degree of gamma, the corrected form has Q = Q' = q^h and overall
    h, the uncorrected printed form Q' = q, Q = q^{h^2} and overall 1.

    Both sides times (Q'-1)^2, hbar^2 times a unit, are compared at each
    hbar^j, j <= order + 2: the sum over k of [(Q'-1)^2]_{j-k}/k! O^k(gamma)
    with the sum over lam_a, lam_b |- w, 1 <= w <= max_level, of
    [overall Q' W+(lam_a) W-(lam_b)]_j p_{-lam_a}(gamma) p_{lam_b}(gamma),
    W+- the weights of the two exponentials; the w = 0 term of V_0 is
    the identity, which the -1 cancels.  A K^rho fails if any j differs.
    """
    ct = require_character_table(group)
    gam = ct.irreducible(gamma_index)
    h = ct.h[gamma_index]
    window = order + 2
    if corrected:
        exponent, prefactor_exp, overall = h, h, h
    else:
        exponent, prefactor_exp, overall = h * h, 1, 1
    q = HbarSeries.exp_hbar(prefactor_exp, window)
    square = (q - 1) * (q - 1)
    conv = [op_O(group, k, gam) for k in range(order + 1)]
    p = {m: heis(group, m, gam) for m in range(-max_level, max_level + 1)}

    def chain(modes):
        """p_{modes[-1]}(gamma) ... p_{modes[0]}(gamma) on the shared p."""
        first, *rest = modes
        column = p[first].column
        return FockOperator(
            group, lambda rho: reduce(lambda w, m: p[m].apply(w), rest, column(rho))
        )

    zero_mode = []  # (weight series, p_{-lam_a} p_{lam_b})
    for w in range(1, max_level + 1):
        lams = partitions_of(w)
        create = [chain([-r for r in lam]) for lam in lams]
        for lam_b in lams:
            kill = chain(lam_b)
            weight_b = q * _partition_weight(lam_b, -1, exponent, window) * overall
            for lam_a, up in zip(lams, create):
                weight = weight_b * _partition_weight(lam_a, 1, exponent, window)
                zero_mode.append((weight, compose(up, kill)))
    bad = set()
    for j in range(window + 1):
        lhs = [(square.coeff(j - k) / factorial(k), op) for k, op in enumerate(conv)]
        rhs = [(weight.coeff(j), op) for weight, op in zero_mode]
        lhs, rhs = operator_sum(group, lhs), operator_sum(group, rhs)
        bad.update(operator_difference_cells(group, lhs, rhs, max_level))
    basis = enumerate_types_upto(group, max_level)
    return [(gamma_index, rho.label()) for rho in basis if rho in bad]


# -- level-one homomorphism check ---------------------------------------


def sample_elements(group, rng):
    """A deterministic pool of bracket-test elements."""
    ct = require_character_table(group)
    pool = []
    for gi in range(len(ct.rows)):
        for l in range(3):
            for k in range(-2, 3):
                pool.append(basis_J(group, l, k, gi))
        for m in (-2, -1, 1, 2):
            pool.append(basis_J(group, 0, m, gi))
        for k in range(3):
            pool.append(convdiff_image(group, k, gi))
    for k in range(3):
        pool.append(convdiff_image_unit(group, k))
    rng.shuffle(pool)
    return pool


def verify_winf_level_one(group, max_level, num_pairs, seed=0):
    """[realize X, realize Y] = realize [X, Y] with the central element
    acting as 1, on sampled pairs; exact matrix comparison.

    The identity is checked on the p-monomials of level <= max_level:
    the change of basis keeps the level and is invertible on each, so
    it holds there exactly when it holds on the K^rho.  Only a pair that
    fails is applied to the image of each K^rho, so that a failure
    names a K^rho."""
    rng = random.Random(seed)
    pool = sample_elements(group, rng)
    pairs = [
        (rng.randrange(len(pool)), rng.randrange(len(pool)))
        for _ in range(num_pairs)
    ]
    p_basis = FockOperator(group, lambda rho: to_p_basis(group, rho))
    failures = []
    for idx, (i, j) in enumerate(pairs):
        x, y = pool[i], pool[j]
        j_ops = {}  # shared within the pair only, to bound memory
        rx, ry = realize(group, x, j_ops), realize(group, y, j_ops)
        rz = realize(group, winf_bracket(x, y), j_ops)
        lhs = commutator(rx, ry)
        if operator_difference_cells(group, lhs, rz, max_level):
            bad = operator_difference_cells(
                group, compose(lhs, p_basis), compose(rz, p_basis), max_level
            )
            failures.extend((idx, rho.label()) for rho in bad)
    return failures


def verify_bracket_laws(group, num_triples, seed=0):
    """Antisymmetry and the Jacobi identity (including the central
    cocycle contributions) on seeded random triples; exact."""
    rng = random.Random(seed)
    pool = sample_elements(group, rng)
    failures = []
    for t in range(num_triples):
        x, y, z = (pool[rng.randrange(len(pool))] for _ in range(3))
        if not (winf_bracket(x, y) + winf_bracket(y, x)).is_zero():
            failures.append(("antisymmetry", t))
        jacobi = (
            winf_bracket(x, winf_bracket(y, z))
            + winf_bracket(y, winf_bracket(z, x))
            + winf_bracket(z, winf_bracket(x, y))
        )
        if not jacobi.is_zero():
            failures.append(("jacobi", t))
    return failures


def lemma_variable_residuals(order, max_d=6):
    """Exact residuals of the two finite-difference series identities at
    integer specializations of D (all should be zero series)."""
    q = HbarSeries.exp_hbar(1, order)
    residuals = []
    for d in range(max_d + 1):
        qd = HbarSeries.exp_hbar(d, order)
        rhs1 = HbarSeries.const(Fraction(1), order)
        qm1_pow = HbarSeries.const(Fraction(1), order)
        for l in range(1, order + 1):
            qm1_pow = qm1_pow * (q - 1)
            rhs1 = rhs1 + qm1_pow * comb(d, l)
        residuals.append(qd - rhs1)
        lhs2 = (qd - 1).divide(HbarSeries.exp_hbar(-1, order) - 1)
        rhs2 = HbarSeries.zero(order)
        qm1_pow = HbarSeries.const(Fraction(1), order)
        for l in range(1, order + 1):
            if l > 1:
                qm1_pow = qm1_pow * (q - 1)
            rhs2 = rhs2 + qm1_pow * comb(d, l)
        residuals.append(lhs2 + q * rhs2)
    return residuals
