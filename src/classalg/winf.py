"""The W-algebra of differential operators on the circle twisted by
R(Gamma), its 2-cocycle, and its realization on the Fock space.

Elements are finite sums of t^r f(D) (x) e_gamma (D = t d/dt, e_gamma
the normalized idempotent attached to an irreducible character) plus a
central scalar.  The bracket carries the polynomial part

    t^{r+s} (f(D+s) g(D) - f(D) g(D+r)) (x) e_gamma

on matching idempotents plus the 2-cocycle times the central element.

The realization on the Fock space sends the degree-zero modes of the
basic field to the Heisenberg operators and extends to all of the
algebra through the normally ordered polynomials P_l in the basic
field and its derivatives; the central element acts as 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .fock import FockOperator, FockVector, _mode_tuples, heis, op_O
from .groups import require_character_table
from .partitions import partitions_of
from .scalars import poly_add, poly_mul, poly_scale, poly_trim
from .series import HbarSeries

# -- exact polynomials in D, on the kernel of scalars ------------------


def poly_shift(a, s):
    """f(D) -> f(D + s)."""
    out = ()
    power = (1,)
    shift = (s, 1)
    for coef in a:
        out = poly_add(out, poly_scale(power, coef))
        power = poly_mul(power, shift)
    return out


def poly_eval(a, x):
    val = 0
    for coef in reversed(a):
        val = val * x + coef
    return val if val else Fraction(0)


def falling_factorial_poly(l):
    """[D]_l = D (D-1) ... (D-l+1)."""
    out = (1,)
    for j in range(l):
        out = poly_mul(out, (-j, 1))
    return out


def poly_to_falling(a):
    """Coefficients c_l with f(D) = sum_l c_l [D]_l (Newton differences)."""
    values = [poly_eval(a, j) for j in range(len(a) or 1)]
    coeffs = []
    row = values
    l = 0
    while row:
        coeffs.append(row[0] * Fraction(1, factorial(l)))
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        l += 1
    return poly_trim(coeffs)


# -- algebra elements ---------------------------------------------------


class DiffOpElement:
    """A sum of t^r f(D) (x) e_gamma terms plus a central scalar.

    terms maps (r, gamma_index) to the polynomial f; gamma_index runs
    over the irreducible characters of the group.
    """

    __slots__ = ("group", "terms", "central")

    def __init__(self, group, terms=None, central=Fraction(0)):
        require_character_table(group)
        self.group = group
        self.terms = {k: poly_trim(f) for k, f in (terms or {}).items() if poly_trim(f)}
        self.central = central

    def _check(self, other):
        if self.group is not other.group:
            raise ValueError("elements over different groups")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, f in other.terms.items():
            s = poly_add(out.get(k, ()), f)
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return DiffOpElement(self.group, out, self.central + other.central)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        return DiffOpElement(
            self.group,
            {k: poly_scale(f, s) for k, f in self.terms.items()},
            s * self.central,
        )

    def __eq__(self, other):
        return (
            isinstance(other, DiffOpElement)
            and self.group is other.group
            and self.terms == other.terms
            and self.central == other.central
        )

    def is_zero(self):
        return not self.terms and not self.central

    def __repr__(self):
        bits = [
            f"t^{r} {list(f)} (x) e[{g}]" for (r, g), f in sorted(self.terms.items())
        ]
        if self.central:
            bits.append(f"{self.central} C")
        return "DiffOpElement(" + (" + ".join(bits) or "0") + ")"


def basis_J(group, l, k, gamma_index):
    """J^l_k = -t^k [D]_l (x) e_gamma."""
    return DiffOpElement(
        group, {(k, gamma_index): poly_scale(falling_factorial_poly(l), -1)}
    )


def basis_L(group, l, k, gamma_index):
    """L^l_k = -t^k D^l (x) e_gamma."""
    return DiffOpElement(group, {(k, gamma_index): (0,) * l + (-1,)})


def heis_dict_element(group, m, gamma_index):
    """The Heisenberg generator of degree m on the idempotent side: J^0_m."""
    return basis_J(group, 0, m, gamma_index)


def psi_scalar(r, f, s, g):
    """Cocycle value on (t^r f(D), t^s g(D)) per matching idempotent."""
    if r + s != 0:
        return Fraction(0)
    if r < 0:
        return -psi_scalar(s, g, r, f)
    total = Fraction(0)
    for j in range(-r, 0):
        total = total + poly_eval(f, j) * poly_eval(g, j + r)
    return total


def winf_bracket(x, y):
    """The Lie bracket; the cocycle contributes to the central part."""
    x._check(y)
    out = {}
    central = Fraction(0)
    for (r, gi), f in x.terms.items():
        for (s, gj), g in y.terms.items():
            if gi != gj:
                continue  # orthogonal idempotents
            poly = poly_add(
                poly_mul(poly_shift(f, s), g),
                poly_scale(poly_mul(f, poly_shift(g, r)), -1),
            )
            if poly:
                key = (r + s, gi)
                acc = poly_add(out.get(key, ()), poly)
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
            central = central + psi_scalar(r, f, s, g)
    return DiffOpElement(x.group, out, central)


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


def realize_J_mode(group, l, k, gamma_index, vec):
    """The realized J^l_k on an idempotent, via P_{l+1} mode extraction.

    The degree-zero mode of the basic field acts as 0; the other modes
    act by the Heisenberg operators attached to the irreducible
    character itself.
    """
    ct = require_character_table(group)
    gam = ct.irreducible(gamma_index)
    level = vec.max_level()
    out = FockVector(group)
    if level < 0:
        return out
    for word, kappa in p_l_polynomial(l + 1).items():
        p = len(word)
        for modes in _mode_tuples(p, k, level):
            coeff = kappa
            for a, m in zip(word, modes):
                coeff *= _derivative_mode_factor(a, m)
            if not coeff:
                continue
            w = vec
            for m in sorted(modes, reverse=True):
                w = heis(group, m, gam, w)
                if w.is_zero():
                    break
            else:
                out = out + w.scale(coeff)
    return out.scale(Fraction(1, l + 1))


def realize_J_op(group, l, k, gamma_index):
    """The realized J^l_k on an idempotent as a cached-column operator."""
    return FockOperator(
        group, lambda v: realize_J_mode(group, l, k, gamma_index, v)
    )


def realize(group, x, j_ops=None):
    """The level-one action of a DiffOpElement (central element -> id).

    j_ops maps (l, k, gamma_index) to the J-mode operator; realizations
    that share it share the cached columns.  A fresh dict by default.
    """
    if j_ops is None:
        j_ops = {}
    terms = []
    for (k, gi), f in x.terms.items():
        for l, c in enumerate(poly_to_falling(f)):
            if c:
                key = (l, k, gi)
                if key not in j_ops:
                    j_ops[key] = realize_J_op(group, l, k, gi)
                terms.append((j_ops[key], -c))

    def run(vec):
        out = vec.scale(x.central) if x.central else FockVector(group)
        for op, c in terms:
            out = out + op(vec).scale(c)
        return out

    return run


# -- images of the convolution operators -------------------------------


def convdiff_poly(h, k):
    """The degree-(k+1) polynomial in D with
    sum_k hbar^k/k! * poly_k(D) = (q^{h D} - 1)/(q^{-h} - 1), q = e^hbar.

    Computed by exact power-series division in hbar with polynomial
    coefficients.
    """
    order = k
    # numerator / hbar : coefficients of hbar^j, j = 0..order, each a poly in D
    num = [
        poly_scale((0,) * (j + 1) + (1,), Fraction(h ** (j + 1), factorial(j + 1)))
        for j in range(order + 1)
    ]
    # denominator / hbar : scalar series u_j
    den = [
        Fraction((-h) ** (j + 1), factorial(j + 1)) for j in range(order + 1)
    ]
    inv_lead = Fraction(1) / den[0]
    quo = []
    for j in range(order + 1):
        acc = num[j]
        for i in range(j):
            acc = poly_add(acc, poly_scale(quo[i], -den[j - i]))
        quo.append(poly_scale(acc, inv_lead))
    return poly_scale(quo[k], factorial(k))


def convdiff_image(group, k, gamma_index):
    """The differential-operator image of O^k on one irreducible.

    The operator attached to the character equals h * (series
    coefficient polynomial) on its idempotent.
    """
    ct = require_character_table(group)
    h = ct.h[gamma_index]
    return DiffOpElement(
        group, {(0, gamma_index): poly_scale(convdiff_poly(h, k), h)}
    )


def convdiff_image_unit(group, k):
    """The image of O^k(1) = sum over irreducibles of O^k on idempotents."""
    ct = require_character_table(group)
    out = DiffOpElement(group)
    for i in range(len(ct.rows)):
        h = ct.h[i]
        out = out + DiffOpElement(group, {(0, i): convdiff_poly(h, k)})
    return out


def verify_convdiff(group, max_level, max_k=3):
    """The realized differential-operator image of O^k on each
    irreducible matches the group-theoretic convolution operator."""
    from .fock import basis_state, domain_types

    ct = require_character_table(group)
    failures = []
    j_ops = {}
    for k in range(max_k + 1):
        for gi in range(len(ct.rows)):
            gam = ct.irreducible(gi)
            op = realize(group, convdiff_image(group, k, gi), j_ops)
            for rho in domain_types(group, max_level):
                v = basis_state(group, rho)
                if op(v) != op_O(group, k, gam, v):
                    failures.append((k, gi, rho.label()))
    return failures


# -- vertex operator zero mode -----------------------------------------


def _partition_weight_factor(lam, coeff_of_part, order):
    out = HbarSeries.const(Fraction(1), order)
    for part, mult in lam.multiplicities().items():
        base = coeff_of_part(part)
        for _ in range(mult):
            out = out * base
        out = out * Fraction(1, factorial(mult))
    return out


def vertex_zero_mode(group, gamma, vec, order, exponent_scale):
    """V_0 applied to a vector, with the series parameter q^exponent_scale.

    V is the product of the exponential of the creation half (weights
    (Q^k - 1)/k) and of the annihilation half (weights (1 - Q^{-k})/k),
    Q = exp(exponent_scale * hbar); the zero mode pairs partitions of
    equal size.  Coefficients of the result are HbarSeries.
    """
    level = vec.max_level()
    out = FockVector(group)
    if level < 0:
        return out

    def create_weight(k):
        return (
            HbarSeries.exp_hbar(k * exponent_scale, order)
            - HbarSeries.const(Fraction(1), order)
        ) * Fraction(1, k)

    def annihilate_weight(k):
        return (
            HbarSeries.const(Fraction(1), order)
            - HbarSeries.exp_hbar(-k * exponent_scale, order)
        ) * Fraction(1, k)

    for w in range(level + 1):
        for lam_b in partitions_of(w):
            annihilated = vec
            for part in lam_b:
                annihilated = heis(group, part, gamma, annihilated)
                if annihilated.is_zero():
                    break
            if w and annihilated.is_zero():
                continue
            weight_b = _partition_weight_factor(lam_b, annihilate_weight, order)
            for lam_a in partitions_of(w):
                piece = annihilated
                for part in lam_a:
                    piece = heis(group, -part, gamma, piece)
                weight = weight_b * _partition_weight_factor(
                    lam_a, create_weight, order
                )
                out = out + piece.scale(weight)
    return out


def vo_rhs(group, gamma_index, vec, order, corrected=True):
    """The vertex-operator side of the q-series identity for O_hbar.

    With Q = q^h (h the ratio of the group order to the character
    degree), the corrected form is h * Q/(Q-1)^2 * (V_0(Q) - 1); the
    uncorrected printed form uses q/(q-1)^2 and parameter q^{h^2}.
    """
    ct = require_character_table(group)
    gam = ct.irreducible(gamma_index)
    h = ct.h[gamma_index]
    window = order + 2
    if corrected:
        exponent, prefactor_exp, overall = h, h, Fraction(h)
    else:
        exponent, prefactor_exp, overall = h * h, 1, Fraction(1)
    v0 = vertex_zero_mode(group, gam, vec, window, exponent)
    diff = v0 - vec  # V_0 - 1 applied to the vector
    q = HbarSeries.exp_hbar(prefactor_exp, window)
    denom = (q - 1) * (q - 1)
    out = {}
    for rho, s in diff.coeffs.items():
        if not isinstance(s, HbarSeries):
            s = HbarSeries.const(s, window)
        out[rho] = (q * s).divide(denom) * overall
    return FockVector(group, out)


def verify_vo(group, gamma_index, max_level, order, corrected=True):
    """Compare O_hbar on every basis state with the vertex-operator side."""
    from .fock import basis_state, domain_types, op_O_hbar

    ct = require_character_table(group)
    gam = ct.irreducible(gamma_index)
    failures = []
    for rho in domain_types(group, max_level):
        v = basis_state(group, rho)
        lhs = op_O_hbar(group, gam, v, order)
        rhs = vo_rhs(group, gamma_index, v, order, corrected=corrected)
        if lhs != rhs:
            failures.append((gamma_index, rho.label()))
    return failures


# -- level-one homomorphism check ---------------------------------------


def sample_elements(group, rng, max_l=2, max_abs_k=2, max_conv_k=2):
    """A deterministic pool of bracket-test elements."""
    ct = require_character_table(group)
    pool = []
    for gi in range(len(ct.rows)):
        for l in range(max_l + 1):
            for k in range(-max_abs_k, max_abs_k + 1):
                pool.append(basis_J(group, l, k, gi))
        for m in (-2, -1, 1, 2):
            pool.append(heis_dict_element(group, m, gi))
        for k in range(max_conv_k + 1):
            pool.append(convdiff_image(group, k, gi))
    for k in range(max_conv_k + 1):
        pool.append(convdiff_image_unit(group, k))
    rng.shuffle(pool)
    return pool


def verify_winf_level_one(group, max_level, num_pairs, seed=0):
    """[realize X, realize Y] = realize [X, Y] with the central element
    acting as 1, on sampled pairs; exact matrix comparison."""
    import random

    from .fock import basis_state, domain_types

    rng = random.Random(seed)
    pool = sample_elements(group, rng)
    pairs = [
        (rng.randrange(len(pool)), rng.randrange(len(pool)))
        for _ in range(num_pairs)
    ]
    basis = domain_types(group, max_level)
    failures = []
    for idx, (i, j) in enumerate(pairs):
        x, y = pool[i], pool[j]
        j_ops = {}  # shared within the pair only, to bound memory
        rx, ry = realize(group, x, j_ops), realize(group, y, j_ops)
        rz = realize(group, winf_bracket(x, y), j_ops)
        for rho in basis:
            v = basis_state(group, rho)
            if rx(ry(v)) - ry(rx(v)) != rz(v):
                failures.append((idx, rho.label()))
    return failures


def verify_bracket_laws(group, num_triples, seed=0):
    """Antisymmetry and the Jacobi identity (including the central
    cocycle contributions) on seeded random triples; exact."""
    import random

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
            rhs1 = rhs1 + qm1_pow * Fraction(
                poly_eval(falling_factorial_poly(l), d), factorial(l)
            )
        residuals.append(qd - rhs1)
        lhs2 = (qd - 1).divide(HbarSeries.exp_hbar(-1, order) - 1)
        rhs2 = HbarSeries.zero(order)
        qm1_pow = HbarSeries.const(Fraction(1), order)
        for l in range(1, order + 1):
            if l > 1:
                qm1_pow = qm1_pow * (q - 1)
            rhs2 = rhs2 + qm1_pow * Fraction(
                poly_eval(falling_factorial_poly(l), d), factorial(l)
            )
        residuals.append(lhs2 + q * rhs2)
    return residuals
