"""Wreath products Gamma_n = Gamma wr S_n: elements, types, enumeration,
characters and the class multiplication table.

An element is (g, sigma) with g a tuple of n element ids of Gamma and
sigma a permutation of {0..n-1} in one-line form, acting on the left:
(g, sigma)(h, tau) = (g . sigma(h), sigma tau) with sigma(h)_i =
h_{sigma^{-1}(i)}.  Cycle products multiply right-to-left along a
cycle; the type records, per Gamma-class, the partition of cycle
lengths.

The structure constants of the class sums K^rho (the class table that
algebra.convolve_n reads) come from the irreducible characters of
Gamma_n when Gamma has a character table.  WreathCharacters computes
them by the wreath Murnaghan-Nakayama rule from Gamma's table and
partitions alone, each value held as the phi(m) int numerators that
scalars.Cyc uses, m the least common conductor of Gamma's table; each
row N[r][s][.] is then an exact integer sum over the characters,
reduced mod Phi_m by the one reduction of scalars, computed on first
use.  The enumerated table, which multiplies every element of Gamma_n
by every class representative, is the oracle for those rows and the
only path for a group file without a character table.  A group keeps
its per-level contexts (types, representatives, characters, filled
rows) in ``group.wreath_contexts``, so they are freed with the group.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import mul
from typing import NamedTuple

from .partitions import (
    Partition,
    TypeFunction,
    class_size,
    enumerate_types,
)
from .scalars import _integral_numerators, _mul_vec, _reduce, powers

DEFAULT_ENUMERATION_CAP = 10**6


def enumeration_cap():
    """The active enumeration cap: CLASSALG_ENUM_CAP, a nonnegative
    decimal integer, if it is set and not empty; else the default."""
    value = os.environ.get("CLASSALG_ENUM_CAP")
    if value and not (value.isascii() and value.isdigit()):
        raise ValueError(
            f"CLASSALG_ENUM_CAP must be a nonnegative decimal integer, not {value!r}"
        )
    return int(value) if value else DEFAULT_ENUMERATION_CAP


class ResourceCapError(RuntimeError):
    """Raised when an enumeration would exceed the configured cap."""


class WreathElement(NamedTuple):
    g: tuple  # element ids of Gamma, length n
    sigma: tuple  # one-line permutation of 0..n-1

    @property
    def n(self):
        return len(self.g)


def wreath_identity(group, n):
    return WreathElement((group.identity,) * n, tuple(range(n)))


def _perm_inverse(sigma):
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v] = i
    return tuple(inv)


def wreath_mul(group, x, y):
    """(g, sigma)(h, tau) = (g . sigma(h), sigma tau), in one pass:
    the product's entry at sigma(i) is g_{sigma(i)} h_i."""
    xg, xs = x.g, x.sigma
    n = len(xg)
    if len(y.g) != n:
        raise ValueError("level mismatch in wreath multiplication")
    mul = group.mul
    g = [0] * n
    for i, h in enumerate(y.g):
        j = xs[i]
        g[j] = mul[xg[j]][h]
    return WreathElement(tuple(g), tuple(map(xs.__getitem__, y.sigma)))


def wreath_inv(group, x):
    """(g, sigma)^{-1} = (sigma^{-1}(g^{-1}), sigma^{-1})."""
    sigma_inv = _perm_inverse(x.sigma)
    g = tuple(group.inv[x.g[x.sigma[i]]] for i in range(x.n))
    return WreathElement(g, sigma_inv)


def type_of(group, x):
    """The conjugacy type of x in Gamma_n.

    One walk over the cycles of sigma, each from its least point i_1,
    multiplies the cycle product g_{i_k} ... g_{i_1} on the way; the
    sorted (class id, length) pairs then name the type.
    """
    g, sigma = x.g, x.sigma
    mul, class_of = group.mul, group.class_of
    seen = [False] * len(sigma)
    key = []
    for start, j in enumerate(sigma):
        if seen[start]:
            continue
        prod = g[start]
        length = 1
        while j != start:
            seen[j] = True
            prod = mul[g[j]][prod]
            length += 1
            j = sigma[j]
        key.append((class_of[prod], length))
    key.sort()
    return _type_from_key(tuple(key))


@lru_cache(maxsize=None)
def _type_from_key(key):
    """The TypeFunction of sorted (class id, cycle length) pairs."""
    data = {}
    for c, r in key:
        data.setdefault(c, []).append(r)
    return TypeFunction({c: Partition(parts) for c, parts in data.items()})


def canonical_representative(group, rho, n=None):
    """A deterministic element of type rho in Gamma_n.

    Cycles are laid out on consecutive positions, classes and parts in
    canonical order, with the class representative placed on the last
    position of each cycle.
    """
    if n is None:
        n = rho.norm
    rho = rho.pad_to(n)
    g = [group.identity] * n
    sigma = list(range(n))
    pos = 0
    for cid, lam in rho.items:
        for r in sorted(lam.parts, reverse=True):
            block = list(range(pos, pos + r))
            for idx, i in enumerate(block):
                sigma[i] = block[(idx + 1) % r]
            g[block[-1]] = group.class_rep(cid)
            pos += r
    x = WreathElement(tuple(g), tuple(sigma))
    actual = type_of(group, x)
    if actual != rho:
        raise ValueError(f"canonical representative of {rho} has type {actual}")
    return x


def wreath_order(group, n):
    return factorial(n) * group.order**n


def require_enumerable(group, n, cap=None):
    """Raise ResourceCapError if |Gamma_n| exceeds the enumeration cap."""
    if cap is None:
        cap = enumeration_cap()
    size = wreath_order(group, n)
    if size > cap:
        raise ResourceCapError(
            f"|Gamma_{n}| = {size} exceeds enumeration cap {cap}"
        )


def enumerate_group(group, n, cap=None):
    """All elements of Gamma_n (resource-capped)."""
    require_enumerable(group, n, cap)
    elems = range(group.order)
    for sigma in itertools.permutations(range(n)):
        for g in itertools.product(elems, repeat=n):
            yield WreathElement(g, sigma)


def enumerate_class(group, rho, n=None):
    """All elements of type rho (oracle-grade, by filtering Gamma_n)."""
    if n is None:
        n = rho.norm
    rho = rho.pad_to(n)
    for x in enumerate_group(group, n):
        if type_of(group, x) == rho:
            yield x


class WreathContext:
    """Caches per (group, n): types, representatives, characters, the
    rows of the class table, the Xi_n^k(K^c) of fock and the class
    members of stable.

    The contexts of a group live in ``group.wreath_contexts``, keyed on
    n, so they are freed with the group; :meth:`get` is the entry point.

    The class multiplication table N[rho][sigma][nu] counts
    #{a in C_rho : a^{-1} x_nu in C_sigma} for the canonical
    representative x_nu, i.e. the structure constants of the class sums
    K^rho in the center of C[Gamma_n].  With a character table for
    Gamma it comes from the characters of Gamma_n, one row at a time;
    without one, from enumerating Gamma_n.
    """

    def __init__(self, group, n):
        self.group = group
        self.n = n
        self.types = enumerate_types(group, n)
        self.type_index = {rho: i for i, rho in enumerate(self.types)}
        self.reps = [canonical_representative(group, rho, n) for rho in self.types]
        self.order = wreath_order(group, n)
        self.xi_classes = {}  # (k, class id) -> Xi_n^k(K^c), filled by fock
        self.class_members = {}  # type -> its elements, filled by stable
        self._rows = {}
        self._characters = None
        self._structure = None

    @classmethod
    def get(cls, group, n):
        contexts = group.wreath_contexts
        if n not in contexts:
            contexts[n] = cls(group, n)
        return contexts[n]

    def class_sizes(self):
        return [class_size(rho, self.group, self.n) for rho in self.types]

    def structure_constants(self, r, s):
        """The row N[r][s][.]: K^{rho_r} K^{rho_s} = sum_t N[r][s][t] K^{rho_t}.

        Each row is computed on first use and kept; N[r][s] = N[s][r].
        """
        key = (r, s) if r <= s else (s, r)
        row = self._rows.get(key)
        if row is None:
            if self.group.character_table is None:
                row = self._enumerated_structure_constants()[r][s]
            else:
                row = self.characters()._row(r, s)
            self._rows[key] = row
        return row

    def characters(self):
        """The irreducible characters of Gamma_n (built on first use)."""
        if self._characters is None:
            self._characters = WreathCharacters(self)
        return self._characters

    def _enumerated_structure_constants(self):
        """The whole table N by multiplying every element of Gamma_n with
        every class representative: the oracle for the character rows."""
        if self._structure is not None:
            return self._structure
        if self.n == 0:
            self._structure = [[[1]]]
            return self._structure
        k = len(self.types)
        table = [[[0] * k for _ in range(k)] for _ in range(k)]
        group = self.group
        for x in enumerate_group(group, self.n):
            r = self.type_index[type_of(group, x)]
            xinv = wreath_inv(group, x)
            for t, z in enumerate(self.reps):
                y = wreath_mul(group, xinv, z)
                s = self.type_index[type_of(group, y)]
                table[r][s][t] += 1
        self._structure = table
        return table


# -- characters of Gamma_n ---------------------------------------------


@lru_cache(maxsize=None)
def _rim_hooks(parts, r):
    """((partition left, height), ...) for each r-rim hook of `parts`.

    Through beta-numbers: a hook moves one bead b to the free position
    b - r, and its height is the number of beads strictly in between.
    """
    length = len(parts)
    beta = [p + length - 1 - i for i, p in enumerate(parts)]
    beads = set(beta)
    out = []
    for i, b in enumerate(beta):
        if b < r or b - r in beads:
            continue
        height = sum(1 for x in beta if b - r < x < b)
        moved = sorted(beta[:i] + [b - r] + beta[i + 1:], reverse=True)
        left = tuple(x - (length - 1 - j) for j, x in enumerate(moved))
        out.append((tuple(p for p in left if p), height))
    return tuple(out)


class WreathCharacters:
    """The irreducible characters of Gamma_n by the wreath
    Murnaghan-Nakayama rule (Macdonald, Ch. I, App. B).

    chi^lam is labelled by lam : Irr(Gamma) -> partitions with total size
    n, a TypeFunction over the row indices of Gamma's character table;
    ``labels`` lists them in the order of ``enumerate_types``.  Its value
    at a type rho is computed one cycle (r, c) of rho at a time: the sum
    over gamma and the r-rim hooks of lam(gamma) of (-1)^height gamma(c)
    times the value of what is left, memoised on (lam, remaining cycles).
    Multiplication by gamma(c) is an int matrix on the power basis, built
    once per Gamma_n with scalars._mul_vec.

    ``values[i][t]`` is chi^{labels[i]} at the class ``ctx.types[t]``,
    as the phi(m) int numerators of a ``Cyc`` on the power basis of
    Q(zeta_m), m (``modulus``) the least common conductor of Gamma's
    character values; a rational table has m = 1.
    """

    def __init__(self, ctx):
        m, gamma = _integral_numerators(
            [row.values for row in ctx.group.character_table.rows]
        )
        basis = powers(m)[: len(gamma[0][0])]  # z^j for j < phi(m): the unit vectors
        one, phi = basis[0], len(basis)
        # gamma(c) times a value, as int rows: row k gives the z^k numerator
        times = [
            [tuple(zip(*(_mul_vec(m, g, z) for z in basis))) for g in row] for row in gamma
        ]
        memo = {}

        def chi(lam, cycles):
            if not cycles:
                return one
            key = (lam, cycles)
            value = memo.get(key)
            if value is None:
                (r, c), rest = cycles[0], cycles[1:]
                acc = [0] * phi
                for i, parts in enumerate(lam):
                    for left, height in _rim_hooks(parts, r):
                        sub = chi(lam[:i] + (left,) + lam[i + 1:], rest)
                        sign = -1 if height % 2 else 1
                        for k, row in enumerate(times[i][c]):
                            acc[k] += sign * sum(map(mul, row, sub))
                value = memo[key] = tuple(acc)
            return value

        self.ctx = ctx
        self.modulus = m
        self.labels = enumerate_types(ctx.group, ctx.n)
        cycles = [
            tuple(sorted(((r, c) for c, lam in rho.items for r in lam.parts), reverse=True))
            for rho in ctx.types
        ]
        self.values = []
        for label in self.labels:
            lam = tuple(label.partition(i).parts for i in range(len(gamma)))
            self.values.append([chi(lam, cyc) for cyc in cycles])
        self._prepare_rows()

    def degrees(self):
        """chi(1) for each label, checked to divide |Gamma_n|."""
        ident = self.ctx.type_index[TypeFunction().pad_to(self.ctx.n)]
        out = []
        for row in self.values:
            value = row[ident]
            if any(value[1:]) or value[0] <= 0 or self.ctx.order % value[0]:
                raise ArithmeticError(f"character degree {value} does not divide |Gamma_n|")
            out.append(value[0])
        return out

    def _prepare_rows(self):
        """The packed columns, weights and linear-character signatures
        that ``_row`` reads."""
        ctx, m = self.ctx, self.modulus
        classes = range(len(ctx.types))
        degrees = self.degrees()
        self._weights = [ctx.order // d for d in degrees]
        self._sizes = ctx.class_sizes()
        self._inverse = [ctx.type_index[rho.inverse(ctx.group)] for rho in ctx.types]
        # every digit of a packed sum of triple products stays below 2^(bits-1)
        bound = sum(
            w * max(sum(map(abs, v)) for v in row) ** 3
            for w, row in zip(self._weights, self.values)
        )
        self._bits = bound.bit_length() + 2
        self._top = 3 * len(self.values[0][0]) - 3  # the degree of a triple product
        self._packed = [
            [sum(c << (self._bits * i) for i, c in enumerate(row[t])) for row in self.values]
            for t in classes
        ]
        # a linear character takes values +-z^e = zeta_{2m}^a, a = 2e (+ m)
        roots = {}
        for e in range(m):
            for sign, shift in ((1, 0), (-1, m)):
                root = tuple(_reduce(m, (0,) * e + (sign,)))
                roots.setdefault(root, (2 * e + shift) % (2 * m))
        self._root_exponents = [
            [roots[row[t]] for t in classes]
            for row, d in zip(self.values, degrees)
            if d == 1
        ]
        self._by_signature = {}
        for t in classes:
            sig = tuple(psi[t] for psi in self._root_exponents)
            self._by_signature.setdefault(sig, []).append(t)

    def _value(self, packed):
        """The numerators at zeta_m of a packed polynomial of degree at
        most 3 phi(m) - 3: its signed base-2^bits digits, reduced."""
        bits = self._bits
        mask, half, base = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
        digits = []
        for _ in range(self._top):
            d = packed & mask
            if d >= half:
                d -= base
            digits.append(d)
            packed = (packed - d) >> bits
        digits.append(packed)
        return _reduce(self.modulus, digits)

    def _row(self, r, s):
        """N[r][s][t] = |C_r||C_s|/|Gamma_n|^2
        sum_lam |Gamma_n|/chi(1) chi(r) chi(s) chi(t^{-1}), in integers.

        Only the t on which every linear character psi of Gamma_n
        takes the value psi(r) psi(s) are computed; every other entry
        is 0.  An entry that is not a nonnegative integer raises
        ArithmeticError.
        """
        ctx = self.ctx
        sig = tuple((psi[r] + psi[s]) % (2 * self.modulus) for psi in self._root_exponents)
        pr, ps = self._packed[r], self._packed[s]
        weighted = [w * a * b for w, a, b in zip(self._weights, pr, ps)]
        scale = self._sizes[r] * self._sizes[s]
        square = ctx.order**2
        row = [0] * len(ctx.types)
        for t in self._by_signature.get(sig, ()):
            column = self._packed[self._inverse[t]]
            value = self._value(sum(map(mul, weighted, column)))
            if any(value[1:]):
                raise ArithmeticError(
                    f"class-table entry ({r}, {s}, {t}) at n={ctx.n} is not rational"
                )
            entry, rem = divmod(value[0] * scale, square)
            if rem or entry < 0:
                raise ArithmeticError(
                    f"class-table entry ({r}, {s}, {t}) at n={ctx.n} is "
                    f"{Fraction(value[0] * scale, square)}, not a nonnegative integer"
                )
            row[t] = entry
        return row
