"""Wreath products Gamma_n = Gamma wr S_n: elements, types, enumeration.

An element is (g, sigma) with g a tuple of n element ids of Gamma and
sigma a permutation of {0..n-1} in one-line form, acting on the left:
(g, sigma)(h, tau) = (g . sigma(h), sigma tau) with sigma(h)_i =
h_{sigma^{-1}(i)}.  Cycle products multiply right-to-left along a
cycle; the type records, per Gamma-class, the partition of cycle
lengths.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import NamedTuple

from .partitions import (
    Partition,
    TypeFunction,
    class_size,
    enumerate_types,
)

DEFAULT_ENUMERATION_CAP = 10**6


def enumeration_cap():
    """The active enumeration cap (environment override honored)."""
    import os

    value = os.environ.get("CLASSALG_ENUM_CAP")
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
    """(g, sigma)(h, tau) = (g . sigma(h), sigma tau)."""
    if x.n != y.n:
        raise ValueError("level mismatch in wreath multiplication")
    sigma_inv = _perm_inverse(x.sigma)
    g = tuple(
        group.mul[x.g[i]][y.g[sigma_inv[i]]] for i in range(x.n)
    )
    sigma = tuple(x.sigma[y.sigma[i]] for i in range(x.n))
    return WreathElement(g, sigma)


def wreath_inv(group, x):
    """(g, sigma)^{-1} = (sigma^{-1}(g^{-1}), sigma^{-1})."""
    sigma_inv = _perm_inverse(x.sigma)
    g = tuple(group.inv[x.g[x.sigma[i]]] for i in range(x.n))
    return WreathElement(g, sigma_inv)


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


def type_of(group, x):
    """The conjugacy type of x in Gamma_n."""
    data = {}
    for cyc in permutation_cycles(x.sigma):
        c = cycle_product(group, x, cyc)
        data.setdefault(c, []).append(len(cyc))
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


def enumerate_group(group, n, cap=None):
    """All elements of Gamma_n (resource-capped)."""
    if cap is None:
        cap = enumeration_cap()
    size = wreath_order(group, n)
    if size > cap:
        raise ResourceCapError(
            f"|Gamma_{n}| = {size} exceeds enumeration cap {cap}"
        )
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
    """Caches per (group, n): types, representatives, class table.

    The class multiplication table N[rho][sigma][nu] counts
    #{a in C_rho : a^{-1} x_nu in C_sigma} for the canonical
    representative x_nu, i.e. the structure constants of the class sums
    K^rho in the center of C[Gamma_n].
    """

    _instances = {}

    def __init__(self, group, n):
        self.group = group
        self.n = n
        self.types = enumerate_types(group, n)
        self.type_index = {rho: i for i, rho in enumerate(self.types)}
        self.reps = [canonical_representative(group, rho, n) for rho in self.types]
        self.order = wreath_order(group, n)
        self._structure = None
        self._element_types = None

    @classmethod
    def get(cls, group, n):
        key = (id(group), n)
        if key not in cls._instances:
            cls._instances[key] = cls(group, n)
        return cls._instances[key]

    def class_sizes(self):
        return [class_size(rho, self.group, self.n) for rho in self.types]

    def structure_constants(self):
        """N[r][s][t] with K^{rho_r} K^{rho_s} = sum_t N[r][s][t] K^{rho_t}."""
        if self._structure is not None:
            return self._structure
        if self.n == 0:
            self._structure = [[[1]]]
            return self._structure
        k = len(self.types)
        table = [[[0] * k for _ in range(k)] for _ in range(k)]
        group = self.group
        for a in self._elements_with_types():
            x, r = a
            xinv = wreath_inv(group, x)
            for t, z in enumerate(self.reps):
                y = wreath_mul(group, xinv, z)
                s = self.type_index[type_of(group, y)]
                table[r][s][t] += 1
        self._structure = table
        return table

    def _elements_with_types(self):
        if self._element_types is None:
            self._element_types = [
                (x, self.type_index[type_of(self.group, x)])
                for x in enumerate_group(self.group, self.n)
            ]
        return self._element_types
