"""Partitions and partition-valued type functions on conjugacy classes.

A TypeFunction maps class ids of Gamma to partitions; it indexes both
the conjugacy classes of the wreath product Gamma_n (when its total
size is n) and the basis of the stable algebra (any total size).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial


class Partition:
    """A weakly decreasing tuple of positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(sorted((int(p) for p in parts), reverse=True))
        if any(p <= 0 for p in parts):
            raise ValueError("partition parts must be positive")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, *a):
        raise AttributeError("Partition is immutable")

    @property
    def size(self):
        return sum(self.parts)

    @property
    def length(self):
        return len(self.parts)

    def multiplicity(self, r):
        return self.parts.count(r)

    def multiplicities(self):
        out = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def z(self):
        """z_lambda = prod_i i^{m_i} m_i!."""
        out = 1
        for i, m in self.multiplicities().items():
            out *= i**m * factorial(m)
        return out

    def add_part(self, r):
        return Partition(self.parts + (r,))

    def remove_part(self, r):
        """Remove one part equal to r, or None if absent."""
        lst = list(self.parts)
        try:
            lst.remove(r)
        except ValueError:
            return None
        return Partition(lst)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


EMPTY_PARTITION = Partition()


@lru_cache(maxsize=None)
def partitions_of(n):
    """All partitions of n, in deterministic (lexicographically sorted) order."""
    if n == 0:
        return (EMPTY_PARTITION,)
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(Partition(acc))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, acc + (p,))

    rec(n, n, ())
    return tuple(sorted(out, key=lambda lam: lam.parts))


_TYPES = {}  # items -> the one TypeFunction with those items


class TypeFunction:
    """A map class id -> Partition with empty partitions never stored.

    Hashable; sort_key orders types by total size, then lexicographically
    over class ids and partitions, for deterministic output.  norm is
    ||rho||, the sum of all part sizes over all classes, kept like the
    hash because the type is immutable.  For the same reason a type is
    built once: the constructor returns the one instance with its items,
    and add_part and remove_part keep each result, so the Fock
    operators, which edit the same types again and again, rebuild none.
    """

    __slots__ = ("items", "_hash", "norm", "_edits")

    def __new__(cls, mapping=()):
        if isinstance(mapping, dict):
            mapping = mapping.items()
        items = tuple(
            sorted(
                ((int(c), lam) for c, lam in mapping if lam.parts),
                key=lambda item: item[0],
            )
        )
        cids = [c for c, _ in items]
        if len(set(cids)) != len(cids):
            raise ValueError("duplicate class id in type function")
        return cls._of(items)

    @classmethod
    def _of(cls, items):
        """The type with these items, sorted by class id and free of
        empty partitions."""
        self = _TYPES.get(items)
        if self is None:
            self = _TYPES[items] = object.__new__(cls)
            object.__setattr__(self, "items", items)
            object.__setattr__(self, "_hash", hash(items))
            object.__setattr__(self, "norm", sum(lam.size for _, lam in items))
            object.__setattr__(self, "_edits", None)
        return self

    def __setattr__(self, *a):
        raise AttributeError("TypeFunction is immutable")

    def partition(self, cid):
        for c, lam in self.items:
            if c == cid:
                return lam
        return EMPTY_PARTITION

    def ztilde(self):
        """z~_rho = prod_c z_{rho(c)}."""
        out = 1
        for _, lam in self.items:
            out *= lam.z()
        return out

    def centralizer_order(self, group):
        """Z_rho = prod_c z_{rho(c)} zeta_c^{l(rho(c))}."""
        out = 1
        for c, lam in self.items:
            out *= lam.z() * group.zeta[c] ** lam.length
        return out

    def multiplicity(self, r, cid):
        return self.partition(cid).multiplicity(r)

    def _keep(self, key, edited):
        """Memoize the result of one edit under key, (True, r, cid) for
        adding an r-part at class cid and (False, r, cid) for removing
        one."""
        if self._edits is None:
            object.__setattr__(self, "_edits", {})
        self._edits[key] = edited
        return edited

    def _replaced(self, cid, lam):
        """The type with the partition at class cid replaced by lam."""
        items = [item for item in self.items if item[0] != cid]
        if lam.parts:
            at = sum(1 for c, _ in items if c < cid)
            items.insert(at, (cid, lam))
        return TypeFunction._of(tuple(items))

    def add_part(self, r, cid):
        key = (True, r, cid)
        if self._edits is not None and key in self._edits:
            return self._edits[key]
        return self._keep(key, self._replaced(cid, self.partition(cid).add_part(r)))

    def remove_part(self, r, cid):
        """Remove one r-part at class cid, or None if absent."""
        key = (False, r, cid)
        if self._edits is not None and key in self._edits:
            return self._edits[key]
        lam = self.partition(cid).remove_part(r)
        return self._keep(key, None if lam is None else self._replaced(cid, lam))

    def inverse(self, group):
        """Type of x^{-1}: partitions move to the inverse classes."""
        return TypeFunction(
            {group.inv_class[c]: lam for c, lam in self.items}
        )

    def pad_to(self, n):
        """rho~ = rho with (n - ||rho||) extra 1-parts at the identity class."""
        extra = n - self.norm
        if extra < 0:
            raise ValueError("cannot pad: ||rho|| exceeds n")
        if extra == 0:
            return self
        data = dict(self.items)
        base = data.get(0, EMPTY_PARTITION)
        data[0] = Partition(base.parts + (1,) * extra)
        return TypeFunction(data)

    def sort_key(self):
        return (self.norm, self.items_key())

    def items_key(self):
        return tuple((c, lam.parts) for c, lam in self.items)

    def __eq__(self, other):
        return isinstance(other, TypeFunction) and self.items == other.items

    def __hash__(self):
        return self._hash

    def label(self):
        """Compact deterministic string label, e.g. 'c0:[2,1]|c1:[1]'."""
        if not self.items:
            return "empty"
        return "|".join(
            f"c{c}:[{','.join(str(p) for p in lam.parts)}]"
            for c, lam in self.items
        )

    def __repr__(self):
        return f"TypeFunction({self.label()})"


EMPTY_TYPE = TypeFunction()


@lru_cache(maxsize=None)
def _types_cached(num_classes, n):
    def rec(cid, remaining):
        if cid == num_classes - 1:
            return [((cid, lam),) if lam.parts else ()
                    for lam in partitions_of(remaining)]
        out = []
        for take in range(remaining + 1):
            for lam in partitions_of(take):
                head = ((cid, lam),) if lam.parts else ()
                for tail in rec(cid + 1, remaining - take):
                    out.append(head + tail)
        return out

    types = [TypeFunction(items) for items in rec(0, n)]
    return tuple(sorted(types, key=TypeFunction.sort_key))


def enumerate_types(group, n):
    """All of P_n(Gamma_*): types of total size exactly n, sorted."""
    return _types_cached(group.num_classes, n)


def enumerate_types_upto(group, cap):
    """All types with ||rho|| <= cap, sorted."""
    out = []
    for n in range(cap + 1):
        out.extend(enumerate_types(group, n))
    return tuple(out)


def class_size(rho, group, n=None):
    """|C_rho| in Gamma_n, where n defaults to ||rho||."""
    if n is None:
        n = rho.norm
    if rho.norm != n:
        raise ValueError("class_size requires ||rho|| = n")
    order_gn = factorial(n) * group.order**n
    z = rho.centralizer_order(group)
    size, rest = divmod(order_gn, z)
    if rest:
        raise ArithmeticError(f"centralizer order {z} does not divide |Gamma_{n}|")
    return size
