"""Finite groups from multiplication tables and the class algebra R(Gamma).

A group is specified by an order-N multiplication table over element ids
0..N-1 (id 0 need not be the identity; the identity is located and
validated).  Conjugacy classes are computed by orbit enumeration and
ordered deterministically: identity class first, then by least element
id.  On top of this sit exact class functions, the convolution product,
the Frobenius bilinear form and trace, the diagonal pushforwards
tau_{k*} (read off the structure constants of R(Gamma)), and the
Euler class.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .scalars import scalar_from_string, zeta


class GroupValidationError(ValueError):
    """Raised when a multiplication table fails a group axiom."""


class CharacterTableError(ValueError):
    """Raised when a character table fails an orthogonality check."""


class FiniteGroup:
    """A finite group given by an explicit multiplication table.

    All structural invariants (associativity, identity, inverses,
    conjugacy-orbit consistency) are verified at construction.
    """

    def __init__(self, mul, name="custom"):
        self.name = name
        self.mul = tuple(tuple(row) for row in mul)
        self.order = len(self.mul)
        self._validate_table()
        self.identity = self._find_identity()
        self.inv = self._find_inverses()
        self._check_associativity()
        self.classes = self._conjugacy_classes()
        self.num_classes = len(self.classes)
        self.class_of = [0] * self.order
        for cid, members in enumerate(self.classes):
            for x in members:
                self.class_of[x] = cid
        self.zeta = tuple(self.order // len(c) for c in self.classes)
        self.inv_class = tuple(
            self.class_of[self.inv[members[0]]] for members in self.classes
        )
        for cid in range(self.num_classes):
            if self.zeta[cid] != self.zeta[self.inv_class[cid]]:
                raise GroupValidationError(
                    f"centralizer orders differ on class {cid} and its inverse"
                )
        self.exponent = self._exponent()
        self.character_table = None
        self._structure_constants = None
        self.wreath_contexts = {}  # n -> wreath.WreathContext, filled on use

    # -- validation -------------------------------------------------

    def _validate_table(self):
        n = self.order
        if n == 0:
            raise GroupValidationError("empty multiplication table")
        for i, row in enumerate(self.mul):
            if len(row) != n:
                raise GroupValidationError(f"row {i} has length {len(row)} != {n}")
            for j, v in enumerate(row):
                if not (0 <= v < n):
                    raise GroupValidationError(
                        f"entry mul[{i}][{j}] = {v} out of range"
                    )

    def _find_identity(self):
        for e in range(self.order):
            if all(
                self.mul[e][x] == x and self.mul[x][e] == x
                for x in range(self.order)
            ):
                return e
        raise GroupValidationError("no two-sided identity element")

    def _find_inverses(self):
        e = self.identity
        inv = [None] * self.order
        for x in range(self.order):
            for y in range(self.order):
                if self.mul[x][y] == e and self.mul[y][x] == e:
                    inv[x] = y
                    break
            if inv[x] is None:
                raise GroupValidationError(f"element {x} has no inverse")
        return tuple(inv)

    def _check_associativity(self):
        mul = self.mul
        for a in range(self.order):
            for b in range(self.order):
                ab = mul[a][b]
                for c in range(self.order):
                    if mul[ab][c] != mul[a][mul[b][c]]:
                        raise GroupValidationError(
                            f"associativity fails on triple ({a}, {b}, {c})"
                        )

    def _conjugacy_classes(self):
        seen = [False] * self.order
        raw = []
        for x in range(self.order):
            if seen[x]:
                continue
            orbit = set()
            for a in range(self.order):
                orbit.add(self.mul[self.mul[a][x]][self.inv[a]])
            members = tuple(sorted(orbit))
            for y in members:
                seen[y] = True
            raw.append(members)
        raw.sort(key=lambda ms: (self.identity not in ms, ms[0]))
        for members in raw:
            if self.order % len(members) != 0:
                raise GroupValidationError("class size does not divide group order")
        return tuple(raw)

    def _exponent(self):
        exp = 1
        for x in range(self.order):
            k, y = 1, x
            while y != self.identity:
                y = self.mul[y][x]
                k += 1
            exp = lcm(exp, k)
        return exp

    # -- structure of R(Gamma) ---------------------------------------

    def class_rep(self, cid):
        return self.classes[cid][0]

    def structure_constants(self):
        """a[c][c'][c''] = #{(x, y) : x in c, y in c', xy = rep(c'')}."""
        if self._structure_constants is None:
            k = self.num_classes
            table = [[[0] * k for _ in range(k)] for _ in range(k)]
            reps = [self.class_rep(c) for c in range(k)]
            for x in range(self.order):
                cx = self.class_of[x]
                for cz, z in enumerate(reps):
                    # x * y = z  =>  y = x^{-1} z
                    y = self.mul[self.inv[x]][z]
                    table[cx][self.class_of[y]][cz] += 1
            self._structure_constants = table
        return self._structure_constants

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class ClassFunctionG(NamedTuple):
    """A class function on Gamma, as a tuple of values per class id.

    Equivalently the element sum_c values[c] * K^c of R(Gamma), where
    K^c is the class sum of class c.
    """

    group: FiniteGroup
    values: tuple

    def _check(self, other):
        if self.group is not other.group:
            raise ValueError("class functions over different groups")

    def __add__(self, other):
        self._check(other)
        return ClassFunctionG(
            self.group, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def scale(self, s):
        return ClassFunctionG(self.group, tuple(s * v for v in self.values))


def k_basis(group, cid):
    """The class sum K^c as a ClassFunctionG."""
    vals = [0] * group.num_classes
    vals[cid] = 1
    return ClassFunctionG(group, tuple(vals))


def unit_g(group):
    """The unit K^{c^0} of R(Gamma)."""
    return k_basis(group, 0)


def convolve_g(f, g):
    """Convolution product in R(Gamma) via integer structure constants."""
    f._check(g)
    group = f.group
    a = group.structure_constants()
    k = group.num_classes
    out = [Fraction(0)] * k
    for c1 in range(k):
        v1 = f.values[c1]
        if not v1:
            continue
        for c2 in range(k):
            v2 = g.values[c2]
            if not v2:
                continue
            row = a[c1][c2]
            prod = v1 * v2
            for c3 in range(k):
                if row[c3]:
                    out[c3] = out[c3] + prod * row[c3]
    return ClassFunctionG(group, tuple(out))


def bilinear_form(f, g):
    """<f, g> = sum_c zeta_c^{-1} f(c) g(c^{-1})."""
    f._check(g)
    group = f.group
    total = Fraction(0)
    for c in range(group.num_classes):
        v = f.values[c]
        w = g.values[group.inv_class[c]]
        if v and w:
            total = total + v * w * Fraction(1, group.zeta[c])
    return total


def trace_g(f):
    """Trace map with Tr(K^c) = delta_{c, c^0} / |Gamma|."""
    return f.values[0] * Fraction(1, f.group.order)


def pushforward_tauk(f, k):
    """tau_{k*} f as a sorted tuple of ((c_1, ..., c_k), coefficient)
    with no zero coefficient, by tau_{(j+1)*} = (tau_{2*} x id) tau_{j*}.

    tau_{2*} is adjoint to convolution under the bilinear form, and the
    dual of K^x is zeta_x K^{x^{-1}}, so the coefficient of
    K^{x^{-1}} x K^{y^{-1}} in tau_{2*} K^a is
    zeta_x zeta_y N[x][y][a^{-1}] / zeta_a, N the structure constants.
    """
    if k < 1:
        raise ValueError("arity must be >= 1")
    group = f.group
    table, zeta, inv = group.structure_constants(), group.zeta, group.inv_class
    data = {(c,): v for c, v in enumerate(f.values) if v}
    for _ in range(k - 1):
        new = {}
        for (a, *rest), coeff in data.items():
            for x, row in enumerate(table):
                for y, col in enumerate(row):
                    if col[inv[a]]:
                        key = (inv[x], inv[y], *rest)
                        val = coeff * Fraction(zeta[x] * zeta[y] * col[inv[a]], zeta[a])
                        new[key] = new[key] + val if key in new else val
        data = {key: v for key, v in new.items() if v}
    return tuple(sorted(data.items()))


def euler_class(group):
    """chi = (convolution o tau_{2*})(1), computed in the K basis."""
    out = ClassFunctionG(group, tuple(Fraction(0) for _ in range(group.num_classes)))
    for (a, b), coeff in pushforward_tauk(unit_g(group), 2):
        out = out + convolve_g(k_basis(group, a), k_basis(group, b)).scale(coeff)
    return out


class CharacterTable:
    """Irreducible characters of Gamma with exact orthogonality checks."""

    def __init__(self, group, rows):
        self.group = group
        self.rows = tuple(ClassFunctionG(group, tuple(r)) for r in rows)
        self._validate()
        self.degrees = tuple(r.values[0] for r in self.rows)
        hs = []
        for d in self.degrees:
            h = Fraction(group.order, 1) / d
            if not isinstance(h, Fraction) or h.denominator != 1 or h <= 0:
                raise CharacterTableError(f"h = |Gamma|/degree = {h} is not a positive integer")
            hs.append(int(h))
        self.h = tuple(hs)

    def _validate(self):
        group = self.group
        if len(self.rows) != group.num_classes:
            raise CharacterTableError(
                f"{len(self.rows)} rows for {group.num_classes} classes"
            )
        for i, r in enumerate(self.rows):
            if len(r.values) != group.num_classes:
                raise CharacterTableError(
                    f"row {i} has {len(r.values)} values "
                    f"for {group.num_classes} classes"
                )
        for i, r in enumerate(self.rows):
            for j, s in enumerate(self.rows):
                val = bilinear_form(r, s)
                want = 1 if i == j else 0
                if val != want:
                    raise CharacterTableError(
                        f"row orthonormality fails on rows ({i}, {j}): <,> = {val}"
                    )
        for c in range(group.num_classes):
            for cp in range(group.num_classes):
                total = 0
                for r in self.rows:
                    total = total + r.values[cp] * r.values[group.inv_class[c]]
                want = group.zeta[c] if c == cp else 0
                if total != want:
                    raise CharacterTableError(
                        f"column relation fails on classes ({c}, {cp})"
                    )
        if any(v != 1 for v in self.rows[0].values):
            raise CharacterTableError("row 0 is not the trivial character")

    def irreducible(self, i):
        return self.rows[i]


def require_character_table(group):
    if group.character_table is None:
        raise CharacterTableError(
            f"character table required for group {group.name}"
        )
    return group.character_table


# -- presets ---------------------------------------------------------


def _cyclic_group(k):
    mul = [[(i + j) % k for j in range(k)] for i in range(k)]
    return FiniteGroup(mul, name=f"cyclic{k}")


def _cyclic_characters(k):
    return [[zeta(k, (i * j) % k) if k > 1 else Fraction(1) for j in range(k)]
            for i in range(k)]


def _perm_mul(p, q):
    # (p q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(p)))


def _sym3_group():
    elems = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}
    mul = [[index[_perm_mul(p, q)] for q in elems] for p in elems]
    return FiniteGroup(mul, name="sym3")


_SYM3_CHARACTERS = [
    # classes: identity, transpositions, 3-cycles
    [1, 1, 1],
    [1, -1, 1],
    [2, 0, -1],
]


def _dihedral8_group():
    # elements: r^i (ids 0..3), r^i s (ids 4..7); s r = r^{-1} s
    def mul(a, b):
        ia, fa = a % 4, a // 4
        ib, fb = b % 4, b // 4
        if fa == 0:
            return ((ia + ib) % 4) + 4 * fb
        return ((ia - ib) % 4) + 4 * (1 - fb)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return FiniteGroup(table, name="dihedral8")


_DIHEDRAL8_CHARACTERS = [
    # classes: {e}, {r, r^3}, {r^2}, {s, r^2 s}, {r s, r^3 s}
    [1, 1, 1, 1, 1],
    [1, 1, 1, -1, -1],
    [1, -1, 1, 1, -1],
    [1, -1, 1, -1, 1],
    [2, 0, -2, 0, 0],
]


def _quaternion8_group():
    # ids: 1, i, j, k, -1, -i, -j, -k
    basis_mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def mul(a, b):
        sa, ba = (1 if a < 4 else -1), a % 4
        sb, bb = (1 if b < 4 else -1), b % 4
        s, bc = basis_mul[(ba, bb)]
        s *= sa * sb
        return bc if s == 1 else bc + 4

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return FiniteGroup(table, name="quaternion8")


_QUATERNION8_CHARACTERS = [
    # classes: {1}, {i, -i}, {j, -j}, {k, -k}, {-1}
    [1, 1, 1, 1, 1],
    [1, 1, -1, -1, 1],
    [1, -1, 1, -1, 1],
    [1, -1, -1, 1, 1],
    [2, 0, 0, 0, -2],
]


PRESETS = (
    "trivial",
    "cyclic2",
    "cyclic3",
    "cyclic4",
    "cyclic5",
    "cyclic6",
    "sym3",
    "dihedral8",
    "quaternion8",
)


def load_group(source):
    """Load a group from a preset name (built once) or a
    multiplication-table file (parsed on every call)."""
    group = _load_preset(source)
    if group is not None:
        return group
    try:
        return _load_group_file(source)
    except (GroupValidationError, CharacterTableError) as exc:
        raise type(exc)(f"{source}: {exc}") from None
    except UnicodeDecodeError as exc:  # built from the codec state, not a message
        raise ValueError(f"{source}: {exc}") from None


@lru_cache(maxsize=None)
def _load_preset(source):
    """The preset group named source, or None if source names none."""
    if source == "trivial":
        group = FiniteGroup([[0]], name="trivial")
        rows = [[Fraction(1)]]
    elif source.startswith("cyclic") and source[6:].isdigit():
        k = int(source[6:])
        if not 2 <= k <= 6:
            raise ValueError(f"cyclic preset supports k in 2..6, got {k}")
        group = _cyclic_group(k)
        rows = _cyclic_characters(k)
    elif source == "sym3":
        group = _sym3_group()
        rows = _SYM3_CHARACTERS
    elif source == "dihedral8":
        group = _dihedral8_group()
        rows = _DIHEDRAL8_CHARACTERS
    elif source == "quaternion8":
        group = _quaternion8_group()
        rows = _QUATERNION8_CHARACTERS
    else:
        return None
    group.character_table = CharacterTable(group, rows)
    return group


def _load_group_file(path):
    """Parse a group table file; see the README for the grammar."""
    with open(path, encoding="utf-8") as fh:
        numbered = [(k, ln.strip()) for k, ln in enumerate(fh, 1)]
    numbered = [(k, ln) for k, ln in numbered if ln and not ln.startswith("#")]
    lines = [ln for _, ln in numbered]

    def entries(i, sep, value):
        """The entries of data line i, each read by value."""
        try:
            return [value(part) for part in lines[i].split(sep)]
        except ValueError as exc:
            raise ValueError(f"{path}: line {numbered[i][0]}: {exc}") from None

    head = re.fullmatch(r"order\s+([0-9]+)", lines[0]) if lines else None
    if head is None or int(head[1]) < 1:
        got = repr(lines[0]) if lines else "an empty file"
        raise ValueError(f"{path}: expected an 'order <N>' header with N >= 1, got {got}")
    n = int(head[1])
    if len(lines) < 1 + n:
        raise ValueError(f"{path}: expected {n} table rows")
    mul = [entries(i, None, int) for i in range(1, 1 + n)]
    for (k, _), row in zip(numbered[1:], mul):
        if len(row) != n:
            raise ValueError(f"{path}: line {k}: {len(row)} entries, expected {n}")
    group = FiniteGroup(mul, name=path)
    rest = lines[1 + n:]
    if rest:
        head = re.fullmatch(r"characters(?:\s+conductor\s+([+-]?\d+))?", rest[0])
        if head is None:
            raise ValueError(
                f"{path}: expected 'characters' or 'characters conductor <m>', "
                f"got {rest[0]!r}"
            )
        conductor = int(head[1] or 1)
        if conductor < 1:
            raise ValueError(
                f"{path}: conductor must be a positive integer, got {conductor}"
            )
        if 2 * group.exponent % conductor:  # Q(zeta_e) = Q(zeta_2e), e odd
            raise ValueError(
                f"{path}: conductor {conductor} does not divide twice the "
                f"group exponent {group.exponent}"
            )
        rows = [
            entries(i, ",", lambda part: scalar_from_string(part, conductor))
            for i in range(2 + n, len(lines))
        ]
        group.character_table = CharacterTable(group, rows)
    return group


