"""Finitely generated abelian grading groups Z^r x Z_m1 x ... x Z_mk.

A :class:`GradingGroup` fixes the coordinate shape; a :class:`GroupElement`
is an immutable coordinate vector (free part over Z, torsion part reduced mod
the moduli) usable as a dict key.  Text forms:

* group literal   ``Z^2 x Z_2 x Z_4`` (also plain ``Z`` for rank one)
* element literal ``([a1,...,ar];[b1,...,bk])``

:func:`subgroup_invariants` computes the isomorphism type of the subgroup
generated by a list of elements via Hermite/Smith normal forms over Z; the
result ``(free_rank, invariant_factors)`` is independent of generator order
and redundancy, which is what catalog checks compare against expected groups.
"""

from __future__ import annotations

import re
from math import gcd

from .errors import GroupError, _quote

__all__ = [
    "GradingGroup",
    "GroupElement",
    "parse_group",
    "parse_element",
    "subgroup_invariants",
    "invariant_factors_of",
    "group_signature",
]


class GradingGroup:
    """Shape of a grading group: free rank plus a tuple of torsion moduli."""

    __slots__ = ("free_rank", "moduli")

    def __init__(self, free_rank, moduli=()):
        free_rank = int(free_rank)
        moduli = tuple(int(m) for m in moduli)
        if free_rank < 0:
            raise GroupError("negative free rank")
        if any(m < 2 for m in moduli):
            raise GroupError("torsion moduli must be >= 2, got %s" % _quote(moduli))
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "moduli", moduli)

    def __setattr__(self, *args):
        raise AttributeError("GradingGroup is immutable")

    def element(self, free=(), torsion=()):
        return GroupElement(self, free, torsion)

    def zero(self):
        return GroupElement(self, (0,) * self.free_rank, (0,) * len(self.moduli))

    def __eq__(self, other):
        return (
            isinstance(other, GradingGroup)
            and self.free_rank == other.free_rank
            and self.moduli == other.moduli
        )

    def __hash__(self):
        return hash((self.free_rank, self.moduli))

    def literal(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 0:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z_%d" % m for m in self.moduli)
        if not parts:
            return "Z^0"
        return " x ".join(parts)

    def __repr__(self):
        return "GradingGroup(%s)" % self.literal()

    def parse_element(self, text):
        return parse_element(self, text)

    def elements(self):
        """All elements (finite groups only)."""
        if self.free_rank:
            raise GroupError("cannot enumerate an infinite group")
        out = [self.zero()]
        for idx, m in enumerate(self.moduli):
            new = []
            for e in out:
                for v in range(m):
                    t = list(e.torsion)
                    t[idx] = v
                    new.append(self.element((), t))
            out = new
        return out


class GroupElement:
    __slots__ = ("group", "free", "torsion", "_hash")

    def __init__(self, group, free=(), torsion=()):
        free = tuple(int(v) for v in free)
        torsion = tuple(int(v) for v in torsion)
        if len(free) != group.free_rank or len(torsion) != len(group.moduli):
            raise GroupError(
                "element arity (%d;%d) does not match group %s"
                % (len(free), len(torsion), _quote(group.literal()))
            )
        torsion = tuple(v % m for v, m in zip(torsion, group.moduli))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "_hash", hash((free, torsion)))

    def __setattr__(self, *args):
        raise AttributeError("GroupElement is immutable")

    def _check(self, other):
        if not isinstance(other, GroupElement) or other.group != self.group:
            raise GroupError("elements belong to different groups")

    def __add__(self, other):
        self._check(other)
        return GroupElement(
            self.group,
            tuple(x + y for x, y in zip(self.free, other.free)),
            tuple(x + y for x, y in zip(self.torsion, other.torsion)),
        )

    def __neg__(self):
        return GroupElement(
            self.group,
            tuple(-x for x in self.free),
            tuple(-x for x in self.torsion),
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, k):
        k = int(k)
        return GroupElement(
            self.group,
            tuple(k * x for x in self.free),
            tuple(k * x for x in self.torsion),
        )

    __rmul__ = __mul__

    def is_zero(self):
        return not any(self.free) and not any(self.torsion)

    def order(self):
        """Order of the element; None when infinite."""
        if any(self.free):
            return None
        n = 1
        for v, m in zip(self.torsion, self.group.moduli):
            if v:
                n = n * (m // gcd(m, v)) // gcd(n, m // gcd(m, v))
        return n

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return (
            self.group == other.group
            and self.free == other.free
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return self._hash

    def literal(self):
        return "([%s];[%s])" % (
            ",".join(str(v) for v in self.free),
            ",".join(str(v) for v in self.torsion),
        )

    def __repr__(self):
        return self.literal()


_GROUP_SEG = re.compile(r"^(Z(\^(\d+))?|Z_(\d+))$")


def parse_group(text):
    """Parse a group literal like ``Z^2 x Z_2 x Z_4``."""
    free = 0
    moduli = []
    seen_torsion = False
    for seg in text.split("x"):
        seg = seg.strip()
        if not seg:
            raise GroupError("empty segment in group literal %s" % _quote(text))
        m = _GROUP_SEG.match(seg)
        if not m:
            raise GroupError("bad segment %s in group literal %s"
                             % (_quote(seg), _quote(text)))
        try:
            value = int(m.group(4) or m.group(3) or 1)
        except ValueError:  # over the interpreter's limit on integer digits
            raise GroupError("integer too long in group literal %s" % _quote(text)) from None
        if m.group(4) is not None:
            moduli.append(value)
            seen_torsion = True
        else:
            if seen_torsion:
                raise GroupError(
                    "free factors must precede torsion factors in %s" % _quote(text)
                )
            free += value
    return GradingGroup(free, moduli)


_ELT = re.compile(r"^\(\[(.*?)\];\[(.*?)\]\)$")


def parse_element(group, text):
    """Parse an element literal ``([a1,...];[b1,...])`` for the given group."""
    m = _ELT.match(text.strip().replace(" ", ""))
    if not m:
        raise GroupError("bad element literal %s" % _quote(text))

    def ints(chunk):
        if not chunk:
            return ()
        try:
            return tuple(int(v) for v in chunk.split(","))
        except ValueError:
            raise GroupError("bad integer list in element literal %s" % _quote(text)) from None

    return GroupElement(group, ints(m.group(1)), ints(m.group(2)))


# ---------------------------------------------------------------------------
# integer normal forms
# ---------------------------------------------------------------------------


def _hnf(rows):
    """Row Hermite normal form; returns the list of nonzero basis rows."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        # euclidean elimination in column c among rows >= r
        while True:
            nz = [i for i in range(r, len(mat)) if mat[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][c]))
            mat[r], mat[i0] = mat[i0], mat[r]
            done = True
            for i in range(r + 1, len(mat)):
                if mat[i][c]:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
                    if mat[i][c]:
                        done = False
            if done:
                break
        if r < len(mat) and mat[r][c] != 0:
            if mat[r][c] < 0:
                mat[r] = [-x for x in mat[r]]
            for i in range(r):
                q = mat[i][c] // mat[r][c]
                if q:
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
            r += 1
            if r == len(mat):
                break
    return [row for row in mat[:r] if any(row)]


def _solve_in_hnf(basis, v):
    """Integer coordinates of v over an HNF basis; GroupError when v is outside."""
    v = list(v)
    coords = []
    pivots = [next(i for i, x in enumerate(row) if x) for row in basis]
    for row, p in zip(basis, pivots):
        if v[p] % row[p] != 0:
            raise GroupError("vector not in lattice")
        q = v[p] // row[p]
        coords.append(q)
        v = [x - q * y for x, y in zip(v, row)]
    if any(v):
        raise GroupError("vector not in lattice")
    return coords


def _snf_diagonal(rows):
    """Diagonal of the Smith normal form (nonnegative, divisibility chain)."""
    mat = [list(r) for r in rows]
    mat = [r for r in mat if any(r)]
    diag = []
    while mat and mat[0]:
        # locate minimal nonzero entry
        best = None
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                if x and (best is None or abs(x) < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        mat[0], mat[i0] = mat[i0], mat[0]
        for row in mat:
            row[0], row[j0] = row[j0], row[0]
        # clear first column and row
        dirty = False
        for i in range(1, len(mat)):
            if mat[i][0]:
                q = mat[i][0] // mat[0][0]
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[0])]
                if mat[i][0]:
                    dirty = True
        for j in range(1, len(mat[0])):
            if mat[0][j]:
                q = mat[0][j] // mat[0][0]
                for row in mat:
                    row[j] -= q * row[0]
                if mat[0][j]:
                    dirty = True
        if dirty:
            continue
        # ensure pivot divides the rest of the matrix
        pivot = abs(mat[0][0])
        offender = None
        for i in range(1, len(mat)):
            for j in range(1, len(mat[0])):
                if mat[i][j] % pivot:
                    offender = i
                    break
            if offender:
                break
        if offender:
            mat[0] = [x + y for x, y in zip(mat[0], mat[offender])]
            continue
        diag.append(pivot)
        mat = [row[1:] for row in mat[1:] if any(row[1:])]
    return diag


def subgroup_invariants(group, elements):
    """Isomorphism type (free_rank, invariant_factors) of <elements> in group.

    Invariant factors come in a divisibility chain d1 | d2 | ... with di > 1.
    """
    r, mods = group.free_rank, group.moduli
    n = r + len(mods)
    rows = [list(e.free) + list(e.torsion) for e in elements]
    rel = []
    for idx, m in enumerate(mods):
        row = [0] * n
        row[r + idx] = m
        rel.append(row)
    basis = _hnf(rows + rel)
    if not basis:
        return (0, ())
    coords = [_solve_in_hnf(basis, v) for v in rel]
    diag = _snf_diagonal(coords) if coords else []
    free_rank = len(basis) - len(diag)
    factors = tuple(d for d in diag if d > 1)
    return (free_rank, factors)


def invariant_factors_of(moduli):
    """Canonical invariant factors of the finite group prod Z_mi."""
    g = GradingGroup(0, tuple(moduli)) if moduli else GradingGroup(0, ())
    gens = []
    for idx in range(len(g.moduli)):
        t = [0] * len(g.moduli)
        t[idx] = 1
        gens.append(g.element((), t))
    return subgroup_invariants(g, gens)[1]


def group_signature(spec):
    """(free_rank, canonical invariant factors) of a group literal or group."""
    g = parse_group(spec) if isinstance(spec, str) else spec
    return (g.free_rank, invariant_factors_of(g.moduli))
