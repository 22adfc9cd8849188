"""The finite-group facts used by the grading classification: maximal
abelian subgroups of (Q_8)^3/K and of (F^x times Q_8^2)/K, and the two
F_2-subspace lemmas behind them.

Quaternion-group elements are pairs (axis, sign) with axis in {1, i, j, k};
an element of (Q_8)^3/K, with K the triples of signs with product one, is
stored canonically as (axis1, axis2, axis3, s) where s folds the product of
the three signs.

Modulo their centres the groups are F_2^6 and F_2^4, one F_2^2 block per
Q_8, and two elements commute iff the symplectic form sum_i det(x_i, y_i)
vanishes.  One search, ``_maximal_closed``, finds the maximal closed sets of
both routes from a multiplication table, one commuting bitmask per element
and a start set: a closed set A is a bitmask over the elements, and <A, x>
for x commuting with A is the union of the x^k A.  The subspace lemmas run it
on F_2^{2b} under XOR with the orthogonal masks of the form, certified first
against the pair test on every pair, so that isotropy is tested on a basis.
The group route runs it on the multiplication table and commuting masks of
(Q_8)^3/K, from the centre, which every maximal abelian subgroup contains.

Both group records sort their maximal abelian subgroups into orbits by a
breadth-first pass over index maps.  The pass runs on generators only: two
automorphisms that generate Aut(Q_8), on one slot or block, and for
(Q_8)^3/K the two coordinate permutations that generate S_3 and carry slot 0
to the other slots.  Each generating claim is certified by closing the
generators under composition, and each carrying claim by comparing index
tables; a failure raises :class:`GroupError` naming the generators.
"""

from itertools import combinations, permutations, product

from .errors import GroupError

# quaternion multiplication on axes 0..3 = 1, i, j, k: axis and sign bit
_QAX = (
    (0, 1, 2, 3),
    (1, 0, 3, 2),
    (2, 3, 0, 1),
    (3, 2, 1, 0),
)
_QSG = (
    (0, 0, 0, 0),
    (0, 1, 0, 1),
    (0, 1, 1, 0),
    (0, 0, 1, 1),
)

__all__ = [
    "q8_mul",
    "q8_automorphisms",
    "Q83K",
    "maximal_abelian_Q83K",
    "f2_subspace_cases",
    "maximal_abelian_FxQ82K",
]


def q8_mul(x, y):
    """Product in Q_8 of (axis, sign) pairs."""
    (a, s), (b, t) = x, y
    return (_QAX[a][b], s ^ t ^ _QSG[a][b])


def q8_automorphisms():
    """All 24 automorphisms of Q_8, each a dict on (axis, sign) pairs."""
    autos = []
    units = [(a, s) for a in (1, 2, 3) for s in (0, 1)]
    for fi in units:
        for fj in units:
            if fj[0] == fi[0]:
                continue
            images = {(0, 0): (0, 0), (1, 0): fi, (2, 0): fj,
                      (3, 0): q8_mul(fi, fj)}
            phi = {}
            for a in range(4):
                b, t = images[(a, 0)]
                phi[(a, 0)] = (b, t)
                phi[(a, 1)] = (b, t ^ 1)
            for x in phi:
                for y in phi:
                    if phi[q8_mul(x, y)] != q8_mul(phi[x], phi[y]):
                        raise GroupError("generated map is not multiplicative")
            autos.append(phi)
    return autos


# q8_automorphisms() indices of a pair that generates Aut(Q_8) = S_4
_AUT_GENERATORS = (2, 8)
# the coordinate permutations of (Q_8)^3/K: they generate S_3, and
# conjugating a slot-0 map by them gives the slot-1 and slot-2 maps
_SLOT_PERMUTATIONS = ((1, 0, 2), (1, 2, 0))


def _certify_generators(gens, group, what, name):
    """Raise unless the index tables ``gens`` generate exactly ``group``: their
    closure under composition (finite, so the inverses are powers)."""
    generated = set(gens)
    frontier = list(generated)
    while frontier:
        f = frontier.pop()
        for g in gens:
            h = tuple(g[x] for x in f)
            if h not in generated:
                generated.add(h)
                frontier.append(h)
    if generated != group:
        raise GroupError(
            "%s generate %d maps, not the %d of %s"
            % (what, len(generated), len(group), name)
        )


def _q8_table(phi):
    """A Q_8-automorphism as an index table on the elements 2 * axis + sign."""
    return tuple(2 * b + t for b, t in (phi[(a, s)] for a in range(4) for s in range(2)))


def _axis_table(phi):
    """The map a Q_8-automorphism induces on the axes, that is on Q_8 modulo
    its centre, F_2^2 with i, j, k = 1, 2, 3."""
    return tuple(phi[(a, 0)][0] for a in range(4))


def _aut_generators(autos):
    """The automorphisms ``autos[k]`` for k in ``_AUT_GENERATORS``, certified
    to generate all 24 of ``autos``; returns them with a label naming them."""
    gens = [autos[k] for k in _AUT_GENERATORS]
    label = "Q_8-automorphisms %s" % " and ".join(map(str, _AUT_GENERATORS))
    _certify_generators(
        [_q8_table(phi) for phi in gens], {_q8_table(phi) for phi in autos},
        label, "Aut(Q_8)",
    )
    return gens, label


def _orbits(subsets, maps):
    """Orbits of a set of frozensets under the group generated by index maps."""
    remaining = set(subsets)
    orbits = []
    while remaining:
        orbit = {remaining.pop()}
        frontier = list(orbit)
        while frontier:
            A = frontier.pop()
            for table in maps:
                B = frozenset(table[a] for a in A)
                if B not in orbit:
                    orbit.add(B)
                    frontier.append(B)
        remaining -= orbit
        orbits.append(orbit)
    return orbits


def _bits(mask):
    """Indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _extension(mul, A, elems, x):
    """<A, x> for a closed set A (a bitmask with its element list ``elems``)
    and an element x commuting with it, under the multiplication table
    ``mul``: the union of the cosets x^k A, up to the first power of x that
    is already inside.  Returns the bitmask and the element list."""
    out, out_elems, y = A, list(elems), x
    while not (out >> y) & 1:
        row = mul[y]
        for a in elems:
            out |= 1 << row[a]
            out_elems.append(row[a])
        y = row[x]
    return out, out_elems


def _maximal_closed(mul, comm, start):
    """The bitmasks of every closed set the search reaches from ``start``,
    and the maximal ones as frozensets of element indices.

    ``mul`` is a multiplication table on element indices, ``comm[x]`` the
    bitmask of the elements that commute with x, and ``start`` lists a
    closed set of elements that commute with every element.  A reached set
    A, a bitmask with its element list, is grown into <A, x> by one element
    x per coset xA of the elements outside A that commute with all of A; A
    is maximal when there is none."""
    first = sum(1 << a for a in start)
    seen = {first}
    maximal = set()
    stack = [(first, list(start), (1 << len(mul)) - 1)]
    while stack:
        A, elems, cent = stack.pop()
        ext = cent & ~A
        if not ext:
            maximal.add(frozenset(elems))
        while ext:
            x = (ext & -ext).bit_length() - 1
            row = mul[x]
            for a in elems:
                ext &= ~(1 << row[a])
            C, C_elems = _extension(mul, A, elems, x)
            if C not in seen:
                seen.add(C)
                stack.append((C, C_elems, cent & comm[x]))
    return seen, maximal


class Q83K:
    """The order-128 group (Q_8)^3/K on canonical coset representatives."""

    def __init__(self):
        elems = tuple(product(range(4), range(4), range(4), range(2)))
        self.elements = elems
        self.index = {g: k for k, g in enumerate(elems)}
        self.identity = self.index[(0, 0, 0, 0)]
        n = len(elems)
        # the axis and sign products of the three slots, read off the Q_8
        # table; (a1, a2, a3, s) sits at index ((a1 * 4 + a2) * 4 + a3) * 2 + s
        mul = []
        for a1, a2, a3, s in elems:
            x1, x2, x3 = _QAX[a1], _QAX[a2], _QAX[a3]
            y1, y2, y3 = _QSG[a1], _QSG[a2], _QSG[a3]
            mul.append(tuple(
                ((x1[b1] * 4 + x2[b2]) * 4 + x3[b3]) * 2
                + (s ^ t ^ y1[b1] ^ y2[b2] ^ y3[b3])
                for b1, b2, b3, t in elems
            ))
        self.mul = tuple(mul)
        comm = []
        for g in range(n):
            mask = 0
            for h in range(n):
                if self.mul[g][h] == self.mul[h][g]:
                    mask |= 1 << h
            comm.append(mask)
        self.comm = tuple(comm)
        self.center = frozenset(
            g for g in range(n) if self.comm[g] == (1 << n) - 1
        )

    def order_of(self, g):
        k, x = 1, g
        while x != self.identity:
            x = self.mul[x][g]
            k += 1
        return k

    def order_histogram(self, subset):
        hist = {}
        for g in subset:
            d = self.order_of(g)
            hist[d] = hist.get(d, 0) + 1
        return tuple(sorted(hist.items()))

    def coset(self, triple):
        """Canonical element index of a triple of (axis, sign) pairs."""
        (a1, s1), (a2, s2), (a3, s3) = triple
        return self.index[(a1, a2, a3, s1 ^ s2 ^ s3)]

    def maximal_abelian_subgroups(self):
        """The maximal abelian subgroups, as frozensets of element indices:
        the maximal closed sets of :func:`_maximal_closed` on the
        multiplication table and the commuting masks.  Every maximal abelian
        subgroup contains the centre, so the search starts there."""
        return _maximal_closed(self.mul, self.comm, sorted(self.center))[1]

    def abelian_extension(self, A, x):
        """Bitmask of <A, x> (see :func:`_extension`) for an abelian subgroup
        A, a bitmask, and an element x centralizing it."""
        return _extension(self.mul, A, list(_bits(A)), x)[0]

    def slot_map(self, phi, slot):
        """Index map of the Q_8-automorphism ``phi`` acting on one slot."""
        table = []
        for g in self.elements:
            axes = list(g[:3])
            b, t = phi[(axes[slot], 0)]
            axes[slot] = b
            table.append(self.index[(axes[0], axes[1], axes[2], g[3] ^ t)])
        return tuple(table)

    def permutation_map(self, perm):
        """Index map of a permutation of the three coordinates."""
        return tuple(
            self.index[tuple(g[p] for p in perm) + (g[3],)] for g in self.elements
        )

    def action_maps(self):
        """Certified generators of the group of triples of Q_8-automorphisms
        and coordinate permutations, as four index maps.

        Two automorphisms that generate Aut(Q_8) act on slot 0, and the two
        permutations of ``_SLOT_PERMUTATIONS`` generate S_3.  Conjugating
        each slot-0 map by them must give the slot-1 and slot-2 maps of the
        same automorphism, so the four maps generate the group of all 24
        automorphisms in each slot and all six permutations."""
        gens = _aut_generators(q8_automorphisms())[0]
        _certify_generators(
            _SLOT_PERMUTATIONS, set(permutations(range(3))),
            "coordinate permutations %s" % " and ".join(map(str, _SLOT_PERMUTATIONS)),
            "S_3",
        )
        slot0 = [self.slot_map(phi, 0) for phi in gens]
        perms = [self.permutation_map(perm) for perm in _SLOT_PERMUTATIONS]
        for slot, perm, P in zip((1, 2), _SLOT_PERMUTATIONS, perms):
            for k, phi, M in zip(_AUT_GENERATORS, gens, slot0):
                # P M P^-1 sends P[g] to P[M[g]]
                conj = [None] * len(M)
                for g, h in enumerate(M):
                    conj[P[g]] = P[h]
                if tuple(conj) != self.slot_map(phi, slot):
                    raise GroupError(
                        "coordinate permutation %s does not carry the slot-0 map "
                        "of Q_8-automorphism %d to slot %d" % (perm, k, slot)
                    )
        return slot0 + perms

    def orbits(self, subgroups):
        """Orbits of ``subgroups`` under triples of Q_8-automorphisms and
        coordinate permutations, computed on the certified generators of
        :meth:`action_maps`."""
        return _orbits(subgroups, self.action_maps())


_Z22xZ4 = ((1, 1), (2, 7), (4, 8))


def maximal_abelian_Q83K():
    """Enumerate the maximal abelian subgroups of (Q_8)^3/K.

    Asserts that every one is its own centralizer (recomputed from the
    commuting masks) and isomorphic to Z_2^2 x Z_4, that they fall into
    exactly three orbits under triples of Q_8-automorphisms plus coordinate
    permutations, and that the three reference subgroups -- <i>^3/K, the
    tied-diagonal {(x,x,y): y in <i>}K/K, and
    <(i,i,i)K, (j,j,i)K, (i,j,j)K> -- represent the three orbits.
    """
    G = Q83K()
    maximal = G.maximal_abelian_subgroups()
    if len(G.center) != 2:
        raise GroupError("center of (Q_8)^3/K should have order 2")
    for H in sorted(maximal, key=sorted):
        # maximal abelian iff its own centralizer, recomputed from ``comm``
        cent = (1 << len(G.elements)) - 1
        for h in H:
            cent &= G.comm[h]
        if cent != sum(1 << h for h in H):
            raise GroupError(
                "maximal abelian subgroup on elements %s is not its own centralizer"
                % sorted(H)
            )
        if G.order_histogram(H) != _Z22xZ4:
            raise GroupError(
                "maximal abelian subgroup of unexpected isomorphism type %s"
                % (G.order_histogram(H),)
            )
    orbits = G.orbits(maximal)

    I, J = (1, 0), (2, 0)
    powers_i = [(0, 0), (1, 0), (0, 1), (1, 1)]
    rep1 = frozenset(
        G.coset((x, y, z))
        for x in powers_i for y in powers_i for z in powers_i
    )
    q8 = [(a, s) for a in range(4) for s in range(2)]
    rep2 = frozenset(G.coset((x, x, y)) for x in q8 for y in powers_i)
    rep3 = 1 << G.identity
    for gen in ((I, I, I), (J, J, I), (I, J, J)):
        rep3 = G.abelian_extension(rep3, G.coset(gen))
    reps = (rep1, rep2, frozenset(_bits(rep3)))
    for rep in reps:
        if rep not in maximal:
            raise GroupError("a reference subgroup is not maximal abelian")
    homes = []
    for rep in reps:
        homes.extend(k for k, orb in enumerate(orbits) if rep in orb)
    if sorted(homes) != list(range(len(orbits))):
        raise GroupError(
            "reference subgroups do not represent the orbits exactly once"
        )
    return {
        "group_order": len(G.elements),
        "subgroup_count": len(maximal),
        "subgroup_order": 16,
        "isomorphism_type": "Z_2^2 x Z_4",
        "orbit_count": len(orbits),
        "orbit_sizes": tuple(sorted(len(o) for o in orbits)),
        "orbit_representatives": reps,
        "ok": True,
    }


# ---------------------------------------------------------------------------
# F_2-subspace lemmas
# ---------------------------------------------------------------------------


def _proj(v, i):
    return (v >> (2 * i)) & 3


def _indep(x, y):
    return x != 0 and y != 0 and x != y


# _INDEP[x][y] == _indep(x, y) on the four vectors of one F_2^2 block
_INDEP = tuple(tuple(_indep(x, y) for y in range(4)) for x in range(4))


def _is_conditioned(vs, blocks):
    """Whether each pair of ``vs`` is independent in an even number of
    blocks, read block by block off the table ``_INDEP``."""
    for b1, b2 in combinations(vs, 2):
        odd = False
        for shift in range(0, 2 * blocks, 2):
            odd ^= _INDEP[(b1 >> shift) & 3][(b2 >> shift) & 3]
        if odd:
            return False
    return True


def _span(vs, v):
    return frozenset(vs) | frozenset(x ^ v for x in vs)


def _dim(vs):
    return len(vs).bit_length() - 1


def _orthogonality(blocks):
    """One bitmask per vector x: the vectors y with sum_i det(x_i, y_i) = 0.

    Certifies on every pair that this symplectic form is the pair test
    ``_is_conditioned``; by bilinearity a subspace is then conditioned iff
    its basis is pairwise orthogonal."""
    low = int("01" * blocks, 2)
    size = 1 << (2 * blocks)
    orth = []
    for x in range(size):
        # det(x_i, y_i) is a common bit of y and x_i with its two bits swapped
        swapped = ((x & low) << 1) | ((x >> 1) & low)
        mask = 0
        for y in range(size):
            isotropic = not (swapped & y).bit_count() & 1
            if _is_conditioned((x, y), blocks) != isotropic:
                raise GroupError(
                    "the pair test and the symplectic form disagree on (%d, %d)" % (x, y)
                )
            if isotropic:
                mask |= 1 << y
        orth.append(mask)
    return orth


def _conditioned_subspaces(blocks):
    """All conditioned subspaces and the maximal ones among them: the closed
    sets of :func:`_maximal_closed` under addition, with the orthogonal masks
    of :func:`_orthogonality` as the commuting masks."""
    size = 1 << (2 * blocks)
    xor = [[x ^ y for y in range(size)] for x in range(size)]
    closed, maximal = _maximal_closed(xor, _orthogonality(blocks), [0])
    return {frozenset(_bits(B)) for B in closed}, maximal


def _block_intersection_dim(B, keep, blocks):
    mask = 0
    for i in keep:
        mask |= 3 << (2 * i)
    sub = frozenset(v for v in B if v & ~mask == 0)
    return _dim(sub), sub


def _proj_dim(B, i):
    img = {_proj(v, i) for v in B}
    span = {0}
    for v in img:
        if v not in span:
            span |= {x ^ v for x in span}
    return _dim(frozenset(span))


def _match_family1(B, blocks):
    parts = []
    for i in range(blocks):
        d, sub = _block_intersection_dim(B, (i,), blocks)
        if d != 1:
            return False
        parts.append(sub)
    rebuilt = frozenset([0])
    for sub in parts:
        v = max(sub)
        rebuilt = _span(rebuilt, v)
    return rebuilt == B


def _graph_iso(W, i, j):
    """The map proj_i -> proj_j defined by a subspace W of A_i + A_j, or
    None when it is not the graph of a linear isomorphism."""
    table = {}
    for w in W:
        table.setdefault(_proj(w, i), set()).add(_proj(w, j))
    if len(table) != 4 or any(len(v) != 1 for v in table.values()):
        return None
    f = {k: v.pop() for k, v in table.items()}
    if set(f.values()) != {0, 1, 2, 3} or f[0] != 0:
        return None
    return f


def _match_family2(B, blocks, line_block):
    others = [i for i in range(blocks) if i != line_block]
    dline, line = _block_intersection_dim(B, (line_block,), blocks)
    if dline != 1:
        return False
    dW, W = _block_intersection_dim(B, others, blocks)
    if dW != 2 or _graph_iso(W, others[0], others[1]) is None:
        return False
    rebuilt = W
    rebuilt = _span(rebuilt, max(line))
    return rebuilt == B


def _match_family3(B):
    for i in range(3):
        if _block_intersection_dim(B, (i,), 3)[0] != 0:
            return False
        if _proj_dim(B, i) != 2:
            return False
    d12, W12 = _block_intersection_dim(B, (0, 1), 3)
    d13, W13 = _block_intersection_dim(B, (0, 2), 3)
    d23, W23 = _block_intersection_dim(B, (1, 2), 3)
    if (d12, d13, d23) != (1, 1, 1):
        return False
    w12, w13, w23 = max(W12), max(W13), max(W23)
    if _proj(w12, 0) != _proj(w13, 0) or _proj(w12, 0) == 0:
        return False
    if w12 ^ w13 ^ w23 != 0:
        return False
    v = next(x for x in B if x not in _span(frozenset([0, w12]), w13))
    b, a = _proj(w12, 0), _proj(v, 0)
    f2 = {0: 0, b: _proj(w12, 1), a: _proj(v, 1), a ^ b: _proj(w12, 1) ^ _proj(v, 1)}
    f3 = {0: 0, b: _proj(w13, 2), a: _proj(v, 2), a ^ b: _proj(w13, 2) ^ _proj(v, 2)}
    if set(f2.values()) != {0, 1, 2, 3} or set(f3.values()) != {0, 1, 2, 3}:
        return False
    rebuilt = frozenset([0])
    for x in (v, w12, w13):
        rebuilt = _span(rebuilt, x)
    return rebuilt == B


def f2_subspace_cases(blocks):
    """Exhaust the subspace lemma over F_2^2-blocks.

    A subspace B of a sum of ``blocks`` copies of F_2^2 is *conditioned*
    when, for every pair b1, b2 in B, the number of blocks onto which the
    span of b1, b2 projects surjectively is even.  For three blocks the
    maximal conditioned subspaces are classified into three families (up to
    reordering the blocks); for two blocks every conditioned subspace is
    either inside a product of two lines or the graph of an isomorphism.
    """
    if blocks not in (2, 3):
        raise GroupError("blocks must be 2 or 3")
    cond, maximal = _conditioned_subspaces(blocks)

    if blocks == 3:
        families = {1: set(), 2: set(), 3: set()}
        for B in maximal:
            if _dim(B) != 3:
                raise GroupError("a maximal conditioned subspace is not 3-dim")
            hits = []
            if _match_family1(B, 3):
                hits.append(1)
            if any(_match_family2(B, 3, lb) for lb in range(3)):
                hits.append(2)
            if _match_family3(B):
                hits.append(3)
            if len(hits) != 1:
                raise GroupError(
                    "subspace matches families %s, expected exactly one" % hits
                )
            families[hits[0]].add(B)
        if any(not fam for fam in families.values()):
            raise GroupError("some family of the three-block lemma is empty")
        return {
            "blocks": 3,
            "conditioned_count": len(cond),
            "maximal_count": len(maximal),
            "family_counts": {k: len(v) for k, v in families.items()},
            "families": families,
            "ok": True,
        }

    families = {1: set(), 2: set()}
    for B in cond:
        in1 = _proj_dim(B, 0) <= 1 and _proj_dim(B, 1) <= 1
        in2 = _dim(B) == 2 and _graph_iso(B, 0, 1) is not None
        if in1 == in2:
            raise GroupError(
                "two-block subspace fits %d families, expected exactly one"
                % (int(in1) + int(in2))
            )
        families[1 if in1 else 2].add(B)
    return {
        "blocks": 2,
        "conditioned_count": len(cond),
        "maximal_count": len(maximal),
        "maximal": maximal,
        "family_counts": {k: len(v) for k, v in families.items()},
        "families": families,
        "ok": True,
    }


# ---------------------------------------------------------------------------
# maximal abelian subgroups of (F^x times Q_8 times Q_8)/K
# ---------------------------------------------------------------------------


def _q8_pairs():
    return [((a, s), (b, t))
            for a in range(4) for s in range(2)
            for b in range(4) for t in range(2)]


def _commutator_sign(x, y):
    """Sign bit of the Q_8 commutator x y x^-1 y^-1 (always +-1)."""
    a, b = x[0], y[0]
    return 1 if (a and b and a != b) else 0


def _pair_commutes(p, q):
    # two classes commute in the quotient iff the two coordinate
    # commutators carry the same sign
    return _commutator_sign(p[0], q[0]) == _commutator_sign(p[1], q[1])


def _pair_class(p):
    return p[0][0] | (p[1][0] << 2)


def maximal_abelian_FxQ82K():
    """Maximal abelian subgroups of (F^x x Q_8 x Q_8)/K, up to couples of
    Q_8-automorphisms.

    The torus factor is central and never enumerated: the quotient modulo
    the center is (Q_8/{+-1})^2 = F_2^4 and commutation descends to the
    two-block subspace condition, so the maximal abelian subgroups are the
    preimages of the maximal conditioned subspaces.  Verifies there are
    exactly two families: the product of two cyclic subgroups <i>, and the
    diagonal {(x,x)} family.  The two-block report of
    :func:`f2_subspace_cases` it rests on is returned under ``"cases"``.
    """
    cases = f2_subspace_cases(2)
    maximal = cases["maximal"]
    for B in maximal:
        if _dim(B) != 2:
            raise GroupError("a maximal two-block subspace is not 2-dim")

    rectangles = {B for B in cases["families"][1] if B in maximal}
    graphs = {B for B in cases["families"][2] if B in maximal}
    if rectangles | graphs != maximal:
        raise GroupError("maximal subspaces escape the two families")

    # the lift of each maximal subspace is abelian and self-centralizing
    pairs = _q8_pairs()
    for B in maximal:
        lift = [p for p in pairs if _pair_class(p) in B]
        if len(lift) != 4 * len(B):
            raise GroupError("lift has the wrong size")
        for p, q in combinations(lift, 2):
            if not _pair_commutes(p, q):
                raise GroupError("the lift of a maximal subspace is not abelian")
        for q in pairs:
            if _pair_class(q) in B:
                continue
            if all(_pair_commutes(p, q) for p in lift):
                raise GroupError("the lift of a maximal subspace is not maximal")

    # orbits under couples of Q_8-automorphisms, which act through GL_2(F_2)
    # on each block: the images of the Aut(Q_8) generators, certified to
    # generate GL_2(F_2), on either block
    autos = q8_automorphisms()
    gens, label = _aut_generators(autos)
    gl2 = [_axis_table(phi) for phi in gens]
    _certify_generators(
        gl2, {_axis_table(phi) for phi in autos},
        "the block maps of " + label, "GL_2(F_2)",
    )
    maps = [tuple(f[v & 3] | (v & 12) for v in range(16)) for f in gl2]
    maps += [tuple((v & 3) | (f[v >> 2] << 2) for v in range(16)) for f in gl2]
    orbits = _orbits(maximal, maps)
    if len(orbits) != 2:
        raise GroupError("expected exactly two orbits, found %d" % len(orbits))

    rep_rect = frozenset([0, 1, 1 << 2, 1 | (1 << 2)])  # <i> x <i>
    rep_diag = frozenset([0, 1 | (1 << 2), 2 | (2 << 2), 3 | (3 << 2)])
    if rep_rect not in rectangles or rep_diag not in graphs:
        raise GroupError("reference subspaces are not where expected")
    homes = [k for k, orb in enumerate(orbits) if rep_rect in orb]
    homes += [k for k, orb in enumerate(orbits) if rep_diag in orb]
    if sorted(homes) != [0, 1]:
        raise GroupError("reference subspaces do not split the two orbits")

    # the diagonal representative lifts to {(x, +-x)}: the sign ambiguity
    # is exactly the kernel of the class map
    diag_lift = {p for p in pairs if _pair_class(p) in rep_diag}
    expected = set()
    for a in range(4):
        for s in range(2):
            for t in range(2):
                expected.add(((a, s), (a, t)))
    if diag_lift != expected:
        raise GroupError("the diagonal family does not lift to {(x,+-x)}")

    return {
        "maximal_count": len(maximal),
        "rectangle_count": len(rectangles),
        "graph_count": len(graphs),
        "orbit_count": len(orbits),
        "orbit_sizes": tuple(sorted(len(o) for o in orbits)),
        "center_index": 4,
        "cases": cases,
        "ok": True,
    }
