"""Tests for the finite-group propositions and the F_2-subspace lemmas."""

import re

import pytest

from finegrading import groups
from finegrading.errors import GroupError
from finegrading.groups import (
    Q83K,
    _is_conditioned,
    _span,
    f2_subspace_cases,
    maximal_abelian_FxQ82K,
    maximal_abelian_Q83K,
    q8_automorphisms,
    q8_mul,
)


def test_q8_multiplication():
    one, i, j, k = (0, 0), (1, 0), (2, 0), (3, 0)
    minus = lambda x: (x[0], x[1] ^ 1)
    assert q8_mul(i, i) == minus(one)
    assert q8_mul(i, j) == k
    assert q8_mul(j, i) == minus(k)
    assert q8_mul(j, k) == i
    assert q8_mul(k, i) == j
    assert q8_mul(minus(i), j) == minus(k)
    assert q8_mul(one, k) == k


def test_q8_automorphism_count():
    autos = q8_automorphisms()
    assert len(autos) == 24
    assert len({tuple(sorted(a.items())) for a in autos}) == 24
    ident = {x: x for x in autos[0]}
    assert ident in autos


def test_group_order_and_center():
    G = Q83K()
    assert len(G.elements) == 128
    assert len(G.center) == 2
    minus_one = G.coset(((0, 1), (0, 1), (0, 1)))
    assert minus_one == G.identity or minus_one in G.center
    # (-1,-1,-1)K is the nontrivial central class: (-1,-1,1) lies in K
    assert minus_one != G.identity
    assert G.coset(((0, 1), (0, 1), (0, 0))) == G.identity


def test_multiplication_table_matches_q8_mul():
    # the table as the product of the three slots through q8_mul
    G = Q83K()
    expected = []
    for g in G.elements:
        row = []
        for h in G.elements:
            (c1, t1), (c2, t2), (c3, t3) = (
                q8_mul((g[m], 0), (h[m], 0)) for m in range(3)
            )
            row.append(G.index[(c1, c2, c3, g[3] ^ h[3] ^ t1 ^ t2 ^ t3)])
        expected.append(tuple(row))
    assert G.mul == tuple(expected)


def test_coset_folding():
    G = Q83K()
    # flipping two signs is a K-operation and fixes the class
    a = G.coset(((1, 0), (2, 1), (3, 1)))
    b = G.coset(((1, 1), (2, 0), (3, 1)))
    assert a == b
    assert G.coset(((1, 1), (2, 1), (3, 1))) != a


def test_maximal_abelian_q83k_report():
    report = maximal_abelian_Q83K()
    assert report["ok"]
    assert report["group_order"] == 128
    assert report["subgroup_count"] == 135
    assert report["isomorphism_type"] == "Z_2^2 x Z_4"
    assert report["orbit_count"] == 3
    assert report["orbit_sizes"] == (27, 54, 54)
    assert all(len(rep) == 16 for rep in report["orbit_representatives"])


def test_subspace_cases_three_blocks():
    report = f2_subspace_cases(3)
    assert report["ok"]
    assert report["conditioned_count"] == 514
    assert report["maximal_count"] == 135
    assert report["family_counts"] == {1: 27, 2: 54, 3: 54}
    for fam in report["families"].values():
        for B in fam:
            assert len(B) == 8  # dimension 3


def test_subspace_cases_two_blocks():
    report = f2_subspace_cases(2)
    assert report["ok"]
    assert report["conditioned_count"] == 31
    assert report["maximal_count"] == 15
    assert report["family_counts"] == {1: 25, 2: 6}


def test_subspace_cases_rejects_other_block_counts():
    with pytest.raises(GroupError):
        f2_subspace_cases(4)


def test_group_and_subspace_classifications_agree():
    # quotienting (Q_8)^3/K by its center identifies maximal abelian
    # subgroups with maximal conditioned subspaces, orbit by orbit
    ga = maximal_abelian_Q83K()
    sa = f2_subspace_cases(3)
    assert ga["subgroup_count"] == sa["maximal_count"]
    assert ga["orbit_sizes"] == tuple(sorted(sa["family_counts"].values()))


def test_maximal_abelian_fxq82k_report():
    report = maximal_abelian_FxQ82K()
    assert report["ok"]
    assert report["maximal_count"] == 15
    assert report["rectangle_count"] == 9
    assert report["graph_count"] == 6
    assert report["orbit_count"] == 2
    assert report["orbit_sizes"] == (6, 9)


# ---------------------------------------------------------------------------
# brute-force oracles: every pair of every subspace, and closure by products
# ---------------------------------------------------------------------------


def oracle_subspaces(blocks):
    """Conditioned subspaces and the maximal ones, testing all pairs."""
    total = 1 << (2 * blocks)
    zero = frozenset([0])
    seen = {zero}
    stack = [zero]
    while stack:
        B = stack.pop()
        for v in range(1, total):
            if v in B:
                continue
            C = _span(B, v)
            if C in seen or not _is_conditioned(C, blocks):
                continue
            seen.add(C)
            stack.append(C)
    maximal = {
        B for B in seen
        if all(v in B or not _is_conditioned(_span(B, v), blocks)
               for v in range(1, total))
    }
    return seen, maximal


def closure(G, gens):
    """The subgroup generated by ``gens``, closing under products."""
    out = {G.identity} | set(gens)
    frontier = list(out)
    while frontier:
        nxt = []
        for g in frontier:
            for h in list(out):
                for p in (G.mul[g][h], G.mul[h][g]):
                    if p not in out:
                        out.add(p)
                        nxt.append(p)
        frontier = nxt
    return frozenset(out)


def oracle_maximal_abelian(G):
    """Maximal abelian subgroups by a DFS over ``closure``, with every
    extension {(A, x): closure(A + {x})} it computed."""
    full = (1 << len(G.elements)) - 1
    seen = set()
    maximal = set()
    extensions = {}
    stack = [frozenset([G.identity])]
    while stack:
        A = stack.pop()
        if A in seen:
            continue
        seen.add(A)
        cent = full
        for a in A:
            cent &= G.comm[a]
        ext = [x for x in range(len(G.elements)) if (cent >> x) & 1 and x not in A]
        if not ext:
            maximal.add(A)
        for x in ext:
            extensions[A, x] = closure(G, A | {x})
            stack.append(extensions[A, x])
    return maximal, extensions


def as_mask(subset):
    return sum(1 << g for g in subset)


@pytest.fixture(scope="module")
def q83k_oracle():
    G = Q83K()
    return G, oracle_maximal_abelian(G)


@pytest.mark.parametrize("blocks", [2, 3])
def test_subspace_enumeration_matches_pairwise_oracle(blocks):
    cond, maximal = oracle_subspaces(blocks)
    report = f2_subspace_cases(blocks)
    assert report["conditioned_count"] == len(cond)
    assert report["maximal_count"] == len(maximal)
    assert groups._conditioned_subspaces(blocks) == (cond, maximal)
    fams = report["families"]
    assert set().union(*fams.values()) == (cond if blocks == 2 else maximal)


def test_maximal_abelian_subgroups_match_closure_oracle(q83k_oracle):
    G, (maximal, _) = q83k_oracle
    assert len(maximal) == 135
    assert G.maximal_abelian_subgroups() == maximal


def test_maximal_abelian_check_rejects_a_subgroup_that_is_not_its_centralizer(monkeypatch):
    # the centre is abelian but centralized by the whole group
    search = Q83K.maximal_abelian_subgroups

    def patched(self):
        return search(self) | {frozenset(self.center)}

    monkeypatch.setattr(Q83K, "maximal_abelian_subgroups", patched)
    centre = sorted(Q83K().center)
    with pytest.raises(GroupError, match=r"elements %s is not its own centralizer"
                       % re.escape(str(centre))):
        maximal_abelian_Q83K()


def test_abelian_extension_equals_closure(q83k_oracle):
    G, (_, extensions) = q83k_oracle
    assert len(extensions) > 1000
    for (A, x), closure in extensions.items():
        assert G.abelian_extension(as_mask(A), x) == as_mask(closure), (sorted(A), x)


def test_abelian_extension_of_an_order_four_element():
    # <(i, 1, 1)K> has order 4: the power loop must add x^2 A and x^3 A
    G = Q83K()
    x = G.coset(((1, 0), (0, 0), (0, 0)))
    one = 1 << G.identity
    assert G.abelian_extension(one, x) == as_mask(closure(G, [x]))
    assert bin(G.abelian_extension(one, x)).count("1") == 4


@pytest.mark.parametrize("blocks,pair", [(2, (5, 9)), (3, (37, 18)), (3, (63, 63))])
def test_form_certificate_names_the_disagreeing_pair(monkeypatch, blocks, pair):
    def patched(vs, blocks):
        agree = _is_conditioned(vs, blocks)
        return not agree if tuple(vs) == pair else agree

    monkeypatch.setattr(groups, "_is_conditioned", patched)
    with pytest.raises(GroupError, match=r"disagree on \(%d, %d\)" % pair):
        f2_subspace_cases(blocks)


def test_reference_subgroup_matches_closure():
    G = Q83K()
    I, J = (1, 0), (2, 0)
    gens = [G.coset(t) for t in ((I, I, I), (J, J, I), (I, J, J))]
    assert maximal_abelian_Q83K()["orbit_representatives"][2] == closure(G, gens)


# ---------------------------------------------------------------------------
# orbits on certified generators
# ---------------------------------------------------------------------------


def all_74_action_maps(G):
    """Every Q_8-automorphism on every slot, plus the two coordinate
    permutations: the full map list the generators replace."""
    maps = []
    for slot in range(3):
        for phi in q8_automorphisms():
            table = []
            for g in G.elements:
                axes = list(g[:3])
                b, t = phi[(axes[slot], 0)]
                axes[slot] = b
                table.append(G.index[(axes[0], axes[1], axes[2], g[3] ^ t)])
            maps.append(tuple(table))
    for perm in ((1, 0, 2), (1, 2, 0)):
        maps.append(tuple(
            G.index[tuple(g[p] for p in perm) + (g[3],)] for g in G.elements
        ))
    return maps


def orbit_set(orbits):
    return {frozenset(orbit) for orbit in orbits}


def test_q83k_generator_orbits_equal_orbits_under_all_74_maps(q83k_oracle):
    G, (maximal, _) = q83k_oracle
    full = all_74_action_maps(G)
    assert len(full) == 74
    maps = G.action_maps()
    assert len(maps) == 4
    assert set(maps) <= set(full)
    assert orbit_set(G.orbits(maximal)) == orbit_set(groups._orbits(maximal, full))


def test_fxq82k_generator_orbits_equal_orbits_under_all_12_maps(monkeypatch):
    calls = []
    orbits = groups._orbits

    def spy(subsets, maps):
        calls.append((subsets, maps))
        return orbits(subsets, maps)

    monkeypatch.setattr(groups, "_orbits", spy)
    assert maximal_abelian_FxQ82K()["orbit_sizes"] == (6, 9)
    [(maximal, maps)] = calls
    induced = {tuple(phi[(a, 0)][0] for a in range(4)) for phi in q8_automorphisms()}
    full = [tuple(f[v & 3] | (v & 12) for v in range(16)) for f in induced]
    full += [tuple((v & 3) | (f[v >> 2] << 2) for v in range(16)) for f in induced]
    assert len(full) == 12 and len(maps) == 4
    assert set(maps) <= set(full)
    assert orbit_set(orbits(maximal, maps)) == orbit_set(orbits(maximal, full))


@pytest.mark.parametrize("record", [maximal_abelian_Q83K, maximal_abelian_FxQ82K])
def test_non_generating_automorphism_pair_is_named(monkeypatch, record):
    # autos[1] and autos[6] generate a cyclic group of order 4
    monkeypatch.setattr(groups, "_AUT_GENERATORS", (1, 6))
    with pytest.raises(GroupError, match=r"Q_8-automorphisms 1 and 6 generate 4 maps, "
                                         r"not the 24 of Aut\(Q_8\)"):
        record()


def test_permutations_must_generate_s3(monkeypatch):
    monkeypatch.setattr(groups, "_SLOT_PERMUTATIONS", ((1, 0, 2), (1, 0, 2)))
    with pytest.raises(GroupError, match=r"generate 2 maps, not the 6 of S_3"):
        maximal_abelian_Q83K()


def test_permutation_must_carry_slot_0_to_the_named_slot(monkeypatch):
    # (1, 2, 0) carries slot 0 to slot 2, so listed first it misses slot 1
    monkeypatch.setattr(groups, "_SLOT_PERMUTATIONS", ((1, 2, 0), (1, 0, 2)))
    with pytest.raises(GroupError, match=r"permutation \(1, 2, 0\) does not carry the "
                                         r"slot-0 map of Q_8-automorphism 2 to slot 1"):
        maximal_abelian_Q83K()
