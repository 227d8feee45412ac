"""The Weyl-Heisenberg split of the defect system of a build."""

import gc
import random
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadforge import _weyl, analyze, catalog, mub
from hadforge._exactrank import (
    SEED,
    System,
    certify_null_spaces,
    certify_rank,
    _batch_inverses,
    _echelon,
    _units,
    evaluate_rows,
    find_embedding_prime,
    power_table,
    rank_mod,
    rref_mod,
)
from hadforge._weyl import block_images, block_system, character_slots, lift_is_null, weyl_split
from hadforge.analyze import (
    DefectReport,
    _build_defect,
    _defect_exact,
    _examine_all,
    assignment_search,
)
from hadforge.construct import BlockAssignment, theorem1_build
from hadforge.matrices import EquivalenceMove, apply_equivalence, butson_min_root, dephase
from hadforge.mub import IdentityBasis, complete_mub_set

RECIPES = [n for n in catalog.names() if catalog.entry(n).recipe is not None]
RECIPES_UP_TO_49 = [n for n in RECIPES if catalog.entry(n).d <= 49]


def reduced_build(a):
    return butson_min_root(dephase(theorem1_build(a))[0])[1]


# ----------------------------------------------------------------------
# the automorphism, witnessed on the build
# ----------------------------------------------------------------------

def weyl_witness(B, W, q):
    """(sigma, theta, r) with column t of W B equal to omega_r^theta[t]
    times column sigma[t] of B, for W = "X" (|k> -> |k+1>) or "Z"
    (|k> -> omega_q^k |k>), found one column at a time."""
    if isinstance(B, IdentityBasis):
        if W == "X":
            return [(t + 1) % q for t in range(q)], [0] * q, 1
        return list(range(q)), list(range(q)), q
    r = lcm(B.r, q)
    E = B.rescaled(r).exp.tolist()
    if W == "X":
        UB = [E[(k - 1) % q] for k in range(q)]
    else:
        UB = [[e + k * (r // q) for e in E[k]] for k in range(q)]
    sigma, theta = [], []
    for t in range(q):
        for t2 in range(q):
            diffs = {(UB[k][t] - E[k][t2]) % r for k in range(q)}
            if len(diffs) == 1:
                sigma.append(t2)
                theta.append(diffs.pop())
                break
        else:
            raise AssertionError(f"{W} B is not B times a monomial matrix")
    return sigma, theta, r


def weyl_move(a, W, r):
    """The move whose result is the build of a itself: block (i, j) is
    K_i^dagger L_j / sqrt(p) up to its phase, and <W K_s, W L_t> =
    <K_s, L_t> makes entry (s, t) equal to conj(c_s) d_t times entry
    (sigma_K s, sigma_L t), for W K_s = c_s K_(sigma_K s) and W L_t =
    d_t L_(sigma_L t)."""
    q = a.q
    perms, phases = ([], []), ([], [])
    for side, sign, bases in ((0, -1, a.K), (1, 1, a.L)):
        for i, B in enumerate(bases):
            sigma, theta, rw = weyl_witness(B, W, q)
            perms[side].extend(i * q + s for s in sigma)
            phases[side].extend(sign * x * (r // rw) % r for x in theta)
    return EquivalenceMove(*map(tuple, perms), *map(tuple, phases), r)


@pytest.mark.parametrize("name", RECIPES)
def test_weyl_operators_are_exact_monomial_automorphisms_of_every_recipe(name):
    a = catalog.assignment(name)
    H = theorem1_build(a)
    r = lcm(H.r, 4 * a.q)
    for W in ("X", "Z"):
        move = weyl_move(a, W, r)
        assert move.row_perm != tuple(range(a.d)) or move.col_perm != tuple(range(a.d))
        assert apply_equivalence(H, move) == H, W
    assert weyl_split(a, catalog.build(name)) is not None


# ----------------------------------------------------------------------
# the split defect against the unsplit certificate
# ----------------------------------------------------------------------

def assert_split_matches_exact(a, H):
    split = _build_defect(a, H, certify=True)
    exact = _defect_exact(H)
    assert split == exact  # defect, variables, rank and mode
    ev = split.evidence
    assert ev["blocks"] == a.q**2 and ev["block_columns"] == a.p**2
    assert ev["pivot_count"] == split.rank and ev["null_vectors"] == split.defect
    assert ev["root"] == H.r
    bound = _build_defect(a, H, certify=False)
    assert bound.defect >= split.defect
    assert bound.mode == ("exact" if bound.defect == 0 else "bound")


@pytest.mark.parametrize("name", RECIPES_UP_TO_49)
def test_split_defect_matches_the_certificate_on_catalog_recipes(name):
    assert_split_matches_exact(catalog.assignment(name), catalog.build(name))


@pytest.mark.parametrize("p,q", [(3, 3), (3, 5), (5, 3), (2, 7)])
def test_split_defect_matches_the_certificate_on_search_representatives(p, q):
    for a in assignment_search(p, q).representatives:
        assert_split_matches_exact(a, reduced_build(a))


def reference_rows(split, pairs, chi, row, n_rows):
    """Reference: the rows rho_uv of the character blocks of the split as
    one term list, pair n = (u, v) = pairs[n] of block chi[n] at row
    row[n]: its term (n, s, k) is +-omega^e on column (w // q) * p + k // q,
    with w = u (+, s = 0) or v (-, s = 1) and e = E[u, k] - E[v, k] +
    chi(g_(w, k)) r / q, chi(a, b) = s' a + t' b for chi = s' q + t'."""
    p, q, R, E = split.p, split.q, split.r, split.exp
    d = p * q
    U, V = pairs.T
    cells = np.stack([U, V], axis=1)[:, :, None]
    ks = np.arange(d)
    g = split.group[cells, ks]
    pairing = ((chi[:, None, None] // q) * (g // q) + (chi[:, None, None] % q) * (g % q)) % q
    exp = ((E[U] - E[V])[:, None, :] + pairing * (R // q)) % R
    col = (cells // q) * p + ks // q
    sign = np.array([[1], [-1]], dtype=np.int8)
    shape = exp.shape
    return System(
        n_rows,
        *(np.broadcast_to(x, shape).reshape(-1) for x in (row[:, None, None], col, exp, sign)),
    )


def reference_split_system(split):
    """Reference: the blocks the split lays out as one term list, block chi
    at rows chi*m up to (chi + 1)*m, each pair at its place in its block."""
    chi = split.chi_of
    row = chi * split.m + split.row % split.m
    return reference_rows(split, split.pairs, chi, row, split.q**2 * split.m)


def reference_block(split, chi):
    """Reference: the whole block M_chi, one row per ordered pair u != v of
    rows of the grid, on all p^2 columns; it owes nothing to the pairs the
    split keeps."""
    d = split.p * split.q
    pairs = np.argwhere(~np.eye(d, dtype=bool))
    n = len(pairs)
    return reference_rows(split, pairs, np.full(n, chi), np.arange(n), n)


def conjugate(chi, q):
    """-chi: the character (a, b) -> omega_q^-(s a + t b) for chi = s*q + t."""
    s, t = divmod(chi, q)
    return (-s % q) * q + (-t % q)


def reference_image(split):
    """The q^2 whole blocks (`reference_block`) mod the split's block
    prime, and that prime and its root's image."""
    p2 = split.p**2
    l, g = find_embedding_prime(split.r, random.Random(SEED))
    blocks = [reference_block(split, chi) for chi in range(split.q**2)]
    return np.stack([evaluate_rows(x, p2, l, g, split.r) for x in blocks]), l, g


def assert_image_matches_the_term_list(a, H):
    split = weyl_split(a, H)
    q = a.q
    p2 = a.p**2
    l, g = find_embedding_prime(split.r, random.Random(SEED))
    laid_out = evaluate_rows(reference_split_system(split), p2, l, g, split.r)
    laid_out = laid_out.reshape(-1, split.m, p2)
    got = block_images([split], l, power_table(g, l, split.r))[0]
    # the representatives of the pairs {chi, -chi}, by increasing chi
    reps = [chi for chi in range(q * q) if chi <= conjugate(chi, q)]
    assert len(reps) == (q * q if q == 2 else (q * q + 1) // 2)
    assert got.dtype == np.int32 and np.array_equal(got, laid_out[reps])
    # every block's System, of a representative or not, has the RREF of the
    # whole block on its gauge-free columns at every embedding (at omega -> g
    # and its conjugate from d = 50 on, where every embedding would take
    # a minute); that of a representative has the image of its laid-out
    # rows as well
    ts = _units(split.r) if a.d < 50 else [1, split.r - 1]
    for chi in range(0, q * q, max(1, q * q // 7)):
        system, cols = block_system(split, chi)
        if chi in reps:
            image = evaluate_rows(system, cols.size, l, g, split.r)
            assert np.array_equal(image, laid_out[chi][:, cols])
        whole = reference_block(split, chi)
        for t in ts:
            gt = pow(g, t, l)
            R, pivots = rref_mod(evaluate_rows(system, cols.size, l, gt, split.r), l)
            ref, ref_pivots = rref_mod(evaluate_rows(whole, p2, l, gt, split.r)[:, cols], l)
            assert pivots == ref_pivots
            assert np.array_equal(R[: len(pivots)], ref[: len(pivots)])


@pytest.mark.parametrize("name", RECIPES)
def test_direct_image_matches_the_whole_split_term_list_on_catalog_recipes(name):
    assert_image_matches_the_term_list(catalog.assignment(name), catalog.build(name))


@pytest.mark.parametrize("p,q", [(3, 3), (3, 5), (5, 3), (2, 7), (3, 7)])
def test_direct_image_matches_the_whole_split_term_list_on_search_representatives(p, q):
    for a in assignment_search(p, q).representatives:
        assert_image_matches_the_term_list(a, reduced_build(a))


# ----------------------------------------------------------------------
# conjugate characters: one block imaged and ranked per pair {chi, -chi}
# ----------------------------------------------------------------------

def reference_defect(a, H):
    """The report of H the split would give from the mod-l ranks of all
    q^2 blocks, each imaged from the whole term list and ranked alone."""
    split = weyl_split(a, H)
    if split is None:
        return _defect_exact(H)
    ref, l, _ = reference_image(split)
    ranks = np.array([rank_mod(block.copy(), l) for block in ref])
    full = a.p**2 - split.gauge.sum(axis=1)
    n, rank = (a.d - 1) ** 2, int(ranks.sum())
    ev = {
        "root": H.r, "blocks": a.q**2, "block_columns": a.p**2, "pivot_count": rank,
        "primes": [l], "null_vectors": 0,
    }
    if (ranks == full).all():
        return DefectReport(0, n, n, "exact", ev)
    return DefectReport(n - rank, n, rank, "bound", ev)


@pytest.mark.parametrize("p,q", [(3, 5), (5, 3), (2, 7), (3, 7), (3, 2)])
def test_defects_match_every_block_ranked_alone(p, q):
    reps = assignment_search(p, q).representatives
    searched = [rep for _, _, _, rep in _examine_all(reps, {})]
    for a, rep in zip(reps, searched):
        H = reduced_build(a)
        ref = reference_defect(a, H)
        alone = _build_defect(a, H, certify=False)
        assert rep == ref and rep.evidence == ref.evidence
        assert alone == ref and alone.evidence == ref.evidence


@pytest.mark.parametrize("p,q", [(3, 5), (5, 3), (2, 7)])
def test_conjugate_blocks_have_the_same_exact_rank(p, q):
    """On the short blocks of the builds that are not isolated, the exact
    rank of block chi is that of block -chi, and so are the gauge and the
    rank mod l."""
    checked = 0
    for a in assignment_search(p, q).representatives:
        split = weyl_split(a, reduced_build(a))
        ref, l, _ = reference_image(split)
        full = p * p - split.gauge.sum(axis=1)
        for chi in range(q * q):
            neg = conjugate(chi, q)
            assert np.array_equal(split.gauge[chi], split.gauge[neg])
            rank = rank_mod(ref[chi].copy(), l)
            assert rank == rank_mod(ref[neg].copy(), l)
            if chi < neg and rank < full[chi]:
                exact = [
                    certify_rank(system, cols.size, split.r)[0]
                    for system, cols in (block_system(split, x) for x in (chi, neg))
                ]
                assert exact[0] == exact[1]
                checked += 1
    assert checked


@pytest.mark.parametrize("p,q,blocks", [(3, 5, 13), (5, 3, 5), (2, 7, 25), (3, 2, 4)])
def test_each_build_ranks_one_block_per_conjugate_pair(p, q, blocks, monkeypatch):
    """Each build sends (q^2 + 1) / 2 blocks to the rank for odd q, and q^2
    for q = 2, whose characters are their own conjugates; its report
    still counts q^2 blocks."""
    sent = []
    rank = analyze.rank_mod
    monkeypatch.setattr(analyze, "rank_mod", lambda M, l: (sent.append(len(M)), rank(M, l))[1])
    res = assignment_search(p, q)
    assert sum(sent) == blocks * len(res.representatives)
    for a in res.representatives[:3]:
        H = reduced_build(a)
        assert weyl_split(a, H) is not None
        sent.clear()
        rep = _build_defect(a, H, certify=False)
        assert sent == [blocks] and rep.evidence["blocks"] == q * q


def reference_block_report(a, H):
    """Reference: the certified report of a build with one
    `certify_null_spaces` call per short block, of chi and of -chi alike, each
    on its own block, and the lift check of all their null vectors."""
    split = weyl_split(a, H)
    if split is None:
        return _defect_exact(H)
    p, q = a.p, a.q
    l, powers = analyze._block_prime(split.r)
    ranks = rank_mod(block_images([split], l, powers)[0], l)[character_slots(q)[1]]
    full = p * p - split.gauge.sum(axis=1)
    n, rank = (a.d - 1) ** 2, int(ranks.sum())
    ev = {
        "root": H.r, "blocks": q * q, "block_columns": p * p, "pivot_count": rank,
        "primes": [l], "null_vectors": 0,
    }
    short = np.flatnonzero(ranks < full).tolist()
    if not short:
        return DefectReport(0, n, n, "exact", ev)
    blocks = []
    for chi in short:
        system, cols = block_system(split, chi)
        rk, bev, W = certify_null_spaces([(system, cols.size)], split.r)[0]
        ev["primes"] += [y for y in bev["primes"] if y not in ev["primes"]]
        rank += rk - int(ranks[chi])
        blocks.append((chi, cols, W))
    assert lift_is_null(split, H, blocks)
    ev["pivot_count"], ev["null_vectors"] = rank, n - rank
    return DefectReport(n - rank, n, rank, "exact", ev)


def assert_certificate_matches_the_reference(a, H):
    got, ref = _build_defect(a, H, certify=True), reference_block_report(a, H)
    assert got == ref and got.evidence == ref.evidence


@pytest.mark.parametrize("name", RECIPES)
def test_pair_certificate_matches_one_certificate_per_block_on_catalog_recipes(name):
    assert_certificate_matches_the_reference(catalog.assignment(name), catalog.build(name))


@pytest.mark.parametrize("p,q", [(3, 5), (5, 3), (2, 7), (3, 7), (3, 2), (5, 5)])
def test_pair_certificate_matches_one_certificate_per_block_on_search_representatives(p, q):
    checked = 0
    for a in assignment_search(p, q).representatives:
        H = reduced_build(a)
        if _build_defect(a, H, certify=False).defect > 0:
            assert_certificate_matches_the_reference(a, H)
            checked += 1
    assert checked


def test_a_side_is_read_once_while_its_bases_live(monkeypatch):
    reads = []
    read = _weyl._read_side
    monkeypatch.setattr(_weyl, "_read_side", lambda bases, q: (reads.append(q), read(bases, q))[1])
    fresh = mub._build_set(5, "standard")  # basis objects no split has read
    a = BlockAssignment.from_labels(3, 5, ("I", "H1", "H1"), ("F", "H2", "H3"), mub=fresh)
    H = reduced_build(a)
    first = weyl_split(a, H)
    assert len(reads) == 2  # the K side and the L side
    second = weyl_split(a, H)
    assert len(reads) == 2
    assert np.array_equal(first.chi_of, second.chi_of)
    assert np.array_equal(first.pairs, second.pairs)
    keys = [tuple(map(id, a.K)), tuple(map(id, a.L))]
    assert all(key in _weyl._SIDES for key in keys)
    del a, fresh, first, second
    gc.collect()
    assert not any(key in _weyl._SIDES for key in keys)


@st.composite
def valid_assignments(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    p = draw(st.integers(1, 21 // q))
    mub = complete_mub_set(q)
    # no basis on both sides: K and L draw from two disjoint parts of the set
    labels = draw(st.permutations(mub.labels))
    cut = draw(st.integers(1, len(labels) - 1))
    K = [draw(st.sampled_from(labels[:cut])) for _ in range(p)]
    L = [draw(st.sampled_from(labels[cut:])) for _ in range(p)]
    return BlockAssignment.from_labels(p, q, K, L, mub=mub)


@given(a=valid_assignments())
@settings(max_examples=25, deadline=None)
def test_split_defect_matches_the_certificate_on_random_assignments(a):
    assert_split_matches_exact(a, reduced_build(a))


@pytest.mark.parametrize("name", ["S9", "Sp10", "S15"])
def test_a_grid_that_is_not_the_build_fails_the_check_and_keeps_its_defect(name):
    a = catalog.assignment(name)
    H = catalog.build(name)
    # swap two rows of different block rows, then dephase again
    rows = list(range(H.d))
    rows[1], rows[H.d - 1] = rows[H.d - 1], rows[1]
    move = EquivalenceMove(tuple(rows), tuple(range(H.d)), (0,) * H.d, (0,) * H.d, 1)
    moved = butson_min_root(dephase(apply_equivalence(H, move))[0])[1]
    assert moved != H
    assert weyl_split(a, moved) is None
    exact = _defect_exact(moved)
    for certify in (True, False):
        rep = _build_defect(a, moved, certify=certify)
        assert rep == exact and rep.evidence == exact.evidence


# ----------------------------------------------------------------------
# the stacked elimination kernel against one matrix at a time
# ----------------------------------------------------------------------

TOP_PRIME = 33554393


@given(
    seed=st.integers(0, 2**32 - 1),
    B=st.integers(1, 6),
    shape=st.one_of(
        st.tuples(st.integers(1, 12), st.integers(1, 12)),
        st.tuples(st.integers(200, 280), st.sampled_from([255, 257, 300, 520])),
    ),
    planted=st.lists(st.booleans(), min_size=6, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_stacked_kernel_matches_each_matrix_alone(seed, B, shape, planted):
    """Random stacks, and stacks whose matrices have a planted rank, zero
    columns or repeated rows, against rank_mod and the pivots of rref_mod
    of each matrix, across panel boundaries; the stacked RREF against
    rref_mod of each matrix alone."""
    rng = np.random.default_rng(seed)
    m, n = shape
    l = TOP_PRIME
    S = rng.integers(0, l, (B, m, n))
    for b in range(B):
        if planted[b]:
            k = int(rng.integers(0, min(m, n) + 1))
            S[b] = rng.integers(0, l, (m, k)) @ rng.integers(0, l, (k, n)) % l
            S[b, :, rng.integers(0, n, 3)] = 0
            S[b, rng.integers(0, m, 2)] = S[b, rng.integers(0, m)]
    ranks = rank_mod(S.astype(np.int32), l)
    echelon, pivots = _echelon(S.copy(), l, False)
    reduced, reduced_pivots = _echelon(S.copy(), l, True)
    for b in range(B):
        # the RREF and its pivots, bit for bit, as for the matrix alone
        R, alone_pivots = rref_mod(S[b].copy(), l)
        assert np.array_equal(reduced[b], R)
        assert np.flatnonzero(reduced_pivots[b]).tolist() == alone_pivots
        assert ranks[b] == rank_mod(S[b].copy(), l)
        assert np.flatnonzero(pivots[b]).tolist() == alone_pivots
        # the same row operations as for the matrix alone, bit for bit
        alone = S[b].copy()
        rank_mod(alone, l)
        assert np.array_equal(echelon[b], alone)


def test_stacked_kernel_keeps_each_matrix_apart():
    # one matrix of the stack is zero and one is full rank: a pivot of one
    # must not touch the rows of the other
    l = TOP_PRIME
    S = np.zeros((3, 4, 4), dtype=np.int64)
    S[1] = np.eye(4, dtype=np.int64)[::-1]
    S[2, :, 2] = 5
    assert rank_mod(S.copy(), l).tolist() == [0, 4, 1]
    R, pivots = _echelon(S, l, False)
    assert not R[0].any() and np.array_equal(R[1], np.eye(4))
    assert R[2, 0].tolist() == [0, 0, 1, 0] and not R[2, 1:].any()
    assert pivots.sum(axis=1).tolist() == [0, 4, 1]


@pytest.mark.parametrize("l", [TOP_PRIME, 16777259, 7])
def test_vectorised_pivot_inverses_match_pow(l):
    rng = np.random.default_rng(l)
    pool = np.concatenate([[1, l - 1, 2, l - 2], rng.integers(1, l, 200)]).astype(np.int64)
    for n in (1, 2, 5, len(pool)):  # a lone pivot, and stacks of several
        x = pool[:n].copy()
        got = _batch_inverses(x, l)
        assert got.dtype == np.int64 and got.shape == x.shape
        assert got.tolist() == [pow(int(v), -1, l) for v in x]
        assert np.array_equal(x, pool[:n])  # the pivots themselves are left as they are


@given(seed=st.integers(0, 2**32 - 1), B=st.integers(50, 160), n=st.sampled_from([4, 9, 25]))
@settings(max_examples=15, deadline=None)
def test_stacked_kernel_on_many_small_blocks_matches_each_block_alone(seed, B, n):
    """Stacks the size of the search's queues, of blocks with planted
    ranks, at the primes the split draws, against rank_mod of each block."""
    rng = np.random.default_rng(seed)
    l = find_embedding_prime(int(rng.choice([14, 15, 30, 66])), random.Random(seed))[0]
    m = int(rng.integers(n // 2 + 1, 2 * n + 1))
    ranks = rng.integers(0, min(m, n) + 1, B)
    S = np.stack([rng.integers(0, l, (m, k)) @ rng.integers(0, l, (k, n)) % l for k in ranks])
    got = rank_mod(S.astype(np.int32), l)
    assert got.tolist() == [rank_mod(S[b].copy(), l) for b in range(B)]
    assert (got <= ranks).all()
