import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadforge._exactrank import (
    certify_rank,
    find_embedding_prime,
    null_basis_mod,
    rank_mod,
    rational_reconstruct,
    rref_mod,
)
from hadforge.analyze import (
    DefectReport,
    IndeterminateRankError,
    assignment_search,
    defect,
    fingerprint,
    haagerup_set,
    inequivalent_by_invariants,
    is_isolated,
)
from hadforge.construct import BlockAssignment, theorem1_build
from hadforge.cyclotomic import RootExponent
from hadforge.matrices import (
    apply_equivalence,
    dephase,
    random_move,
    tensor,
    to_complex,
)
from hadforge.mub import fourier


def build(p, q, K, L):
    a = BlockAssignment.from_labels(p, q, K, L)
    return dephase(theorem1_build(a, mode="exact"))[0]


S9 = build(3, 3, ("I", "I", "H1"), ("F", "F", "H2"))
SP10 = build(2, 5, ("I", "H1"), ("F", "H2"))


# ----------------------------------------------------------------------
# defect
# ----------------------------------------------------------------------

class TestDefect:
    @pytest.mark.parametrize(
        "H,expected",
        [
            (fourier(5), 0),
            (fourier(4), 1),
            (fourier(9), 4),
            (tensor(fourier(3), fourier(3)), 16),
        ],
    )
    def test_fourier_pins_exact(self, H, expected):
        rep = defect(H, mode="exact")
        assert rep.defect == expected
        assert rep.mode == "exact"
        assert rep.variables == (H.d - 1) ** 2
        assert rep.rank == rep.variables - rep.defect

    def test_float_agrees_with_exact(self):
        for H in (fourier(4), fourier(9), S9):
            assert defect(H, mode="float").defect == defect(H, mode="exact").defect

    def test_isolated_construction(self):
        rep = defect(S9)
        assert rep.defect == 0 and rep.isolated
        assert is_isolated(S9)

    def test_unisolated_sibling_has_defect_8(self):
        # same order-10 block scheme, different diagonal pairing
        assert defect(SP10, mode="exact").defect == 8

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            defect(fourier(3), mode="svd")
        with pytest.raises(ValueError):
            defect(to_complex(fourier(3)), mode="exact")

    def test_complex_input_uses_float_path(self):
        rep = defect(to_complex(fourier(5)))
        assert rep.mode == "float" and rep.defect == 0
        assert "sigma_max" in rep.evidence

    def test_gap_guard_raises(self, monkeypatch):
        def murky_svd(M, compute_uv=True):
            n = min(M.shape)
            return np.array([1.0] + [0.5] * (n - 2) + [1e-12])

        monkeypatch.setattr(np.linalg, "svd", murky_svd)
        with pytest.raises(IndeterminateRankError) as exc:
            defect(to_complex(fourier(4)), mode="float")
        assert exc.value.tau > 0
        assert exc.value.singular_values is not None

    def test_exact_evidence_records_certificate(self):
        rep = defect(fourier(4), mode="exact")
        ev = rep.evidence
        assert ev["null_vectors"] == 1 and ev["pivot_count"] == rep.rank
        assert all(p > 2**24 or p == 999999937 for p in ev["primes"])


# ----------------------------------------------------------------------
# Haagerup set / fingerprint
# ----------------------------------------------------------------------

class TestHaagerup:
    def test_small_fourier_literals(self):
        assert set(haagerup_set(fourier(2)).members) == {(0, 1), (1, 2)}
        assert set(haagerup_set(fourier(3)).members) == {(0, 1), (1, 3), (2, 3)}
        assert haagerup_set(fourier(4)).members == ((0, 1), (1, 4), (1, 2), (3, 4))

    def test_members_sorted_by_turn_fraction(self):
        mem = haagerup_set(S9).members
        fracs = [Fraction(n, d) for n, d in mem]
        assert fracs == sorted(fracs)
        assert mem[0] == (0, 1)  # quadruples with i == k contribute 1

    def test_closed_under_conjugation(self):
        mem = set(haagerup_set(SP10).members)
        for num, den in mem:
            assert RootExponent(den - num, den).canonical() in mem

    def test_float_set_matches_exact_cardinality(self):
        for H in (fourier(5), fourier(4), S9):
            exact = haagerup_set(H)
            approx = haagerup_set(to_complex(H))
            assert exact.exact and not approx.exact
            assert len(exact) == len(approx)
            with pytest.raises(ValueError):
                approx.digest()

    def test_fingerprint_is_digest(self):
        assert fingerprint(S9) == haagerup_set(S9).digest()
        assert len(fingerprint(S9)) == 64

    def test_fingerprint_invariant_under_moves(self):
        rng = random.Random(7)
        fp = fingerprint(S9)
        H = S9
        for _ in range(8):
            H = apply_equivalence(H, random_move(9, 2 * H.r, rng))
            assert fingerprint(H) == fp

    def test_defect_invariant_under_moves(self):
        rng = random.Random(11)
        moved = apply_equivalence(SP10, random_move(10, 2 * SP10.r, rng))
        assert defect(moved, mode="float").defect == 8


# ----------------------------------------------------------------------
# invariant screening
# ----------------------------------------------------------------------

class TestCompare:
    def test_order_mismatch(self):
        verdict, info = inequivalent_by_invariants(fourier(2), fourier(3), details=True)
        assert verdict == "inequivalent"
        assert "order" in info["reasons"]

    def test_invariants_separate_equal_order(self):
        # order 9 both, but roots 9 vs 3 and defects 4 vs 16
        verdict = inequivalent_by_invariants(fourier(9), tensor(fourier(3), fourier(3)))
        assert verdict == "inequivalent"

    def test_self_comparison_inconclusive(self):
        assert inequivalent_by_invariants(fourier(5), fourier(5)) == "inconclusive"

    def test_details_payload(self):
        verdict, info = inequivalent_by_invariants(S9, fourier(9), details=True)
        assert verdict == "inequivalent"
        for key in ("order", "butson_root", "haagerup_size", "defect"):
            assert key in info


# ----------------------------------------------------------------------
# exact rank engine
# ----------------------------------------------------------------------

def poly_mul(a, b, r):
    out = [0] * r
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[(i + j) % r] += ai * bj
    return out


def sparse_from_dense(rows_int):
    return [
        [(j, [(0, v)]) for j, v in enumerate(row) if v] for row in rows_int
    ]


def fraction_rank(rows_int):
    m = [[Fraction(v) for v in row] for row in rows_int]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


class TestExactRank:
    def test_embedding_prime_order(self):
        rng = random.Random(0)
        for r in (3, 12, 30):
            l, g = find_embedding_prime(r, rng)
            assert l % r == 1 and 2**24 <= l < 2**25
            assert pow(g, r, l) == 1
            for t in range(1, r):
                if r % t == 0:
                    assert pow(g, t, l) != 1

    def test_rational_reconstruct_zero(self):
        assert rational_reconstruct(0, 10**15) == (0, 1)

    @given(st.integers(-500, 500), st.integers(1, 500))
    @settings(max_examples=150, deadline=None)
    def test_rational_reconstruct_roundtrip(self, num, den):
        L = 999999937 * 999999893
        c = num * pow(den, -1, L) % L
        got = rational_reconstruct(c, L)
        assert got is not None
        assert Fraction(*got) == Fraction(num, den)

    def test_planted_rank_integers(self):
        rng = random.Random(3)
        B = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(6)]
        C = [[rng.randrange(-4, 5) for _ in range(5)] for _ in range(3)]
        prod = [[sum(B[i][k] * C[k][j] for k in range(3)) for j in range(5)] for i in range(6)]
        expected = fraction_rank(prod)
        rank, ev = certify_rank(sparse_from_dense(prod), 5, 1)
        assert rank == expected
        assert ev["pivot_count"] + ev["null_vectors"] == 5

    def test_full_rank_shortcut(self):
        ident = sparse_from_dense([[1 if i == j else 0 for j in range(4)] for i in range(4)])
        rank, ev = certify_rank(ident, 4, 1)
        assert rank == 4 and ev["null_vectors"] == 0

    def test_planted_rank_gaussian_integers(self):
        # B (4x2) and C (2x5) over Z[i], both visibly of rank 2, entries as
        # coefficient vectors on 1, w, w^2, w^3 with w = i
        one, i_, zero = [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]
        B = [[one, zero], [zero, one], [one, one], [i_, one]]
        C = [
            [one, zero, one, i_, [2, 0, 0, 0]],
            [zero, one, i_, one, one],
        ]
        rows = []
        for m in range(4):
            entries = []
            for j in range(5):
                acc = [0, 0, 0, 0]
                for k in range(2):
                    term = poly_mul(B[m][k], C[k][j], 4)
                    acc = [x + y for x, y in zip(acc, term)]
                if any(acc):
                    entries.append((j, [(e, c) for e, c in enumerate(acc) if c]))
            rows.append(entries)
        rank, ev = certify_rank(rows, 5, 4)
        assert rank == 2
        assert ev["null_vectors"] == 3 and len(ev["primes"]) >= 2

    def test_certification_is_deterministic(self):
        rows = sparse_from_dense([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert certify_rank(rows, 3, 1) == certify_rank(rows, 3, 1)


# ----------------------------------------------------------------------
# panel elimination kernel against the column-at-a-time reference
# ----------------------------------------------------------------------

def reference_rref_mod(M, l):
    """Reference RREF over F_l, one column at a time over full rows, with the
    kernel's pivot rule (leftmost column, first nonzero row)."""
    R = M % l
    m, n = R.shape
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        nz = np.nonzero(R[row:, col])[0]
        if nz.size == 0:
            continue
        sel = row + int(nz[0])
        if sel != row:
            R[[row, sel]] = R[[sel, row]]
        inv = pow(int(R[row, col]), l - 2, l)
        R[row] = R[row] * inv % l
        colvals = R[:, col].copy()
        colvals[row] = 0
        mask = np.nonzero(colvals)[0]
        if mask.size:
            R[mask] = (R[mask] - np.outer(colvals[mask], R[row])) % l
        pivots.append(col)
        row += 1
    return R, pivots


def reference_rank_mod(M, l):
    """Reference row echelon rank over F_l, one column at a time."""
    R = M % l
    m, n = R.shape
    rank = 0
    for col in range(n):
        if rank >= m:
            break
        nz = np.nonzero(R[rank:, col])[0]
        if nz.size == 0:
            continue
        sel = rank + int(nz[0])
        if sel != rank:
            R[[rank, sel]] = R[[sel, rank]]
        inv = pow(int(R[rank, col]), l - 2, l)
        R[rank] = R[rank] * inv % l
        below = R[rank + 1 :, col].copy()
        mask = np.nonzero(below)[0]
        if mask.size:
            R[rank + 1 + mask] = (R[rank + 1 + mask] - np.outer(below[mask], R[rank])) % l
        rank += 1
    return rank


def reference_null_basis(R, pivots, l):
    n = R.shape[1]
    free = [c for c in range(n) if c not in set(pivots)]
    N = np.zeros((len(free), n), dtype=np.int64)
    for idx, f in enumerate(free):
        N[idx, f] = 1
        for i, p in enumerate(pivots):
            N[idx, p] = (-int(R[i, f])) % l
    return N


# the largest primes below 2^25, the kernel's modulus bound
TOP_PRIMES = (33554393, 33554383)


def assert_kernel_matches_reference(M, l):
    before = M.copy()
    assert rank_mod(M, l) == reference_rank_mod(M.copy(), l)
    R, pivots = rref_mod(M, l)
    R_ref, pivots_ref = reference_rref_mod(M.copy(), l)
    assert pivots == pivots_ref
    assert R.dtype == R_ref.dtype and np.array_equal(R, R_ref)
    assert np.array_equal(M, before)
    N = null_basis_mod(R, pivots, l)
    assert np.array_equal(N, reference_null_basis(R, pivots, l))
    assert not (M @ N.T % l).any()  # at most 600 products below 2^50: no overflow


@given(
    seed=st.integers(0, 2**32 - 1),
    l=st.sampled_from(TOP_PRIMES),
    m=st.one_of(st.integers(1, 12), st.integers(200, 320)),
    n=st.one_of(st.integers(1, 12), st.sampled_from([255, 256, 257, 511, 512, 513, 600])),
    deficient=st.booleans(),
    zero_cols=st.integers(0, 6),
    dup_rows=st.integers(0, 6),
)
@settings(max_examples=30, deadline=None)
def test_panel_kernel_matches_reference(seed, l, m, n, deficient, zero_cols, dup_rows):
    rng = np.random.default_rng(seed)
    if deficient:
        k = int(rng.integers(0, min(m, n) + 1))
        B = rng.integers(0, l, (m, k))
        C = rng.integers(0, l, (k, n))
        M = (B @ C) % l  # k < 2^13 products below 2^50: no int64 overflow
    else:
        M = rng.integers(0, l, (m, n))
    M[:, rng.integers(0, n, zero_cols)] = 0
    M[rng.integers(0, m, dup_rows)] = M[rng.integers(0, m)]
    assert_kernel_matches_reference(M, l)


@pytest.mark.parametrize("shape", [(300, 577), (577, 300)])
def test_panel_kernel_at_the_largest_entries(shape):
    # every entry l - 1 at the largest allowed prime, then the same with a
    # zero diagonal (full rank), so the trailing dgemms see maximal operands;
    # 577 columns leave a last trailing block one column wide
    l = TOP_PRIMES[0]
    M = np.full(shape, l - 1, dtype=np.int64)
    assert_kernel_matches_reference(M, l)
    np.fill_diagonal(M, 0)
    assert_kernel_matches_reference(M, l)
    assert rank_mod(M, l) == min(shape)


def test_kernel_refuses_moduli_beyond_its_bound():
    M = np.eye(3, dtype=np.int64)
    assert rank_mod(M, TOP_PRIMES[0]) == 3
    for l in (2**25, 33554467, 999999937):
        with pytest.raises(ValueError):
            rank_mod(M, l)
        with pytest.raises(ValueError):
            rref_mod(M, l)


# ----------------------------------------------------------------------
# assignment search
# ----------------------------------------------------------------------

class TestSearch:
    def test_smallest_case_exhausts_without_findings(self):
        res = assignment_search(2, 2)
        assert res.examined == 3 and not res.partial
        assert res.findings == []
        assert len(res.classes) >= 1

    def test_budget_marks_partial(self):
        res = assignment_search(3, 3, budget=2)
        assert res.examined == 2 and res.partial

    def test_known_isolated_class_found(self):
        res = assignment_search(3, 3)
        assert res.examined == 19 and not res.partial
        assert [f.fingerprint for f in res.findings] == [fingerprint(S9)]
        f = res.findings[0]
        assert f.report.defect == 0 and f.butson_root == 6
