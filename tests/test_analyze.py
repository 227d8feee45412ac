import random
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadforge import _exactrank, catalog
from hadforge._exactrank import (
    _PRIME_TEST_BOUND,
    System,
    _is_prime,
    _lift_vectors,
    _null_coeffs_one_prime,
    _units,
    _verify_null_vectors,
    certify_rank,
    evaluate_rows,
    find_embedding_prime,
    null_basis_mod,
    rank_mod,
    rational_reconstruct,
    rref_mod,
)
from hadforge.analyze import (
    DefectReport,
    HaagerupSet,
    IndeterminateRankError,
    _candidate_assignments,
    _assignment,
    _candidate_indices,
    _defect_exact,
    _defect_float,
    _examine,
    _exact_rows,
    _float_system,
    _orbit,
    _orbit_multipliers,
    assignment_search,
    defect,
    fingerprint,
    haagerup_set,
    inequivalent_by_invariants,
    is_isolated,
)
from hadforge.construct import BlockAssignment, theorem1_build
from hadforge.cyclotomic import vanishes
from hadforge.matrices import (
    EquivalenceMove,
    ExponentMatrix,
    NotHadamardFormError,
    apply_equivalence,
    butson_min_root,
    dephase,
    random_move,
    tensor,
    to_complex,
)
from hadforge.mub import IdentityBasis, complete_mub_set, fourier


def build(p, q, K, L):
    a = BlockAssignment.from_labels(p, q, K, L)
    return dephase(theorem1_build(a))[0]


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
            conj = Fraction(-num, den) % 1
            assert (conj.numerator, conj.denominator) in mem

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


def reference_haagerup_set(H):
    """Reference exact Haagerup set: every row's quadruple phases through
    np.unique, members sorted by their turn fraction."""
    d = H.d
    E = np.array(H.exp, dtype=np.int64)
    r = H.r
    found = set()
    for i in range(d):
        D = (E[i][None, :] - E) % r
        X = (D[:, :, None] - D[:, None, :]) % r
        found.update(int(k) for k in np.unique(X))
    fracs = sorted({Fraction(k, r) for k in found})
    members = tuple((f.numerator, f.denominator) for f in fracs)
    return HaagerupSet(members=members, r=r)


def assert_haagerup_matches_reference(H):
    got, ref = haagerup_set(H), reference_haagerup_set(H)
    assert got.r == ref.r and got.members == ref.members
    assert got.digest() == ref.digest()


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 20),
    r=st.integers(1, 400),
    dephased=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_haagerup_set_matches_reference_on_random_grids(seed, d, r, dephased):
    E = np.random.default_rng(seed).integers(-2 * r, 2 * r, (d, d))
    if dephased:
        E[0, :] = E[:, 0] = 0
    assert_haagerup_matches_reference(ExponentMatrix(d, r, tuple(map(tuple, E.tolist()))))


@pytest.mark.parametrize("name", catalog.names())
def test_haagerup_set_matches_reference_on_catalog_grids(name):
    assert_haagerup_matches_reference(catalog.load(name))


@pytest.mark.parametrize("r", [128, 129, 32768, 32769])
def test_haagerup_set_matches_reference_at_dtype_boundaries(r):
    # the hit table's indices run up to 2r - 1 (255 and 257 straddle the
    # uint8 limit, 65535 and 65537 the uint16 limit); rows 1 and 0 differ by
    # 0 and r - 1, so the indices 1 and 2r - 1 are both hit
    E = np.random.default_rng(r).integers(0, r, (6, 6))
    E[:2, :2] = [[0, 1], [0, 0]]
    assert_haagerup_matches_reference(ExponentMatrix(6, r, tuple(map(tuple, E.tolist()))))


@pytest.mark.parametrize("r", [128, 129, 32768, 32769])
def test_haagerup_hit_table_at_dtype_boundaries(r):
    # as above, at the least d whose d^3 phases per row reach 2r, so that the
    # hit table, not the sort, collects them
    d = next(d for d in range(1, 50) if d**3 >= 2 * r)
    E = np.random.default_rng(r).integers(0, r, (d, d))
    E[:2, :2] = [[0, 1], [0, 0]]
    assert_haagerup_matches_reference(ExponentMatrix(d, r, tuple(map(tuple, E.tolist()))))


@pytest.mark.parametrize("name", ["S9", "Sp10", "S15"])
def test_haagerup_set_is_unchanged_by_scaling_the_root(name):
    # E at root r and k * E at root k * r are the same matrix; at k * r the
    # phases are sorted instead of marked in a table of 2 * k * r entries
    H = catalog.load(name)
    k = 10**6 + 3
    assert 2 * H.r <= H.d**3 < 2 * k * H.r
    scaled = haagerup_set(ExponentMatrix(H.d, k * H.r, k * H.exp))
    assert scaled.members == haagerup_set(H).members
    assert scaled.digest() == fingerprint(H)


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

    def test_non_unitary_grid_is_refused(self):
        flat = ExponentMatrix(3, 1, ((0, 0, 0),) * 3)
        pairs = [(flat, fourier(3)), (fourier(3), flat)]
        pairs.append((to_complex(flat), to_complex(fourier(3))))  # float branch
        for A, B in pairs:
            with pytest.raises(NotHadamardFormError):
                inequivalent_by_invariants(A, B)


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


def system_from_rows(rows):
    """The System of sparse rows, each a list of (column, [(exponent, coeff),
    ...]) pairs, with the terms in row, column and term order."""
    terms = [(i, col, e, c) for i, row in enumerate(rows) for col, ts in row for e, c in ts]
    columns = zip(*terms) if terms else ([],) * 4
    return System(len(rows), *(np.array(x, dtype=np.int64) for x in columns))


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

    @pytest.mark.parametrize(
        "r",
        # every k r + 1 for k in [59, 118) is composite; for r in
        # (2^24, 2^25) the range is {0}; for r >= 2^25 it is empty
        [281992, 2**24 + 1, 2**25, 2**40],
    )
    def test_embedding_prime_refuses_a_range_without_primes(self, r):
        with pytest.raises(_exactrank.RankCertificationError, match="no prime"):
            find_embedding_prime(r, random.Random(0))

    def test_rational_reconstruct_zero(self):
        num, den = rational_reconstruct(np.zeros((2, 1), dtype=object), 10**15)
        assert num.tolist() == [[0], [0]] and den.tolist() == [[1], [1]]

    @given(st.integers(-500, 500), st.integers(1, 500))
    @settings(max_examples=150, deadline=None)
    def test_rational_reconstruct_roundtrip(self, num, den):
        L = 999999937 * 999999893
        c = num * pow(den, -1, L) % L
        got = rational_reconstruct(np.array([c], dtype=object), L)
        assert got is not None
        assert Fraction(int(got[0][0]), int(got[1][0])) == Fraction(num, den)
        assert got[1][0] > 0

    def test_planted_rank_integers(self):
        rng = random.Random(3)
        B = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(6)]
        C = [[rng.randrange(-4, 5) for _ in range(5)] for _ in range(3)]
        prod = [[sum(B[i][k] * C[k][j] for k in range(3)) for j in range(5)] for i in range(6)]
        expected = fraction_rank(prod)
        rank, ev = certify_rank(system_from_rows(sparse_from_dense(prod)), 5, 1)
        assert rank == expected
        assert ev["pivot_count"] + ev["null_vectors"] == 5

    def test_full_rank_shortcut(self):
        ident = sparse_from_dense([[1 if i == j else 0 for j in range(4)] for i in range(4)])
        rank, ev = certify_rank(system_from_rows(ident), 4, 1)
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
        rank, ev = certify_rank(system_from_rows(rows), 5, 4)
        assert rank == 2
        assert ev["null_vectors"] == 3 and len(ev["primes"]) >= 2

    def test_certification_is_deterministic(self):
        rows = system_from_rows(sparse_from_dense([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))
        assert certify_rank(rows, 3, 1) == certify_rank(rows, 3, 1)


# two primes in the range find_embedding_prime draws from, and an r = 1
# system of rank 2 with their product as a pivot entry: mod either prime its
# rank drops to 1, and its canonical null basis there is wrong over Q
BAD_PRIMES = tuple(find_embedding_prime(1, random.Random(seed))[0] for seed in (0, 1))
BAD = BAD_PRIMES[0] * BAD_PRIMES[1]
BAD_PIVOT_SYSTEM = system_from_rows(sparse_from_dense([[1, 0, 1], [0, BAD, BAD]]))


def hand_out_primes(monkeypatch, bad):
    """Make find_embedding_prime hand out a prime of BAD_PRIMES, in turn, at
    the calls whose index (from 0) is in `bad`, or at every call when `bad`
    is None, and draw as usual otherwise; returns the primes handed out."""
    draw, handed = _exactrank.find_embedding_prime, []

    def scripted(r, rng):
        i = len(handed)
        l, g = (BAD_PRIMES[i % 2], 1) if bad is None or i in bad else draw(r, rng)
        handed.append(l)
        return l, g

    monkeypatch.setattr(_exactrank, "find_embedding_prime", scripted)
    return handed


def spy(monkeypatch, name):
    """Record the arguments and result of every call of _exactrank's
    function `name`, as (args, result) pairs."""
    calls, fn = [], getattr(_exactrank, name)

    def recorded(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]

    monkeypatch.setattr(_exactrank, name, recorded)
    return calls


class TestCertificateRetries:
    def test_bad_first_certificate_prime_is_retried(self, monkeypatch):
        # call 0 is the screen's prime; call 1 starts the first attempt, whose
        # pivot set then differs at call 2, so a second attempt certifies
        handed = hand_out_primes(monkeypatch, {1})
        rank, ev = certify_rank(BAD_PIVOT_SYSTEM, 3, 1)
        assert (rank, ev["null_vectors"]) == (2, 1)
        assert handed[1] == BAD_PRIMES[1] and not set(BAD_PRIMES) & set(ev["primes"])
        assert ev["primes"] == handed[-2:] and len(handed) == 5

    def test_only_bad_primes_raise(self, monkeypatch):
        # both primes agree on the wrong null basis, which the exact check
        # refuses; every later draw repeats one of them and is skipped
        handed = hand_out_primes(monkeypatch, None)
        checks = spy(monkeypatch, "_verify_null_vectors")
        with pytest.raises(_exactrank.RankCertificationError):
            certify_rank(BAD_PIVOT_SYSTEM, 3, 1)
        assert len(handed) == 1 + _exactrank._ATTEMPTS * _exactrank._MAX_PRIMES
        assert [ok for _, ok in checks] == [False] * _exactrank._ATTEMPTS

    def test_bad_screen_prime_leaves_no_null_vectors(self, monkeypatch):
        # full rank over Q, rank 1 mod the screen's prime: the certificate
        # lifts and checks an empty null basis
        system = system_from_rows(sparse_from_dense([[1, 0], [0, BAD]]))
        lifts = spy(monkeypatch, "_lift_vectors")
        checks = spy(monkeypatch, "_verify_null_vectors")
        handed = hand_out_primes(monkeypatch, {0})
        rank, ev = certify_rank(system, 2, 1)
        assert rank == 2 and ev == {"pivot_count": 2, "primes": handed[1:], "null_vectors": 0}
        assert len(handed) == 3 and handed[0] == BAD_PRIMES[0]
        assert [W.shape for _, W in lifts] == [(0, 2, 1)]
        assert [(args[1] is lifts[0][1], ok) for args, ok in checks] == [(True, True)]

    def test_empty_null_basis_is_lifted_and_verified(self):
        system = system_from_rows(sparse_from_dense([[1, 0], [0, 1]]))
        empty = np.zeros((0, 2, 1), dtype=np.int64)
        W = _lift_vectors([(l, empty) for l in BAD_PRIMES])
        assert W is not None and W.shape == (0, 2, 1) and W.dtype == object
        assert _verify_null_vectors(system, W, [], 1)
        assert _verify_null_vectors(System(0, *(np.zeros(0, np.int64),) * 4), W, [], 1)


def trial_division_is_prime(n, small_primes):
    """Reference: n is prime when no prime up to sqrt(n) divides it."""
    if n < 2:
        return False
    return all(n % k for k in small_primes if k * k <= n) or n in small_primes


def primes_up_to(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for k in range(2, int(n**0.5) + 1):
        if sieve[k]:
            sieve[k * k :: k] = bytearray(len(sieve[k * k :: k]))
    return [k for k in range(n + 1) if sieve[k]]


class TestIsPrime:
    def test_matches_trial_division_below_200000(self):
        small = primes_up_to(450)
        assert [_is_prime(n) for n in range(200_000)] == [
            trial_division_is_prime(n, small) for n in range(200_000)
        ]

    def test_matches_trial_division_in_the_prime_range(self):
        # find_embedding_prime draws its primes from [2^24, 2^25)
        small = primes_up_to(1 << 13)
        rng = random.Random(24)
        for n in (rng.randrange(1 << 24, 1 << 25) for _ in range(3000)):
            assert _is_prime(n) == trial_division_is_prime(n, small), n

    @pytest.mark.parametrize(
        "n",
        # 561: a Carmichael number; the rest: the least strong pseudoprimes
        # to the bases 2; 2, 3; 2, 3, 5; 2 .. 7; and 2 .. 31
        [561, 2047, 1373653, 25326001, 3215031751, 3825123056546413051],
    )
    def test_pseudoprimes_are_composite(self, n):
        assert not _is_prime(n)

    def test_large_primes_below_the_bound(self):
        assert _is_prime(2**61 - 1) and _is_prime(999999937)
        assert not _is_prime((2**31 - 1) * 999999937)

    # the bound itself is a strong pseudoprime to every base of the test
    @pytest.mark.parametrize("n", [_PRIME_TEST_BOUND, _PRIME_TEST_BOUND + 2, 2**89 - 1])
    def test_refuses_beyond_the_bound(self, n):
        with pytest.raises(ValueError):
            _is_prime(n)


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
    """rank_mod and rref_mod on int32 and int64 copies of M against the
    references; the kernel overwrites its input and returns it as R."""
    M = M.astype(np.int64)
    rank_ref = reference_rank_mod(M.copy(), l)
    R_ref, pivots_ref = reference_rref_mod(M.copy(), l)
    for dtype in (np.int32, np.int64):
        assert rank_mod(M.astype(dtype), l) == rank_ref
        image = M.astype(dtype)
        R, pivots = rref_mod(image, l)
        assert pivots == pivots_ref
        assert R.dtype == dtype and np.shares_memory(R, image)
        assert np.array_equal(R, R_ref)
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


def test_rref_pivot_after_a_swap_clears_rows_above_and_below():
    # column 1 pivots on row 2, swapped up to row 1; row 0 above and row 3
    # below it are nonzero there, row 4 is zero
    M = np.array(
        [[1, 2, 3, 4], [0, 0, 5, 6], [0, 4, 6, 7], [0, 7, 8, 1], [0, 0, 2, 9]],
        dtype=np.int64,
    )
    for l in TOP_PRIMES:
        assert_kernel_matches_reference(M, l)


def test_kernel_refuses_moduli_beyond_its_bound():
    M = np.eye(3, dtype=np.int64)
    assert rank_mod(M, TOP_PRIMES[0]) == 3
    for l in (2**25, 33554467, 999999937):
        with pytest.raises(ValueError):
            rank_mod(M, l)
        with pytest.raises(ValueError):
            rref_mod(M, l)


def test_rank_mod_allocates_less_than_an_int64_copy_of_the_image():
    # S35's 1190 x 1156 image: the kernel reduces it in place, so its work
    # arrays (the panel, W and one trailing block) stay below m * n * 8 bytes
    H = reduced_grid(catalog.load("S35"))
    n = (H.d - 1) ** 2
    l, g = find_embedding_prime(H.r, random.Random(_exactrank.SEED))
    M = evaluate_rows(_exact_rows(H), n, l, g, H.r)
    assert M.shape == (1190, 1156) and M.dtype == np.int32
    tracemalloc.start()
    try:
        assert rank_mod(M, l) == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < M.size * 8


# ----------------------------------------------------------------------
# null-vector interpolation against the per-entry Vandermonde solves
# ----------------------------------------------------------------------

def reference_solve_mod(A, b, l):
    """Reference dense Gaussian solve over F_l."""
    n = len(A)
    M = [row[:] + [bv] for row, bv in zip(A, b)]
    for col in range(n):
        piv = next(i for i in range(col, n) if M[i][col] % l)
        M[col], M[piv] = M[piv], M[col]
        inv = pow(M[col][col], l - 2, l)
        M[col] = [x * inv % l for x in M[col]]
        for i in range(n):
            if i != col and M[i][col]:
                f = M[i][col]
                M[i] = [(x - f * y) % l for x, y in zip(M[i], M[col])]
    return [M[i][n] for i in range(n)]


def reference_null_coeffs_one_prime(system, n_cols, r, units, l, g):
    """Reference interpolation: one Vandermonde solve per non-constant
    (null vector, coordinate) entry."""
    phi = len(units)
    bases = []
    pivot_ref = None
    for t in units:
        R, pivots = rref_mod(evaluate_rows(system, n_cols, l, pow(g, t, l), r), l)
        if pivot_ref is None:
            pivot_ref = tuple(pivots)
        elif tuple(pivots) != pivot_ref:
            return None
        bases.append(null_basis_mod(R, pivots, l))
    n_null = bases[0].shape[0]
    V = [[pow(g, (t * j) % r if r > 1 else 0, l) for j in range(phi)] for t in units]
    C = np.zeros((n_null, n_cols, phi), dtype=np.int64)
    for v in range(n_null):
        for x in range(n_cols):
            vals = [int(bases[tidx][v, x]) for tidx in range(phi)]
            if all(val == vals[0] for val in vals):
                sol = [vals[0]] + [0] * (phi - 1)
            else:
                sol = reference_solve_mod(V, vals, l)
            C[v, x] = sol
    return pivot_ref, C


def assert_interpolation_matches_reference(system, n_cols, r, seed):
    l, g = find_embedding_prime(r, random.Random(seed))
    args = (system, n_cols, r, _units(r), l, g)
    got, ref = _null_coeffs_one_prime(*args), reference_null_coeffs_one_prime(*args)
    if ref is None:
        assert got is None
        return
    assert got[0] == ref[0]
    assert got[1].dtype == ref[1].dtype and np.array_equal(got[1], ref[1])


@pytest.mark.parametrize("name", ["Sp10", "Sp14"])
def test_interpolation_matches_reference_on_catalog_systems(name):
    H = reduced_grid(catalog.load(name))
    system = _exact_rows(H)
    assert_interpolation_matches_reference(system, (H.d - 1) ** 2, H.r, name)


@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.sampled_from([1, 3, 4, 5, 8, 12, 15]),
    m=st.integers(1, 6),
    extra=st.integers(1, 4),
    dup_rows=st.integers(0, 2),
)
@settings(max_examples=40, deadline=None)
def test_interpolation_matches_reference_on_random_deficient_systems(
    seed, r, m, extra, dup_rows
):
    # more columns than rows, some rows repeated: the null space is nonempty
    rng = np.random.default_rng(seed)
    n = m + extra
    coeff = rng.integers(-2, 3, (2, m, n)) * (rng.random((m, n)) < 0.7)
    exp = rng.integers(0, r, (2, m, n))
    copies = rng.integers(0, m, dup_rows)
    coeff, exp = (np.concatenate([a, a[:, copies]], axis=1) for a in (coeff, exp))
    k, row, col = np.nonzero(coeff)  # up to two terms per cell
    system = System(m + dup_rows, row, col, exp[k, row, col], coeff[k, row, col])
    assert_interpolation_matches_reference(system, n, r, seed)


# ----------------------------------------------------------------------
# the lift of the null basis against the per-coefficient Fraction loop
# ----------------------------------------------------------------------

def reference_rational_reconstruct(c, L):
    """Reference: a/b = c (mod L) with |a|, b <= sqrt(L/2) by the half-gcd
    walk, for one Python int c."""
    if c % L == 0:
        return (0, 1)
    bound = isqrt(L // 2)
    r0, r1 = L, c % L
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if r1 == 0 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def reference_lift_vectors(per_prime, n_null, n_cols, phi):
    """Reference lift: CRT, rational reconstruction to a Fraction and
    denominator clearing, one coefficient at a time."""
    L = 1
    for l, _ in per_prime:
        L *= l
    vectors = []
    for v in range(n_null):
        entries = []
        for x in range(n_cols):
            coeffs = []
            for j in range(phi):
                c, mod = int(per_prime[0][1][v, x, j]), per_prime[0][0]
                for l, C in per_prime[1:]:
                    t = (int(C[v, x, j]) - c) % l * pow(mod % l, -1, l) % l
                    c, mod = c + mod * t, mod * l
                rec = reference_rational_reconstruct(c, L)
                if rec is None:
                    return None
                coeffs.append(Fraction(rec[0], rec[1]))
            entries.append(coeffs)
        den = lcm(*(f.denominator for e in entries for f in e)) if entries else 1
        vectors.append([[int(f * den) for f in e] for e in entries])
    return vectors


def assert_lift_matches_reference(per_prime):
    shape = per_prime[0][1].shape
    got, ref = _lift_vectors(per_prime), reference_lift_vectors(per_prime, *shape)
    if ref is None:
        assert got is None
        return
    assert got is not None and got.shape == shape and got.dtype == object
    assert got.tolist() == ref and all(type(c) is int for c in got.ravel())


@pytest.mark.parametrize("name", ["Sp10", "Sp14"])
def test_lift_matches_reference_on_catalog_systems(name, monkeypatch):
    H = reduced_grid(catalog.load(name))
    lifts = spy(monkeypatch, "_lift_vectors")
    certify_rank(_exact_rows(H), (H.d - 1) ** 2, H.r)
    monkeypatch.undo()
    assert lifts and lifts[-1][1] is not None
    for (per_prime,), _ in lifts:
        assert_lift_matches_reference(per_prime)


LIFT_PRIMES = TOP_PRIMES + (find_embedding_prime(1, random.Random(2))[0],)


@given(
    n_primes=st.sampled_from([2, 3]),
    shape=st.tuples(st.integers(0, 3), st.integers(1, 4), st.integers(1, 4)),
    size=st.sampled_from([2**6, 2**22, 2**30, 2**40]),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_lift_matches_reference_on_random_residues(n_primes, shape, size, data):
    # rationals num/den with |num|, den <= size (zero and negative numerators
    # among them) reconstruct while size is below sqrt(L/2): with 2 primes
    # L is about 2^50, with 3 about 2^75.  Entries replaced by independent
    # residues, and the larger sizes, make reconstruction fail.
    primes = LIFT_PRIMES[:n_primes]
    count = int(np.prod(shape))
    fraction = st.tuples(
        st.one_of(st.just(0), st.integers(-size, size)),
        st.integers(1, size).filter(lambda den: all(den % l for l in primes)),
    )
    values = data.draw(st.lists(fraction, min_size=count, max_size=count))
    C = np.array(
        [[num * pow(den, -1, l) % l for num, den in values] for l in primes], dtype=np.int64
    ).reshape((n_primes,) + shape)
    for _ in range(data.draw(st.integers(0, 2)) if count else 0):
        at = np.unravel_index(data.draw(st.integers(0, count - 1)), shape)
        for i, l in enumerate(primes):
            C[(i,) + at] = data.draw(st.integers(0, l - 1))
    assert_lift_matches_reference([(l, C[i]) for i, l in enumerate(primes)])


# ----------------------------------------------------------------------
# the exact null-vector check against the per-vector accumulation
# ----------------------------------------------------------------------

def reference_verify_null_vectors(system, vectors, free, r):
    """Reference: an object-dtype accumulation and one `vanishes` call per
    null vector."""
    for idx, w in enumerate(vectors):
        if [any(w[f]) for f in free] != [jdx == idx for jdx in range(len(free))]:
            return False
    if not system.row.size or not len(vectors):
        return True
    W = np.zeros((len(vectors[0]), r), dtype=object)
    targets = (system.row[:, None], (system.exp[:, None] + np.arange(r)) % r)
    for w in vectors:
        for x, coeffs in enumerate(w):
            W[x, : len(coeffs)] = coeffs
        acc = np.zeros((system.n_rows, r), dtype=object)
        np.add.at(acc, targets, system.coeff[:, None] * W[system.col])
        if not vanishes(acc, r).all():
            return False
    return True


def certified_null_vectors(monkeypatch, system, n_cols, r):
    """The arguments of every null-vector check that `certify_rank` makes."""
    seen = []
    verify = _exactrank._verify_null_vectors

    def capture(*args):
        seen.append(args)
        return verify(*args)

    monkeypatch.setattr(_exactrank, "_verify_null_vectors", capture)
    certify_rank(system, n_cols, r)
    monkeypatch.undo()
    return seen


def assert_null_check_matches_reference(system, vectors, free, r, rng):
    expect = reference_verify_null_vectors(system, vectors, free, r)
    assert _verify_null_vectors(system, vectors, free, r) == expect
    pivots = [x for x in range(len(vectors[0])) if x not in set(free)]
    for delta in (1, -1, 2**70):
        coords = [rng.randrange(len(vectors[0]))] + ([rng.choice(pivots)] if pivots else [])
        for x in coords:
            w = vectors.copy()
            w[rng.randrange(len(w)), x, rng.randrange(w.shape[2])] += delta
            got = _verify_null_vectors(system, w, free, r)
            assert got == reference_verify_null_vectors(system, w, free, r)
    # a multiple of a null vector is one: the Python-int path says so too
    assert _verify_null_vectors(system, vectors * 2**70, free, r) == expect
    return expect


@pytest.mark.parametrize("name", ["Sp10", "Sp14"])
def test_null_check_matches_reference_on_catalog_systems(name, monkeypatch):
    H = reduced_grid(catalog.load(name))
    n = (H.d - 1) ** 2
    checks = certified_null_vectors(monkeypatch, _exact_rows(H), n, H.r)
    assert checks and all(len(args[1]) for args in checks)
    rng = random.Random(name)
    for system, vectors, free, r in checks:
        assert assert_null_check_matches_reference(system, vectors, free, r, rng)
        # a corrupted coordinate of a pivot column breaks M . w = 0
        w = vectors.copy()
        w[0, min(set(range(n)) - set(free)), 0] += 1
        assert not _verify_null_vectors(system, w, free, r)
        assert not reference_verify_null_vectors(system, w, free, r)


@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.sampled_from([1, 3, 4, 5, 8, 12]),
    m=st.integers(1, 5),
    extra=st.integers(1, 3),
)
@settings(max_examples=25, deadline=None)
def test_null_check_matches_reference_on_random_deficient_systems(seed, r, m, extra):
    rng = np.random.default_rng(seed)
    n = m + extra
    coeff = rng.integers(-2, 3, (m, n)) * (rng.random((m, n)) < 0.7)
    row, col = np.nonzero(coeff)
    system = System(m, row, col, rng.integers(0, r, row.size), coeff[row, col])
    with pytest.MonkeyPatch.context() as mp:
        checks = certified_null_vectors(mp, system, n, r)
    assert checks
    for system, vectors, free, r in checks:
        assert assert_null_check_matches_reference(system, vectors, free, r, random.Random(seed))


# ----------------------------------------------------------------------
# defect systems from the exponent grid against the loop references
# ----------------------------------------------------------------------

def reference_float_system(Hc):
    """Reference float system, one row pair (u < v) at a time."""
    d = Hc.shape[0]
    M = np.zeros((d * (d - 1), (d - 1) ** 2))
    row = 0
    for u in range(d):
        su = slice((u - 1) * (d - 1), u * (d - 1))
        for v in range(u + 1, d):
            c = Hc[u] * np.conj(Hc[v])
            sv = slice((v - 1) * (d - 1), v * (d - 1))
            if u >= 1:
                M[row, su] = c[1:].real
                M[row + 1, su] = c[1:].imag
            M[row, sv] -= c[1:].real
            M[row + 1, sv] -= c[1:].imag
            row += 2
    return M


def reference_exact_rows(E, r, d):
    """Reference exact system as sparse rows, one row pair at a time."""
    rows = []
    for u in range(d):
        for v in range(u + 1, d):
            plus, minus = [], []
            for k in range(1, d):
                delta = (E[u][k] - E[v][k]) % r
                nd = (-delta) % r
                col_v = (v - 1) * (d - 1) + k - 1
                if u >= 1:
                    col_u = (u - 1) * (d - 1) + k - 1
                    plus.append((col_u, [(delta, 1), (nd, 1)]))
                    minus.append((col_u, [(delta, 1), (nd, -1)]))
                plus.append((col_v, [(delta, -1), (nd, -1)]))
                minus.append((col_v, [(delta, -1), (nd, 1)]))
            rows.append(plus)
            rows.append(minus)
    return rows


def reference_evaluate_rows(rows, n_cols, l, g, r):
    """Reference dense image of sparse rows, one term at a time."""
    pow_table = [1] * r
    for k in range(1, r):
        pow_table[k] = pow_table[k - 1] * g % l
    M = np.zeros((len(rows), n_cols), dtype=np.int64)
    for i, row in enumerate(rows):
        for col, terms in row:
            acc = 0
            for e, c in terms:
                acc += c * pow_table[e % r]
            M[i, col] = (M[i, col] + acc) % l
    return M


def sorted_terms(system):
    terms = np.stack(system[1:], axis=1)
    return terms[np.lexsort(terms.T[::-1])]


def assert_systems_match_references(E, r, d, rng):
    system = _exact_rows(ExponentMatrix(d, r, E))
    rows = reference_exact_rows(E, r, d)
    assert system.n_rows == len(rows) == d * (d - 1)
    assert np.array_equal(sorted_terms(system), sorted_terms(system_from_rows(rows)))
    n = (d - 1) ** 2
    l, g = find_embedding_prime(r, rng)
    M = evaluate_rows(system, n, l, g, r)
    M_ref = reference_evaluate_rows(rows, n, l, g, r)
    assert M.dtype == np.int32 and np.array_equal(M, M_ref)
    Hc = np.exp(2j * np.pi * np.asarray(E) / r)
    assert reference_float_system(Hc).tobytes() == _float_system(Hc).tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 12),
    r=st.integers(1, 60),
    dephased=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_systems_match_references_on_random_grids(seed, d, r, dephased):
    rng = np.random.default_rng(seed)
    E = rng.integers(-2 * r, 2 * r, (d, d))
    if dephased:
        E[0, :] = E[:, 0] = 0
    assert_systems_match_references(E.tolist(), r, d, random.Random(seed))


def test_evaluate_rows_reduces_terms_before_summing():
    # 2^16 terms in one cell, each about 2^48 once its coefficient is taken
    # mod l: their unreduced sum would overflow int64
    rng = np.random.default_rng(5)
    size = 2**16
    r = 60
    l, g = find_embedding_prime(r, random.Random(5))
    exps = rng.integers(0, r, size)
    coeffs = rng.choice([-1, -(2**40) - 3], size)
    system = System(1, np.zeros(size, np.int64), np.zeros(size, np.int64), exps, coeffs)
    expected = sum(int(c) * pow(g, int(e), l) for e, c in zip(exps, coeffs)) % l
    assert evaluate_rows(system, 1, l, g, r).tolist() == [[expected]]


def reduced_grid(H):
    return butson_min_root(dephase(H)[0])[1]


CATALOG_UP_TO_49 = [n for n in catalog.names() if catalog.entry(n).d <= 49]


@pytest.mark.parametrize("name", CATALOG_UP_TO_49)
def test_systems_match_references_on_catalog_grids(name):
    H = reduced_grid(catalog.load(name))
    assert_systems_match_references(H.exp, H.r, H.d, random.Random(name))


def assert_defects_agree(H):
    """Exact and float defects agree wherever the float verdict is decisive."""
    exact = _defect_exact(H)
    try:
        approx = _defect_float(to_complex(H).entries)
    except IndeterminateRankError:
        return
    assert approx.defect == exact.defect


@given(
    name=st.sampled_from([n for n in CATALOG_UP_TO_49 if catalog.entry(n).d <= 15]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_exact_and_float_defects_agree_on_moved_catalog_grids(name, seed):
    H = catalog.load(name)
    moved = apply_equivalence(H, random_move(H.d, 2 * H.r, random.Random(seed)))
    assert_defects_agree(reduced_grid(moved))


@pytest.mark.parametrize("p,q", [(2, 5), (3, 3)])
def test_exact_and_float_defects_agree_on_search_grids(p, q):
    for a in _candidate_assignments(p, complete_mub_set(q)):
        assert_defects_agree(reduced_grid(theorem1_build(a)))


@pytest.mark.parametrize("p,q", [(2, 5), (3, 3)])
def test_examine_screen_matches_the_exact_defect(p, q):
    cache: dict = {}
    for a in _candidate_assignments(p, complete_mub_set(q)):
        _, _, rep = _examine(a, cache)
        exact = _defect_exact(reduced_grid(theorem1_build(a)))
        assert rep.defect == exact.defect
        if exact.defect == 0:
            assert rep == exact and rep.evidence == exact.evidence
        else:
            assert rep.mode == "bound" and rep.rank == exact.rank


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
        # the first orbit holds one candidate, the second two: only the
        # first fits in a budget of 2
        assert [size for _, size in orbits(3, 3)[:2]] == [1, 2]
        res = assignment_search(3, 3, budget=2)
        assert res.examined == 1 and res.partial

    def test_budget_of_the_whole_enumeration_is_not_partial(self):
        res = assignment_search(2, 3, budget=7)
        assert res.examined == 7 and not res.partial

    @pytest.mark.parametrize("limit", [{"budget": 0}, {"time_limit": 0}])
    def test_zero_budget_or_time_limit_examines_nothing(self, limit):
        res = assignment_search(2, 3, **limit)
        assert res.examined == 0 and res.partial
        assert res.classes == [] and res.findings == []

    @pytest.mark.parametrize(
        "limit", [{"budget": -1}, {"time_limit": -1.0}, {"time_limit": float("nan")}]
    )
    def test_negative_budget_or_time_limit_is_refused(self, limit):
        with pytest.raises(ValueError):
            assignment_search(2, 3, **limit)

    def test_known_isolated_class_found(self):
        res = assignment_search(3, 3)
        assert res.examined == 19 and not res.partial
        assert [f.fingerprint for f in res.findings] == [fingerprint(S9)]
        f = res.findings[0]
        assert f.report.defect == 0 and f.butson_root == 6

    def test_stop_reason_is_reported(self):
        assert assignment_search(2, 3).stopped_by is None
        assert assignment_search(2, 3, budget=3).stopped_by == "budget"
        assert assignment_search(2, 3, time_limit=0).stopped_by == "time limit"


# ----------------------------------------------------------------------
# orbit representatives against the full enumeration
# ----------------------------------------------------------------------

def reference_assignment_search(p, q, budget=None):
    """The full enumeration: every candidate analysed, in order."""
    cache: dict = {}
    findings, classes, seen = [], [], set()
    examined, partial = 0, False
    for a in _candidate_assignments(p, complete_mub_set(q)):
        if budget is not None and examined >= budget:
            partial = True
            break
        root, fp, rep = _examine(a, cache)
        examined += 1
        key = (fp, rep.defect)
        if key not in seen:
            seen.add(key)
            classes.append(key)
            if rep.defect == 0:
                findings.append((a.to_json(), rep, root, fp))
    return classes, examined, partial, findings


def search_summary(res):
    findings = [
        (f.assignment.to_json(), f.report, f.butson_root, f.fingerprint)
        for f in res.findings
    ]
    return res.classes, res.examined, res.partial, findings


def orbits(p, q):
    """(representative, orbit size) pairs of the search's own orbits, in
    enumeration order."""
    mult = _orbit_multipliers(q)
    out = []
    for kc, lc in _candidate_indices(p, q):
        orbit = _orbit(kc, lc, q, mult)
        if min(orbit) == (kc, lc):
            out.append(((kc, lc), len(orbit)))
    return out


@pytest.mark.parametrize(
    "q,expected",
    [
        (2, (1,)),
        (3, (1, 2)),
        (5, (1, 4)),
        (7, (1, 2, 3, 4, 5, 6)),
        (11, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
        (13, (1, 3, 4, 9, 10, 12)),
    ],
)
def test_orbit_multipliers_are_the_nonzero_squares(q, expected):
    """+-x^2: every unit for q = 3 (mod 4), the squares for q = 1 (mod 4)."""
    assert _orbit_multipliers(q) == expected


@pytest.mark.parametrize(
    "p,q", [(2, 2), (2, 3), (3, 3), (2, 5), (3, 5), (5, 3), (2, 7), (2, 11)]
)
def test_orbit_search_matches_full_enumeration(p, q):
    res = assignment_search(p, q)
    assert search_summary(res) == reference_assignment_search(p, q)
    reps = orbits(p, q)
    if q > 2:
        assert any(size > 1 for _, size in reps)
    mub = complete_mub_set(q)
    assert res.representatives == [_assignment(p, kc, lc, mub) for (kc, lc), _ in reps]
    assert res.examined == sum(size for _, size in reps)


# frozen from the full enumeration of (3, 7), which takes about 30 s
SEARCH_3_7_CLASSES = [
    ["73a2d446fad0499bd2aa2fcf55c8830c33d9a0449fd21f2fefafed5556459b04", 24],
    ["9746f651335c36467829cf4a3571abe002338d6d5c15f20f2985cf579570bb5a", 0],
    ["73a2d446fad0499bd2aa2fcf55c8830c33d9a0449fd21f2fefafed5556459b04", 0],
    ["9746f651335c36467829cf4a3571abe002338d6d5c15f20f2985cf579570bb5a", 6],
]
SEARCH_3_7_FINDINGS = [
    [["I", "I", "H1"], ["F", "F", "H2"], "9746f651335c36467829cf4a3571abe002338d6d5c15f20f2985cf579570bb5a"],
    [["I", "I", "H1"], ["F", "F", "H4"], "73a2d446fad0499bd2aa2fcf55c8830c33d9a0449fd21f2fefafed5556459b04"],
]


def test_orbit_search_matches_frozen_full_enumeration_at_3_7():
    res = assignment_search(3, 7)
    assert res.examined == 505 and not res.partial
    assert [list(c) for c in res.classes] == SEARCH_3_7_CLASSES
    assert [
        [f.assignment.K_labels, f.assignment.L_labels, f.fingerprint] for f in res.findings
    ] == [[tuple(K), tuple(L), fp] for K, L, fp in SEARCH_3_7_FINDINGS]


def monomial_witness(B, B2, mu, q):
    """(sigma, theta, r) with P_mu B = B2 M exactly, where column m of the
    monomial M holds omega_r^theta[m] in row sigma[m]; None when there is
    no such M.  (P_mu v)[mu x] = v[x]."""
    inv = pow(mu, -1, q)
    if isinstance(B, IdentityBasis) or isinstance(B2, IdentityBasis):
        if not (isinstance(B, IdentityBasis) and isinstance(B2, IdentityBasis)):
            return None
        return [mu * m % q for m in range(q)], [0] * q, 1
    r = lcm(B.r, B2.r)
    return column_witness(B.rescaled(r).exp[[inv * k % q for k in range(q)]], B2, r, q)


def conjugation_witness(B, B2, q):
    """(sigma, theta, r) with conj(B) = B2 M exactly, M as in
    `monomial_witness`; None when there is no such M."""
    if isinstance(B, IdentityBasis) or isinstance(B2, IdentityBasis):
        if not (isinstance(B, IdentityBasis) and isinstance(B2, IdentityBasis)):
            return None
        return list(range(q)), [0] * q, 1
    r = lcm(B.r, B2.r)
    return column_witness(-B.rescaled(r).exp % r, B2, r, q)


def column_witness(UB, B2, r, q):
    """(sigma, theta, r) with UB = B2 M for the exponent grid UB at root r."""
    E2 = B2.rescaled(r).exp
    sigma, theta = [], []
    for m in range(q):
        diff = (UB[:, m][:, None] - E2) % r
        hits = [c for c in range(q) if (diff[:, c] == diff[0, c]).all()]
        if len(hits) != 1:
            return None
        sigma.append(hits[0])
        theta.append(int(diff[0, hits[0]]))
    return (sigma, theta, r) if sorted(sigma) == list(range(q)) else None


def relabel(label, s, q):
    return f"H{s * int(label[1:]) % q}" if label.startswith("H") else label


def block_move(witnesses, q, r):
    """The exact move D1 H D2^dagger, with D1 = blockdiag(K witnesses) and
    D2 = blockdiag(L witnesses), as an EquivalenceMove at root r."""
    perms, phases = ([], []), ([], [])
    for side, sign in ((0, 1), (1, -1)):
        for i, (sigma, theta, rw) in enumerate(witnesses[side]):
            inv = {x: m for m, x in enumerate(sigma)}
            for x in range(q):
                perms[side].append(i * q + inv[x])
                phases[side].append(sign * theta[inv[x]] * (r // rw) % r)
    return EquivalenceMove(*map(tuple, perms), *map(tuple, phases), r)


@pytest.mark.parametrize("q", [5, 7, 11])
def test_relabelling_is_an_exact_monomial_equivalence(q):
    """Only the square multipliers.  The conjugation test below covers -1,
    which gives the rest of the group for q = 3 (mod 4)."""
    mub = complete_mub_set(q)
    rng = random.Random(q)
    squares = {x * x % q for x in range(1, q)}
    for s in (s for s in _orbit_multipliers(q) if s in squares):
        mus = [mu for mu in range(1, q) if pow(mu, -2, q) == s]
        assert mus, f"multiplier {s} is not a square mod {q}"
        mu = mus[0]
        witness = {}
        for label in mub.labels:
            w = monomial_witness(mub[label], mub[relabel(label, s, q)], mu, q)
            assert w is not None, (s, label)
            witness[label] = w
        r = lcm(*(w[2] for w in witness.values()))
        for p in (2, 3):
            for _ in range(4):
                # unsorted slots, relabelled in place
                kc, lc = random_valid_indices(rng, p, q)
                a = _assignment(p, kc, lc, mub)
                a2 = _assignment(p, [s * j % q for j in kc], [s * j % q for j in lc], mub)
                H, H2 = (theorem1_build(x) for x in (a, a2))
                K, L = a.K_labels, a.L_labels
                move = block_move(([witness[x] for x in K], [witness[x] for x in L]), q, r)
                assert apply_equivalence(H, move) == H2, (s, K, L)


def conjugation_move(K, L, witness, p, q, r):
    """The exact move with apply_equivalence(build(a''), move) = conj(build(a))
    for an assignment a with labels K, L.  With conj(K_i) = K'_i M_i and
    conj(L_j) = L'_j N_j, block (i, j) of conj(build(a)) is
    M_i^dagger build(a'')[i, -j] N_j: row x of block row i is its row
    sigma[x] times omega^-theta[x], and column x of block column j is
    column sigma[x] of block column -j times omega^theta[x]."""
    perms, phases = ([], []), ([], [])
    for side, sign, labels in ((0, -1, K), (1, 1, L)):
        for i, label in enumerate(labels):
            sigma, theta, rw = witness[label]
            src = i if side == 0 else -i % p
            for x in range(q):
                perms[side].append(src * q + sigma[x])
                phases[side].append(sign * theta[x] * (r // rw) % r)
    return EquivalenceMove(*map(tuple, perms), *map(tuple, phases), r)


@pytest.mark.parametrize("q", [3, 7, 11])
def test_conjugation_is_an_exact_monomial_equivalence(q):
    """conj(build(a)) = D1 build(a'') D2 with monomial D1 and D2, where a''
    negates every H index and moves L slot i to slot -i mod p."""
    mub = complete_mub_set(q)
    rng = random.Random(q)
    witness = {}
    for label in mub.labels:
        w = conjugation_witness(mub[label], mub[relabel(label, -1, q)], q)
        assert w is not None, label
        witness[label] = w
    r = lcm(*(w[2] for w in witness.values()))
    for p in (2, 3):
        for _ in range(4):
            # unsorted slots; slot i of lc is L slot i + 1
            kc, lc = random_valid_indices(rng, p, q)
            a = _assignment(p, kc, lc, mub)
            a2 = _assignment(p, [-j % q for j in kc], [-j % q for j in reversed(lc)], mub)
            H, H2 = (theorem1_build(x) for x in (a, a2))
            move = conjugation_move(a.K_labels, a.L_labels, witness, p, q, r)
            conj = ExponentMatrix(H.d, H.r, -H.exp)
            assert apply_equivalence(H2, move) == conj, (a.K_labels, a.L_labels)


def random_valid_indices(rng, p, q):
    while True:
        kc = [rng.randrange(q) for _ in range(p - 1)]
        lc = [rng.randrange(q) for _ in range(p - 1)]
        if not {j for j in kc if j} & set(lc):
            return kc, lc


@pytest.mark.parametrize("p,q", [(3, 3), (5, 3), (3, 5), (2, 7)])
def test_orbit_members_share_the_examined_key(p, q):
    mub = complete_mub_set(q)
    mult = _orbit_multipliers(q)
    cache: dict = {}
    keys: dict = {}
    for kc, lc in _candidate_indices(p, q):
        _, fp, rep = _examine(_assignment(p, kc, lc, mub), cache)
        keys.setdefault(min(_orbit(kc, lc, q, mult)), set()).add((fp, rep.defect))
    assert any(len(_orbit(*c, q, mult)) > 1 for c in keys)
    assert all(len(k) == 1 for k in keys.values())


@pytest.mark.parametrize("p,q", [(2, 3), (3, 3), (2, 5), (2, 7)])
def test_budget_never_splits_an_orbit(p, q):
    reps = orbits(p, q)
    total = sum(size for _, size in reps)
    full = assignment_search(p, q)
    for budget in range(total + 1):
        res = assignment_search(p, q, budget=budget)
        k = len(res.representatives)
        assert res.examined <= budget
        assert res.representatives == full.representatives[:k]
        assert res.examined == sum(size for _, size in reps[:k])
        assert res.partial == (k < len(reps)) == (budget < total)
        assert k == len(reps) or res.examined + reps[k][1] > budget
        assert res.stopped_by == ("budget" if res.partial else None)


@pytest.mark.parametrize("p,q", [(2, 2)])
def test_budget_matches_full_enumeration_when_orbits_are_single(p, q):
    total = assignment_search(p, q).examined
    for budget in range(total + 1):
        res = assignment_search(p, q, budget=budget)
        assert search_summary(res) == reference_assignment_search(p, q, budget)
