import random
from functools import lru_cache

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from hadforge.cyclotomic import MAX_CELLS, cyclotomic_polynomial, sums_vanish, vanishes
from hadforge.matrices import ExponentMatrix, apply_equivalence, is_unitary, random_move, tensor
from hadforge.mub import complete_mub_set, fourier, is_mu_pair


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_rem_monic(coeffs, divisor):
    """Reference zero test: remainder of coeffs (low-first) modulo a monic
    integer polynomial, one element at a time in Python ints."""
    rem = list(coeffs)
    deg = len(divisor) - 1
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            for j in range(deg):
                rem[i - deg + j] -= c * divisor[j]
    return rem[:deg]


def reference_is_zero(coeffs, r):
    return not any(poly_rem_monic(coeffs, cyclotomic_polynomial(r)))


def test_cyclotomic_polynomial_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def poly_exact_div(num, den):
    """Exact division of integer polynomials (monic-or-unit divisor leading
    coefficient; remainder must vanish)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // lead
        out[i] = q
        if q:
            for j, dj in enumerate(den):
                num[i + j] -= q * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division (remainder)")
    return out


@lru_cache(maxsize=None)
def reference_cyclotomic_polynomial(r):
    """Reference: exact division of x^r - 1 by the product of Phi_m over the
    proper divisors m of r."""
    if r == 1:
        return (-1, 1)
    num = [0] * (r + 1)
    num[0], num[r] = -1, 1
    for m in range(1, r):
        if r % m == 0:
            num = poly_exact_div(num, list(reference_cyclotomic_polynomial(m)))
    return tuple(num)


@pytest.mark.parametrize("rs", [range(1, 401), [20010], [30030]], ids=["1-400", "20010", "30030"])
def test_cyclotomic_polynomial_matches_reference(rs):
    for r in rs:
        got = cyclotomic_polynomial(r)
        assert got == reference_cyclotomic_polynomial(r), r
        assert all(type(c) is int for c in got)


def test_cyclotomic_polynomial_refuses_r_below_one():
    for r in (0, -6):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(r)


@given(n=st.integers(min_value=1, max_value=60))
def test_cyclotomic_factorization_of_x_n_minus_1(n):
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
    want = [-1] + [0] * (n - 1) + [1]
    assert prod == want


def cyclic_product(a, b):
    """Product of two sums of r-th roots given as length-r coefficient rows."""
    r = len(a)
    return np.append(np.convolve(a, b), 0).reshape(2, r).sum(axis=0)


class TestCyclotomicInteger:
    """Known identities among cyclotomic integers, written as dense rows of
    coefficients of the r-th roots and tested with `vanishes`."""

    def test_known_vanishing_sums(self):
        # 1 + w + w^2 = 0 at r = 3, and w^2 - w + 1 = 0 for the primitive 6th
        # root; 1 + i is not zero
        assert vanishes([[1, 1, 1]], 3).tolist() == [True]
        assert vanishes([[1, -1, 1, 0, 0, 0]], 6).tolist() == [True]
        assert vanishes([[1, 1, 0, 0]], 4).tolist() == [False]

    def test_difference_of_squares(self):
        # (1 + i)(1 - i) = 2, and not 1
        prod = cyclic_product([1, 1, 0, 0], [1, -1, 0, 0])
        assert vanishes([prod - [2, 0, 0, 0], prod - [1, 0, 0, 0]], 4).tolist() == [True, False]


# ----------------------------------------------------------------------
# the batched zero test against the per-element reference
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(1, 400),
    seed=st.integers(0, 2**32),
    bits=st.sampled_from([3, 30, 70]),  # 70 forces Python-int arithmetic
)
def test_vanishes_matches_reference_remainder(r, seed, bits):
    rng = random.Random(seed)
    phi = list(cyclotomic_polynomial(r))
    rows = []
    for _ in range(6):
        # a multiple of Phi_r times a power of omega vanishes; one unit
        # more in a single coefficient does not
        mult = [rng.randint(-(2**bits), 2**bits) for _ in range(r - len(phi) + 1)]
        row = poly_mul(mult, phi)
        k = rng.randrange(r)
        row = row[k:] + row[:k]
        if rng.random() < 0.5:
            row[rng.randrange(r)] += rng.choice((-1, 1))
        rows.append(row)
    assert vanishes(rows, r).tolist() == [reference_is_zero(row, r) for row in rows]


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 400), seed=st.integers(0, 2**32), terms=st.integers(1, 6))
def test_vanishes_matches_reference_on_sparse_rows(r, seed, terms):
    # rows in which only a few exponents occur; every other row is a
    # vanishing coset sum
    # omega^k (1 + omega^(r/p) + ... + omega^((p-1) r/p)) for a prime p | r
    rng = random.Random(seed)
    primes = [p for p in range(2, r + 1) if r % p == 0 and all(p % f for f in range(2, p))]
    rows = []
    for i in range(6):
        row = [0] * r
        if i % 2 and primes:
            p, k = rng.choice(primes), rng.randrange(r)
            for j in range(p):
                row[(k + j * r // p) % r] += 1
        for _ in range(terms if i % 2 == 0 else rng.randrange(2)):
            row[rng.randrange(r)] += rng.randint(-3, 3)
        rows.append(row)
    assert vanishes(rows, r).tolist() == [reference_is_zero(row, r) for row in rows]


def test_vanishes_at_a_high_prime_power_multiple():
    # 10^6 = 10 * 10^5, and y = omega^(10^5) is a primitive 10th root:
    # omega^500000 = y^5 = -1, and omega^999999 = y^9 omega^99999 with
    # y^9 = 1 - y + y^2 - y^3
    r = 10**6
    rows = np.zeros((3, r), dtype=np.int64)
    rows[0, [0, 500000]] = 1
    rows[1, [999999, 199999, 399999]] = 1
    rows[1, [99999, 299999]] = -1
    rows[2] = rows[1]
    rows[2, 399999] = 0
    assert vanishes(rows, r).tolist() == [True, True, False]


def test_vanishes_on_cosets_at_seven_primes():
    # r = 2 * 3 * 5 * 7 * 11 * 13 * 17: omega^k times the p-th roots of
    # unity sums to zero for every p | r; one term more or less leaves a
    # single root, which is a unit
    r, rng = 510510, random.Random(7)
    rows = np.zeros((14, r), dtype=np.int64)
    for i, p in enumerate((2, 3, 5, 7, 11, 13, 17)):
        k = rng.randrange(r)
        coset = [(k + j * (r // p)) % r for j in range(p)]
        rows[2 * i : 2 * i + 2, coset] = 3
        rows[2 * i + 1, coset[i % p]] += 1 if i % 2 else -1
    assert vanishes(rows, r).tolist() == [True, False] * 7


def test_vanishes_leaves_int64_before_a_coordinate_can_wrap():
    # at r = 6 this row's coordinate on 1 (tensor index (0, 0)) is
    # 2^62 + 2^62 + 2^62 + 2^62 = 2^64, which wraps to 0 in int64, and its
    # other coordinate is 0; the element is 2^62 * 4, not zero
    row = [2**62, 2**62, -(2**62), -(2**62), -(2**62), 2**62]
    assert not reference_is_zero(row, 6)
    assert vanishes([row], 6).tolist() == [False]


@settings(max_examples=30, deadline=None)
@given(
    r=st.sampled_from([30, 210, 2310]),
    seed=st.integers(0, 2**32),
    shift=st.integers(-2, 2),
)
def test_vanishes_matches_reference_around_the_int64_bound(r, seed, shift):
    # weighted coset sums with weights near 2^(63 - number of primes), where
    # vanishes leaves int64 for Python ints; half of the rows perturbed
    rng = random.Random(seed)
    primes = [p for p in (2, 3, 5, 7, 11) if r % p == 0]
    bound = 2 ** (63 - len(primes))
    rows = []
    for i in range(4):
        row = [0] * r
        for _ in range(rng.randint(1, 3)):
            p, k = rng.choice(primes), rng.randrange(r)
            c = rng.choice((-1, 1)) * (bound + shift)
            for j in range(p):
                row[(k + j * r // p) % r] += c
        if i % 2:
            row[rng.randrange(r)] += rng.choice((-1, 1))
        rows.append(row)
    assert vanishes(rows, r).tolist() == [reference_is_zero(row, r) for row in rows]


def test_vanishes_does_not_wrap_int64():
    # the element is 2^64 in the power basis of Z[omega_6], which int64
    # arithmetic would wrap to zero, so it is not zero
    row = [2**63 - 1, 0, -1, -1, -(2**63), 2**63 - 1]
    assert not reference_is_zero(row, 6)
    assert vanishes([row], 6).tolist() == [False]
    assert vanishes([[0] * 6, [1] * 6], 6).tolist() == [True, True]


def perturbed(M, rng):
    exp = [list(row) for row in M.exp]
    exp[rng.randrange(M.d)][rng.randrange(M.d)] += rng.randrange(1, M.r)
    return ExponentMatrix.from_rows(exp, M.r)


@st.composite
def exponent_grids(draw):
    """Unitary grids (moved Fourier and tensor matrices), half of them with
    one entry changed, which almost always breaks unitarity."""
    base = draw(
        st.sampled_from(
            [fourier(n) for n in range(2, 9)]
            + [tensor(fourier(2), fourier(2)), tensor(fourier(2), fourier(3))]
        )
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    H = apply_equivalence(base, random_move(base.d, base.r * rng.randint(1, 4), rng))
    return perturbed(H, rng) if draw(st.booleans()) else H


@settings(max_examples=60, deadline=None)
@given(H=exponent_grids())
def test_is_unitary_matches_per_pair_reference(H):
    def row_pair_vanishes(i, j):
        counts = [0] * H.r
        for k in range(H.d):
            counts[(H.exp[i][k] - H.exp[j][k]) % H.r] += 1
        return reference_is_zero(counts, H.r)

    pairs = [(i, j) for i in range(H.d) for j in range(i + 1, H.d)]
    assert is_unitary(H) == all(row_pair_vanishes(i, j) for i, j in pairs)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5, 7]),
    seed=st.integers(0, 2**32),
    perturb=st.sampled_from(["none", "A", "B"]),
)
def test_is_mu_pair_matches_per_pair_reference(q, seed, perturb):
    rng = random.Random(seed)
    members = [b for _, b in complete_mub_set(q).hadamard_members()]
    A, B = rng.choice(members), rng.choice(members)
    if perturb == "A":
        A = perturbed(A, rng)
    elif perturb == "B":
        B = perturbed(B, rng)
    r = A.r * B.r
    Ae, Be = A.rescaled(r), B.rescaled(r)

    def unbiased(i, j):
        z = np.zeros(r, dtype=np.int64)
        for k in range(q):
            z[(Be.exp[k][j] - Ae.exp[k][i]) % r] += 1
        zz = cyclic_product(z, z[-np.arange(r) % r])  # z times its conjugate
        zz[0] -= q
        return reference_is_zero(zz.tolist(), r)

    assert is_mu_pair(A, B) == all(unbiased(i, j) for i in range(q) for j in range(q))


# ----------------------------------------------------------------------
# sums_vanish against per-row Python-int sums
# ----------------------------------------------------------------------

def reference_sums_vanish(n, row, exp, r, weight=None):
    """Sum each row's terms in Python ints, then one `vanishes` call."""
    rows = [[0] * r for _ in range(n)]
    for j, (i, e) in enumerate(zip(row, exp)):
        rows[i][e % r] += 1 if weight is None else weight[j]
    return vanishes(rows, r)


@st.composite
def term_lists(draw):
    """n sums of roots of order r as terms.  Some sums are a weight times a
    full coset of a subgroup of order m > 1, so they vanish; the others get
    random terms, and some sums get no terms at all.  Exponents run from -3r
    to 3r, and the weights are units, small, or near 2^62 (so that the total
    passes 2^63)."""
    r = draw(st.integers(1, 60))
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["unit", "small", "huge"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    terms = []  # (row, exponent, weight)

    def w():
        return {"unit": 1, "small": rng.randint(-9, 9), "huge": rng.choice((-1, 1)) * 2**62}[kind]

    for i in range(n):
        shape = rng.choice(["empty", "random", "coset", "coset+1"])
        divisors = [m for m in range(2, r + 1) if r % m == 0]
        if shape == "random":
            terms += [(i, rng.randrange(-3 * r, 3 * r), w()) for _ in range(rng.randint(1, 12))]
        elif shape != "empty" and divisors:
            m, a, c = rng.choice(divisors), rng.randrange(r), w()
            terms += [(i, a + k * (r // m) + rng.randint(-2, 2) * r, c) for k in range(m)]
            if shape == "coset+1":
                terms.append((i, rng.randrange(r), w()))
    rng.shuffle(terms)
    row, exp, weight = ([t[x] for t in terms] for x in range(3))
    return n, row, exp, r, None if kind == "unit" else weight


@settings(max_examples=150, deadline=None)
@given(case=term_lists())
def test_sums_vanish_matches_reference(case):
    n, row, exp, r, weight = case
    got = sums_vanish(n, row, exp, r, weight)
    assert got.dtype == bool and got.shape == (n,)
    assert got.tolist() == reference_sums_vanish(n, row, exp, r, weight).tolist()


def test_sums_vanish_does_not_wrap_int64():
    # four terms of 2^62 sum to 2^64, which wraps to 0 in int64
    row, exp = [0, 0, 0, 0, 1, 1], [0, 3, 6, -3, 0, 3]
    weight = [2**62] * 4 + [2**62, -(2**62)]
    assert sums_vanish(2, row, exp, 3, weight).tolist() == [False, True]
    assert reference_sums_vanish(2, row, exp, 3, weight).tolist() == [False, True]
    # int64 weights whose total fits take the int64 path
    w64 = np.array([2**60, 2**60, -(2**61)], dtype=np.int64)
    assert sums_vanish(1, [0, 0, 0], [1, 4, 7], 3, w64).tolist() == [True]


def test_sums_vanish_broadcasts_and_counts():
    # the sixth roots of unity, and the cube roots against -1 times themselves
    assert sums_vanish(1, 0, np.arange(6), 6).tolist() == [True]
    rows = np.array([[0], [1]])
    assert sums_vanish(2, rows, [[0, 2, 4], [1, 3, 4]], 6).tolist() == [True, False]
    assert sums_vanish(2, [1], [0], 4).tolist() == [True, False]
    assert sums_vanish(0, [], [], 5).tolist() == []


def test_sums_vanish_refuses_rows_above_the_cell_bound():
    # one row at root 2^40 would take 8 TiB; the refusal comes first
    with pytest.raises(MemoryError, match="above the bound"):
        sums_vanish(1, 0, [0, 1], 2**40)
    with pytest.raises(MemoryError, match="above the bound"):
        sums_vanish(MAX_CELLS // 2 + 1, 0, [0, 1], 2)
