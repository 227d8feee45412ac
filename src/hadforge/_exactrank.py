"""Exact rank certification for sparse systems over the ring Z[omega_r].

The rank of a matrix with cyclotomic-integer entries is pinned between two
unconditional bounds:

* lower bound — image the matrix in a prime field F_l with l = 1 (mod r),
  sending omega to an element of multiplicative order r.  Ranks can only
  drop under ring maps, so full column rank mod l certifies full rank.
* upper bound — exhibit null vectors.  The canonical reduced-echelon null
  basis is recovered by evaluating at all phi(r) conjugate embeddings
  omega -> g^t, interpolating the power-basis coefficients of each entry
  (a Vandermonde solve per prime), lifting by CRT over several primes,
  rational reconstruction, and finally an exact M . w = 0 check back in
  Z[omega_r].  Nothing is trusted until that last algebraic check passes.

Rows are sparse: a row is a list of (column, [(exponent, coeff), ...]) pairs,
each term meaning coeff * omega_r^exponent.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cyclotomic import vanishes

SparseRow = List[Tuple[int, List[Tuple[int, int]]]]


class RankCertificationError(RuntimeError):
    """All retry budgets exhausted without an exact certificate."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    k = 3
    while k * k <= n:
        if n % k == 0:
            return False
        k += 2
    return True


def _factorize(n: int) -> List[int]:
    out = []
    k = 2
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            while n % k == 0:
                n //= k
        k += 1
    if n > 1:
        out.append(n)
    return out


def find_embedding_prime(r: int, rng: random.Random) -> Tuple[int, int]:
    """A prime l = 1 (mod r) below 2^25 and an element g of order r in F_l."""
    base = 1 << 24
    while True:
        k = rng.randrange(base // r, (2 * base) // r)
        l = k * r + 1
        if not _is_prime(l):
            continue
        g = _element_of_order(r, l, rng)
        if g is not None:
            return l, g


def _element_of_order(r: int, l: int, rng: random.Random) -> Optional[int]:
    if r == 1:
        return 1
    primes = _factorize(r)
    for _ in range(64):
        a = rng.randrange(2, l - 1)
        g = pow(a, (l - 1) // r, l)
        if g == 1:
            continue
        if all(pow(g, r // p, l) != 1 for p in primes):
            return g
    return None


def evaluate_rows(
    rows: Sequence[SparseRow], n_cols: int, l: int, g: int, r: int
) -> np.ndarray:
    """Dense int64 image of the sparse system under omega -> g (mod l)."""
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


def rref_mod(M: np.ndarray, l: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form over F_l with a deterministic pivot rule
    (leftmost column, first nonzero row).  Returns (R, pivot_columns)."""
    R = M % l
    m, n = R.shape
    pivots: List[int] = []
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


def rank_mod(M: np.ndarray, l: int) -> int:
    """Row echelon rank over F_l (no back-substitution; cheaper than rref)."""
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


def null_basis_mod(R: np.ndarray, pivots: List[int], l: int) -> np.ndarray:
    """Canonical nullspace basis from an RREF: one vector per free column f,
    with 1 at f and -R[i, f] at pivot column i."""
    n = R.shape[1]
    free = [c for c in range(n) if c not in set(pivots)]
    N = np.zeros((len(free), n), dtype=np.int64)
    for idx, f in enumerate(free):
        N[idx, f] = 1
        for i, p in enumerate(pivots):
            N[idx, p] = (-int(R[i, f])) % l
    return N


def _solve_mod(A: List[List[int]], b: List[int], l: int) -> List[int]:
    """Dense Gaussian solve over F_l for the small Vandermonde systems."""
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


def _crt(res_a: int, mod_a: int, res_b: int, mod_b: int) -> int:
    t = (res_b - res_a) % mod_b * pow(mod_a % mod_b, -1, mod_b) % mod_b
    return res_a + mod_a * t


def rational_reconstruct(c: int, L: int) -> Optional[Tuple[int, int]]:
    """Find a/b = c (mod L) with |a|, b <= sqrt(L/2) via the half-gcd walk."""
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


def _units(r: int) -> List[int]:
    if r == 1:
        return [0]
    return [t for t in range(1, r) if gcd(t, r) == 1]


def certify_rank(
    rows: Sequence[SparseRow],
    n_cols: int,
    r: int,
    max_primes: int = 8,
    seed: int = 20120521,
) -> Tuple[int, dict]:
    """Exact rank of the sparse system over Q(omega_r), with evidence.

    Returns (rank, evidence); evidence records the primes used, pivot count,
    and the number of exactly verified null vectors (when rank < n_cols).
    """
    rng = random.Random(seed)
    phi = len(_units(r))

    l0, g0 = find_embedding_prime(r, rng) if r > 1 else (999999937, 1)
    M0 = evaluate_rows(rows, n_cols, l0, g0, r)
    rk0 = rank_mod(M0, l0)
    if rk0 == n_cols:
        return n_cols, {"pivot_count": rk0, "primes": [l0], "null_vectors": 0}

    # nullity candidate; recover the canonical null basis exactly
    attempts = 0
    while attempts < 4:
        attempts += 1
        try:
            nverified, pivots, primes = _null_vector_certificate(
                rows, n_cols, r, phi, rng, max_primes
            )
        except _RetryNeeded:
            continue
        if pivots + nverified == n_cols:
            return pivots, {
                "pivot_count": pivots,
                "primes": primes,
                "null_vectors": nverified,
            }
    raise RankCertificationError(
        f"could not certify rank after {attempts} attempts (mod-l rank {rk0})"
    )


class _RetryNeeded(Exception):
    pass


def _null_vector_certificate(
    rows: Sequence[SparseRow],
    n_cols: int,
    r: int,
    phi: int,
    rng: random.Random,
    max_primes: int,
) -> Tuple[int, int, List[int]]:
    units = _units(r)
    pivot_ref: Optional[Tuple[int, ...]] = None
    per_prime: List[Tuple[int, np.ndarray]] = []  # (l, stacked coeff arrays)
    primes: List[int] = []
    n_null = None

    for _ in range(max_primes):
        l, g = find_embedding_prime(r, rng)
        coeffs = _null_coeffs_one_prime(rows, n_cols, r, units, l, g)
        if coeffs is None:
            raise _RetryNeeded  # mod-l pivot set unstable at this prime
        pivots, C = coeffs
        if pivot_ref is None:
            pivot_ref = pivots
            n_null = C.shape[0]
        elif pivots != pivot_ref or C.shape[0] != n_null:
            raise _RetryNeeded
        primes.append(l)
        per_prime.append((l, C))
        if len(primes) >= 2:
            vectors = _lift_vectors(per_prime, n_null, n_cols, phi)
            if vectors is not None:
                free = [c for c in range(n_cols) if c not in set(pivot_ref)]
                if _verify_null_vectors(rows, vectors, free, r):
                    return n_null, len(pivot_ref), primes
    raise _RetryNeeded


def _null_coeffs_one_prime(
    rows, n_cols, r, units, l, g
) -> Optional[Tuple[Tuple[int, ...], np.ndarray]]:
    """Nullspace entry coefficients (power basis, length phi) mod one prime.

    Evaluates at every conjugate embedding, demands a stable pivot set, and
    interpolates sigma_t(b) = P_b(g^t) back to the coefficients of P_b.
    """
    phi = len(units)
    bases = []
    pivot_ref: Optional[Tuple[int, ...]] = None
    for t in units:
        gt = pow(g, t, l)
        Mt = evaluate_rows(rows, n_cols, l, gt, r)
        R, pivots = rref_mod(Mt, l)
        pv = tuple(pivots)
        if pivot_ref is None:
            pivot_ref = pv
        elif pv != pivot_ref:
            return None
        bases.append(null_basis_mod(R, pivots, l))
    n_null = bases[0].shape[0]
    V = [[pow(g, (t * j) % r if r > 1 else 0, l) for j in range(phi)] for t in units]
    # interpolate every (vector, coordinate) pair
    C = np.zeros((n_null, n_cols, phi), dtype=np.int64)
    for v in range(n_null):
        for x in range(n_cols):
            vals = [int(bases[tidx][v, x]) for tidx in range(phi)]
            if all(val == vals[0] for val in vals):
                # constant across embeddings: rational entry, solve trivially
                sol = [vals[0]] + [0] * (phi - 1)
            else:
                sol = _solve_mod(V, vals, l)
            C[v, x] = sol
    return pivot_ref, C


def _lift_vectors(
    per_prime: List[Tuple[int, np.ndarray]], n_null: int, n_cols: int, phi: int
) -> Optional[List[List[List[int]]]]:
    """CRT + rational reconstruction + denominator clearing.

    Returns integer coefficient vectors (per null vector, per coordinate,
    power-basis coeffs), or None when reconstruction fails (need more primes).
    """
    L = 1
    for l, _ in per_prime:
        L *= l
    vectors: List[List[List[int]]] = []
    for v in range(n_null):
        entries: List[List[Fraction]] = []
        for x in range(n_cols):
            coeffs = []
            for j in range(phi):
                c, mod = int(per_prime[0][1][v, x, j]), per_prime[0][0]
                for l, C in per_prime[1:]:
                    c = _crt(c, mod, int(C[v, x, j]), l)
                    mod *= l
                rec = rational_reconstruct(c, L)
                if rec is None:
                    return None
                coeffs.append(Fraction(rec[0], rec[1]))
            entries.append(coeffs)
        den = lcm(*(f.denominator for e in entries for f in e)) if entries else 1
        vectors.append(
            [[int(f * den) for f in e] for e in entries]
        )
    return vectors


def _verify_null_vectors(rows, vectors, free: List[int], r: int) -> bool:
    """Exact check that every reconstructed vector satisfies M . w = 0 in
    Z[omega_r], *and* that the family is linearly independent: vector #idx
    must be algebraically nonzero at its own free column and zero at every
    other free column (echelon structure)."""
    # entries hold phi(r) power-basis coefficients, a basis of Z[omega_r],
    # so an entry is zero exactly when all of its coefficients are
    for idx, w in enumerate(vectors):
        if [any(w[f]) for f in free] != [jdx == idx for jdx in range(len(free))]:
            return False
    terms = [(i, col, e % r, c) for i, row in enumerate(rows) for col, ts in row for e, c in ts]
    if not terms or not vectors:
        return True
    row_of, col_of, exp_of, coeff_of = (np.array(x) for x in zip(*terms))
    # (M . w)_i = sum over terms c * omega^e * w[col]: the term adds
    # c * w[col][k] to coefficient (e + k) mod r of row i
    W = np.zeros((len(vectors[0]), r), dtype=object)
    targets = (row_of[:, None], (exp_of[:, None] + np.arange(r)) % r)
    for w in vectors:
        for x, coeffs in enumerate(w):
            W[x, : len(coeffs)] = coeffs
        acc = np.zeros((len(rows), r), dtype=object)
        np.add.at(acc, targets, coeff_of[:, None] * W[col_of])
        if not vanishes(acc, r).all():
            return False
    return True
