"""Exact rank certification for sparse systems over the ring Z[omega_r].

The rank of a matrix with cyclotomic-integer entries is pinned between two
unconditional bounds:

* lower bound — image the matrix in a prime field F_l with l = 1 (mod r),
  sending omega to an element of multiplicative order r.  Ranks can only
  drop under ring maps, so full column rank mod l certifies full rank.
* upper bound — exhibit null vectors.  The canonical reduced-echelon null
  basis is recovered by evaluating at all phi(r) conjugate embeddings
  omega -> g^t, interpolating the power-basis coefficients of each entry
  (one Vandermonde inverse per prime), lifting by CRT over several primes,
  rational reconstruction, and finally an exact M . w = 0 check back in
  Z[omega_r].  Nothing is trusted until that last algebraic check passes.

Both bounds rest on one elimination kernel over F_l, `_echelon`, behind
`rank_mod` (echelon form) and `rref_mod` (the unique RREF).  An image mod l
is one int32 array with entries in [0, l), as `evaluate_rows` returns it.
The kernel reduces that array in place: it overwrites its input and returns
it as R, so the image is the only full-size array of a rank or an RREF.  It
works on column panels of 256.  Each panel is copied to an int64 work array,
eliminated there column by column, and written back reduced; the row
operations are recorded as coefficients on the panel's pivot rows.  The
trailing columns then take those coefficients in float64 dgemms, 64 columns
at a time, each block gathered to int64 and written back reduced.  A system
of at most 256 columns is a single panel with no dgemm.  The dgemms are
exact because every modulus is below 2^25 (`find_embedding_prime` draws
from [2^24, 2^25)): the right operand is split into a 12-bit low and a
13-bit high limb, so a dot product sums at most 256 terms below
2^25 * 2^13, i.e. stays below 2^46 < 2^53.

The elimination delays its reductions mod l.  At each pivot it reduces only
what it reads: the pivot column before the pivot search (and, for the RREF,
the entries above the pivot), and the pivot row before scaling it.  The row
updates themselves are not reduced; the panel is reduced once before it is
written back.  Every update subtracts a product of two reduced entries, at
most (l-1)^2 < 2^50, and an entry takes at most one update per pivot of its
panel, so it stays within 2^25 + 256 * 2^50 < 2^63 in absolute value.

The lift of the null basis works on whole arrays.  The coefficients mod
each prime are stacked as one (n_null, n_cols, phi) array; `_lift_vectors`
CRTs them into one object array of Python ints, `rational_reconstruct`
runs the half-gcd walk on all of its entries at once (each step takes only
the entries not yet below the bound), and each null vector is cleared of
denominators by the `np.lcm.reduce` of its own.  That array goes to
`_verify_null_vectors` as it is.  One path serves any number of primes.

A system is a `System` of flat integer arrays with one element per term:
term j adds coeff[j] * omega_r^exp[j] to entry (row[j], col[j]).
"""

from __future__ import annotations

import random
from math import gcd, isqrt
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .cyclotomic import _factorize, sums_vanish


class System(NamedTuple):
    """A system over Z[omega_r] with n_rows rows, one array element per term."""

    n_rows: int
    row: np.ndarray
    col: np.ndarray
    exp: np.ndarray
    coeff: np.ndarray


# Every modulus is below _MODULUS_BOUND, so that each dgemm of _apply_panel
# is exact.  A system of at most _PANEL columns is one panel, with no
# trailing update; _BLOCK trailing columns at a time bound its temporaries.
_MODULUS_BOUND = 1 << 25
_PANEL = 256
_BLOCK = 64
_LIMB = 12
# the unreduced panel entries of _echelon must fit in int64, and the
# reduced entries of the image in int32
assert _PANEL * (_MODULUS_BOUND - 1) ** 2 + _MODULUS_BOUND < 2**63
assert _MODULUS_BOUND <= 2**31

# Every rank computation draws its primes from Random(SEED), so a defect and
# its evidence are reproducible; a null-vector certificate tries at most
# _MAX_PRIMES primes per attempt, in at most _ATTEMPTS attempts.
SEED = 20120521
_MAX_PRIMES = 8
_ATTEMPTS = 4


class RankCertificationError(RuntimeError):
    """All retry budgets exhausted without an exact certificate."""


# Miller-Rabin with the primes up to 37 as bases decides every n below the
# least strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_TEST_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below _PRIME_TEST_BOUND; larger n
    raise ValueError rather than get a probable answer."""
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(f"{n} is too large for the deterministic primality test")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_embedding_prime(r: int, rng: random.Random) -> Tuple[int, int]:
    """A prime l = 1 (mod r) in [2^24, 2^25) and an element g of order r in F_l."""
    while True:
        k = rng.randrange((_MODULUS_BOUND // 2) // r, _MODULUS_BOUND // r)
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


def evaluate_rows(system: System, n_cols: int, l: int, g: int, r: int) -> np.ndarray:
    """Dense int32 image of the system under omega -> g (mod l), entries in
    [0, l).

    The terms are sorted by cell and each cell's terms summed in int64, so
    the work arrays are as long as the term list; only the image itself is
    n_rows x n_cols.
    """
    pow_table = [1] * r
    for k in range(1, r):
        pow_table[k] = pow_table[k - 1] * g % l
    terms = system.coeff % l * np.array(pow_table, dtype=np.int64)[system.exp % r] % l
    cells = system.row * n_cols + system.col
    order = np.argsort(cells, kind="stable")
    cells, terms = cells[order], terms[order]
    first = np.flatnonzero(np.diff(cells, prepend=-1))
    sums = np.add.reduceat(terms, first) % l  # below 2^38 terms of a cell: no overflow
    cells = cells[first]
    del order, terms, first
    M = np.zeros(system.n_rows * n_cols, dtype=np.int32)
    M[cells] = sums
    return M.reshape(system.n_rows, n_cols)


def _echelon(M: np.ndarray, l: int, reduced: bool) -> Tuple[np.ndarray, List[int]]:
    """Row echelon form of M over F_l by column panels, worked in place: M
    is overwritten and returned as R.

    Pivot rule: leftmost column, first nonzero row.  Each panel is copied to
    an int64 work array; inside it the elimination runs column by column,
    reducing mod l only the entries it reads, and the row operations are
    recorded as coefficients on the panel's pivot rows, one column per pivot
    (the block W).  The panel is written back reduced, and the trailing
    columns then take W in float64 dgemms.  With `reduced`, rows above each
    pivot are cleared too and R is the unique RREF.  Returns
    (R, pivot_columns).
    """
    if l >= _MODULUS_BOUND:
        raise ValueError(f"modulus {l} is not below 2^25")
    M %= l
    m, n = M.shape
    pivots: List[int] = []
    for c0 in range(0, n, _PANEL):
        top = len(pivots)
        if top >= m:
            break
        c1 = min(c0 + _PANEL, n)
        w = c1 - c0
        first = 0 if reduced else top  # rows above `first` stay as they are
        trailing = c1 < n
        A = np.zeros((m - first, 2 * w if trailing else w), dtype=np.int64)
        A[:, :w] = M[first:, c0:c1]
        perm = np.arange(m - first)
        row = top - first
        t = 0
        for c in range(w):
            if row >= A.shape[0]:
                break
            A[row:, c] %= l
            nz = A[row:, c].nonzero()[0]
            if nz.size == 0:
                continue
            sel = row + int(nz[0])
            if sel != row:
                A[row], A[sel] = A[sel], A[row].copy()
                perm[row], perm[sel] = perm[sel], perm[row]
            # the swap moved a zero to sel, so the rows below to update are
            # row + nz[1:]
            idx = row + nz[1:]
            if reduced:
                A[:row, c] %= l
                idx = np.concatenate((A[:row, c].nonzero()[0], idx))
            end = w
            if trailing:
                # the trailing part of a row is its own original row, unless
                # it is a pivot row, plus W[row] @ pivot rows: from here on
                # this row is pivot t, and its own row a term of W
                A[row, w + t] = 1
                end = w + t + 1
            P = A[row, c:end]
            P %= l
            P *= pow(int(P[0]), -1, l)
            P %= l
            if idx.size:
                U = A[idx, c:end]
                U -= U[:, :1] * P
                A[idx, c:end] = U
            pivots.append(c0 + c)
            row += 1
            t += 1
        A %= l
        M[first:, c0:c1] = A[:, :w]
        if trailing and t:
            W = A[:, w : w + t].astype(np.float64)
            del A, P  # the panel, which P views, is written back: free it
            _apply_panel(M[first:, c1:], W, perm, top - first, l)
    return M, pivots


def _apply_panel(T: np.ndarray, W: np.ndarray, perm: np.ndarray, p0: int, l: int) -> None:
    """T <- the panel's row operations applied to T, in place.

    Row i of the result is W[i] @ S plus, unless i is a pivot row, row
    perm[i] of T, where S holds the t = W.shape[1] pivot rows perm[p0:p0+t]
    of T.  S is split in a 12-bit low and a 13-bit high limb, so each float
    dgemm sums at most 256 products below 2^25 * 2^13 and stays exact, and
    the recombined int64 sum stays below 2^46 * 2^12 + 2^45 + 2^25 < 2^63.
    """
    t = W.shape[1]
    for j in range(0, T.shape[1], _BLOCK):
        B = T[:, j : j + _BLOCK][perm].astype(np.int64, copy=False)
        S = B[p0 : p0 + t]
        hi = (W @ (S >> _LIMB).astype(np.float64)).astype(np.int64)
        lo = (W @ (S & ((1 << _LIMB) - 1)).astype(np.float64)).astype(np.int64)
        B[p0 : p0 + t] = 0
        hi <<= _LIMB
        B += hi
        B += lo
        B %= l
        T[:, j : j + _BLOCK] = B


def rref_mod(M: np.ndarray, l: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form over F_l with a deterministic pivot rule
    (leftmost column, first nonzero row).  Returns (R, pivot_columns).

    M, an int32 or int64 array, is overwritten: R is M itself, holding the
    RREF.  Pass a copy to keep M."""
    return _echelon(M, l, True)


def rank_mod(M: np.ndarray, l: int) -> int:
    """Row echelon rank over F_l (no back-substitution; cheaper than rref).

    M, an int32 or int64 array, is overwritten with an echelon form.  Pass
    a copy to keep M."""
    return len(_echelon(M, l, False)[1])


def null_basis_mod(R: np.ndarray, pivots: List[int], l: int) -> np.ndarray:
    """Canonical nullspace basis from an RREF: one vector per free column f,
    with 1 at f and -R[i, f] at pivot column i."""
    n = R.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    N = np.zeros((len(free), n), dtype=np.int64)
    N[np.arange(len(free)), free] = 1
    N[:, pivots] = (-R[: len(pivots), free].T) % l
    return N


def rational_reconstruct(c: np.ndarray, L: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Find a/b = c (mod L) with |a|, b <= sqrt(L/2) and b > 0 for every
    entry of the object array c, by the half-gcd walk run on all entries at
    once: each step takes the entries whose remainder is still above the
    bound.  Returns (a, b) shaped as c, or None when some entry has no such
    a/b."""
    bound = isqrt(L // 2)
    r1 = c.reshape(-1) % L
    r0 = np.full(r1.shape, L, dtype=object)
    t0, t1 = np.zeros(r1.shape, dtype=object), np.ones(r1.shape, dtype=object)
    i = np.flatnonzero(r1 > bound)
    while i.size:
        q = r0[i] // r1[i]
        r0[i], r1[i] = r1[i], r0[i] - q * r1[i]
        t0[i], t1[i] = t1[i], t0[i] - q * t1[i]
        i = i[r1[i] > bound]
    # a walk that ends at r1 = 0 has |t1| > 1 there, so gcd(0, t1) = |t1|
    # refuses it; an entry 0 mod L never walks and stays 0/1
    if ((abs(t1) > bound) | (np.gcd(r1, t1) != 1)).any():
        return None
    return np.where(t1 > 0, r1, -r1).reshape(c.shape), abs(t1).reshape(c.shape)


def _units(r: int) -> List[int]:
    if r == 1:
        return [0]
    return [t for t in range(1, r) if gcd(t, r) == 1]


def screen_rank(
    system: System, n_cols: int, r: int, rng: random.Random
) -> Tuple[int, dict]:
    """Rank of the system's image mod the next prime drawn from rng, with
    evidence.

    Ranks only drop under ring maps, so this is a lower bound on the rank
    over Q(omega_r): full column rank certifies full rank, and otherwise
    n_cols minus it bounds the nullity from above.
    """
    l, g = find_embedding_prime(r, rng)
    rk = rank_mod(evaluate_rows(system, n_cols, l, g, r), l)
    return rk, {"pivot_count": rk, "primes": [l], "null_vectors": 0}


def certify_rank(system: System, n_cols: int, r: int) -> Tuple[int, dict]:
    """Exact rank of the system over Q(omega_r), with evidence.

    Returns (rank, evidence); evidence records the primes used, pivot count,
    and the number of exactly verified null vectors (when rank < n_cols).
    The first prime is `screen_rank`'s, drawn from Random(SEED).
    """
    rng = random.Random(SEED)
    rk0, ev = screen_rank(system, n_cols, r, rng)
    if rk0 == n_cols:
        return rk0, ev

    # nullity candidate; recover the canonical null basis exactly
    units = _units(r)
    for _ in range(_ATTEMPTS):
        try:
            nverified, pivots, primes = _null_vector_certificate(
                system, n_cols, r, units, rng
            )
        except _RetryNeeded:
            continue
        return pivots, {"pivot_count": pivots, "primes": primes, "null_vectors": nverified}
    raise RankCertificationError(
        f"could not certify rank after {_ATTEMPTS} attempts (mod-l rank {rk0})"
    )


class _RetryNeeded(Exception):
    pass


def _null_vector_certificate(
    system: System,
    n_cols: int,
    r: int,
    units: List[int],
    rng: random.Random,
) -> Tuple[int, int, List[int]]:
    pivot_ref: Optional[Tuple[int, ...]] = None
    per_prime: List[Tuple[int, np.ndarray]] = []  # (l, stacked coeff arrays)

    for _ in range(_MAX_PRIMES):
        l, g = find_embedding_prime(r, rng)
        if any(l == p for p, _ in per_prime):
            continue  # a repeated prime adds nothing to the CRT
        coeffs = _null_coeffs_one_prime(system, n_cols, r, units, l, g)
        if coeffs is None:
            raise _RetryNeeded  # mod-l pivot set unstable at this prime
        pivots, C = coeffs
        if pivot_ref is None:
            pivot_ref = pivots
            free = sorted(set(range(n_cols)) - set(pivots))
        elif pivots != pivot_ref:
            raise _RetryNeeded
        per_prime.append((l, C))
        if len(per_prime) >= 2:
            W = _lift_vectors(per_prime)
            if W is not None and _verify_null_vectors(system, W, free, r):
                return len(W), len(pivot_ref), [l for l, _ in per_prime]
    raise _RetryNeeded


def _null_coeffs_one_prime(
    system, n_cols, r, units, l, g
) -> Optional[Tuple[Tuple[int, ...], np.ndarray]]:
    """Nullspace entry coefficients (power basis, length phi) mod one prime.

    Evaluates at every conjugate embedding, demands a stable pivot set, and
    interpolates sigma_t(b) = P_b(g^t) back to the coefficients of P_b.
    """
    phi = len(units)
    # each interpolated coefficient sums phi products below (l-1)^2 in int64
    assert phi * (l - 1) ** 2 < 2**63
    bases = []
    pivot_ref: Optional[Tuple[int, ...]] = None
    for t in units:
        gt = pow(g, t, l)
        Mt = evaluate_rows(system, n_cols, l, gt, r)
        R, pivots = rref_mod(Mt, l)
        pv = tuple(pivots)
        if pivot_ref is None:
            pivot_ref = pv
        elif pv != pivot_ref:
            return None
        bases.append(null_basis_mod(R, pivots, l))
    # V[t, j] = (g^t)^j is invertible mod l, its points g^t being distinct;
    # a row of V^-1 against the phi values of an entry gives one coefficient
    V = np.array(
        [[pow(g, (t * j) % r if r > 1 else 0, l) for j in range(phi)] for t in units],
        dtype=np.int64,
    )
    V_inv = rref_mod(np.hstack([V, np.eye(phi, dtype=np.int64)]), l)[0][:, phi:]
    return pivot_ref, np.tensordot(np.stack(bases), V_inv, axes=(0, 1)) % l


def _lift_vectors(per_prime: List[Tuple[int, np.ndarray]]) -> Optional[np.ndarray]:
    """CRT + rational reconstruction + denominator clearing, on whole arrays.

    per_prime holds (l, C) with C the (n_null, n_cols, phi) coefficients mod
    l.  Returns the integer coefficient vectors as one object array of that
    shape, each null vector scaled by the lcm of its denominators, or None
    when reconstruction fails (need more primes).
    """
    c, L = 0, 1
    for l, C in per_prime:
        c = c + L * ((C.astype(object) - c) * pow(L, -1, l) % l)
        L *= l
    rec = rational_reconstruct(c, L)
    if rec is None:
        return None
    num, den = rec
    scale = np.lcm.reduce(np.lcm.reduce(den, axis=2), axis=1, initial=1)
    return num * (scale[:, None, None] // den)


def _verify_null_vectors(system: System, W: np.ndarray, free: List[int], r: int) -> bool:
    """Exact check that every reconstructed vector of W (an object array
    (n_null, n_cols, phi), as `_lift_vectors` returns it) satisfies M . w = 0
    in Z[omega_r], *and* that the family is linearly independent: vector #idx
    must be algebraically nonzero at its own free column and zero at every
    other free column (echelon structure)."""
    # entries hold phi(r) power-basis coefficients, a basis of Z[omega_r],
    # so an entry is zero exactly when all of its coefficients are
    nonzero = (W != 0).any(axis=2)
    if not np.array_equal(nonzero[:, free], np.eye(len(W), len(free), dtype=bool)):
        return False
    if not system.row.size or not len(W):
        return True
    # (M . w)_i = sum over terms c * omega^e * w[col]: the term adds
    # c * w[col][k] * omega^(e + k) to row i, for every k where w[col] is not 0
    v, j = np.nonzero(nonzero[:, system.col])
    rows = (v * system.n_rows + system.row[j])[:, None]
    exps = system.exp[j, None] + np.arange(W.shape[2])
    weight = system.coeff[j, None] * W[v, system.col[j]]
    return bool(sums_vanish(len(W) * system.n_rows, rows, exps, r, weight).all())
