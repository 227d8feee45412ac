"""Exact rank certification for sparse systems over the ring Z[omega_r].

The rank of a matrix with cyclotomic-integer entries is pinned between two
unconditional bounds:

* lower bound — image the matrix in a prime field F_l with l = 1 (mod r),
  sending omega to an element of multiplicative order r.  Ranks can only
  drop under ring maps, so full column rank mod l certifies full rank.
* upper bound — exhibit null vectors.  The canonical reduced-echelon null
  basis is recovered by evaluating at all phi(r) conjugate embeddings
  omega -> g^t, interpolating the power-basis coefficients of each entry
  (one Vandermonde inverse per prime, `_vandermonde_inverse`), lifting by
  CRT over several primes, rational reconstruction, and finally an exact
  M . w = 0 check back in Z[omega_r].  Nothing is trusted until that last
  algebraic check passes.

The certificate takes a list of systems at one root (`certify_null_spaces`),
as the short character blocks of a build come.  Every system draws the
same primes from Random(SEED), so the systems go through the draws
together: the screen ranks the images of each shape in stacked
eliminations, and at each later prime every open system is imaged at all
phi(r) embeddings in one gather from the prime's power table
(`_embeddings`), and the images of each shape are brought to their RREF
in stacked eliminations, cut by `stack_slices`.  Each system keeps its
own attempts and primes, so each gets the rank, evidence and null basis
it gets alone.

Both bounds rest on one elimination kernel over F_l, `_echelon`, behind
`rank_mod` (echelon form) and `rref_mod` (the unique RREF).  An image mod l
is one int32 array with entries in [0, l), as `evaluate_rows` returns it.
The kernel takes a stack of images, an array (B, m, n), and eliminates all
B matrices together: each column is one step whose pivot search, swaps,
scaling and row updates are numpy calls over every matrix that pivots
there, so the q^2 character blocks of a build's defect system (`_weyl`),
or those of many builds of one search, take p^2 steps in all.  A 2-D
image is the stack of one, and `rank_mod` returns the ranks of a stack as
an array.  The stacked RREF clears, at each pivot, every other nonzero row
of the matrices that pivot there, so each matrix of the stack gets its
unique RREF, bit for bit the RREF it gets alone.  The kernel reduces its
input in place: it overwrites it and returns it as R, so the image is the
only full-size array of a rank or an RREF.  It works on column panels of 256.
Each panel is copied to an int64 work array,
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
term j adds coeff[j] * omega_r^exp[j] to entry (row[j], col[j]).  The
arrays may be of any integer dtype; the defect systems keep row, col and
exp as int32 and coeff as int8, and every product widens them to int64.
"""

from __future__ import annotations

import functools
import itertools
import random
from math import gcd, isqrt
from typing import List, NamedTuple, Optional, Tuple, Union

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
    """A prime l = k r + 1 in [2^24, 2^25) and an element g of order r in F_l.

    Raises RankCertificationError when no k of the range gives a prime: at
    once when the range is empty, else once every k has been drawn.
    """
    lo, hi = (_MODULUS_BOUND // 2) // r, _MODULUS_BOUND // r
    composite = set()
    while len(composite) < hi - lo:
        k = rng.randrange(lo, hi)
        l = k * r + 1
        if not _is_prime(l):
            composite.add(k)
            continue
        g = _element_of_order(r, l, rng)
        if g is not None:
            return l, g
    raise RankCertificationError(f"no prime l = 1 (mod {r}) in [2^24, 2^25) to embed omega_{r} in")


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


def power_table(g: int, l: int, r: int) -> np.ndarray:
    """g^e mod l for e = 0 ... r - 1, as an int64 array indexed by e."""
    out = [1] * r
    for k in range(1, r):
        out[k] = out[k - 1] * g % l
    return np.array(out, dtype=np.int64)


def evaluate_rows(system: System, n_cols: int, l: int, g: int, r: int) -> np.ndarray:
    """Dense int32 image of the system under omega -> g (mod l), entries in
    [0, l): the chunk of one of `_embeddings`."""
    return _embeddings(system, n_cols, l, power_table(g, l, r), r, [1])[0]


def _embeddings(system: System, n_cols: int, l: int, powers: np.ndarray, r: int, ts) -> np.ndarray:
    """Dense int32 images of the system under omega -> g^t (mod l) for
    every t of ts, with powers[e] = g^e mod l: an array (len(ts), n_rows,
    n_cols) with entries in [0, l).

    The terms are sorted by cell once, gathered from `powers` for all of ts
    at once, and each cell's terms summed in int64, so the work arrays are
    len(ts) times as long as the term list; only the images themselves are
    n_rows x n_cols.
    """
    # the term arrays may be narrow (int32, int8): widen before the products
    cells = system.row.astype(np.int64) * n_cols + system.col
    order = np.argsort(cells, kind="stable")
    cells = cells[order]
    first = np.flatnonzero(np.diff(cells, prepend=-1))
    exp = system.exp[order].astype(np.int64) % r * np.asarray(ts, dtype=np.int64)[:, None] % r
    terms = powers[exp]
    del exp
    terms *= system.coeff[order].astype(np.int64) % l
    terms %= l
    del order
    sums = np.add.reduceat(terms, first, axis=1) % l  # below 2^38 terms of a cell: no overflow
    del terms
    size = system.n_rows * n_cols
    M = np.zeros((len(sums), size), dtype=np.int32)
    M[:, cells[first]] = sums
    return M.reshape(len(sums), system.n_rows, n_cols)


def _echelon(M: np.ndarray, l: int, reduced: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Row echelon form of every matrix of a stack M (B, m, n) over F_l,
    by column panels, worked in place: M is overwritten and returned as R.

    Pivot rule, in each matrix: leftmost column, first nonzero row.  Each
    panel of the stack is copied to one int64 work array A of B * h rows,
    matrix b in rows b*h to (b+1)*h - 1.  Inside it the elimination runs
    column by column, reducing mod l only the entries it reads, and the row
    operations are recorded as coefficients on the panel's pivot rows, one
    column per pivot (the block W).  The panel is written back reduced, and
    the trailing columns then take W in float64 dgemms.  With `reduced`,
    rows above each pivot are cleared too and each R[b] is the unique RREF
    of M[b], bit for bit the RREF of M[b] eliminated alone.
    Returns (R, pivots), pivots a (B, n) bool array marking each matrix's
    pivot columns.

    A column is one step for the whole stack: the pivot search, the swaps,
    the scaling (the pivot inverses by `_batch_inverses`) and the row updates
    each take one numpy call over every matrix that pivots there.  The rows
    it updates are the open rows below each pivot and, for the RREF, every
    other nonzero row of the matrices that pivot there, its earlier pivot
    rows included.  A stack of one takes the same step with scalar indices:
    on a small system the index bookkeeping of the stacked step would cost
    about as much as the elimination itself.
    """
    if l >= _MODULUS_BOUND:
        raise ValueError(f"modulus {l} is not below 2^25")
    B, m, n = M.shape
    M %= l
    pivots = np.zeros((B, n), dtype=bool)
    top = np.zeros(B, dtype=np.int64)  # pivots so far, per matrix
    for c0 in range(0, n, _PANEL):
        if top.min() >= m:
            break
        c1 = min(c0 + _PANEL, n)
        w = c1 - c0
        # rows above `first` stay as they are: finished pivot rows of every
        # matrix, unless the RREF clears above its pivots
        first = 0 if reduced else int(top.min())
        h = m - first
        trailing = c1 < n
        A = np.zeros((B * h, 2 * w if trailing else w), dtype=np.int64)
        A[:, :w].reshape(B, h, w)[...] = M[:, first:, c0:c1]
        perm = np.arange(B * h)
        row = np.arange(B) * h + top - first  # the next pivot row of each matrix
        # open[i]: row i is not yet a pivot row; the echelon form updates
        # only those
        open_ = (np.arange(h) >= (top - first)[:, None]).reshape(-1)
        t = np.zeros(B, dtype=np.int64)  # pivots of each matrix in this panel
        k = 0  # columns of this panel with a pivot: W has k columns
        r0 = int(row[0])
        for c in range(w):
            col = A[:, c]
            end = w + k + 1 if trailing else w
            if B == 1:
                prow = r0 + k
                if prow >= h:
                    break
                col[prow:] %= l
                nz = col[prow:].nonzero()[0]
                if nz.size == 0:
                    continue
                sel = prow + int(nz[0])
                if sel != prow:
                    A[prow], A[sel] = A[sel], A[prow].copy()
                    perm[prow], perm[sel] = perm[sel], perm[prow]
                # the swap moved a zero to sel, so the rows below to update
                # are prow + nz[1:]
                idx = prow + nz[1:]
                if reduced:
                    col[:prow] %= l
                    idx = np.concatenate((col[:prow].nonzero()[0], idx))
                if trailing:
                    # the trailing part of a row is its own original row,
                    # unless it is a pivot row, plus W[row] @ pivot rows:
                    # from here on this row is pivot k, and its own row a
                    # term of W
                    A[prow, w + k] = 1
                P = A[prow, c:end]
                P %= l
                P *= pow(int(P[0]), -1, l)
                P %= l
                if idx.size:
                    U = A[idx, c:end]
                    U -= U[:, :1] * P
                    A[idx, c:end] = U
                pivots[0, c0 + c] = True
            else:
                col %= l
                nz = np.flatnonzero(col)
                cand = nz[open_[nz]]
                if not cand.size:
                    continue
                seg = cand // h
                head = np.flatnonzero(np.diff(seg, prepend=-1))
                b, sel = seg[head], cand[head]
                prow = row[b]
                moved = sel != prow
                if moved.any():
                    ps = np.stack((prow[moved], sel[moved]))
                    A[ps] = A[ps[::-1]]
                    perm[ps] = perm[ps[::-1]]
                idx = np.delete(cand, head)  # the rows below each pivot
                if reduced:
                    # and the earlier pivot rows of the matrices that pivot here
                    above = nz[~open_[nz]]
                    pivoting = np.zeros(B, dtype=bool)
                    pivoting[b] = True
                    idx = np.concatenate((above[pivoting[above // h]], idx))
                if trailing:
                    A[prow, w + t[b]] = 1  # as for a stack of one
                P = A[prow, c:end]
                P %= l
                P *= _batch_inverses(P[:, 0], l)[:, None]
                P %= l
                A[prow, c:end] = P
                if idx.size:
                    U = A[idx, c:end]
                    U -= U[:, :1] * P[np.searchsorted(b, idx // h)]
                    A[idx, c:end] = U
                open_[prow] = False
                pivots[b, c0 + c] = True
                row[b] += 1
                t[b] += 1
            k += 1
        if B == 1:
            t[0] = k
        A %= l
        M[:, first:, c0:c1] = A[:, :w].reshape(B, h, w)
        if trailing and k:
            W = A[:, w : w + k].astype(np.float64).reshape(B, h, k)
            del A, P, col  # the panel, which P and col view, is written back: free it
            _apply_panel(M[:, first:, c1:], W, perm.reshape(B, h) % h, top - first, t, l)
        top += t
    return M, pivots


def _batch_inverses(x: np.ndarray, l: int) -> np.ndarray:
    """The inverse in F_l of every entry of x, each nonzero mod l, by
    Montgomery's trick on Python ints: the prefix products, one
    pow(., -1, l) of their total, then a backward pass that peels one
    factor off per entry.  Returns an int64 array shaped as x."""
    vals = x.tolist()
    prefix = []
    acc = 1
    for v in vals:
        prefix.append(acc)  # the product of the entries before v
        acc = acc * v % l
    inv = pow(acc, -1, l)  # the inverse of the product of all of them
    out = [0] * len(vals)
    for i in range(len(vals) - 1, -1, -1):
        out[i] = inv * prefix[i] % l
        inv = inv * vals[i] % l
    return np.array(out, dtype=np.int64)


def _apply_panel(
    T: np.ndarray, W: np.ndarray, perm: np.ndarray, p0: np.ndarray, t: np.ndarray, l: int
) -> None:
    """T <- the panel's row operations applied to T (B, m, n'), in place.

    Row i of matrix b of the result is W[b, i] @ S_b plus, unless i is a
    pivot row, row perm[b, i] of T[b], where S_b holds the t[b] pivot rows
    perm[b, p0[b]:p0[b]+t[b]] of T[b]; W's columns past t[b] are zero in
    matrix b.  S is split in a 12-bit low and a 13-bit high limb, so each
    float dgemm sums at most 256 products below 2^25 * 2^13 and stays exact,
    and the recombined int64 sum stays below 2^46 * 2^12 + 2^45 + 2^25 <
    2^63.
    """
    k = W.shape[2]
    real = np.arange(k) < t[:, None]
    pb, pt = np.nonzero(real)
    slots = np.where(real, p0[:, None] + np.arange(k), 0)
    stack = np.arange(len(T))[:, None]
    for j in range(0, T.shape[2], _BLOCK):
        B = T[:, :, j : j + _BLOCK][stack, perm].astype(np.int64, copy=False)
        S = B[stack, slots]
        hi = (W @ (S >> _LIMB).astype(np.float64)).astype(np.int64)
        lo = (W @ (S & ((1 << _LIMB) - 1)).astype(np.float64)).astype(np.int64)
        B[pb, slots[pb, pt]] = 0
        hi <<= _LIMB
        B += hi
        B += lo
        B %= l
        T[:, :, j : j + _BLOCK] = B


def rref_mod(M: np.ndarray, l: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form over F_l with a deterministic pivot rule
    (leftmost column, first nonzero row).  Returns (R, pivot_columns).

    M, an int32 or int64 array, is overwritten: R is M itself, holding the
    RREF.  Pass a copy to keep M."""
    pivots = _echelon(M[None], l, True)[1]
    return M, np.flatnonzero(pivots[0]).tolist()


def rank_mod(M: np.ndarray, l: int) -> Union[int, np.ndarray]:
    """Row echelon rank over F_l (no back-substitution; cheaper than rref)
    of a matrix, or the int array of ranks of a stack (B, m, n) of
    matrices, all eliminated together.

    M, an int32 or int64 array, is overwritten with an echelon form.  Pass
    a copy to keep M."""
    ranks = _echelon(M if M.ndim == 3 else M[None], l, False)[1].sum(axis=1)
    return ranks if M.ndim == 3 else int(ranks[0])


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


def certify_rank(system: System, n_cols: int, r: int) -> Tuple[int, dict]:
    """Exact rank of the system over Q(omega_r), with evidence.

    Returns (rank, evidence); evidence records the primes used, pivot count,
    and the number of exactly verified null vectors (when rank < n_cols).
    The first prime drawn from Random(SEED) screens the rank.
    """
    rank, evidence, _ = certify_null_spaces([(system, n_cols)], r)[0]
    return rank, evidence


# Images of one shape are eliminated in stacks.  An image of more than
# _STACKED entries goes alone: from about that size on, the index
# bookkeeping of the stacked step costs more than it saves (a stack of 8
# RREFs of 72 x 64 took 0.9 times as long as the 8 alone, of 110 x 100 1.3
# times, of 182 x 169 1.9 times).  A stack holds at most _STACK_CELLS
# entries, 4 MB in int32.
_STACKED = 1 << 12
_STACK_CELLS = 1 << 20


def stack_slices(count: int, m: int, n: int) -> List[slice]:
    """The stacks that `count` images of m x n take, in order, one
    elimination each: every image alone when it has more than _STACKED
    entries, else as many as _STACK_CELLS entries hold.  The certificate's
    images (`_stacks`) and the character blocks of a search chunk
    (`analyze._defects`) are cut by this one rule."""
    cells = max(1, m * n)
    k = 1 if cells > _STACKED else _STACK_CELLS // cells
    return [slice(c, c + k) for c in range(0, count, k)]


def _stacks(systems, ts, l: int, powers: np.ndarray, r: int):
    """The images of every (system, n_cols) of the list under omega -> g^t
    for each t of ts (`_embeddings`, powers[e] = g^e mod l), as stacks for
    one elimination each: yields (members, stack), with stack an int32
    array (B, m, n) of images of one shape and members the (system index,
    index into ts) of each.  The images of one system go into a stack
    through one `_embeddings` call."""
    groups: dict = {}
    for i, (system, n) in enumerate(systems):
        groups.setdefault((system.n_rows, n), []).append(i)
    for (m, n), at in groups.items():
        members = [(i, j) for i in at for j in range(len(ts))]
        for cut in stack_slices(len(members), m, n):
            chunk = members[cut]
            parts = []
            for i, run in itertools.groupby(chunk, key=lambda x: x[0]):
                js = [j for _, j in run]
                parts.append(_embeddings(*systems[i], l, powers, r, ts[js[0] : js[-1] + 1]))
            yield chunk, np.concatenate(parts) if len(parts) > 1 else parts[0]


class _Certificate:
    """The state of one system's null-vector certificate: its attempts so
    far, the primes drawn in the current attempt, the residues of those it
    holds, and their common pivot columns."""

    __slots__ = ("attempts", "draws", "per_prime", "pivots")

    def __init__(self) -> None:
        self.attempts = 0
        self.restart()

    def restart(self) -> None:
        self.draws = 0
        self.per_prime: List[Tuple[int, np.ndarray]] = []
        self.pivots: Optional[Tuple[int, ...]] = None


def certify_null_spaces(systems, r: int) -> list:
    """`certify_rank`'s rank and evidence of every (system, n_cols) of the
    list, all over Z[omega_r], and the null basis it verified: an object
    array (n_cols - rank, n_cols, phi(r)) of power-basis coefficients, as
    `_lift_vectors` returns it.  Each system gets the same as it gets alone.

    Each system draws the same primes from Random(SEED): the first screens
    its rank (full column rank mod l certifies full rank), and each later
    one is one step of its certificate.  So the systems go through the
    draws together.  The screen ranks all images of one shape in one
    stacked `rank_mod`.  At each later prime, every system still open is
    evaluated at all phi(r) embeddings and each shape's images take one
    stacked RREF (`_null_coeffs`); then each system takes its own step
    (`_null_vector_certificate`): it keeps its own attempts and its own
    primes, and a system that needs a retry starts its next attempt at the
    next draw, as it would alone.  A prime that a system already holds in
    its current attempt is a draw it skips.
    """
    rng = random.Random(SEED)
    l, g = find_embedding_prime(r, rng)
    units = _units(r)
    powers = power_table(g, l, r)
    screen = [0] * len(systems)
    for members, stack in _stacks(systems, [1], l, powers, r):
        for (i, _), rk in zip(members, rank_mod(stack, l).tolist()):
            screen[i] = rk
    out: list = [None] * len(systems)
    open_: dict = {}
    for i, ((_, n_cols), rk) in enumerate(zip(systems, screen)):
        if rk == n_cols:
            ev = {"pivot_count": rk, "primes": [l], "null_vectors": 0}
            out[i] = (rk, ev, np.zeros((0, n_cols, len(units)), dtype=object))
        else:
            open_[i] = _Certificate()

    # nullity candidates; recover the canonical null bases exactly
    while open_:
        l, g = find_embedding_prime(r, rng)
        fresh = [i for i, cert in open_.items() if all(l != p for p, _ in cert.per_prime)]
        for i, coeffs in zip(fresh, _null_coeffs([systems[i] for i in fresh], r, units, l, g)):
            cert = open_[i]
            try:
                W = _null_vector_certificate(*systems[i], r, cert, l, coeffs)
            except _RetryNeeded:
                cert.draws = _MAX_PRIMES  # the attempt ends at this draw
                continue
            if W is not None:
                rank, primes = len(cert.pivots), [p for p, _ in cert.per_prime]
                out[i] = (rank, {"pivot_count": rank, "primes": primes, "null_vectors": len(W)}, W)
                del open_[i]
        for i, cert in open_.items():
            cert.draws += 1
            if cert.draws >= _MAX_PRIMES:
                cert.attempts += 1
                if cert.attempts == _ATTEMPTS:
                    raise RankCertificationError(
                        f"could not certify rank after {_ATTEMPTS} attempts "
                        f"(mod-l rank {screen[i]})"
                    )
                cert.restart()
    return out


class _RetryNeeded(Exception):
    pass


def _null_vector_certificate(
    system: System, n_cols: int, r: int, cert: _Certificate, l: int, coeffs
) -> Optional[np.ndarray]:
    """One step of a system's certificate, at the prime l, given its null
    basis coefficients there (`_null_coeffs`): the lifted null basis once
    it passes the exact check, None while it needs more primes.  Raises
    _RetryNeeded when the pivot columns are unstable at l or differ from
    those of the attempt's earlier primes."""
    if coeffs is None:
        raise _RetryNeeded  # mod-l pivot set unstable at this prime
    pivots, C = coeffs
    if cert.pivots is None:
        cert.pivots = pivots
    elif pivots != cert.pivots:
        raise _RetryNeeded
    cert.per_prime.append((l, C))
    if len(cert.per_prime) < 2:
        return None
    W = _lift_vectors(cert.per_prime)
    free = sorted(set(range(n_cols)) - set(pivots))
    if W is not None and _verify_null_vectors(system, W, free, r):
        return W
    return None


@functools.lru_cache(maxsize=8)
def _vandermonde_inverse(l: int, g: int, r: int) -> np.ndarray:
    """V^-1 mod l for V[t, j] = (g^t)^j, t over the units of r and
    j < phi(r), read-only: every system certified at the prime shares it,
    and so does the next certificate at the same root, which draws the
    same primes.  V is invertible mod l, its points g^t being distinct; V
    is one gather from `power_table`.  The cache keeps the last 8, phi^2
    int64 entries each."""
    units = np.array(_units(r), dtype=np.int64)
    phi = len(units)
    V = power_table(g, l, r)[units[:, None] * np.arange(phi) % r]
    V_inv = rref_mod(np.hstack([V, np.eye(phi, dtype=np.int64)]), l)[0][:, phi:]
    V_inv.setflags(write=False)
    return V_inv


def _null_coeffs_one_prime(
    system, n_cols, r, units, l, g
) -> Optional[Tuple[Tuple[int, ...], np.ndarray]]:
    """Nullspace entry coefficients (power basis, length phi) mod one prime:
    the chunk of one of `_null_coeffs`."""
    return _null_coeffs([(system, n_cols)], r, units, l, g)[0]


def _null_coeffs(systems, r, units, l, g) -> list:
    """For each (system, n_cols), its nullspace entry coefficients (power
    basis, length phi) mod the prime l, with the pivot columns: (pivots,
    C), C an int64 array (n_null, n_cols, phi); or None when the pivot
    columns differ between embeddings.

    Each system is evaluated at every conjugate embedding omega -> g^t in
    one gather (`_embeddings`), the images of each shape are brought to
    their RREF in one stacked elimination, and sigma_t(b) = P_b(g^t) is
    interpolated back to the coefficients of P_b by the Vandermonde
    inverse of the prime (`_vandermonde_inverse`): a row of V^-1 against
    the phi values of an entry gives one coefficient.
    """
    phi = len(units)
    # each interpolated coefficient sums phi products below (l-1)^2 in int64
    if phi * (l - 1) ** 2 >= 2**63:
        raise RankCertificationError(
            f"phi({r}) = {phi} coefficients per entry overflow the int64 interpolation mod {l}"
        )
    if not systems:
        return []
    V_inv = _vandermonde_inverse(l, g, r)
    # per system and embedding: the pivot columns, and the RREF's pivot rows
    # on the free columns
    pivots = [np.empty((phi, n), dtype=bool) for _, n in systems]
    rows: list = [[None] * phi for _ in systems]
    for members, stack in _stacks(systems, units, l, power_table(g, l, r), r):
        R, found = _echelon(stack, l, True)
        for (i, j), Rk, pk in zip(members, R, found):
            pivots[i][j] = pk
            rows[i][j] = Rk[: int(pk.sum())][:, ~pk]
        del R, stack
    out = []
    for P, at, (_, n_cols) in zip(pivots, rows, systems):
        if not (P == P[0]).all():
            out.append(None)
            continue
        cols, free = np.flatnonzero(P[0]), np.flatnonzero(~P[0])
        # the canonical null basis at each embedding: 1 at its free column
        # f and -R[i, f] at pivot column i
        N = np.zeros((phi, free.size, n_cols), dtype=np.int64)
        N[:, np.arange(free.size), free] = 1
        N[:, :, cols] = -np.stack(at).transpose(0, 2, 1) % l
        out.append((tuple(cols.tolist()), np.tensordot(N, V_inv, axes=(0, 1)) % l))
    return out


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
    in Z[omega_r] (`is_null`), *and* that the family is linearly
    independent: vector #idx must be algebraically nonzero at its own free
    column and zero at every other free column (echelon structure)."""
    # entries hold phi(r) power-basis coefficients, a basis of Z[omega_r],
    # so an entry is zero exactly when all of its coefficients are
    nonzero = (W != 0).any(axis=2)
    if not np.array_equal(nonzero[:, free], np.eye(len(W), len(free), dtype=bool)):
        return False
    return is_null(system, W, r)


def is_null(system: System, W: np.ndarray, r: int, shift: Optional[np.ndarray] = None) -> bool:
    """Exact check that M . w = 0 in Z[omega_r] for every vector w of W, an
    array (n_null, n_cols, phi) of power-basis coefficients: entry c of
    vector z is the sum over j of W[z, c, j] omega^(j + shift[z, c]), or
    without the shift when it is None.  Each nonzero W[z, c, j] is joined
    to the terms coeff * omega^exp of column c, and each pair adds
    coeff * W[z, c, j] omega^(exp + j + shift) to its row of vector z,
    all in one `sums_vanish` call."""
    z, c, j = np.nonzero(W != 0)
    if not z.size or not system.row.size:
        return True
    vals = W[z, c, j]
    if shift is not None:
        j = j + shift[z, c]
    top = max(-int(vals.min()), int(vals.max()))
    if top * max(-int(system.coeff.min()), int(system.coeff.max())) < 2**63:
        vals = vals.astype(np.int64)
    # the terms of column c are order[first[c]:first[c] + counts[c]]
    order = np.argsort(system.col, kind="stable")
    counts = np.bincount(system.col, minlength=W.shape[1])
    first = np.cumsum(counts) - counts
    n = counts[c]
    at = np.repeat(np.arange(z.size), n)
    t = order[np.repeat(first[c] - (np.cumsum(n) - n), n) + np.arange(at.size)]
    rows = z[at] * system.n_rows + system.row[t]
    exps = system.exp[t] + j[at]
    weight = system.coeff[t] * vals[at]
    return bool(sums_vanish(len(W) * system.n_rows, rows, exps, r, weight).all())
