"""The Weyl-Heisenberg split of the defect system of a build.

The build of a block assignment (K, L) over the complete set {I, F, H_j}
in prime dimension q has block (i, j) = omega_p^(ij) K_i^dagger L_j /
sqrt(p).  Let X|k> = |k + 1> and Z|k> = omega_q^k |k>.  Every basis B of
the set is an eigenbasis of some Weyl operator X^a Z^b, because the
diagonal D of H_j = D^j F is quadratic (Wootters and Fields, Ann. Phys.
191, 1989; Durt, Englert, Bengtsson and Zyczkowski, IJQI 8, 2010).  So
W B = B P_B for W = X and W = Z, with P_B monomial: column t of W B is a
root of unity times column pi_B(t) of B.  Then (W K)^dagger (W L) =
K^dagger L gives K^dagger L = P_K^dagger (K^dagger L) P_L, and
(pi_1, pi_2) = (sum of the pi_(K_i), sum of the pi_(L_j)), acting inside
each block row and block column, satisfies

    E[pi_1 u, pi_2 v] - E[u, v] = a_u + b_v  (mod r)               (*)

on the exponent grid E of the build, for integer vectors a and b; so does
the dephased grid at its minimal root, since row and column phases only
change a and b.  Nothing below trusts this derivation: `weyl_split` reads
the permutations of X and Z off the exponent grids of the bases with exact
integer arithmetic, and checks (*) exactly on the grid it is given, as well
as the group structure and freeness stated next.  When a check fails it
returns None and the caller takes the unsplit system.

The group.  The two permutation pairs commute, and each has order q, so
g = (a, b) -> sigma_g = sigma_X^a sigma_Z^b is an action of G = Z_q^2 on
the d^2 cells (u, k), by (u, k) -> (pi_1 u, pi_2 k).  The action keeps each
q x q block, and it is free: the q^2 images of the block's first cell are
its q^2 cells.  (For the construction: pi_B shifts the labels by a linear
form of (a, b) whose kernel is the line of B in Z_q^2, and K_i != L_j makes
the two lines of a block differ.)

The split.  The first-order unitarity system of a unitary H has one
variable x_c per cell and one row rho_uv per ordered pair u != v of rows:
rho_uv(x) = sum_k omega^(E[u,k] - E[v,k]) (x_(u,k) - x_(v,k)), whose terms
`rho_terms` gives.  The defect (Tadej and Zyczkowski, Linear Algebra Appl.
429, 2008) is its nullity minus 2d - 1.  By (*), M[tau_g r, sigma_g c] =
lambda_g(r) M[r, c], with tau_g (u, v) = (pi_1 u, pi_1 v) and the root of
unity lambda_g(u, v) = omega^(a_u - a_v): M intertwines the permutation
action of G on the variables with a monomial action on the rows.  Work
over Q(omega_r'), r' = lcm(r, q), which holds the characters chi(a, b) =
omega_q^(s a + t b); a field extension does not change a rank.  With one
base cell c_o per block o, the vectors e_(o,chi) = sum_g chi(g) e_(sigma_g c_o)
are a basis of the variables, and M e_(o,chi) lies in the chi-isotypic part
of the row action, so

    rank M = sum over chi of rank M_chi,  M_chi = [M e_(o,chi)]_o,

a matrix with p^2 columns.  Its rows need only one row pair per tau-orbit:
(M e_(o,chi))[tau_h r] = chi(h) lambda_h(r) (M e_(o,chi))[r].  A pair of
rows whose stabiliser h != 1 (both rows in block rows with the same line)
is zero in M_chi unless chi(h) lambda_h(r) = 1, so it is kept only in those
q characters.  Row (u, v) of M_chi is, over the columns k,

    omega^(E[u,k] - E[v,k]) (chi(g_(u,k)) e_(o(u,k)) - chi(g_(v,k)) e_(o(v,k))),

with g_c the group element that carries the base cell of c's block to c.

The trivial null vectors.  Unitarity makes x_(u,k) = alpha_u + beta_k a
null vector for every alpha and beta, a space of dimension 2d - 1.  The
functions of the rows of block row i are, as a G-module, the characters
trivial on the stabiliser S_i of those rows, once each; likewise for block
column j.  So in character chi the trivial vectors span a space T_chi of
dimension |I_chi| + |J_chi| - [chi = 1], with I_chi the block rows and J_chi
the block columns whose stabiliser chi is trivial on.  For chi != 1, I_chi
and J_chi are not both nonempty: ker chi is one line, and freeness gives
S_i != S'_j.  In the coordinates e_(o,chi), a vector of T_chi coming from
block row i is nonzero on every block (i, j) and zero off block row i (and
likewise for columns).  Fixing the gauge, the coordinates of the blocks
(i, 0) for i in I_chi and (0, j) for j in J_chi, meets T_chi in 0 and has
dim T_chi coordinates (for chi = 1, the 2p - 1 blocks of block row and
block column 0).  So every null vector of M_chi is a vector of T_chi plus
one that vanishes on the gauge, and

    defect = sum over chi of nullity of M_chi without its gauge columns;

the gauge-free columns number (d - 1)^2 over all chi, as the unsplit
system's do.  A rank of every M_chi mod one prime is a lower bound, so
(d - 1)^2 minus the sum of those ranks bounds the defect from above, and
it is exact when every M_chi has rank p^2 - dim T_chi mod that prime.

The image.  The blocks are kept as their row pairs, not as a term list.
In block chi, row (u, v) is nonzero only on block row u // q and block
row v // q: its entry on column (I, J) is the sum over the q columns k of
block column J of omega^(E[u,k] - E[v,k]) chi(g_(u,k)) when I = u // q,
minus that with g_(v,k) when I = v // q (both, when u and v share a block
row).  So `block_image` makes the stacked image mod l by one gather of the
(n, 2, d) exponents from the powers of omega's image, a sum over the last
axis of their (n, 2, p, q) reshape, and two scatters into the (rows, p, p)
stack: no sort and no per-term index.  `block_system` writes the terms of
one block as a System, for the null-vector certificate of a short block.
"""

from __future__ import annotations

import weakref
from math import lcm
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ._exactrank import System, is_null
from .construct import BlockAssignment
from .matrices import ExponentMatrix
from .mub import IdentityBasis


class WeylSplit(NamedTuple):
    """The q^2 character blocks of the defect system of a build, as row
    pairs: block chi keeps the pairs with `chi_of[n] == chi`, pair n is the
    row rho_(pairs[n, 0], pairs[n, 1]) and stands at row `row[n]` of the
    stack of blocks, chi*m + its place in the block (rows past a block's
    own count are empty).  Column o = i*p + j is the block (i, j) of the
    grid E, whose exponents at root r `exp` holds.  `gauge[chi]` marks the
    columns fixed by the trivial null vectors of block chi.  Character
    chi = s*q + t is (a, b) -> omega_q^(s a + t b) of the group element
    (a, b), and `group[u, k]` is the element that carries the first cell of
    the block of (u, k) to it.
    """

    p: int
    q: int
    r: int  # lcm of the grid's root and q
    exp: np.ndarray  # (d, d) the grid at root r
    pairs: np.ndarray  # (n, 2) the rows u and v of each kept row pair
    chi_of: np.ndarray  # (n,) the block of each pair
    row: np.ndarray  # (n,) its row in the stack
    m: int
    gauge: np.ndarray  # (q^2, p^2) bool
    group: np.ndarray  # (d, d) int: a*q + b


# (pi_X, pi_Z) of every basis read so far, by the basis object: the bases of
# a search or a recipe are the q + 1 members of one cached MubSet, so each
# is read once, not once per build.  An entry leaves with its basis, so the
# id of a live basis is never a stale key.
_READ: Dict[int, Optional[Tuple[np.ndarray, np.ndarray]]] = {}


def _permutations(B) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """`_read_permutations(B)`, read once per basis object; the arrays are
    read-only, as every build of the basis shares them."""
    key = id(B)
    if key not in _READ:
        weakref.finalize(B, _READ.pop, key, None)
        perms = _read_permutations(B)
        for pi in perms or ():
            pi.setflags(write=False)
        _READ[key] = perms
    return _READ[key]


def _read_permutations(B) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(pi_X, pi_Z) with column t of W B a root of unity times column
    pi_W(t) of B, for W = X and W = Z, read exactly off the exponent grid of
    B; None when W B is not B times a monomial matrix."""
    q = B.d
    k = np.arange(q)
    if isinstance(B, IdentityBasis):
        return (k + 1) % q, k
    R = lcm(B.r, q)
    E = B.rescaled(R).exp
    out = []
    for U in (E[(k - 1) % q], E + (k * (R // q))[:, None]):  # X B and Z B
        diff = (U[:, :, None] - E[:, None, :]) % R
        match = (diff == diff[:1]).all(axis=0)  # (t, t'): a constant difference
        pi = match.argmax(axis=1)
        if not (match.sum(axis=1) == 1).all() or not np.bincount(pi, minlength=q).all():
            return None
        out.append(pi)
    return out[0], out[1]


def _powers(pi: np.ndarray, q: int) -> Optional[np.ndarray]:
    """pi^0 ... pi^(q-1) as rows, or None when pi^q is not the identity."""
    out = [np.arange(len(pi))]
    for _ in range(q):
        out.append(pi[out[-1]])
    return np.stack(out[:q]) if np.array_equal(out[q], out[0]) else None


def weyl_split(a: BlockAssignment, H: ExponentMatrix) -> Optional[WeylSplit]:
    """The character blocks of the defect system of H, a unitary grid with
    the automorphisms of the build of a, or None when a check fails: the
    bases are not Weyl-covariant, (*) does not hold on H, or the group does
    not act freely on the cells of each block (see the module docstring)."""
    p, q, d = a.p, a.q, a.d
    if H.d != d:
        return None
    perms = [_permutations(B) for B in (*a.K, *a.L)]
    if any(x is None for x in perms):
        return None
    off = q * np.arange(p)
    # (generator, side): X and Z on the rows (K side) and columns (L side)
    pi = [
        [np.concatenate([o + x[w] for o, x in zip(off, side)]) for side in (perms[:p], perms[p:])]
        for w in (0, 1)
    ]
    E, r = H.exp, H.r
    for rows, cols in pi:
        D = (E[rows][:, cols] - E) % r
        if ((D - D[:, :1] - D[:1] + D[0, 0]) % r).any():
            return None  # (*) fails
    if any(not np.array_equal(pi[0][s][pi[1][s]], pi[1][s][pi[0][s]]) for s in (0, 1)):
        return None  # X and Z do not commute
    powers = [[_powers(pi[w][s], q) for s in (0, 1)] for w in (0, 1)]
    if any(x is None for row in powers for x in row):
        return None
    # element g = a*q + b acts as X^a Z^b: (q^2, d) images of the rows and columns
    act = [powers[0][s][:, powers[1][s]].reshape(q * q, d) for s in (0, 1)]
    rows, cols = act[0][:, off], act[1][:, off]  # images of each block's first row, column
    cells = (rows % q)[:, :, None] * q + (cols % q)[:, None, :]  # (g, i, j)
    if not (np.sort(cells, axis=0) == np.arange(q * q)[:, None, None]).all():
        return None  # not free on the cells of some block
    group = np.empty((d, d), dtype=np.int64)
    group[rows[:, :, None], cols[:, None, :]] = np.arange(q * q)[:, None, None]
    return _blocks(p, q, E, r, act, group)


def _pairing(chi, g, q: int):
    """chi(g) as a multiple of 1/q of a turn: s a + t b (mod q) for the
    character chi = s*q + t and the element g = a*q + b."""
    (s, t), (a, b) = divmod(chi, q), divmod(g, q)
    return (s * a + t * b) % q


def _stabilisers(act: np.ndarray, off: np.ndarray) -> np.ndarray:
    """A generator of the stabiliser of each block row (or column): the
    least element g != 0 that fixes its first row.  The stabiliser has
    prime order q, since G moves the q rows of a block freely onto each
    other, so any g != 0 in it generates it."""
    fixes = act[1:, off] == off
    return 1 + fixes.argmax(axis=0)


def rho_terms(E: np.ndarray, r: int, U: np.ndarray, V: np.ndarray):
    """The terms of the rows rho_(U[i], V[i]) of the grid E at root r (see
    the module docstring).  Returns (rows, exp, sign), shaped (n, 2, 1),
    (n, 1, d) and (2, 1), which broadcast to the (n, 2, d) terms: term
    (i, s, k) is sign[s] omega^exp[i, 0, k] on the cell (rows[i, s, 0], k),
    where side s = 0 is row u, with sign +1, and s = 1 is row v, with sign
    -1.  The caller broadcasts only what it keeps."""
    rows = np.stack([U, V], axis=1)[:, :, None]
    exp = ((E[U] - E[V]) % r)[:, None, :]
    return rows, exp, np.array([[1], [-1]], dtype=np.int8)


def _blocks(p, q, E, r, act, group) -> WeylSplit:
    """The character blocks of the grid E at root r, as their row pairs
    and gauges, given the (q^2, d) actions `act` on rows and columns and the
    cell table `group` that `weyl_split` checked."""
    R = lcm(r, q)
    off = q * np.arange(p)
    chars = np.arange(q * q)[:, None]
    h_row, h_col = _stabilisers(act[0], off), _stabilisers(act[1], off)
    # (chi, block row or column): chi is trivial on its stabiliser
    t_row, t_col = (_pairing(chars, h, q) == 0 for h in (h_row, h_col))
    gauge = np.zeros((q * q, p, p), dtype=bool)
    gauge[:, :, 0] = t_row
    gauge[:, 0, :] |= t_col

    # one row pair per orbit: (i q, i' q) when the block rows i and i' have
    # different stabilisers, else (i q, v) for every v of block row i',
    # kept in the characters with chi(h) lambda_h = 1
    same = act[0][h_row][:, off] == off  # same[i, i']: h_i fixes block row i'
    i, i2 = np.nonzero(~same)
    free_u, free_v = off[i], off[i2]
    i, i2 = np.nonzero(same)
    stab_u = np.repeat(off[i], q)
    stab_v = (off[i2][:, None] + np.arange(q)).reshape(-1)
    h = np.repeat(h_row[i], q)
    keep = stab_u != stab_v
    stab_u, stab_v, h = stab_u[keep], stab_v[keep], h[keep]
    # lambda_h(u, v) at column 0, at root R
    k = act[1][h, 0]
    lam = (E[stab_u, k] - E[stab_v, k] - E[stab_u, 0] + E[stab_v, 0]) * (R // r)
    chi, j = np.nonzero((_pairing(chars, h, q) * (R // q) + lam) % R == 0)

    # each block keeps its free pairs first, then its stabilised pairs in order
    n_free = free_u.size
    counts = np.bincount(chi, minlength=q * q)
    m = n_free + int(counts.max())
    chi_of = np.concatenate([np.repeat(np.arange(q * q), n_free), chi])
    U = np.concatenate([np.tile(free_u, q * q), stab_u[j]])
    V = np.concatenate([np.tile(free_v, q * q), stab_v[j]])
    stab_local = n_free + np.arange(chi.size) - (np.cumsum(counts) - counts)[chi]
    local = np.concatenate([np.tile(np.arange(n_free), q * q), stab_local])
    return WeylSplit(
        p, q, R, E * (R // r), np.stack([U, V], axis=1), chi_of, chi_of * m + local, m,
        gauge.reshape(q * q, p * p), group,
    )


def _terms(split: WeylSplit, sel) -> Tuple[np.ndarray, np.ndarray]:
    """The terms of the row pairs `sel` of the blocks: rho_uv with each term
    scaled by chi(g) of its cell, on the block of the cell.  Returns
    (rows, exp), shaped (n, 2, 1) and (n, 2, d): term (i, s, k) is
    +-omega^exp[i, s, k] on column (rows[i, s, 0] // q) * p + k // q of its
    block, with + for side s = 0 (row u) and - for s = 1 (row v), as in
    `rho_terms`."""
    q, R = split.q, split.r
    # chi(g) R / q = (s a + t b) R / q (mod R) for chi = s*q + t and
    # g = a*q + b, so before the one reduction every exponent is below
    # R + 2 q R: int32 holds it when that is below 2^31
    dtype = np.int32 if (2 * q + 1) * R < 2**31 else np.int64
    pairs = split.pairs[sel]
    U, V = pairs.T
    E = split.exp.astype(dtype)
    a, b = (x.astype(dtype) * (R // q) for x in np.divmod(split.group, q))
    s, t = (x.astype(dtype)[:, None, None] for x in np.divmod(split.chi_of[sel], q))
    exp = a[pairs]  # (n, 2, d): the row of each side
    exp *= s
    other = b[pairs]
    other *= t
    exp += other
    exp += (E[U] - E[V])[:, None, :] % R
    exp %= R
    return pairs[:, :, None], exp


def block_image(split: WeylSplit, l: int, powers: np.ndarray) -> np.ndarray:
    """The stacked blocks mod l under omega_r -> g, with powers[e] = g^e
    mod l: an int32 array (q^2, m, p^2) with entries in [0, l), the
    `evaluate_rows` image of their terms.  The terms of one side of a pair
    lie on one block row, so its q terms on block column J sum to one
    entry: the stack takes the pairs' side sums over each block column, side
    u into its block row and minus side v into its own."""
    p, q, m = split.p, split.q, split.m
    n = len(split.row)
    _, exp = _terms(split, slice(None))
    sums = powers[exp].reshape(n, 2, p, q).sum(axis=3) % l  # below q l < 2^31
    M = np.zeros((q * q * m, p, p), dtype=np.int32)
    block_rows = split.pairs // q
    M[split.row, block_rows[:, 0]] = sums[:, 0]
    M[split.row, block_rows[:, 1]] += l - sums[:, 1]  # one entry per row: no repeats
    M %= l
    return M.reshape(q * q, m, p * p)


def block_system(split: WeylSplit, chi: int) -> Tuple[System, np.ndarray]:
    """Block chi on its gauge-free columns, as a System of `split.m` rows,
    and the block columns o it keeps, in order.  It has the rank of the
    whole block, and its nullity is the block's share of the defect."""
    p, q, m = split.p, split.q, split.m
    sel = np.flatnonzero(split.chi_of == chi)
    rows, exp = _terms(split, sel)
    cols = np.flatnonzero(~split.gauge[chi])
    renumber = np.full(p * p, -1)
    renumber[cols] = np.arange(cols.size)
    col = renumber[(rows // q) * p + np.arange(p * q) // q]
    keep = col >= 0
    shape = exp.shape
    row = np.broadcast_to((split.row[sel] - chi * m)[:, None, None], shape)
    sign = np.broadcast_to(np.array([[1], [-1]], dtype=np.int8), shape)
    return System(m, row[keep], col[keep], exp[keep], sign[keep]), cols


def lift_is_null(split: WeylSplit, H: ExponentMatrix, blocks) -> bool:
    """Exact check that null vectors of character blocks, mapped back to
    the d^2 variables, are null vectors of the whole first-order system of
    H, the rows rho_uv of all ordered pairs u != v on all cells (`is_null`).

    `blocks` holds (chi, cols, W) with W the (n_null, cols.size, phi)
    power-basis coefficients of null vectors of `block_system(split, chi)`.
    Vector w maps to x[c] = chi(g_c) w[o(c)] on the cells c of the blocks
    o in cols, and to 0 on the gauge.
    """
    p, q, R = split.p, split.q, split.r
    d = p * q
    u, k = np.divmod(np.arange(d * d), d)
    o = (u // q) * p + k // q
    X, shift = [], []
    for chi, cols, W in blocks:
        full = np.zeros((len(W), p * p, W.shape[2]), dtype=object)
        full[:, cols] = W
        X.append(full[:, o])
        chi_g = _pairing(chi, split.group.reshape(-1), q) * (R // q)
        shift.append(np.broadcast_to(chi_g, (len(W), d * d)))
    U, V = np.nonzero(~np.eye(d, dtype=bool))
    cell_rows, exp, sign = rho_terms(H.exp * (R // H.r), R, U, V)
    row, col = np.arange(U.size)[:, None, None], cell_rows * d + np.arange(d)
    terms = (np.broadcast_to(a, (U.size, 2, d)).reshape(-1) for a in (row, col, exp, sign))
    return is_null(System(U.size, *terms), np.concatenate(X), R, np.concatenate(shift))
