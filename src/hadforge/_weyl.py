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
row).  So `block_images` makes the stacked image mod l of the splits of
many grids at one root r' by one gather of their (n, 2, d) exponents from
the powers of omega's image, a sum over the last axis of their
(n, 2, p, q) reshape, and two scatters into the (rows, p, p) stack: no
sort and no per-term index.  A split lays out the row pairs of the
representative blocks only (next paragraph), in the slot order of
`character_slots`, and `block_images` images them all.  `block_system`
writes the terms of one block, of any character, as a System, for the
null-vector certificate of a short block: block -chi from the row pairs
of chi reversed (next paragraph).

Conjugate characters.  Complex conjugation, the Galois map sigma_-1:
omega -> omega^-1 of Q(omega_r'), carries rho_uv to -rho_vu: it turns the
coefficient omega^(E[u,k] - E[v,k]) of x_(u,k) - x_(v,k) into
omega^(E[v,k] - E[u,k]), which is rho_vu's coefficient of
x_(v,k) - x_(u,k).  Both ordered pairs are rows, so sigma_-1 maps the
system onto itself up to a signed row permutation P.  It conjugates the
coordinates chi(g) of e_(o,chi), which gives those of e_(o,-chi), so
sigma_-1(M e_(o,chi)) = -P M e_(o,-chi), and the blocks over all rows
satisfy sigma_-1(M_chi) = -P M_-chi.  A field automorphism keeps ranks, and
the rows left out of a block are multiples of the rows kept, so

    rank M_-chi = rank M_chi   exactly, over Q(omega_r').

The gauges agree as well: chi(h) = 1 exactly when -chi(h) = 1, so chi and
-chi are trivial on the same stabilisers, I_chi = I_-chi, J_chi = J_-chi
and gauge[chi] == gauge[-chi]; the gauge-free columns of the two blocks
correspond, and so do their ranks there and their shares of the defect.
So one character of each pair {chi, -chi} is imaged and ranked, the one
of lesser index, with -chi = ((-s) mod q) q + (-t) mod q for
chi = s q + t, and -chi takes its rank: (q^2 + 1) / 2 blocks for odd q,
where chi = 0 alone is its own conjugate, and all q^2 for q = 2, where
every character is.  A full rank mod l certifies both members exactly; a
rank mod l is a lower bound on the rank of either, so the sum over the
q^2 characters still bounds the defect from above.  No rank of -chi is
taken on any other ground.

The same map carries the null vectors and the rows.  If M_chi w = 0 on
the gauge-free columns, then M_-chi sigma_-1(w) = 0 on the same columns,
and sigma_-1 of an entry sum_j w_j omega^j is sum_j w_j omega^-j
(`conjugate_vectors`).  So of a short pair {chi, -chi} only chi is
certified, and the null vectors of -chi are the conjugates of chi's.
None is trusted on that ground alone: the null vectors of every short
block, those of -chi included, are checked exactly against the whole
first-order system (`lift_is_null`) before a defect is reported as
exact.  Row by row, sigma_-1 carries row (u, v) of M_chi to minus row
(v, u) of M_-chi, so a split lays out the row pairs of the
representatives only, and `block_system` reads block -chi off the pairs
of chi reversed, one per tau-orbit again, since reversing commutes with
tau.  A stabilised pair (u, v) kept in chi, with chi(h) lambda_h(u, v) =
1, gives (v, u) with -chi(h) lambda_h(v, u) = 1, as lambda_h(v, u) is
the inverse of lambda_h(u, v): the pairs that -chi keeps.

Read once, and checked on every grid.  What depends on one basis alone is
read once per basis object (`_basis`): the permutations of X and Z, that
they commute and have order q, the action of G on the first column and
its stabiliser.  What depends on one side's bases alone, K_0 ... K_(p-1)
or L_0 ... L_(p-1), is read once per tuple of basis objects, for as long
as they live (`_side`): the side's permutations, the images of each block
row's first row, the stabilisers, the trivial-character gauge, and the
free and stabilised row-pair lists; so `weyl_split`, and with it each
`catalog.verify`, reads a side again only when its bases are new.
Everything that involves the grid, or both sides, is
checked on every grid, for a stack of grids at once (`weyl_splits`): (*)
for X and Z, the freeness of G on the cells of every block, the group
table, and lambda_h of every stabilised pair with the characters that
keep it.  `weyl_split` is the stack of one grid.
"""

from __future__ import annotations

import functools
import weakref
from math import lcm
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ._exactrank import System, is_null
from .construct import BlockAssignment
from .matrices import ExponentMatrix
from .mub import IdentityBasis


class WeylSplit(NamedTuple):
    """The character blocks of the defect system of a build, as row pairs,
    laid out for the representative chi of each pair {chi, -chi}: block
    chi keeps the pairs with `chi_of[n] == chi`, pair n is the row
    rho_(pairs[n, 0], pairs[n, 1]) and stands at row `row[n]` of the stack
    of representative blocks, slot[chi]*m + its place in the block, in the
    order of `character_slots` (rows past a block's own count are empty).
    Block -chi is read off block chi (`block_system`).  Column o = i*p + j
    is the block (i, j) of the grid E, whose exponents at root r `exp`
    holds.  `gauge[chi]` marks the columns fixed by the trivial null
    vectors of block chi, for all q^2 characters.  Character chi = s*q + t
    is (a, b) -> omega_q^(s a + t b) of the group element (a, b), and
    `group[u, k]` is the element that carries the first cell of the block
    of (u, k) to it.
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


class _Basis(NamedTuple):
    """What a split reads off one basis B of order q: g = a*q + b acts on
    its columns as pi_X^a pi_Z^b."""

    pi: np.ndarray  # (2, q): pi_X, then pi_Z
    first: np.ndarray  # (q^2,): the image of column 0 under g
    h: int  # the least g != 0 that fixes column 0
    trivial: np.ndarray  # (q^2,) bool: chi is trivial on the stabiliser of column 0


# `_read_basis` of every basis read so far, by the basis object, and
# `_read_side` of every side, by the tuple of its basis objects: the bases
# of a search or a recipe are the q + 1 members of one cached MubSet, so
# each basis and each side is read once, not once per build.  An entry
# leaves with the first of its bases to go, so the ids of live bases are
# never a stale key.
_READ: Dict[int, Optional[_Basis]] = {}
_SIDES: Dict[Tuple[int, ...], Optional["_Side"]] = {}


def _remembered(table: dict, key, bases, read):
    """table[key], made by `read()` on its first call; the entry leaves
    the table when one of `bases` is collected."""
    if key not in table:
        for B in bases:
            weakref.finalize(B, table.pop, key, None)
        table[key] = read()
    return table[key]


def _basis(B) -> Optional[_Basis]:
    """`_read_basis(B)`, read once per basis object; the arrays are
    read-only, as every build of the basis shares them."""
    return _remembered(_READ, id(B), (B,), lambda: _frozen(_read_basis(B)))


def _frozen(read):
    """`read` with its arrays made read-only, None as it is."""
    for x in read if read is not None else ():
        if isinstance(x, np.ndarray):
            x.setflags(write=False)
    return read


def _read_basis(B) -> Optional[_Basis]:
    """The permutations of X and Z on B and the action of G on its first
    column, or None when W B is not B times a monomial matrix for W = X or
    Z (`_read_permutations`), when they do not commute, or when one of them
    does not have order q."""
    perms = _read_permutations(B)
    if perms is None:
        return None
    pi = np.stack(perms)
    if not np.array_equal(pi[0][pi[1]], pi[1][pi[0]]):
        return None  # X and Z do not commute
    q = B.d
    powers = [_powers(x, q) for x in pi]
    if any(x is None for x in powers):
        return None
    first = powers[0][:, powers[1][:, 0]].reshape(q * q)  # X^a Z^b of column 0
    # the stabiliser of column 0 has prime order q, since G moves the q
    # columns freely onto each other (checked on the grids, `weyl_splits`),
    # so any g != 0 in it generates it
    h = 1 + int((first[1:] == 0).argmax())
    return _Basis(pi, first, h, _pairing(np.arange(q * q), h, q) == 0)


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


class _Side(NamedTuple):
    """What a split reads off one side's bases alone: K_0 ... K_(p-1) act
    on the rows of a build, L_0 ... L_(p-1) on its columns, each on its own
    block row (column), and g = a*q + b acts on either as X^a Z^b.  The
    row-pair lists are read on the K side only."""

    pi: np.ndarray  # (2, d): the permutation of X, then that of Z
    heads: np.ndarray  # (q^2, p): the image under g of the first row of each block row
    first: np.ndarray  # (q^2,): the image of row 0 under g
    trivial: np.ndarray  # (q^2, p) bool: chi is trivial on the stabiliser of block row i
    free: np.ndarray  # (n, 2): the free row pairs
    stab: np.ndarray  # (s, 2): the stabilised row pairs
    stab_h: np.ndarray  # (s,): the generator h of their stabiliser


def _side(bases, q: int) -> Optional[_Side]:
    """`_read_side(bases, q)`, read once per tuple of basis objects, for as
    long as they live; the arrays are read-only, as every build of the
    side shares them."""
    key = tuple(map(id, bases))
    return _remembered(_SIDES, key, bases, lambda: _frozen(_read_side(bases, q)))


def _read_side(bases, q: int) -> Optional[_Side]:
    """The structure of one side from those of its bases (`_basis`), or
    None when one of them has none."""
    read = [_basis(B) for B in bases]
    if any(x is None for x in read):
        return None
    off = q * np.arange(len(bases))
    pi = np.concatenate([x.pi for x in read], axis=1) + off.repeat(q)
    first = np.array([x.first for x in read]).T  # (g, i): in block row i
    h = np.array([x.h for x in read])  # the stabiliser of each block row
    # one row pair per orbit: (i q, i' q) when the block rows i and i' have
    # different stabilisers, else (i q, v) for every v of block row i',
    # kept in the characters with chi(h) lambda_h = 1 (`_blocks`)
    same = first[h] == 0  # same[i, i']: h_i fixes block row i'
    i, i2 = same.nonzero()
    u, v = off[i].repeat(q), (off[i2][:, None] + np.arange(q)).reshape(-1)
    keep = u != v
    heads = first + off
    return _Side(
        pi, heads, heads[:, 0], np.array([x.trivial for x in read]).T,
        np.argwhere(~same) * q, np.array([u[keep], v[keep]]).T, h[i].repeat(q)[keep],
    )


def weyl_split(a: BlockAssignment, H: ExponentMatrix) -> Optional[WeylSplit]:
    """The character blocks of the defect system of H, a unitary grid with
    the automorphisms of the build of a, or None when a check fails: the
    bases are not Weyl-covariant, (*) does not hold on H, or the group does
    not act freely on the cells of each block (see the module docstring).
    The chunk of one of `weyl_splits`."""
    return weyl_splits([a], H.exp[None], np.array([H.r]))[0]


def weyl_splits(assignments, E: np.ndarray, r: np.ndarray) -> list:
    """`weyl_split` of every assignment of one order and its grid, the
    stack E (N, d, d) at the roots r (N,), each split or None.  What depends
    on one side's bases alone is read once per tuple of basis objects
    (`_side`); (*), the freeness and the group table are checked on every
    grid, for the whole stack at once."""
    a0 = assignments[0]
    p, q, d = a0.p, a0.q, a0.d
    out: list = [None] * len(assignments)
    if E.shape[1:] != (d, d):
        return out
    sides = [(_side(a.K, q), _side(a.L, q)) for a in assignments]
    at = np.array(
        [n for n, (k, l) in enumerate(sides) if k is not None and l is not None], dtype=np.int64
    )
    if not at.size:
        return out
    K, L = zip(*(sides[n] for n in at))
    E, r = E[at], r[at]
    n = np.arange(len(at))[:, None, None, None]
    r4 = r[:, None, None, None]
    # (*) for X and Z on every grid
    rows, cols = np.array([s.pi for s in K]), np.array([s.pi for s in L])  # (N, 2, d)
    D = (E[n, rows[:, :, :, None], cols[:, :, None, :]] - E[:, None]) % r4
    holds = ~((D - D[..., :1] - D[..., :1, :] + D[..., :1, :1]) % r4).any(axis=(1, 2, 3))
    # free on the cells of every block: the q^2 images of its first cell
    rows, cols = np.array([s.heads for s in K]), np.array([s.heads for s in L])  # (N, q^2, p)
    cells = (rows % q)[:, :, :, None] * q + (cols % q)[:, :, None, :]  # (N, g, i, j)
    free = (np.sort(cells, axis=1) == np.arange(q * q)[:, None, None]).all(axis=(1, 2, 3))
    keep = np.flatnonzero(holds & free)
    if not keep.size:
        return out
    group = np.empty((keep.size, d, d), dtype=np.int64)
    # g carries the first cell of each block to its image
    group[n[: keep.size], rows[keep, :, :, None], cols[keep, :, None, :]] = (
        np.arange(q * q)[:, None, None]
    )
    splits = _blocks(p, q, E[keep], r[keep], [K[x] for x in keep], [L[x] for x in keep], group)
    for x, split in zip(at[keep], splits):
        out[x] = split
    return out


@functools.lru_cache(maxsize=None)
def character_slots(q: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """(slot, source, n) for the characters chi = s*q + t of Z_q^2: block
    chi stands at slot[chi] of the stack of a split's blocks, the n
    representatives of the pairs {chi, -chi} (those with chi <= -chi)
    first, by increasing chi, then the others, by increasing chi; and
    source[chi] is the slot of the representative of chi's pair, whose
    rank is chi's (see "Conjugate characters").  Read-only."""
    chi = np.arange(q * q)
    rep = np.minimum(chi, conjugate(chi, q))
    slot = np.empty_like(chi)
    slot[np.argsort(rep != chi, kind="stable")] = chi
    source = slot[rep]
    return _frozen((slot, source)) + (int((rep == chi).sum()),)


def conjugate(chi, q: int):
    """-chi, the character (a, b) -> omega_q^-(s a + t b) of chi = s*q + t,
    of an int or an array of them."""
    s, t = divmod(chi, q)
    return (-s % q) * q + (-t % q)


def _pairing(chi, g, q: int):
    """chi(g) as a multiple of 1/q of a turn: s a + t b (mod q) for the
    character chi = s*q + t and the element g = a*q + b."""
    (s, t), (a, b) = divmod(chi, q), divmod(g, q)
    return (s * a + t * b) % q


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


def _blocks(p, q, E, r, K, L, group) -> list:
    """The splits of the grids E (N, d, d) at the roots r, as their row
    pairs and gauges, given the sides K and L of each and the cell tables
    `group` that `weyl_splits` checked: lambda_h and the characters that
    keep each stabilised pair are found for the whole stack at once."""
    Q = q * q
    R = np.lcm(r, q)
    scale = R // r
    gauge = np.zeros((len(E), Q, p, p), dtype=bool)
    gauge[..., 0] = [s.trivial for s in K]
    gauge[:, :, 0, :] |= np.array([s.trivial for s in L])

    # lambda_h(u, v) at column 0, at root R, of every stabilised pair
    mem = np.arange(len(E)).repeat([len(s.stab) for s in K])
    stab = np.concatenate([s.stab for s in K])
    U, V = stab.T
    h = np.concatenate([s.stab_h for s in K])
    k = np.array([s.first for s in L])[mem, h]
    lam = (E[mem, U, k] - E[mem, V, k] - E[mem, U, 0] + E[mem, V, 0]) * scale[mem]
    # the representative characters, by slot (`character_slots`)
    slot, _, reps = character_slots(q)
    chis = np.flatnonzero(slot < reps)
    pairing = _pairing(chis[:, None], h, q)
    c, j = np.nonzero((pairing * (R // q)[mem] + lam) % R[mem] == 0)
    order = np.argsort(mem[j], kind="stable")  # by grid, then slot, then pair
    c, j = c[order], j[order]
    mem = mem[j]

    # each block keeps its free pairs first, then its stabilised pairs in
    # order; the blocks of a grid follow one another by slot, and the pairs
    # of each grid those of the grid before
    cell = mem * reps + c
    counts = np.bincount(cell, minlength=len(E) * reps).reshape(-1, reps)  # by grid and slot
    n_free = np.array([len(s.free) for s in K], dtype=np.int64)
    m = n_free + counts.max(axis=1)
    sizes = counts + n_free[:, None]
    starts = (sizes.cumsum() - sizes.reshape(-1)).reshape(sizes.shape)
    total = int(sizes.sum())
    pairs = np.empty((total, 2), dtype=np.int64)
    chi_of, row = np.empty((2, total), dtype=np.int64)
    # free pair f of grid x in the block of slot b
    per_grid = reps * n_free
    mf = np.arange(len(E)).repeat(per_grid)
    b, f = np.divmod(np.arange(mf.size) - (per_grid.cumsum() - per_grid)[mf], n_free[mf])
    at = starts[mf, b] + f
    pairs[at] = np.concatenate([s.free for s in K])[(n_free.cumsum() - n_free)[mf] + f]
    chi_of[at], row[at] = chis[b], b * m[mf] + f
    # the stabilised pairs of grid x, in order, after the free pairs of their block
    local = n_free[mem] + np.arange(c.size) - (counts.cumsum() - counts.reshape(-1))[cell]
    at = starts[mem, c] + local
    pairs[at], chi_of[at], row[at] = stab[j], chis[c], c * m[mem] + local
    exp = E * scale[:, None, None]
    gauge = gauge.reshape(len(E), Q, p * p)
    return [
        WeylSplit(
            p, q, int(R[x]), exp[x], pairs[a : a + n], chi_of[a : a + n], row[a : a + n],
            int(m[x]), gauge[x], group[x],
        )
        for x, (a, n) in enumerate(zip(starts[:, 0].tolist(), sizes.sum(axis=1).tolist()))
    ]


def _terms(exp: np.ndarray, group: np.ndarray, q: int, R: int, mem, pairs, chi) -> np.ndarray:
    """The terms of row pairs of the blocks of a stack of splits at root R,
    with the grids `exp` and cell tables `group` (N, d, d): pair n, of split
    mem[n], is rho_uv for (u, v) = pairs[n] in block chi[n], with each term
    scaled by chi(g) of its cell.  Returns the exponents (n, 2, d), each
    plus a multiple of R, below 3 R: term (n, s, k) is +-omega^exp[n, s, k]
    on column (pairs[n, s] // q) * p + k // q of its block, with + for side
    s = 0 (row u) and - for s = 1 (row v), as in `rho_terms`."""
    d = group.shape[1]
    # chi(g) R / q = (s a + t b mod q) R / q for chi = s*q + t and g = a*q + b,
    # with s a + t b below 2 q^2; each term is below 3 R
    dtype = np.int32 if max(3 * R, 2 * q * q) < 2**31 else np.int64
    rows = mem[:, None] * d + pairs  # (n, 2): the row of each side in the stack
    a, b = (x.astype(dtype).reshape(-1, d) for x in np.divmod(group, q))
    s, t = (x.astype(dtype)[:, None, None] for x in np.divmod(chi, q))
    out = a[rows]
    out *= s
    other = b[rows]
    other *= t
    out += other
    del other
    out = (np.arange(2 * q * q, dtype=dtype) % q * (R // q))[out]  # no intp copy, unlike np.take
    E = exp.astype(dtype).reshape(-1, d)
    out += (E[rows[:, 0]] - E[rows[:, 1]] + R)[:, None, :]
    return out


def block_images(splits, l: int, powers: np.ndarray) -> list:
    """The representative blocks of every split, all at one root r, mod l
    under omega_r -> g, with powers[e] = g^e mod l: for each split an int32
    array (n, m, p^2) with entries in [0, l), the `evaluate_rows` image of
    the terms of the n blocks that `character_slots(q)` puts first, one per
    pair {chi, -chi}, in slot order; block -chi has the rank of block chi
    (see "Conjugate characters").  The terms of one side of a pair lie on
    one block row, so its q terms on block column J sum to one entry: the
    stack takes the pairs' side sums over each block column, side u into
    its block row and minus side v into its own.  All the splits go
    through one gather, one sum and two scatters."""
    p, q, R = splits[0].p, splits[0].q, splits[0].r
    reps = character_slots(q)[2]
    heights = np.array([reps * s.m for s in splits], dtype=np.int64)
    base = heights.cumsum() - heights
    mem = np.arange(len(splits)).repeat([len(s.pairs) for s in splits])
    pairs = np.concatenate([s.pairs for s in splits])
    exp = _terms(
        np.array([s.exp for s in splits]), np.array([s.group for s in splits]), q, R,
        mem, pairs, np.concatenate([s.chi_of for s in splits]),
    )
    # the sums of q powers, below q l, in int32 when that is below 2^31
    table = np.tile(powers, 3).astype(np.int32 if q * l < 2**31 else np.int64)
    terms = table[exp].reshape(len(pairs), 2, p, q)
    del exp
    sums = np.einsum("nsjk->nsj", terms) % l
    del terms
    row = np.concatenate([s.row for s in splits]) + base[mem]
    M = np.zeros((int(heights.sum()), p, p), dtype=np.int32)
    block_rows = pairs // q
    M[row, block_rows[:, 0]] = sums[:, 0]
    M[row, block_rows[:, 1]] += l - sums[:, 1]  # one entry per row: no repeats
    M %= l
    return [
        M[b : b + h].reshape(reps, s.m, p * p)
        for b, h, s in zip(base.tolist(), heights.tolist(), splits)
    ]


def block_system(split: WeylSplit, chi: int) -> Tuple[System, np.ndarray]:
    """Block chi on its gauge-free columns, as a System of `split.m` rows,
    and the block columns o it keeps, in order.  It has the rank of the
    whole block, and its nullity is the block's share of the defect.  The
    block -chi of a representative chi takes the row pairs of chi reversed
    (see "Conjugate characters")."""
    p, q, m = split.p, split.q, split.m
    rep = min(chi, int(conjugate(chi, q)))
    sel = np.flatnonzero(split.chi_of == rep)
    pairs = split.pairs[sel] if rep == chi else split.pairs[sel, ::-1]
    exp = _terms(
        split.exp[None], split.group[None], q, split.r,
        np.zeros(sel.size, dtype=np.int64), pairs, np.full(sel.size, chi),
    )
    exp %= split.r
    cols = np.flatnonzero(~split.gauge[chi])
    renumber = np.full(p * p, -1)
    renumber[cols] = np.arange(cols.size)
    col = renumber[(pairs[:, :, None] // q) * p + np.arange(p * q) // q]
    keep = col >= 0
    shape = exp.shape
    row = np.broadcast_to((split.row[sel] % m)[:, None, None], shape)
    sign = np.broadcast_to(np.array([[1], [-1]], dtype=np.int8), shape)
    return System(m, row[keep], col[keep], exp[keep], sign[keep]), cols


def conjugate_vectors(W: np.ndarray, R: int) -> np.ndarray:
    """sigma_-1 of the vectors W, an array (n, c, phi) of power-basis
    coefficients at root R: entry sum_j W[., ., j] omega^j becomes
    sum_j W[., ., j] omega^-j, written as its coefficient of omega^(-j mod
    R), an array (n, c, R) not reduced mod Phi_R, which `is_null` and
    `lift_is_null` read as it is.  Null vectors of block chi on its
    gauge-free columns become null vectors of block -chi on the same
    columns (see "Conjugate characters")."""
    out = np.zeros(W.shape[:2] + (R,), dtype=W.dtype)
    out[..., -np.arange(W.shape[2]) % R] = W
    return out


def lift_is_null(split: WeylSplit, H: ExponentMatrix, blocks) -> bool:
    """Exact check that null vectors of character blocks, mapped back to
    the d^2 variables, are null vectors of the whole first-order system of
    H, the rows rho_uv of all ordered pairs u != v on all cells (`is_null`).

    `blocks` holds (chi, cols, W) with W the (n_null, cols.size, n)
    power-basis coefficients of null vectors of `block_system(split, chi)`,
    n = phi for a certified block and R for the conjugates of
    `conjugate_vectors`.
    Vector w maps to x[c] = chi(g_c) w[o(c)] on the cells c of the blocks
    o in cols, and to 0 on the gauge.
    """
    p, q, R = split.p, split.q, split.r
    d = p * q
    u, k = np.divmod(np.arange(d * d), d)
    o = (u // q) * p + k // q
    X, shift = [], []
    width = max((W.shape[2] for _, _, W in blocks), default=0)
    for chi, cols, W in blocks:
        full = np.zeros((len(W), p * p, width), dtype=object)
        full[:, cols, : W.shape[2]] = W
        X.append(full[:, o])
        chi_g = _pairing(chi, split.group.reshape(-1), q) * (R // q)
        shift.append(np.broadcast_to(chi_g, (len(W), d * d)))
    U, V = np.nonzero(~np.eye(d, dtype=bool))
    cell_rows, exp, sign = rho_terms(H.exp * (R // H.r), R, U, V)
    row, col = np.arange(U.size)[:, None, None], cell_rows * d + np.arange(d)
    terms = (np.broadcast_to(a, (U.size, 2, d)).reshape(-1) for a in (row, col, exp, sign))
    return is_null(System(U.size, *terms), np.concatenate(X), R, np.concatenate(shift))
