"""Invariant analysis for complex Hadamard matrices.

Covers the defect (dimension of the first-order unitarity-preserving
deformation space at a dephased point), isolation certificates, the
Haagerup set of quadruple phase products, invariant-based inequivalence
screening, and exhaustive search over mutually unbiased block assignments.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._exactrank import (
    SEED,
    RankCertificationError,
    System,
    certify_null_spaces,
    certify_rank,
    find_embedding_prime,
    power_table,
    rank_mod,
    stack_slices,
)
from ._weyl import (
    WeylSplit,
    block_images,
    block_system,
    character_slots,
    conjugate,
    conjugate_vectors,
    lift_is_null,
    rho_terms,
    weyl_split,
    weyl_splits,
)
from .construct import BlockAssignment, build_grids
from .matrices import (
    ComplexMatrix,
    ExponentMatrix,
    Matrix,
    NotHadamardFormError,
    butson_min_root,
    dephase,
    dephased_min_roots,
    is_dephased,
    is_unitary,
    to_complex,
)
from .mub import MubSet, complete_mub_set

# float rank cut: tau = sigma_max * max(m, n) * eps * 64; the verdict is
# refused when any singular value lands within GAP_FACTOR of the cut
CUT_FACTOR = 64.0
GAP_FACTOR = 1000.0


class IndeterminateRankError(RuntimeError):
    """A singular value sits too close to the rank cut for a float verdict."""

    def __init__(self, msg: str, singular_values=None, tau: float = 0.0):
        super().__init__(msg)
        self.singular_values = singular_values
        self.tau = tau


@dataclass(frozen=True)
class DefectReport:
    defect: int
    variables: int
    rank: int
    # "exact" and "float": the defect itself, certified or from the guarded
    # SVD.  "bound": a certified upper bound from one rank mod a prime, which
    # the search reports for assignments it cannot certify isolated.
    mode: str
    evidence: dict = field(compare=False)

    @property
    def isolated(self) -> bool:
        return self.defect == 0


# ----------------------------------------------------------------------
# defect
# ----------------------------------------------------------------------

def _float_system(Hc: np.ndarray) -> np.ndarray:
    """First-order unitarity system at a dephased matrix: variables R[i,k]
    (i, k >= 1), one Re and one Im row per row pair (u < v)."""
    d = Hc.shape[0]
    iu, iv = np.triu_indices(d, 1)
    c = (Hc[iu] * np.conj(Hc[iv]))[:, 1:]
    parts = np.stack([c.real, c.imag], axis=1)  # (pair, Re/Im, k)
    # rows (pair, Re/Im) by columns (i - 1, k) for the variable R[i, k]
    M = np.zeros((iu.size, 2, d - 1, d - 1))
    pair = np.arange(iu.size)
    has_u = iu >= 1
    M[pair[has_u], :, iu[has_u] - 1] = parts[has_u]
    M[pair, :, iv - 1] -= parts  # 0.0 - x, not -x: zeros keep their sign
    return M.reshape(d * (d - 1), (d - 1) ** 2)


def _exact_rows(H: ExponentMatrix) -> System:
    """Same system over Z[omega_r] for a dephased H: one row rho_uv per
    ordered pair u != v (`_weyl.rho_terms`), the pairs in lexicographic
    order.  The cells of row 0 and column 0 are the gauge, not variables,
    so their terms are dropped.  The Re and Im rows of the pair u < v are
    (rho_uv - rho_vu) / 2 and (rho_uv + rho_vu) / 2i, so the row spaces
    over Q(omega_r) are the same, and so are the ranks."""
    E, r, d = H.exp, H.r, H.d
    U, V = np.nonzero(~np.eye(d, dtype=bool))
    cell_rows, exp, sign = rho_terms(E[:, 1:], r, U, V)
    shape = (U.size, 2, d - 1)
    keep = np.broadcast_to(cell_rows >= 1, shape)
    row = np.arange(U.size)[:, None, None]
    col = (cell_rows - 1) * (d - 1) + np.arange(d - 1)

    # narrow term arrays: a root that reaches a rank is below 2^25
    # (find_embedding_prime), and every index is below d^2
    def flat(a: np.ndarray, dtype) -> np.ndarray:
        return np.broadcast_to(a.astype(dtype), shape)[keep]

    return System(d * (d - 1), *(flat(a, np.int32) for a in (row, col, exp)), flat(sign, np.int8))


def _defect_float(Hc: np.ndarray) -> DefectReport:
    d = Hc.shape[0]
    M = _float_system(Hc)
    n = M.shape[1]
    if n == 0:
        return DefectReport(0, 0, 0, "float", {"system_shape": [0, 0]})
    sv = np.linalg.svd(M, compute_uv=False)
    tau = sv[0] * max(M.shape) * np.finfo(float).eps * CUT_FACTOR
    inband = sv[(sv > tau / GAP_FACTOR) & (sv < tau * GAP_FACTOR)]
    if inband.size:
        raise IndeterminateRankError(
            f"{inband.size} singular value(s) within {GAP_FACTOR:g}x of the "
            f"rank cut {tau:.3e}; use exact mode",
            singular_values=sv,
            tau=tau,
        )
    rank = int((sv > tau).sum())
    below = sv[sv <= tau]
    ev = {
        "system_shape": list(M.shape),
        "sigma_max": float(sv[0]),
        "tau": float(tau),
        "sigma_min_above": float(sv[rank - 1]) if rank else 0.0,
        "sigma_max_below": float(below.max()) if below.size else 0.0,
    }
    return DefectReport(n - rank, n, rank, "float", ev)


def _defect_exact(E: ExponentMatrix) -> DefectReport:
    d, r = E.d, E.r
    n = (d - 1) ** 2
    if n == 0:
        return DefectReport(0, 0, 0, "exact", {"root": r})
    rank, ev = certify_rank(_exact_rows(E), n, r)
    ev["root"] = r
    return DefectReport(n - rank, n, rank, "exact", ev)


@functools.lru_cache(maxsize=None)
def _block_prime(r: int) -> Tuple[int, np.ndarray]:
    """l of (l, g) = `find_embedding_prime(r, Random(SEED))`, and the
    powers of g mod l (`power_table`), read-only: the draw is
    deterministic, so it is made once per root."""
    l, g = find_embedding_prime(r, random.Random(SEED))
    powers = power_table(g, l, r)
    powers.setflags(write=False)
    return l, powers


def _defects(builds, certify: bool) -> List[DefectReport]:
    """The defect report of every (H, split) of a chunk, in order, with H
    the dephased build of an assignment a at its minimal root (so unitary)
    and split `weyl_split(a, H)`.

    The defect goes through the Weyl-Heisenberg split of `_weyl` whenever
    `weyl_split` verified its automorphisms on H, and through
    `_defect_exact` when the split is None.  Of the q^2 character blocks
    of a split, one per pair {chi, -chi} is imaged, (q^2 + 1) / 2 blocks
    for odd q and q^2 for q = 2, mod one prime, the first that Random(SEED)
    draws for the split's root: the splits are grouped by root, and each
    group is imaged at once (`block_images`).  The images of each (prime,
    block shape) are stacked and ranked by `rank_mod`, one call per stack
    of `stack_slices`, the rule that also cuts the certificate's stacks.
    Each build's slice of the ranks goes back to its q^2 characters, -chi
    taking the rank of chi (exact over Q(omega_r'), see "Conjugate
    characters" in `_weyl`), and makes its report (`_block_report`).  A
    chunk of one build is `_build_defect`; the chunks of a search come from
    `_examine_all`.
    """
    reports: list = [None] * len(builds)
    by_root: Dict[int, List[int]] = {}
    for i, (H, split) in enumerate(builds):
        if split is None:
            reports[i] = _defect_exact(H)
        else:
            by_root.setdefault(split.r, []).append(i)
    groups: Dict[tuple, list] = {}  # (prime, block shape) -> (build, its image)
    for r, at in by_root.items():
        l, powers = _block_prime(r)
        for i, image in zip(at, block_images([builds[i][1] for i in at], l, powers)):
            groups.setdefault((l, *image.shape[1:]), []).append((i, image))
    for (l, m, n), members in groups.items():
        stack = np.concatenate([image for _, image in members])
        ranks = np.concatenate([rank_mod(stack[cut], l) for cut in stack_slices(len(stack), m, n)])
        at = 0
        for i, image in members:
            H, split = builds[i]
            own = ranks[at : at + len(image)][character_slots(split.q)[1]]
            reports[i] = _block_report(H, split, own, l, certify)
            at += len(image)
    return reports


def _block_report(
    H: ExponentMatrix, split: WeylSplit, ranks: np.ndarray, l: int, certify: bool
) -> DefectReport:
    """The report of the build H with the split `split` from the ranks of
    its q^2 character blocks mod the prime l.  When every block has the
    rank of its gauge-free columns, H is certified isolated (mode "exact").
    Otherwise the ranks give a certified upper bound on the defect: mode
    "bound" without `certify`.

    With it, the short blocks come in pairs {chi, -chi} of one rank, and
    the representative chi of each (the lesser) is certified on its
    gauge-free columns, all of them together (`certify_null_spaces`).
    Block -chi takes chi's exact rank, and as its null vectors the
    conjugates of chi's (`conjugate_vectors`): sigma_-1(M_chi) = -P M_-chi
    (see "Conjugate characters" in `_weyl`).  The null vectors of every
    short block, those of -chi included, mapped back to the d^2
    variables, are checked against the whole system (`lift_is_null`)
    before the defect is reported as exact."""
    full = split.p**2 - split.gauge.sum(axis=1)  # the rank of a block with no defect
    if (ranks > full).any():
        raise RankCertificationError("a character block outranks its gauge-free columns")
    n, rank = (H.d - 1) ** 2, int(ranks.sum())
    ev = {
        "root": H.r,
        "blocks": len(ranks),
        "block_columns": split.p**2,
        "pivot_count": rank,
        "primes": [l],
        "null_vectors": 0,
    }
    short = np.flatnonzero(ranks < full).tolist()
    if not short:
        return DefectReport(0, n, n, "exact", ev)
    if not certify:
        return DefectReport(n - rank, n, rank, "bound", ev)
    reps = [chi for chi in short if chi <= conjugate(chi, split.q)]
    systems = [block_system(split, chi) for chi in reps]
    certs = certify_null_spaces([(system, cols.size) for system, cols in systems], split.r)
    certified = {chi: (cols, cert) for chi, (_, cols), cert in zip(reps, systems, certs)}
    blocks = []
    for chi in short:
        neg = conjugate(chi, split.q)
        cols, (rk, bev, W) = certified[min(chi, neg)]
        if chi > neg:
            W = conjugate_vectors(W, split.r)
        ev["primes"] += [y for y in bev["primes"] if y not in ev["primes"]]
        rank += rk - int(ranks[chi])
        blocks.append((chi, cols, W))
    if not lift_is_null(split, H, blocks):
        raise RankCertificationError("a block null vector is not a null vector of the system")
    ev["pivot_count"] = rank
    ev["null_vectors"] = n - rank
    return DefectReport(n - rank, n, rank, "exact", ev)


def _build_defect(a: BlockAssignment, H: ExponentMatrix, certify: bool) -> DefectReport:
    """Defect of H, the dephased build of a at its minimal root: `_defects`
    of the chunk of this one build, whose docstring has the method.  With
    `certify` (`catalog.verify`), a build that is not isolated gets its
    exact defect from the null vectors of its short blocks; without it, the
    one-prime bound."""
    return _defects([(H, weyl_split(a, H))], certify)[0]


def defect(H: Matrix, mode: str = "auto") -> DefectReport:
    """Defect of H, computed at its dephased representative.

    mode "auto" certifies exactly for exponent-form input and falls back to
    the float SVD (with the gap guard) for complex input; "float"/"exact"
    force a path.  Exact mode on complex input raises, and so does a
    non-unitary H (NotHadamardFormError), whose defect means nothing.
    """
    if mode not in ("auto", "float", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if not is_unitary(H):
        raise NotHadamardFormError("matrix is not unitary, so it has no defect")
    if isinstance(H, ExponentMatrix):
        Hd = H if is_dephased(H) else dephase(H)[0]
        _, reduced = butson_min_root(Hd)
        if mode == "float":
            return _defect_float(to_complex(reduced).entries)
        return _defect_exact(reduced)
    if mode == "exact":
        raise ValueError("exact defect needs an exponent-form matrix")
    Hc = H if is_dephased(H) else dephase(H)[0]
    return _defect_float(Hc.entries)


def is_isolated(H: Matrix, mode: str = "auto") -> bool:
    """True when the defect vanishes (no first-order deformations at all)."""
    return defect(H, mode=mode).defect == 0


# ----------------------------------------------------------------------
# Haagerup set
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HaagerupSet:
    """All quadruple products H[i,j] H[k,l] conj(H[i,l]) conj(H[k,j]).

    Exact sets store canonical (numerator, denominator) pairs of the phase
    as a fraction of a full turn; float sets store angles in (-pi, pi].
    """

    members: tuple
    r: Optional[int] = None  # common root order for exact sets, else None

    @property
    def exact(self) -> bool:
        return self.r is not None

    def __len__(self) -> int:
        return len(self.members)

    def digest(self) -> str:
        if not self.exact:
            raise ValueError("fingerprints are defined for exact sets only")
        blob = json.dumps(list(self.members), separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def haagerup_set(H: Matrix) -> HaagerupSet:
    d = H.d
    if isinstance(H, ExponentMatrix):
        return _haagerup_sets(H.exp[None], np.array([H.r]), range(d))[0]
    Hc = H.entries
    seen: set = set()
    for i in range(d):
        C = Hc[i][None, :] * np.conj(Hc)
        X = C[:, :, None] * np.conj(C[:, None, :])
        seen.update(np.unique(np.round(np.angle(X), 8)).tolist())
    vals = sorted(seen)
    merged: List[float] = []
    for a in vals:
        if not merged or a - merged[-1] > 1e-7:
            merged.append(a)
    if len(merged) > 1 and (np.pi - merged[-1]) + (merged[0] + np.pi) < 1e-7:
        merged.pop()  # cluster straddling the +/-pi seam
    return HaagerupSet(members=tuple(merged), r=None)


def _haagerup_sets(E: np.ndarray, r: np.ndarray, rows: Sequence[int]) -> List[HaagerupSet]:
    """The exact Haagerup set of the quadruples whose first row is in
    `rows`, of every grid of the stack E (N, d, d) at the roots r (N,).
    That is a grid's whole set when `rows` is every row, or when it meets
    every orbit of a group of automorphisms of the grid that keeps the
    quadruple phases (see `assignment_search`).  The phases of many first
    rows, of one grid or several, are made at once, at most _CHUNK of
    them."""
    N, d = E.shape[:2]
    r = np.asarray(r, dtype=np.int64)
    heads = np.repeat(np.arange(N), len(rows)), np.tile(np.asarray(rows, dtype=np.int64), N)
    step = max(1, _CHUNK // d**3)
    # the quadruple phase of rows (i, k), columns (j, l) is the residue
    # of D[k, j] - D[k, l] with D = E[i] - E (mod r).  A hit table marks
    # it at D[k, j] + (r - D[k, l]), in [1, 2r), which the dtype holds,
    # each grid n in its own stretch from n * 2 r_max; when 2 r_max exceeds
    # the d^3 phases of one first row, sorting them costs less
    rm = int(r.max())
    table = 2 * rm <= d**3
    if table:
        dtype = np.min_scalar_type(N * 2 * rm - 1)
        hit = np.zeros(N * 2 * rm, dtype=bool)
        base = (np.arange(N) * (2 * rm) + r).astype(dtype)
    found = []
    for at in range(0, heads[0].size, step):
        n, i = (x[at : at + step] for x in heads)
        rn = r[n][:, None, None]
        D = (E[n, i][:, None, :] - E[n]) % rn  # (first row, k, j)
        if table:
            D = D.astype(dtype)
            hit[D[:, :, :, None] + (base[n][:, None, None] - D)[:, :, None, :]] = True
        else:
            phase = (D[:, :, :, None] - D[:, :, None, :]) % rn[..., None]
            grid = np.broadcast_to(n[:, None, None, None], phase.shape).reshape(-1)
            found.append(np.unique(np.stack([grid, phase.reshape(-1)], axis=1), axis=0))
    if table:
        hit = hit.reshape(N, 2 * rm)
        k = np.arange(rm)
        upper = np.take_along_axis(hit, np.minimum(k + r[:, None], 2 * rm - 1), axis=1)
        n, ks = np.nonzero((hit[:, :rm] | upper) & (k < r[:, None]))
    else:
        n, ks = np.unique(np.concatenate(found), axis=0).T
    # every member of a set shares its root r, so increasing k is
    # increasing k / r; k / r in lowest terms, with k = 0 as 0 / 1
    rn = r[n]
    g = np.gcd(ks, rn)
    nums, dens = (ks // g).tolist(), (rn // g).tolist()
    out, at = [], 0
    for x, end in enumerate(np.cumsum(np.bincount(n, minlength=N)).tolist()):
        out.append(HaagerupSet(members=tuple(zip(nums[at:end], dens[at:end])), r=int(r[x])))
        at = end
    return out


def fingerprint(H: Matrix) -> str:
    """sha256 over the sorted canonical Haagerup phases (exact input only);
    invariant under equivalence moves and root rescaling."""
    return haagerup_set(H).digest()


# ----------------------------------------------------------------------
# invariant-based comparison
# ----------------------------------------------------------------------

def inequivalent_by_invariants(A: Matrix, B: Matrix, details: bool = False):
    """Screen two matrices with equivalence invariants.

    Returns "inequivalent" when some invariant (order, minimal Butson root,
    Haagerup set, defect) separates them, else "inconclusive" — matching
    invariants never prove equivalence.  With details=True, returns
    (verdict, info dict).  A non-unitary A or B raises NotHadamardFormError,
    as in `defect`: no verdict means anything for it.
    """
    if not (is_unitary(A) and is_unitary(B)):
        raise NotHadamardFormError("matrix is not unitary, so it has no invariants")
    reasons: List[str] = []
    info: Dict[str, tuple] = {"order": (A.d, B.d)}
    if A.d != B.d:
        reasons.append("order")
    else:
        Ad = A if is_dephased(A) else dephase(A)[0]
        Bd = B if is_dephased(B) else dephase(B)[0]
        if isinstance(Ad, ExponentMatrix) and isinstance(Bd, ExponentMatrix):
            ra, Ar = butson_min_root(Ad)
            rb, Br = butson_min_root(Bd)
            info["butson_root"] = (ra, rb)
            if ra != rb:
                reasons.append("butson_root")
            ha, hb = haagerup_set(Ar), haagerup_set(Br)
            info["haagerup_size"] = (len(ha), len(hb))
            if ha.members != hb.members:
                reasons.append("haagerup")
            da, db = _defect_exact(Ar), _defect_exact(Br)
        else:
            da, db = defect(Ad, mode="float"), defect(Bd, mode="float")
        info["defect"] = (da.defect, db.defect)
        if da.defect != db.defect:
            reasons.append("defect")
    verdict = "inequivalent" if reasons else "inconclusive"
    info["reasons"] = tuple(reasons)
    return (verdict, info) if details else verdict


# ----------------------------------------------------------------------
# assignment search
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SearchFinding:
    """One isolated matrix class discovered by the search."""

    assignment: BlockAssignment
    report: DefectReport
    butson_root: int
    fingerprint: str


@dataclass
class SearchResult:
    findings: List[SearchFinding]            # isolated classes, canonical order
    classes: List[Tuple[str, int]]           # every distinct (fingerprint, defect)
    examined: int                            # candidates covered: sum of orbit sizes
    representatives: List[BlockAssignment]   # one analysed assignment per orbit
    stopped_by: Optional[str] = None         # None, "budget" or "time limit"

    @property
    def partial(self) -> bool:
        return self.stopped_by is not None


def _candidate_indices(p: int, q: int):
    """Canonical enumeration with K0 = I and L0 = F pinned, as H indices:
    the free slots are sorted multisets over {0, 1..q-1} on each side, where
    0 stands for I (K side) or F (L side) and j >= 1 for H_j.  An H_j on
    both sides breaks unitarity, so those pairs are skipped.  The order is
    lexicographic on (kc, lc)."""
    choices = range(q)
    for kc in itertools.combinations_with_replacement(choices, p - 1):
        k_h = {j for j in kc if j}
        for lc in itertools.combinations_with_replacement(choices, p - 1):
            if not k_h.intersection(lc):
                yield kc, lc


def _assignment(p: int, kc, lc, mub: MubSet) -> BlockAssignment:
    k_labels = ("I",) + tuple(f"H{j}" if j else "I" for j in kc)
    l_labels = ("F",) + tuple(f"H{j}" if j else "F" for j in lc)
    return BlockAssignment.from_labels(p, mub.q, k_labels, l_labels, mub=mub)


def _orbit_multipliers(q: int) -> Tuple[int, ...]:
    """The relabellings H_j -> H_{s j mod q} the search identifies: s = +-x^2
    mod q for x != 0.  That is every unit when q = 3 (mod 4), the nonzero
    squares alone when q = 1 (mod 4), and (1,) for q = 2."""
    return tuple(sorted({sign * x * x % q for x in range(1, q) for sign in (1, -1)}))


def _is_least(kc, lc, q: int, multipliers: Sequence[int]) -> bool:
    """Whether (kc, lc) is the least member of its `_orbit`, found without
    building it: False at the first image that precedes it.  An image whose
    K side already differs needs no L side."""
    for s in multipliers:
        k = tuple(sorted(s * j % q for j in kc))
        if k < kc:
            return False
        if k == kc and tuple(sorted(s * j % q for j in lc)) < lc:
            return False
    return True


def _orbit(kc, lc, q: int, multipliers: Sequence[int]) -> set:
    """Images of a candidate under the multipliers, each side re-sorted."""
    return {
        (
            tuple(sorted(s * j % q for j in kc)),
            tuple(sorted(s * j % q for j in lc)),
        )
        for s in multipliers
    }


# A search examines its representatives in chunks: each layer, from the
# build to the rank of the character blocks, runs once per chunk on
# stacked arrays, and `_defects` ranks a chunk's blocks in one stack per
# (prime, block shape).  The largest work array is the Haagerup phases of
# the p block-row heads, p d^3 per representative; the bound keeps a
# chunk's at or below _CHUNK, 2 MB in uint16.  A chunk holds up to 103
# representatives at (3, 5), 62 at (5, 3) and 191 at (2, 7), so each of
# these searches is one chunk; its traced peak is about 2.3 MB at (3, 5).
# From p d^3 > _CHUNK / 2 on (every d >= 65 with p >= 2), a chunk is one
# representative.
_CHUNK = 2**20


def _chunks(assignments):
    """The assignments in order, as lists of one order (p, q) and at most
    _CHUNK // (p d^3) members, at least one; a list is handed on as soon as
    it is full."""
    chunk: list = []
    for a in assignments:
        if chunk and (a.p, a.q) != (chunk[0].p, chunk[0].q):
            yield chunk
            chunk = []
        chunk.append(a)
        if len(chunk) >= _CHUNK // (a.p * a.d**3):
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _examine_all(assignments, cache: dict):
    """(a, Butson root, Haagerup fingerprint, defect report) of every
    assignment a, in order.

    The assignments are taken in chunks (`_chunks`), and each layer runs
    once per chunk on stacked arrays: the builds are gathered from the
    cached pair blocks (`build_grids`), dephased and brought to their
    minimal roots (`dephased_min_roots`), split (`weyl_splits`, which
    checks (*), freeness and the group on every grid, and reads what
    depends on one side's bases once per tuple of basis objects) and
    digested (`_front`): a build whose split verified takes the
    Haagerup quadruples of the first row of each block row only, which give
    the whole set (see `assignment_search`), and one whose split is None
    every row.  Then the chunk's defects are `_defects`' without the
    certificate: the character blocks, one per conjugate pair, are imaged
    per root and ranked per (prime, block shape) in stacked eliminations.
    Every block at full gauge-free rank certifies isolation (mode "exact");
    otherwise the ranks give a certified upper bound on the defect (mode
    "bound").  A chunk's results are handed on once the chunk is done.  A
    chunk of one is `_examine`, with the same report, to its evidence.
    """
    for chunk in _chunks(assignments):
        front = _front(chunk, *dephased_min_roots(*build_grids(chunk, cache)))
        reports = _defects([(H, split) for H, split, _ in front], certify=False)
        for a, (H, _, hs), rep in zip(chunk, front, reports):
            yield a, H.r, hs.digest(), rep


def _front(assignments, E: np.ndarray, r: np.ndarray) -> list:
    """(H, split, Haagerup set) of every assignment of one order, with H
    its dephased grid at its minimal root, from the stack E (N, d, d) at
    the roots r (N,).  The splits are `weyl_splits`; the Haagerup set of a
    grid comes from the first row of each block row when its split verified
    (see `assignment_search`), and from every row when it is None, each
    group in one stack."""
    splits = weyl_splits(assignments, E, r)
    sets: list = [None] * len(splits)
    d, q = E.shape[1], assignments[0].q
    for rows, verified in ((range(0, d, q), True), (range(d), False)):
        at = [n for n, x in enumerate(splits) if (x is not None) == verified]
        if at:
            for n, hs in zip(at, _haagerup_sets(E[at], r[at], rows)):
                sets[n] = hs
    return [
        (ExponentMatrix(d, root, e), split, hs)
        for e, root, split, hs in zip(E, r.tolist(), splits, sets)
    ]


def _examine(a: BlockAssignment, cache: dict):
    """Butson root, Haagerup fingerprint and defect report of one
    assignment: the chunk of one of `_examine_all`, so the same report, to
    its evidence, that the search makes for a."""
    return next(_examine_all([a], cache))[1:]


def assignment_search(
    p: int,
    q: int,
    budget: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> SearchResult:
    """Enumerate valid block assignments, analyze one per symmetry orbit,
    and report every isolated equivalence-invariant class.

    Classes are keyed by (Haagerup fingerprint, defect), where the defect
    of a class that is not isolated is `_examine`'s certified upper bound.
    Output order is the canonical enumeration order of `_candidate_indices`.

    Defects.  The representatives are examined in chunks of at most
    _CHUNK // (p d^3), and each layer runs once per chunk on stacked arrays
    (`_examine_all`): the builds are gathered from the cached blocks of
    their basis pairs, dephased and brought to their minimal roots, and
    the defect system of each is split into q^2 Weyl-Heisenberg blocks of
    p^2 columns (`_weyl`).  What depends on one side's bases alone is read
    once per tuple of basis objects, so once per side for as long as the
    cached complete set lives; (*), the freeness and the group table are
    checked exactly on every grid.  Complex conjugation carries block chi
    to block -chi, so the two have one rank, and only one block of each
    pair {chi, -chi} is imaged and ranked, (q^2 + 1) / 2 of the q^2 for
    odd q.  The blocks of a chunk are imaged mod one prime per split root,
    and the images of each (prime, block shape) are ranked together in
    one stacked elimination, cut only where the certificate's stacks are
    cut (`_exactrank.stack_slices`).  Every report is the one `_examine`
    gives the representative alone, evidence included.  Full rank
    certifies an isolated class, and the ranks bound the defect of any
    other from above.  The split uses the same covariance of the complete set under
    X and Z that the orbits below use under the Clifford relabellings.

    Haagerup sets.  The set collects the quadruple phases
    Q(i, k, j, l) = E[i, j] - E[k, j] - E[i, l] + E[k, l] of the grid E
    that the split checked, the dephased build at its minimal root.  Once
    `weyl_split` has verified (*) of `_weyl` on E for the generators X and
    Z, every group element g of G = Z_q^2 acts as (u, k) -> (pi_1 u, pi_2 k)
    with E[pi_1 u, pi_2 v] = E[u, v] + a_u + b_v (mod r) for some integer
    vectors a and b, since maps of that form compose.  Then
    Q(pi_1 i, pi_1 k, pi_2 j, pi_2 l) = Q(i, k, j, l): a_i, a_k, b_j and b_l
    each enter once with each sign.  The same checks show that G acts
    freely on the q^2 cells of each block, so it is transitive on them, and
    so on the q rows of each block row.  Given a quadruple with first row
    i, let i0 be the first row of i's block row and g an element with
    pi_1 i0 = i; then g carries the quadruple (i0, pi_1^-1 k, pi_2^-1 j,
    pi_2^-1 l) of g's inverse images to it, with the same phase.  So the
    quadruples whose first row is one of 0, q, ..., (p - 1) q give the whole
    set: p d^3 phases, not d^4 (`_front`).  A representative whose split
    is None takes all d rows.

    Orbits.  For a unit mu mod q let U = P_mu be the permutation x -> mu x.
    Then U I = I P_mu, U F = F * monomial and U H_j = H_{mu^-2 j} * monomial,
    because the diagonal D of H_j = D^j F is quadratic in k (k^2 for q = 3
    and 5, k(k-1)/2 otherwise) and its linear part is a column shift of F.
    Hence relabelling every free slot H_j -> H_{s j} with s = mu^-2, one of
    `_orbit_multipliers(q)`, and leaving the slots in place builds
    D1 H D2^dagger with block-diagonal monomial D1 and D2: an equivalent
    matrix, with the same Haagerup set and defect.

    Complex conjugation supplies s = -1, which is not a square when
    q = 3 (mod 4).  conj(I) = I, conj(F) = F P and conj(H_j) = D^-j F P =
    H_{-j} P, with P the permutation k -> -k.  Block (i, j) of the build is
    omega_p^(i j) K_i^dagger L_j / sqrt(p), so conj(build(a)) =
    D1 build(a'') D2 with monomial D1 and D2, where a'' negates every H
    index and moves L slot i to slot -i mod p (slot 0, the pinned F, stays),
    and D2 also permutes the block columns j -> -j.  Conjugation keeps the
    key: the Haagerup set is closed under negation, because swapping the
    columns j and l of a quadruple conjugates its product, and the Galois
    map omega -> omega^-1 carries the exact defect system of build(a) to
    that of its conjugate, so the defect is the same.  The multipliers
    +-x^2 form a group, so the orbits partition the candidates.  (A key
    that is not isolated holds `_examine`'s one-prime bound, which this
    argument takes for the exact defect; the tests check that orbit
    members share their examined key.)

    Sorting each side back into a multiset absorbs the slot moves; it is
    the slot-order step the multiset enumeration already assumes, and the
    orbit step adds no other assumption.  So every member of an
    orbit has the key of its least member in enumeration order, the first
    candidate of each class is that least member, and analysing only the
    least members gives the full enumeration's classes and findings.
    `examined` counts the candidates covered, the sum of the orbit sizes,
    and `representatives` lists the assignments actually analysed.  A
    candidate is dropped at the first multiplier image that precedes it
    (`_is_least`); only a least candidate's orbit is built, for its size.

    `budget` caps `examined`: a representative is analysed only when its
    whole orbit fits in what is left of it.  `time_limit` (seconds) caps
    wall time: no representative is taken after it, and the chunk already
    taken is then examined to the end, its blocks ranked.
    Stopping short of the end for either sets `stopped_by` ("budget" or
    "time limit") and so `partial`.  Bad input raises ValueError before
    any work: p < 1, a q that is not prime
    (NotPrimeError), or a negative budget or time limit.
    """
    if p < 1:
        raise ValueError(f"p must be at least 1, got {p}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if time_limit is not None and not time_limit >= 0:
        raise ValueError(f"time limit must be non-negative, got {time_limit}")
    mub = complete_mub_set(q)
    multipliers = _orbit_multipliers(q)
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    res = SearchResult([], [], 0, [])

    def representatives():
        for kc, lc in _candidate_indices(p, q):
            if not _is_least(kc, lc, q, multipliers):
                continue
            orbit = _orbit(kc, lc, q, multipliers)
            if budget is not None and res.examined + len(orbit) > budget:
                res.stopped_by = "budget"
                return
            if deadline is not None and time.monotonic() >= deadline:
                res.stopped_by = "time limit"
                return
            a = _assignment(p, kc, lc, mub)
            res.examined += len(orbit)
            res.representatives.append(a)
            yield a

    seen: set = set()
    for a, root, fp, rep in _examine_all(representatives(), {}):
        key = (fp, rep.defect)
        if key not in seen:
            seen.add(key)
            res.classes.append(key)
            if rep.defect == 0:
                res.findings.append(SearchFinding(a, rep, root, fp))
    return res
