"""Invariant analysis for complex Hadamard matrices.

Covers the defect (dimension of the first-order unitarity-preserving
deformation space at a dephased point), isolation certificates, the
Haagerup set of quadruple phase products, invariant-based inequivalence
screening, and exhaustive search over mutually unbiased block assignments.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._exactrank import SEED, System, certify_rank, screen_rank
from .construct import BlockAssignment, theorem1_build
from .matrices import (
    ComplexMatrix,
    ExponentMatrix,
    Matrix,
    NotHadamardFormError,
    butson_min_root,
    dephase,
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


# coefficients of omega^delta and omega^-delta, by row (plus, minus) and by
# the side (u, v) of the row pair that the column belongs to
_EXACT_COEFFS = np.array([[[1, 1], [-1, -1]], [[1, -1], [-1, 1]]])


def _exact_rows(H: ExponentMatrix) -> System:
    """Same system over Z[omega_r] for a dephased H: the Re/Im split is
    rescaled to the conjugation-symmetric pair omega^delta +/- omega^-delta,
    which spans the same row space (diagonal scaling by 2 and 2i), so ranks
    agree.

    Terms run over (pair, plus/minus row, k, side u/v, delta/-delta), with
    the u side dropped for u = 0, whose R[0, k] are not variables."""
    E, r, d = H.exp, H.r, H.d
    iu, iv = np.triu_indices(d, 1)
    delta = (E[iu, 1:] - E[iv, 1:]) % r
    block = np.stack([iu, iv], axis=1) - 1
    shape = (iu.size, 2, d - 1, 2, 2)
    keep = np.ones(shape, dtype=bool)
    keep[iu == 0, :, :, 0] = False

    def flat(a: np.ndarray) -> np.ndarray:
        return np.broadcast_to(a, shape)[keep]

    row = 2 * np.arange(iu.size)[:, None] + np.arange(2)
    col = block[:, None, :] * (d - 1) + np.arange(d - 1)[:, None]
    exp = np.stack([delta, -delta % r], axis=-1)
    return System(
        d * (d - 1),
        flat(row[:, :, None, None, None]),
        flat(col[:, None, :, :, None]),
        flat(exp[:, None, :, None, :]),
        flat(_EXACT_COEFFS[None, :, None]),
    )


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
        E, r = H.exp, H.r
        # the quadruple phase of rows (i, k), columns (j, l) is the residue
        # of D[k, j] - D[k, l] with D = E[i] - E (mod r).  A hit table marks
        # it at D[k, j] + (r - D[k, l]), in [1, 2r), which the dtype holds;
        # when 2r exceeds the d^3 phases of one i, sorting them costs less
        table = 2 * r <= d**3
        dtype = np.min_scalar_type(2 * r - 1) if table else np.int64
        hit = np.zeros(2 * r if table else 0, dtype=bool)
        phases = []
        for i in range(d):
            D = ((E[i] - E) % r).astype(dtype)
            if table:
                hit[D[:, :, None] + (r - D[:, None, :])] = True
            else:
                phases.append(np.unique((D[:, :, None] - D[:, None, :]) % r))
        ks = np.flatnonzero(hit[:r] | hit[r:]) if table else np.unique(np.concatenate(phases))
        # every member shares the root r, so increasing k is increasing k / r;
        # k / r in lowest terms, with k = 0 as 0 / 1
        g = np.gcd(ks, r)
        members = tuple(zip((ks // g).tolist(), (r // g).tolist()))
        return HaagerupSet(members=members, r=r)
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


def _candidate_assignments(p: int, mub: MubSet):
    """Every candidate of `_candidate_indices`, as a BlockAssignment."""
    for kc, lc in _candidate_indices(p, mub.q):
        yield _assignment(p, kc, lc, mub)


def _orbit_multipliers(q: int) -> Tuple[int, ...]:
    """The relabellings H_j -> H_{s j mod q} the search identifies: s = +-x^2
    mod q for x != 0.  That is every unit when q = 3 (mod 4), the nonzero
    squares alone when q = 1 (mod 4), and (1,) for q = 2."""
    return tuple(sorted({sign * x * x % q for x in range(1, q) for sign in (1, -1)}))


def _orbit(kc, lc, q: int, multipliers: Sequence[int]) -> set:
    """Images of a candidate under the multipliers, each side re-sorted."""
    return {
        (
            tuple(sorted(s * j % q for j in kc)),
            tuple(sorted(s * j % q for j in lc)),
        )
        for s in multipliers
    }


def _examine(a: BlockAssignment, cache: dict):
    """Butson root, Haagerup fingerprint and defect report of one assignment.

    The defect comes from one rank of the exact defect system mod the prime
    that `certify_rank` draws first.  Full rank certifies isolation, with
    `certify_rank`'s own report (mode "exact"); a lower rank gives a
    certified upper bound on the defect (mode "bound").
    """
    H = theorem1_build(a, _cache=cache)
    Hd, _ = dephase(H)
    root, reduced = butson_min_root(Hd)
    fp = haagerup_set(reduced).digest()
    d = reduced.d
    n = (d - 1) ** 2
    system = _exact_rows(reduced)
    rank, ev = screen_rank(system, n, root, random.Random(SEED))
    ev["root"] = root
    rep = DefectReport(n - rank, n, rank, "exact" if rank == n else "bound", ev)
    return root, fp, rep


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
    and `representatives` lists the assignments actually analysed.

    `budget` caps `examined`: a representative is analysed only when its
    whole orbit fits in what is left of it.  `time_limit` (seconds) caps
    wall time.  Stopping short of the end for either sets `stopped_by`
    ("budget" or "time limit") and so `partial`.  Bad input raises
    ValueError before any work: p < 1, a q that is not prime
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
    cache: dict = {}
    res = SearchResult([], [], 0, [])
    seen: set = set()
    for kc, lc in _candidate_indices(p, q):
        orbit = _orbit(kc, lc, q, multipliers)
        if min(orbit) != (kc, lc):
            continue
        if budget is not None and res.examined + len(orbit) > budget:
            res.stopped_by = "budget"
            break
        if deadline is not None and time.monotonic() >= deadline:
            res.stopped_by = "time limit"
            break
        a = _assignment(p, kc, lc, mub)
        root, fp, rep = _examine(a, cache)
        res.examined += len(orbit)
        res.representatives.append(a)
        key = (fp, rep.defect)
        if key not in seen:
            seen.add(key)
            res.classes.append(key)
            if rep.defect == 0:
                res.findings.append(SearchFinding(a, rep, root, fp))
    return res
