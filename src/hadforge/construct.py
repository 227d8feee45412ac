"""Hadamard matrix builders.

The central construction takes p pairs of mutually unbiased bases of order q
(a `BlockAssignment`) and produces a complex Hadamard matrix of order pq
whose block (i, j) is omega_p^(ij) K_i^dagger L_j / sqrt(p).  The build is
exact: each block entry is an unnormalized inner product z, a sum of q
roots of unity.  Its float argument
proposes the exponent e, and z - sqrt(q) w^e = 0 is then certified as a
sum of 2q roots (sqrt(q) a Gauss sum, -1 a root), never by rounding alone.

Also here: the exact certificate that B1^dagger B2 equals the built matrix,
and the (p-1)(q-1)-parameter trivial family through the all-identity
assignment.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import lcm
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .cyclotomic import sums_vanish
from .matrices import ComplexMatrix, ExponentMatrix, add_mod, to_complex
from .mub import IdentityBasis, MubSet, complete_mub_set, fourier, is_mu_pair

BasisLike = Union[ExponentMatrix, IdentityBasis]


class MUPreconditionError(ValueError):
    """A K-side basis is not unbiased to an L-side basis."""

    def __init__(self, m: int, n: int, message: str | None = None):
        self.pair = (m, n)
        super().__init__(message or f"K[{m}] and L[{n}] are not mutually unbiased")


class MonomializationError(RuntimeError):
    """A block inner product is not sqrt(q) times a root of unity."""


# ----------------------------------------------------------------------
# sqrt(q) as a sum of roots of unity
# ----------------------------------------------------------------------

def _sqrt_exponents(q: int) -> np.ndarray:
    """Exponents at root 4q of q roots of unity that sum to sqrt(q), prime q.

    Odd q: the quadratic exponential sum g = sum_k omega_q^{k^2} equals
    sqrt(q) or i*sqrt(q) according to q mod 4, and -i = omega_{4q}^{3q};
    q = 2 uses omega_8 + omega_8^7.
    """
    if q == 2:
        return np.array([1, 7], dtype=np.int64)
    k = np.arange(q, dtype=np.int64)
    return (4 * k * k + (0 if q % 4 == 1 else 3 * q)) % (4 * q)


# ----------------------------------------------------------------------
# block assignments
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BlockAssignment:
    """p pairs (K_i, L_j) of order-q bases, in exponent form or the identity.

    K[0] conventionally the identity and L[0] the Fourier matrix; block
    (i, j) of the build carries the phase omega_p^(ij) of F_p.
    """

    p: int
    q: int
    K: Tuple[BasisLike, ...]
    L: Tuple[BasisLike, ...]
    K_labels: Optional[Tuple[str, ...]] = None
    L_labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"p must be at least 1, got {self.p}")
        if len(self.K) != self.p or len(self.L) != self.p:
            raise ValueError("need exactly p bases on each side")
        for b in (*self.K, *self.L):
            if not isinstance(b, (ExponentMatrix, IdentityBasis)):
                raise TypeError(
                    f"a basis must be an ExponentMatrix or IdentityBasis, not {type(b).__name__}"
                )
            if b.d != self.q:
                raise ValueError("basis order does not match q")

    @property
    def d(self) -> int:
        return self.p * self.q

    @staticmethod
    def from_labels(
        p: int,
        q: int,
        K: Sequence[str],
        L: Sequence[str],
        mub: Optional[MubSet] = None,
    ) -> "BlockAssignment":
        mub = mub if mub is not None else complete_mub_set(q)
        return BlockAssignment(
            p,
            q,
            tuple(mub[l] for l in K),
            tuple(mub[l] for l in L),
            tuple(K),
            tuple(L),
        )

    @staticmethod
    def from_json(obj: dict, mub: Optional[MubSet] = None) -> "BlockAssignment":
        return BlockAssignment.from_labels(
            operator.index(obj["p"]), operator.index(obj["q"]), obj["K"], obj["L"], mub
        )

    def to_json(self) -> dict:
        if self.K_labels is None or self.L_labels is None:
            raise ValueError("assignment was not built from labels")
        return {
            "p": self.p,
            "q": self.q,
            "K": list(self.K_labels),
            "L": list(self.L_labels),
        }

    def validate(self) -> None:
        """Check the MU precondition for every (K_m, L_n) pair.

        Label-resolved assignments shortcut: members of one verified complete
        set are pairwise MU, so only identical labels can collide.
        """
        if self.K_labels is not None and self.L_labels is not None:
            for m, km in enumerate(self.K_labels):
                for n, ln in enumerate(self.L_labels):
                    if km == ln:
                        raise MUPreconditionError(m, n, f"basis {km!r} used on both sides")
            return
        for m, km in enumerate(self.K):
            for n, ln in enumerate(self.L):
                if not is_mu_pair(km, ln):
                    raise MUPreconditionError(m, n)


# ----------------------------------------------------------------------
# the block construction
# ----------------------------------------------------------------------

def theorem1_build(a: BlockAssignment, _cache: Optional[Dict] = None) -> ExponentMatrix:
    """Assemble the order-pq Hadamard matrix from a block assignment, exactly.

    The MU precondition is validated first.  _cache lets a caller share the
    monomialization table across many builds over the same basis set (keys
    are self-describing), and with it the block of each basis pair at each
    root, so a search looks up every block of its builds once.  The chunk
    of one of `build_grids`.
    """
    E, R = build_grids([a], {} if _cache is None else _cache)
    return ExponentMatrix(a.d, int(R[0]), E[0])


def build_grids(
    assignments: Sequence[BlockAssignment], cache: Dict
) -> Tuple[np.ndarray, np.ndarray]:
    """The exponent grids of the builds of assignments of one order, as a
    stack (N, pq, pq), and the root of each: block (i, j) of build n is the
    cached block of its pair (K_i, L_j) at the build's root R plus the phase
    (i j mod p) R / p, all in one gather and one sum."""
    p, q = assignments[0].p, assignments[0].q
    d = p * q
    roots, blocks = [], []
    for a in assignments:
        a.validate()
        R = lcm(p, 4 * q, *(b.r for b in (*a.K, *a.L) if isinstance(b, ExponentMatrix)))
        roots.append(R)
        blocks += [
            _pair_block(i, j, Ki, Lj, q, R, cache)
            for i, Ki in enumerate(a.K)
            for j, Lj in enumerate(a.L)
        ]
    R = np.array(roots, dtype=np.int64)[:, None, None, None, None]
    ij = np.arange(p)
    phase = (np.outer(ij, ij) % p)[:, :, None, None] * (R // p)
    grid = add_mod(np.array(blocks).reshape(-1, p, p, q, q), phase, R)
    return grid.transpose(0, 1, 3, 2, 4).reshape(-1, d, d), R.reshape(-1)


def _pair_block(i, j, Ki, Lj, q, R, cache) -> np.ndarray:
    """`_block_exponents` of the pair (Ki, Lj) at root R, read-only, made
    once per cache.  The entry holds the two bases, so their ids in its key
    stay theirs while it lives."""
    key = ("pair", R, id(Ki), id(Lj))
    if key not in cache:
        block = _block_exponents(i, j, Ki, Lj, q, R, cache)
        block.setflags(write=False)
        cache[key] = (Ki, Lj, block)
    return cache[key][2]


def _block_exponents(i, j, Ki, Lj, q, R, cache) -> np.ndarray:
    """Exponents at root R of the unimodular entries of sqrt(q) Ki^dagger Lj:
    block (i, j) before its phase."""
    if isinstance(Ki, IdentityBasis) and isinstance(Lj, IdentityBasis):
        raise MUPreconditionError(i, j, "identity on both sides")
    if isinstance(Ki, IdentityBasis):
        return Lj.rescaled(R).exp
    if isinstance(Lj, IdentityBasis):
        # Ki^dagger * I: conjugate transpose of Ki
        return -Ki.rescaled(R).exp.T % R
    rz = lcm(Ki.r, Lj.r)
    # entry (s, t) is sum_k omega_rz^(L[k, t] - K[k, s]); cell s * q + t
    # lists those q exponents in increasing order, which keys the cache
    terms = (Lj.rescaled(rz).exp[:, None, :] - Ki.rescaled(rz).exp[:, :, None]) % rz
    cells = np.sort(terms.reshape(q, q * q), axis=0).T
    keys = [(R, rz, tuple(cell)) for cell in cells.tolist()]
    missed = {key: n for n, key in enumerate(keys) if key not in cache}
    if missed:
        z = cells[list(missed.values())]
        e = _candidate_exponents(z, rz, R)
        # z - sqrt(q) * omega_R^e as 2q roots of order R: -1 = omega_R^(R/2)
        # and sqrt(q) is a sum of q roots, both because 4q divides R
        minus = (e + R // 2)[:, None] + _sqrt_exponents(q) * (R // (4 * q))
        diff = np.hstack([z * (R // rz), minus])
        if not sums_vanish(len(e), np.arange(len(e))[:, None], diff, R).all():
            raise MonomializationError("a block entry is not sqrt(q) times a root of unity")
        cache.update(zip(missed, e.tolist()))
    return np.array([cache[key] for key in keys], dtype=np.int64).reshape(q, q)


def _candidate_exponents(z: np.ndarray, rz: int, R: int) -> np.ndarray:
    """Per row n, the e nearest to the argument of sum_k omega_rz^z[n, k]:
    the one candidate for that sum being sqrt(q) * omega_R^e."""
    w = np.exp(2j * np.pi * z / rz).sum(axis=1)
    return np.round(np.angle(w) * R / (2 * np.pi)).astype(np.int64) % R


# ----------------------------------------------------------------------
# the B1^dagger B2 certificate
# ----------------------------------------------------------------------

def exact_product_equals(a: BlockAssignment, H: ExponentMatrix) -> bool:
    """Certify B1^dagger B2 = H algebraically (no floating comparison).

    Scaled form: with U1 = sqrt(q) B1 and U2 = sqrt(pq) B2 (both cyclotomic-
    integer matrices), the claim is U1^dagger U2 = sqrt(q) * [omega^E].  Block
    (m, n) of the left side is omega_p^{mn} K_m^dagger L_n with an identity
    basis carried as sqrt(q) I.  With sqrt(q) a sum of q roots and -1 =
    omega^(R/2), all d^2 differences go through one `sums_vanish` call.
    """
    p, q = a.p, a.q
    roots = [b.r for b in (*a.K, *a.L) if isinstance(b, ExponentMatrix)]
    R = lcm(p, 4 * q, H.r, *roots)
    E = H.rescaled(R).exp
    rootq = _sqrt_exponents(q) * (R // (4 * q))  # sqrt(q) = sum_k omega^rootq[k]
    d = a.d
    left = np.empty((d, d, q), dtype=np.int64)  # entry (x, y): sum_k omega^left[x, y, k]
    for m, Km in enumerate(a.K):
        for n, Ln in enumerate(a.L):
            ph = (m * n) % p * (R // p)
            if isinstance(Km, IdentityBasis) and isinstance(Ln, IdentityBasis):
                # q * I: the q-th roots of unity sum to 0 off the diagonal
                off = 1 - np.eye(q, dtype=np.int64)
                e = ph + off[:, :, None] * np.arange(q) * (R // q)
            elif isinstance(Km, IdentityBasis):
                e = (ph + Ln.rescaled(R).exp)[:, :, None] + rootq
            elif isinstance(Ln, IdentityBasis):
                e = (ph - Km.rescaled(R).exp.T)[:, :, None] + rootq
            else:
                # entry (s, t) = sum_k omega^(ph + L[k, t] - K[k, s])
                Ke, Le = Km.rescaled(R).exp, Ln.rescaled(R).exp
                e = ph + (Le[:, None, :] - Ke[:, :, None]).transpose(1, 2, 0)
            left[m * q : (m + 1) * q, n * q : (n + 1) * q] = e
    terms = np.concatenate([left, E[:, :, None] + rootq + R // 2], axis=2)
    cells = np.arange(d * d).reshape(d, d, 1)
    return bool(sums_vanish(d * d, cells, terms, R).all())


# ----------------------------------------------------------------------
# the trivial family
# ----------------------------------------------------------------------

def trivial_family(p: int, q: int, params) -> ComplexMatrix:
    """Member of the (p-1)(q-1)-parameter family through the all-identity
    assignment (K's all identity, L's all Fourier) at a (p-1) x (q-1) angle
    grid: params[n-1, k-1] is a phase on the in-block row k of block
    column n, so the first row and column of the matrix are untouched.
    """
    params = np.asarray(params, dtype=float).reshape(p - 1, q - 1)
    a = BlockAssignment(p, q, (IdentityBasis(q),) * p, (fourier(q),) * p)
    base = to_complex(theorem1_build(a))
    R = np.zeros((a.d, a.d))
    R.reshape(p, q, p, q)[:, 1:, 1:, :] = params.T[:, :, None]  # R[i*q+k, n*q+s]
    return ComplexMatrix(a.d, base.entries * np.exp(1j * R))
