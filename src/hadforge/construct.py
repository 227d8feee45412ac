"""Hadamard matrix builders.

The central construction takes p pairs of mutually unbiased bases of order q
(a `BlockAssignment`) and produces a complex Hadamard matrix of order pq
whose block (i, j) is alpha_ij * K_i^dagger L_j / sqrt(p).  When every input
is carried in exponent form the build is exact: each block entry is an
unnormalized inner product z, a sum of q roots of unity.  Its float argument
proposes the exponent e, and z - sqrt(q) w^e = 0 is then certified as a
sum of 2q roots (sqrt(q) a Gauss sum, -1 a root), never by rounding alone.

Also here: the B1/B2 unitary factorization and its product-basis view, the
all-identity "trivial" affine family, and the two block-tensor constructions
(phased tensor with free parameters, and the per-slot generalized tensor).
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from math import lcm, sqrt
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .cyclotomic import CyclotomicInteger, sums_vanish
from .matrices import (
    ComplexMatrix,
    ExponentMatrix,
    Matrix,
    add_mod,
    as_complex,
    to_complex,
)
from .mub import IdentityBasis, MubSet, complete_mub_set, fourier, is_mu_pair

BasisLike = Union[ExponentMatrix, IdentityBasis, ComplexMatrix]


class MUPreconditionError(ValueError):
    """A K-side basis is not unbiased to an L-side basis."""

    def __init__(self, m: int, n: int, message: str | None = None):
        self.pair = (m, n)
        super().__init__(message or f"K[{m}] and L[{n}] are not mutually unbiased")


class MonomializationError(RuntimeError):
    """A block inner product is not sqrt(q) times a root of unity."""


# ----------------------------------------------------------------------
# sqrt(q) as an exact cyclotomic integer
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


def sqrt_as_cyclotomic(q: int) -> CyclotomicInteger:
    """sqrt(q) as an element of Z[omega_{4q}], for prime q."""
    return CyclotomicInteger(4 * q, np.bincount(_sqrt_exponents(q), minlength=4 * q).tolist())


# ----------------------------------------------------------------------
# block assignments
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BlockAssignment:
    """p pairs (K_i, L_j) of order-q bases, plus the p x p phase matrix M.

    K[0] conventionally the identity and L[0] the Fourier matrix; M defaults
    to F_p (its unimodular part supplies the block phases alpha_ij).
    """

    p: int
    q: int
    K: Tuple[BasisLike, ...]
    L: Tuple[BasisLike, ...]
    M: Optional[Matrix] = None
    K_labels: Optional[Tuple[str, ...]] = None
    L_labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"p must be at least 1, got {self.p}")
        if len(self.K) != self.p or len(self.L) != self.p:
            raise ValueError("need exactly p bases on each side")
        for b in (*self.K, *self.L):
            if b.d != self.q:
                raise ValueError("basis order does not match q")
        if self.M is not None and self.M.d != self.p:
            raise ValueError("M order does not match p")

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
            None,
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
        if self.K_labels is not None and self.L_labels is not None and self.M is None:
            for m, km in enumerate(self.K_labels):
                for n, ln in enumerate(self.L_labels):
                    if km == ln:
                        raise MUPreconditionError(m, n, f"basis {km!r} used on both sides")
            return
        for m, km in enumerate(self.K):
            for n, ln in enumerate(self.L):
                if isinstance(km, ComplexMatrix) or isinstance(ln, ComplexMatrix):
                    if not _is_mu_pair_float(km, ln):
                        raise MUPreconditionError(m, n)
                elif not is_mu_pair(km, ln):
                    raise MUPreconditionError(m, n)


def _basis_unitary(b: BasisLike) -> np.ndarray:
    """The basis as a unitary ndarray (columns are the basis vectors)."""
    if isinstance(b, IdentityBasis):
        return np.eye(b.d, dtype=np.complex128)
    if isinstance(b, ExponentMatrix):
        return to_complex(b).entries
    return b.entries


def _is_mu_pair_float(a: BasisLike, b: BasisLike, tol: float = 1e-9) -> bool:
    G = np.abs(_basis_unitary(a).conj().T @ _basis_unitary(b)) ** 2
    return bool(np.max(np.abs(G - 1 / a.d)) <= tol)


# ----------------------------------------------------------------------
# the block construction
# ----------------------------------------------------------------------

def theorem1_build(
    a: BlockAssignment, mode: str = "auto", _cache: Optional[Dict] = None
) -> Matrix:
    """Assemble the order-pq Hadamard matrix from a block assignment.

    mode: "auto" picks exact when every input is exponent-form (or identity)
    and the block phases are roots of unity; "exact"/"float" force a path
    (forcing exact on float inputs raises).  The MU precondition is always
    validated first.  _cache lets a caller share the monomialization table
    across many builds over the same basis set (keys are self-describing).
    """
    a.validate()
    exact_ok = a.M is None and all(
        not isinstance(b, ComplexMatrix) for b in (*a.K, *a.L)
    )
    if mode == "exact" and not exact_ok:
        raise ValueError("exact build requires exponent-form inputs and canonical phases")
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "float" or not exact_ok:
        if mode == "auto" and not exact_ok:
            warnings.warn("mixed or float inputs: building in float mode", stacklevel=2)
        return _build_float(a)
    return _build_exact(a, cache=_cache)


def _phase_matrix(a: BlockAssignment) -> np.ndarray:
    """The block phases: sqrt(p) * a.M, or the unnormalized F_p when a.M is
    None.  Block (i, j) of the build is M[i, j] / sqrt(p) * K_i^dagger L_j."""
    p = a.p
    if a.M is not None:
        return as_complex(a.M).entries * sqrt(p)
    return np.exp(2j * np.pi * np.outer(np.arange(p), np.arange(p)) / p)


def _build_float(a: BlockAssignment) -> ComplexMatrix:
    p, q = a.p, a.q
    M = _phase_matrix(a)
    Ks = [_basis_unitary(b) for b in a.K]
    Ls = [_basis_unitary(b) for b in a.L]
    rows = [
        np.hstack([M[i, j] * (Ks[i].conj().T @ Ls[j]) for j in range(p)])
        for i in range(p)
    ]
    return ComplexMatrix(p * q, np.vstack(rows) / sqrt(p))


def _build_exact(a: BlockAssignment, cache: Optional[Dict] = None) -> ExponentMatrix:
    p, q = a.p, a.q
    d = p * q
    roots = [b.r for b in (*a.K, *a.L) if isinstance(b, ExponentMatrix)]
    R = lcm(p, 4 * q, *roots)
    if cache is None:
        cache = {}
    grid = np.empty((d, d), dtype=np.int64)
    for i, Ki in enumerate(a.K):
        for j, Lj in enumerate(a.L):
            phase = (i * j) % p * (R // p)
            block = _block_exponents(i, j, Ki, Lj, q, R, cache)
            grid[i * q : (i + 1) * q, j * q : (j + 1) * q] = add_mod(block, phase, R)
    return ExponentMatrix(d, R, grid)


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
# B1 / B2 factorization and product-basis view
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class UnitaryFactorPair:
    """B1 (block-diagonal in the K's) and B2 (Fourier-phased L blocks):
    B1^dagger B2 reproduces the built Hadamard matrix."""

    b1: ComplexMatrix
    b2: ComplexMatrix


def factor_b1_b2(a: BlockAssignment) -> UnitaryFactorPair:
    p, q = a.p, a.q
    d = p * q
    M = _phase_matrix(a)
    B1 = np.zeros((d, d), dtype=np.complex128)
    B2 = np.zeros((d, d), dtype=np.complex128)
    for m in range(p):
        B1[m * q : (m + 1) * q, m * q : (m + 1) * q] = _basis_unitary(a.K[m])
    for i in range(p):
        for n in range(p):
            B2[i * q : (i + 1) * q, n * q : (n + 1) * q] = (
                M[i, n] / sqrt(p) * _basis_unitary(a.L[n])
            )
    return UnitaryFactorPair(ComplexMatrix(d, B1), ComplexMatrix(d, B2))


def exact_product_equals(a: BlockAssignment, H: ExponentMatrix) -> bool:
    """Certify B1^dagger B2 = H algebraically (no floating comparison).

    Scaled form: with U1 = sqrt(q) B1 and U2 = sqrt(pq) B2 (both cyclotomic-
    integer matrices), the claim is U1^dagger U2 = sqrt(q) * [omega^E].  Block
    (m, n) of the left side is omega_p^{mn} K_m^dagger L_n with an identity
    basis carried as sqrt(q) I.  With sqrt(q) a sum of q roots and -1 =
    omega^(R/2), all d^2 differences go through one `sums_vanish` call.
    """
    p, q = a.p, a.q
    if a.M is not None:
        raise ValueError("exact factor comparison needs canonical phases")
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


@dataclass(frozen=True)
class ProductBasisView:
    """Labeled tensor-factor columns; kron-reassembly reproduces B1 or B2."""

    labels: Tuple[str, ...]
    block_vectors: Tuple[np.ndarray, ...] = field(compare=False)
    inner_vectors: Tuple[np.ndarray, ...] = field(compare=False)

    def assemble(self) -> ComplexMatrix:
        cols = [np.kron(a, b) for a, b in zip(self.block_vectors, self.inner_vectors)]
        return ComplexMatrix(len(cols), np.column_stack(cols))


def product_basis_view(a: BlockAssignment) -> Tuple[ProductBasisView, ProductBasisView]:
    p, q = a.p, a.q
    M = _phase_matrix(a) / sqrt(p)
    eye = np.eye(p, dtype=np.complex128)
    lab1, blk1, in1 = [], [], []
    lab2, blk2, in2 = [], [], []
    for m in range(p):
        Km = _basis_unitary(a.K[m])
        Lm = _basis_unitary(a.L[m])
        for s in range(q):
            lab1.append(f"e{m}*K{m}c{s}")
            blk1.append(eye[:, m].copy())
            in1.append(Km[:, s].copy())
            lab2.append(f"f{m}*L{m}c{s}")
            blk2.append(M[:, m].copy())
            in2.append(Lm[:, s].copy())
    return (
        ProductBasisView(tuple(lab1), tuple(blk1), tuple(in1)),
        ProductBasisView(tuple(lab2), tuple(blk2), tuple(in2)),
    )


# ----------------------------------------------------------------------
# affine families and the trivial family
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AffineFamily:
    """Members are base ∘ exp(i * sum_m t_m * directions[m]); the direction
    matrices vanish on the first row and column."""

    base: ComplexMatrix
    directions: Tuple[np.ndarray, ...] = field(compare=False)

    @property
    def n_params(self) -> int:
        return len(self.directions)


def affine_member(f: AffineFamily, t: Sequence[float]) -> ComplexMatrix:
    t = np.asarray(t, dtype=float)
    if t.shape != (len(f.directions),):
        raise ValueError(f"need {len(f.directions)} parameters, got {t.shape}")
    R = np.zeros((f.base.d, f.base.d))
    for tm, Rm in zip(t, f.directions):
        R = R + tm * Rm
    return ComplexMatrix(f.base.d, f.base.entries * np.exp(1j * R))


def trivial_affine_family(p: int, q: int) -> AffineFamily:
    """The (p-1)(q-1)-parameter family through the all-identity assignment.

    Base: K's all identity, L's all Fourier.  Direction (n, k) multiplies the
    in-block row k of block column n by a free phase; first row and column of
    the matrix are untouched.
    """
    assign = BlockAssignment(
        p,
        q,
        tuple(IdentityBasis(q) for _ in range(p)),
        tuple(fourier(q) for _ in range(p)),
    )
    base = as_complex(theorem1_build(assign))
    d = p * q
    dirs = []
    for n in range(1, p):
        for k in range(1, q):
            Rm = np.zeros((d, d))
            rows = [i * q + k for i in range(p)]
            Rm[np.ix_(rows, range(n * q, (n + 1) * q))] = 1.0
            dirs.append(Rm)
    return AffineFamily(base, tuple(dirs))


def trivial_family(p: int, q: int, params) -> ComplexMatrix:
    """Member of the trivial family at the given (p-1) x (q-1) angle grid."""
    params = np.asarray(params, dtype=float).reshape(p - 1, q - 1)
    fam = trivial_affine_family(p, q)
    return affine_member(fam, params.reshape(-1))


# ----------------------------------------------------------------------
# block tensor constructions
# ----------------------------------------------------------------------

def dita_build(
    M: Matrix,
    Ns: Sequence[Matrix],
    params: Optional[Sequence[Sequence[float]]] = None,
) -> ComplexMatrix:
    """Phased block tensor: block (i, j) = M[i][j] * D_j * N_j, with D_0 = I
    and D_j (j >= 1) carrying v-1 free phases each."""
    k = M.d
    if len(Ns) != k:
        raise ValueError("need one inner matrix per column of M")
    v = Ns[0].d
    if any(N.d != v for N in Ns):
        raise ValueError("inner matrices must share one order")
    Mc = as_complex(M).entries
    Narr = [as_complex(N).entries for N in Ns]
    if params is None:
        phases = np.zeros((k, v))
    else:
        params = np.asarray(params, dtype=float)
        if params.shape != (k - 1, v - 1):
            raise ValueError(f"params must be (k-1) x (v-1) = {(k-1, v-1)}")
        phases = np.zeros((k, v))
        phases[1:, 1:] = params
    rows = []
    for i in range(k):
        blocks = [
            Mc[i, j] * (np.exp(1j * phases[j])[:, None] * Narr[j]) for j in range(k)
        ]
        rows.append(np.hstack(blocks))
    return ComplexMatrix(k * v, np.vstack(rows))


def dita_parameter_count(k: int, v: int, m: int = 0, n: Sequence[int] = ()) -> int:
    """Free parameters of the phased block tensor: the outer matrix's own m,
    each inner matrix's n_i, plus (k-1)(v-1) block phases."""
    return m + sum(n) + (k - 1) * (v - 1)


def hosoya_suzuki_build(Ms: Sequence[Matrix], Ns: Sequence[Matrix]) -> ComplexMatrix:
    """Generalized tensor: block (i, j) = diag(M_1[i,j], ..., M_v[i,j]) * N_j."""
    v = len(Ms)
    k = Ms[0].d
    if any(M.d != k for M in Ms):
        raise ValueError("outer matrices must share one order")
    if len(Ns) != k or any(N.d != v for N in Ns):
        raise ValueError(f"need {k} inner matrices of order {v}")
    Marr = [as_complex(M).entries for M in Ms]
    Narr = [as_complex(N).entries for N in Ns]
    rows = []
    for i in range(k):
        blocks = []
        for j in range(k):
            diag = np.array([Marr[s][i, j] for s in range(v)])
            blocks.append(diag[:, None] * Narr[j])
        rows.append(np.hstack(blocks))
    return ComplexMatrix(k * v, np.vstack(rows))
