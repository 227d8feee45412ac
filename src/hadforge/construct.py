"""Hadamard matrix builders.

The central construction takes p pairs of mutually unbiased bases of order q
(a `BlockAssignment`) and produces a complex Hadamard matrix of order pq
whose block (i, j) is alpha_ij * K_i^dagger L_j / sqrt(p).  When every input
is carried in exponent form the build is exact: each block entry is an
unnormalized inner product z with |z|^2 = q, and z is certified to equal
sqrt(q) times a root of unity by an algebraic identity check (z^2 = q w^2e),
never by rounding alone.

Also here: the B1/B2 unitary factorization and its product-basis view, the
all-identity "trivial" affine family, and the two block-tensor constructions
(phased tensor with free parameters, and the per-slot generalized tensor).
"""

from __future__ import annotations

import cmath
import operator
import warnings
from dataclasses import dataclass, field
from math import lcm, sqrt
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .cyclotomic import CyclotomicInteger, RootExponent, vanishes
from .matrices import (
    ComplexMatrix,
    ExponentMatrix,
    Matrix,
    add_mod,
    as_complex,
    dephase,
    is_unitary,
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

def sqrt_as_cyclotomic(q: int) -> CyclotomicInteger:
    """sqrt(q) as an element of Z[omega_{4q}], for prime q.

    Odd q: the quadratic exponential sum g = sum_k omega_q^{k^2} equals
    sqrt(q) or i*sqrt(q) according to q mod 4; q = 2 uses omega_8 + omega_8^7.
    """
    if q == 1:
        return CyclotomicInteger.one(4)
    if q == 2:
        z = CyclotomicInteger(8)
        z.coeffs[1] += 1
        z.coeffs[7] += 1
        return z
    r = 4 * q
    g = CyclotomicInteger(r)
    for k in range(q):
        g.coeffs[(4 * (k * k)) % r] += 1
    if q % 4 == 1:
        return g
    # g = i*sqrt(q); multiply by -i = omega_4^3 = omega_{4q}^{3q}
    return g.shifted(3 * q)


# ----------------------------------------------------------------------
# monomialization: certify z = sqrt(q) * root of unity
# ----------------------------------------------------------------------

def _monomialize(z: CyclotomicInteger, q: int, R: int) -> int:
    """Return e with z = sqrt(q) * omega_R^e, certified exactly.

    The candidate exponent comes from the floating-point argument of z; the
    certificate is the algebraic identity z^2 - q * omega_R^{2e} = 0, which
    pins z up to sign, plus a float sign check with 2*sqrt(q) separation.
    """
    if R % z.r != 0:
        raise ValueError("target root must be a multiple of the operand root")
    zc = z.to_complex()
    if abs(abs(zc) ** 2 - q) > 1e-6 * q:
        raise MonomializationError(f"|z|^2 = {abs(zc)**2:.6f} != {q}")
    e = round(cmath.phase(zc) * R / (2 * cmath.pi)) % R
    target = cmath.exp(2j * cmath.pi * e / R) * sqrt(q)
    if abs(zc - target) > 1e-6 * sqrt(q):
        raise MonomializationError("argument does not round to a root of unity")
    z2 = (z * z).rescaled(R) if z.r != R else z * z
    check = CyclotomicInteger(R)
    check.coeffs[(2 * e) % R] = q
    if not (z2 - check).is_zero():
        raise MonomializationError("z^2 != q * omega^(2e): entry is not monomial")
    return e


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
    out = []
    for cell in np.sort(terms.reshape(q, q * q), axis=0).T.tolist():
        key = (R, rz, tuple(cell))
        e = cache.get(key)
        if e is None:
            counts = np.bincount(cell, minlength=rz).tolist()
            e = cache[key] = _monomialize(CyclotomicInteger(rz, counts), q, R)
        out.append(e)
    return np.array(out, dtype=np.int64).reshape(q, q)


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
    basis carried as sqrt(q) I; sqrt(q) is a Gauss sum, and each block is
    checked with one `vanishes` call.
    """
    p, q = a.p, a.q
    if a.M is not None:
        raise ValueError("exact factor comparison needs canonical phases")
    roots = [b.r for b in (*a.K, *a.L) if isinstance(b, ExponentMatrix)]
    R = lcm(p, 4 * q, H.r, *roots)
    E = H.rescaled(R).exp
    g = np.array(sqrt_as_cyclotomic(q).rescaled(R).coeffs)
    ks = np.arange(R)
    rootq = g[(ks[None, :] - ks[:, None]) % R]  # row e: sqrt(q) * omega^e
    cells = np.arange(q * q).reshape(q, q)
    for m, Km in enumerate(a.K):
        for n, Ln in enumerate(a.L):
            ph = (m * n) % p * (R // p)
            if isinstance(Km, IdentityBasis) and isinstance(Ln, IdentityBasis):
                acc = np.zeros((q, q, R), dtype=np.int64)
                acc[np.arange(q), np.arange(q), ph] = q
            elif isinstance(Km, IdentityBasis):
                acc = rootq[add_mod(ph, Ln.rescaled(R).exp, R)]
            elif isinstance(Ln, IdentityBasis):
                acc = rootq[(ph - Km.rescaled(R).exp.T) % R]
            else:
                # entry (s, t) = sum_k omega^(ph + L[k, t] - K[k, s])
                Ke, Le = Km.rescaled(R).exp, Ln.rescaled(R).exp
                e = add_mod(ph, (Le[:, None, :] - Ke[:, :, None]) % R, R)
                acc = np.bincount((cells * R + e).ravel(), minlength=q * q * R)
            expect = rootq[E[m * q : (m + 1) * q, n * q : (n + 1) * q]]
            diff = acc.reshape(q * q, R) - expect.reshape(q * q, R)
            if not vanishes(diff, R).all():
                return False
    return True


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
