"""Fourier matrices and complete sets of mutually unbiased bases in prime
dimension, generated in exact exponent form.

The complete set in dimension q is {I, F, H_1 ... H_{q-1}} with
H_j = D^j F, D a diagonal of q-th roots.  For odd primes the diagonal
exponent pattern is triangular-number based, s_k = k(k-1)/2 mod q, except
q = 3 and q = 5 which use fixed patterns the rest of the package's catalog
recipes are pinned to.  q = 2 appends diag(1, i) F as the third basis.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from math import lcm
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ._exactrank import _is_prime
from .cyclotomic import sums_vanish
from .matrices import ExponentMatrix, is_unitary

_FIXED_DIAGONALS: Dict[int, Tuple[int, ...]] = {
    3: (0, 1, 1),
    5: (0, 1, 4, 4, 1),
}


class NotPrimeError(ValueError):
    pass


class MubConstructionError(RuntimeError):
    """The generated set failed its own MU verification (must never fire)."""


def fourier(d: int) -> ExponentMatrix:
    """Discrete Fourier matrix: exponent (j*k) mod d at root order d."""
    if d < 1:
        raise ValueError("order must be positive")
    k = np.arange(d)
    return ExponentMatrix(d, d, np.outer(k, k))


@dataclass(frozen=True)
class IdentityBasis:
    """The computational basis.  Not unimodular, so it gets its own carrier
    instead of an ExponentMatrix; block builders treat it symbolically."""

    d: int


def standard_diagonal(q: int) -> Tuple[int, ...]:
    """Exponent vector of the diagonal D used to fan F_q into H_j = D^j F_q.

    q = 3 and q = 5 return the fixed catalog patterns; other odd primes use
    the triangular-number rule s_k = k(k-1)/2 mod q.
    """
    if not _is_prime(q):
        raise NotPrimeError(f"{q} is not prime")
    if q == 2:
        raise ValueError("q = 2 has no diagonal pattern; see complete_mub_set")
    if q in _FIXED_DIAGONALS:
        return _FIXED_DIAGONALS[q]
    return triangular_diagonal(q)


def triangular_diagonal(q: int) -> Tuple[int, ...]:
    """The k(k-1)/2 mod q rule for any odd prime: the alternative set for
    q = 3 and q = 5, whose fixed catalog patterns differ from the rule."""
    if not _is_prime(q) or q == 2:
        raise NotPrimeError(f"{q} is not an odd prime")
    return tuple(k * (k - 1) // 2 % q for k in range(q))


def _fanned_basis(q: int, j: int, diag: Sequence[int]) -> ExponentMatrix:
    """H_j = D^j F_q in exponent form (row k of F_q shifted by j*s_k)."""
    k = np.arange(q)
    return ExponentMatrix(q, q, j * np.array(diag)[:, None] + np.outer(k, k))


Basis = "ExponentMatrix | IdentityBasis"


@dataclass(frozen=True)
class MubSet:
    """Ordered complete MU set: labels[0] = "I", labels[1] = "F", then "H1"...
    Ordering and labels are frozen so block-assignment recipes stay stable."""

    q: int
    labels: Tuple[str, ...]
    bases: Tuple[ExponentMatrix | IdentityBasis, ...]

    def __getitem__(self, label: str) -> ExponentMatrix | IdentityBasis:
        try:
            return self.bases[self.labels.index(label)]
        except ValueError:
            raise KeyError(f"no basis labeled {label!r} in dimension {self.q}")

    def hadamard_members(self) -> List[Tuple[str, ExponentMatrix]]:
        return [
            (l, b)
            for l, b in zip(self.labels, self.bases)
            if isinstance(b, ExponentMatrix)
        ]

    def to_json(self) -> dict:
        from .matrices import matrix_to_json

        return {
            "q": self.q,
            "bases": [
                {
                    "label": l,
                    "matrix": matrix_to_json(b, raw=True)
                    if isinstance(b, ExponentMatrix)
                    else None,
                }
                for l, b in zip(self.labels, self.bases)
            ],
        }


def _remembered(table: dict, key, bases, read):
    """table[key], made by `read()` on its first call, its arrays
    read-only (`_frozen`); the entry leaves the table when one of `bases`
    is collected, so the ids of live bases are never a stale key.  This is
    the one memo of what is read off basis objects: a search or a recipe
    uses the q + 1 members of one cached `MubSet`, so each read is made
    once, not once per build."""
    if key not in table:
        table[key] = _frozen(read())
        for B in bases:
            weakref.finalize(B, table.pop, key, None)
    return table[key]


def _frozen(read):
    """`read`, an array, a tuple that may hold arrays, or None, with its
    arrays made read-only, as every build that reads them shares them."""
    for x in read if isinstance(read, tuple) else (read,):
        if isinstance(x, np.ndarray):
            x.setflags(write=False)
    return read


# verified sets by (q, diagonal): a MubSet is frozen and its grids read-only
_SETS: Dict[Tuple[int, str], MubSet] = {}


def complete_mub_set(q: int, diagonal: str = "standard") -> MubSet:
    """All q + 1 pairwise-MU bases in prime dimension q, verified exactly.

    diagonal = "standard" uses the catalog patterns; "triangular" forces the
    k(k-1)/2 rule, which gives a different set for q = 3 and q = 5 only.
    Each set is built and verified once per process, and later calls return
    the same object.
    """
    key = (q, diagonal)
    if key not in _SETS:
        _SETS[key] = _build_set(q, diagonal)
    return _SETS[key]


def _build_set(q: int, diagonal: str) -> MubSet:
    if not _is_prime(q):
        raise NotPrimeError(f"{q} is not prime")
    F = fourier(q)
    if q == 2:
        third = ExponentMatrix(2, 4, ((0, 0), (1, 3)))  # diag(1, i) F_2
        bases: List[ExponentMatrix | IdentityBasis] = [IdentityBasis(2), F, third]
        labels = ("I", "F", "H1")
    else:
        if diagonal == "standard":
            diag = standard_diagonal(q)
        elif diagonal == "triangular":
            diag = triangular_diagonal(q)
        else:
            raise ValueError(f"unknown diagonal rule {diagonal!r}")
        bases = [IdentityBasis(q), F] + [_fanned_basis(q, j, diag) for j in range(1, q)]
        labels = ("I", "F") + tuple(f"H{j}" for j in range(1, q))
    out = MubSet(q, labels, tuple(bases))
    _verify_set(out)
    return out


def _verify_set(s: MubSet) -> None:
    """Prove the set {I, F, H_1 ... H_(q-1)} pairwise MU exactly, with
    (q - 1) q inner products tested instead of the q^2 of each of the
    (q + 1) q / 2 pairs.

    First, exact integer checks of the form: at the common root R of the
    set, F is the Fourier grid k t (R / q), H_1 - F is constant along each
    row, the exponent vector s of a diagonal D, and every H_j - F is j s
    (mod R), so H_j = D^j F.  (For q = 2 that is H_1 = diag(1, i) F at
    R = 4.)  Then F is unitary, and so is every H_j, D being unimodular.
    I is unbiased to every other basis, whose entries are unimodular.  For
    1 <= a < b <= q - 1,

        H_a^dagger H_b = F^dagger D^(b - a) F = F^dagger H_(b - a),

    with 1 <= b - a <= q - 2, so every inner product of the pair
    (H_a, H_b) is one of the pair (F, H_(b - a)).  And F^dagger H_c =
    F^dagger D^c F is circulant: its entry (i, t) is the sum over k of
    omega_R^(c s_k + k (t - i) R / q), a function of t - i.  So the
    products of column 0 of F, all ones, with the q columns of H_c, for
    c = 1 ... q - 1, are all the inner products that need a test: each
    z = sum_k omega^(H_c[k, t]) must have z conj(z) = q, as in
    `is_mu_pair`, all in one `sums_vanish` call.  A set that fails raises
    MubConstructionError.
    """
    q = s.q
    if len(s.bases) != q + 1 or not isinstance(s.bases[0], IdentityBasis):
        raise MubConstructionError(f"the set in dimension {q} is not I, F and q - 1 more")
    F, fanned = s.bases[1], s.bases[2:]
    R = lcm(F.r, *(b.r for b in fanned))
    E = F.rescaled(R).exp
    k = np.arange(q)
    if ((E - np.outer(k, k) * (R // q)) % R).any():
        raise MubConstructionError(f"F is not the Fourier matrix in dimension {q}")
    shift = (fanned[0].rescaled(R).exp - E) % R
    j = np.arange(1, q)[:, None, None]
    grids = np.stack([b.rescaled(R).exp for b in fanned])
    if (shift != shift[:, :1]).any() or ((grids - E - j * shift[:, :1]) % R).any():
        raise MubConstructionError(f"the bases H_j are not D^j F in dimension {q}")
    if not is_unitary(F):
        raise MubConstructionError(f"non-unitary basis F in dimension {q}")
    # row (c, t) holds the exponents of column t of H_c
    z = grids.transpose(0, 2, 1).reshape((q - 1) * q, q)
    unbiased = _modulus_is_sqrt_q(z, R).reshape(q - 1, q).all(axis=1)
    if not unbiased.all():
        label = s.labels[2 + int(np.argmin(unbiased))]
        raise MubConstructionError(f"bases F, {label} not MU in dimension {q}")


def is_mu_pair(
    A: ExponentMatrix | IdentityBasis, B: ExponentMatrix | IdentityBasis
) -> bool:
    """Exact mutual unbiasedness: every cross inner product has squared
    modulus 1/q.  Columns of an exponent matrix are the basis vectors (scaled
    by 1/sqrt(q)); the unscaled product z must satisfy z * conj(z) = q.
    Unbiasedness against the computational basis is exactly unimodularity,
    automatic for exponent matrices."""
    if A.d != B.d:
        return False
    if isinstance(A, IdentityBasis) or isinstance(B, IdentityBasis):
        return not (isinstance(A, IdentityBasis) and isinstance(B, IdentityBasis))
    q = A.d
    r = lcm(A.r, B.r)
    Ae, Be = A.rescaled(r).exp, B.rescaled(r).exp
    # z_ij = sum_k omega^(B[k, j] - A[k, i]); row n = i * q + j holds its
    # exponents
    z = (Be[:, None, :] - Ae[:, :, None]).transpose(1, 2, 0).reshape(q * q, q)
    return bool(_modulus_is_sqrt_q(z, r).all())


# `_modulus_is_sqrt_q` tests its rows in slices of at most this many pair
# terms, q (q - 1) a row, so that its work arrays stay a few MB:
# complete_mub_set(47) tests 2162 rows of 2162 terms each.
_PAIR_TERMS = 2**18


def _modulus_is_sqrt_q(z: np.ndarray, r: int) -> np.ndarray:
    """Whether z conj(z) = q for the sum z of omega_r^z[n, k] over the q
    exponents of each row n: z conj(z) - q is the sum over their pairs
    k != k', one `sums_vanish` call per slice of rows, each slice at most
    _PAIR_TERMS terms (one row at least)."""
    n, q = z.shape
    off = ~np.eye(q, dtype=bool)
    step = max(1, _PAIR_TERMS // max(1, q * (q - 1)))
    out = []
    for x in (z[at : at + step] for at in range(0, n, step)):
        zz = (x[:, :, None] - x[:, None, :])[:, off]
        out.append(sums_vanish(len(x), np.arange(len(x))[:, None], zz, r))
    return np.concatenate(out)
