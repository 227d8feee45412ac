"""Exact arithmetic with roots of unity.

Two carriers:

* :class:`RootExponent` — a single root of unity ``omega_r^k`` stored as the
  pair ``(k, r)``; `rescale` lifts it to a multiple of its order.
* :class:`CyclotomicInteger` — an integer combination of all r-th roots,
  stored as an *unreduced* length-r coefficient vector.  Multiplication is a
  cyclic convolution.

Every exact identity in the package goes through :func:`sums_vanish`, a
zero test of sums of roots given as terms, which accumulates the terms into
unreduced coefficient rows for :func:`vanishes`; that reduces the rows
modulo Phi_r with one integer matrix product, which takes the rows of the
reduction table x^k mod Phi_r only for the exponents k that occur.  The
exact build takes only its candidate exponents from floats.  Coefficients
of a :class:`CyclotomicInteger` are Python ints, so they never overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd, prod
from typing import List, Tuple

import numpy as np


class OrderMismatchError(ValueError):
    """Raised when combining roots of different orders without rescaling."""


class InvalidRescaleError(ValueError):
    """Raised when the target order is not a multiple of the current one."""


@dataclass(frozen=True)
class RootExponent:
    """The root of unity omega_r^k = exp(2*pi*i*k/r), canonicalized mod r."""

    k: int
    r: int

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise ValueError("root order must be positive")
        object.__setattr__(self, "k", self.k % self.r)

    def to_complex(self) -> complex:
        import cmath

        return cmath.exp(2j * cmath.pi * self.k / self.r)

    def canonical(self) -> Tuple[int, int]:
        """Reduced form (k/g, r/g): the same root at its minimal order."""
        g = gcd(self.k, self.r)
        if self.k == 0:
            return (0, 1)
        return (self.k // g, self.r // g)


def rescale(a: RootExponent, r_new: int) -> RootExponent:
    if r_new % a.r != 0:
        raise InvalidRescaleError(f"{r_new} is not a multiple of {a.r}")
    return RootExponent(a.k * (r_new // a.r), r_new)


def _factorize(n: int) -> List[int]:
    """The distinct prime factors of n >= 1, increasing, by trial division."""
    out = []
    k = 2
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            while n % k == 0:
                n //= k
        k += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(r: int) -> Tuple[int, ...]:
    """Coefficients of Phi_r, low degree first.

    Phi_r(x) = Phi_s(x^(r/s)) for s the product of the primes dividing r,
    and Phi_s(y) = prod over m | s of (1 - y^(s/m))^mu(m) for s > 1 (the
    signs of x^k - 1 against 1 - x^k cancel, as mu sums to 0).  Each factor
    acts on the power series mod y^(phi(s)+1) in O(phi(s)): a product with
    1 - y^k subtracts a shifted copy, a quotient by it is a running sum
    with stride k.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1:
        return (-1, 1)
    primes = _factorize(r)
    s = prod(primes)
    n = prod(p - 1 for p in primes) + 1  # series length: deg Phi_s + 1
    c = np.zeros(n, dtype=object)
    c[0] = 1
    for size in range(len(primes) + 1):
        for m in combinations(primes, size):
            k = s // prod(m)
            if k >= n:
                continue  # 1 - y^k is 1 mod y^n
            if size % 2 == 0:  # mu(m) = 1
                c[k:] = c[k:] - c[:-k]
            else:  # mu(m) = -1
                c = np.concatenate((c, np.zeros(-n % k, dtype=object)))
                c = c.reshape(-1, k).cumsum(axis=0).ravel()[:n]
    out = [0] * ((n - 1) * (r // s) + 1)
    out[:: r // s] = c.tolist()
    return tuple(out)


class _Reduction:
    """Rows of Red(r), the r x phi(r) matrix whose row k holds the
    coefficients of x^k mod Phi_r, so that an unreduced coefficient row c
    reduces to c @ Red(r).  A row is built the first time it is asked for
    and kept, so a large r costs only the rows of the exponents that occur.

    A squarefree r walks from x^(deg-1) to the rows above it.  Any other r
    takes its rows from Red(s), s = rad(r): with e = r/s, x^(a e + b) is
    (x^e)^a x^b and Phi_r(x) = Phi_s(x^e), so row a e + b of Red(r) is row a
    of Red(s) spread over the columns b, b + e, b + 2e, ...
    """

    def __init__(self, r: int):
        s = prod(_factorize(r))
        self.stride = r // s
        if self.stride > 1:
            self.base = _reduction(s)
            self.deg = self.base.deg * self.stride
            return
        phi = cyclotomic_polynomial(r)
        self.deg = len(phi) - 1
        self.tail = np.array(phi[:-1], dtype=np.int64)  # Phi_r minus its monic top
        # entries below this bound keep each step of the walk within int64
        self.limit = (1 << 62) // (int(np.abs(self.tail).max()) + 1)
        self.slot = np.full(r, -1, dtype=np.int64)  # index into self.table, or -1
        self.table = np.zeros((0, self.deg), dtype=np.int64)

    def rows(self, ks: np.ndarray) -> np.ndarray:
        """The rows ks (increasing, in [0, r)) of Red(r), as a new array."""
        if self.stride > 1:
            a, b = np.divmod(ks, self.stride)
            a, inv = np.unique(a, return_inverse=True)
            out = np.zeros((ks.size, self.base.deg, self.stride), dtype=np.int64)
            out[np.arange(ks.size), :, b] = self.base.rows(a)[inv]
            return out.reshape(ks.size, self.deg)
        new = ks[self.slot[ks] < 0]
        if new.size:
            add = np.zeros((new.size, self.deg), dtype=np.int64)
            low = new < self.deg
            add[low.nonzero()[0], new[low]] = 1  # x^k itself
            k, row = self.deg - 1, np.zeros(self.deg, dtype=np.int64)
            row[-1] = 1  # x^(deg-1), where the walk to the higher rows starts
            for i in (~low).nonzero()[0]:
                while k < new[i]:
                    # x * row, with x^deg replaced by -(Phi_r - x^deg)
                    if np.abs(row).max() >= self.limit:
                        raise OverflowError(f"x^{k + 1} mod Phi_r leaves int64")
                    row = np.concatenate(([0], row[:-1])) - row[-1] * self.tail
                    k += 1
                add[i] = row
            self.slot[new] = len(self.table) + np.arange(new.size)
            self.table = np.concatenate((self.table, add))
        return self.table[self.slot[ks]]


@lru_cache(maxsize=None)
def _reduction(r: int) -> _Reduction:
    return _Reduction(r)


def vanishes(C, r: int) -> np.ndarray:
    """Exact zero test in Z[omega_r] for each row of C.

    C holds unreduced coefficient rows (shape n x r): an integer ndarray or
    nested lists of Python ints of any size.  Row i is zero exactly when its
    row of C @ Red(r) is; only the rows of Red(r) for the columns k where C
    is nonzero enter the product.  It runs in int64 when no sum can
    overflow it, that is when max|C| * (columns used) * max|Red(r)| < 2^63,
    and in Python ints otherwise.
    """
    try:
        C = np.asarray(C, dtype=np.int64)
    except OverflowError:
        C = np.asarray(C, dtype=object)
    if C.shape[0] == 0:
        return np.ones(0, dtype=bool)
    ks = C.any(axis=0).nonzero()[0]
    if not ks.size:
        return np.ones(C.shape[0], dtype=bool)
    C, red = C[:, ks], _reduction(r).rows(ks)
    bound = max(-int(C.min()), int(C.max())) * ks.size * int(np.abs(red).max())
    if bound < 2**63:  # so C is int64: had it overflowed, max|C| alone is >= 2^63
        reduced = C @ red
    else:
        reduced = C.astype(object) @ red.astype(object)
    return ~reduced.any(axis=1)


def sums_vanish(n: int, row, exp, r: int, weight=None) -> np.ndarray:
    """Exact zero test of n sums of roots of unity, given as terms: term j
    adds weight[j] * omega_r^exp[j] (exp read mod r; weight 1 when None) to
    sum row[j], where row and exp broadcast together and weight to their
    shape.  The coefficient rows for `vanishes` are counts for unit weights,
    int64 sums when max|weight| times the number of terms is below 2^63, and
    Python-int sums otherwise.
    """
    cells = np.asarray(row, dtype=np.int64) * r + np.asarray(exp, dtype=np.int64) % r
    if weight is None:
        counts = np.bincount(cells.ravel(), minlength=n * r)
    else:
        w = np.broadcast_to(np.asarray(weight, dtype=object), cells.shape).ravel()
        big = w.size and max(abs(w.min()), abs(w.max())) * w.size >= 2**63
        counts = np.zeros(n * r, dtype=object if big else np.int64)
        np.add.at(counts, cells.ravel(), w if big else w.astype(np.int64))
    return vanishes(counts.reshape(n, r), r)


class CyclotomicInteger:
    """Sum_{k<r} coeffs[k] * omega_r^k with integer coefficients.

    The vector is kept unreduced (length exactly r); the exact zero test
    `is_zero` reduces it modulo Phi_r through `vanishes`.
    """

    __slots__ = ("r", "coeffs")

    def __init__(self, r: int, coeffs=None):
        if r <= 0:
            raise ValueError("root order must be positive")
        self.r = r
        if coeffs is None:
            self.coeffs = [0] * r
        else:
            coeffs = list(coeffs)
            if len(coeffs) != r:
                raise ValueError(f"need exactly {r} coefficients, got {len(coeffs)}")
            self.coeffs = coeffs

    # --- constructors -------------------------------------------------
    @staticmethod
    def zero(r: int) -> "CyclotomicInteger":
        return CyclotomicInteger(r)

    @staticmethod
    def one(r: int) -> "CyclotomicInteger":
        z = CyclotomicInteger(r)
        z.coeffs[0] = 1
        return z

    @staticmethod
    def from_integer(n: int, r: int) -> "CyclotomicInteger":
        z = CyclotomicInteger(r)
        z.coeffs[0] = n
        return z

    @staticmethod
    def from_root(a: RootExponent, r: int | None = None) -> "CyclotomicInteger":
        r = r if r is not None else a.r
        a = rescale(a, r) if r != a.r else a
        z = CyclotomicInteger(r)
        z.coeffs[a.k] = 1
        return z

    # --- ring operations ----------------------------------------------
    def _check(self, other: "CyclotomicInteger") -> None:
        if self.r != other.r:
            raise OrderMismatchError(
                f"orders differ: {self.r} vs {other.r}; rescale both to a common order first"
            )

    def __add__(self, other: "CyclotomicInteger") -> "CyclotomicInteger":
        self._check(other)
        return CyclotomicInteger(
            self.r, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "CyclotomicInteger") -> "CyclotomicInteger":
        self._check(other)
        return CyclotomicInteger(
            self.r, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "CyclotomicInteger":
        return CyclotomicInteger(self.r, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInteger(self.r, [other * a for a in self.coeffs])
        self._check(other)
        r = self.r
        out = [0] * r
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % r] += a * b
        return CyclotomicInteger(r, out)

    __rmul__ = __mul__

    def shifted(self, k: int) -> "CyclotomicInteger":
        """Multiplication by omega_r^k (cheap cyclic shift)."""
        k %= self.r
        return CyclotomicInteger(self.r, self.coeffs[-k:] + self.coeffs[:-k] if k else list(self.coeffs))

    def conj(self) -> "CyclotomicInteger":
        out = [0] * self.r
        for k, a in enumerate(self.coeffs):
            out[(-k) % self.r] += a
        return CyclotomicInteger(self.r, out)

    def rescaled(self, r_new: int) -> "CyclotomicInteger":
        if r_new % self.r != 0:
            raise InvalidRescaleError(f"{r_new} is not a multiple of {self.r}")
        step = r_new // self.r
        out = [0] * r_new
        for k, a in enumerate(self.coeffs):
            out[k * step] = a
        return CyclotomicInteger(r_new, out)

    # --- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        """Exact zero test: the coefficient polynomial vanishes modulo Phi_r."""
        return bool(vanishes([self.coeffs], self.r)[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        if self.r != other.r:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("CyclotomicInteger is unhashable (equality is algebraic)")

    def to_complex(self) -> complex:
        import cmath

        return sum(
            a * cmath.exp(2j * cmath.pi * k / self.r)
            for k, a in enumerate(self.coeffs)
            if a
        )

    def __repr__(self) -> str:
        terms = [f"{a}*w{self.r}^{k}" for k, a in enumerate(self.coeffs) if a]
        return "CyclotomicInteger(" + (" + ".join(terms) or "0") + ")"
