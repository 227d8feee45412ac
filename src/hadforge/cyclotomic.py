"""Exact zero tests for sums of roots of unity.

A sum of r-th roots of unity is given in one of two forms:

* terms for :func:`sums_vanish`: per term a sum index, an exponent and an
  optional integer weight;
* a dense row of length r for :func:`vanishes`, whose entry k is the
  (unreduced) coefficient of omega_r^k.

Every exact identity in the package goes through :func:`sums_vanish`, which
accumulates its terms into rows for :func:`vanishes`; that tests each row in
the tensor basis of Z[omega_r] over the primes dividing r, with no table of
x^k mod Phi_r.  The exact build takes only its candidate exponents from
floats.  :func:`cyclotomic_polynomial` stays public, though no zero test
needs it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import prod
from typing import List, Tuple

import numpy as np


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


def vanishes(C, r: int) -> np.ndarray:
    """Exact zero test in Z[omega_r] for each row of C.

    C holds unreduced coefficient rows (shape n x r): an integer ndarray or
    nested lists of Python ints of any size.  With s the product of the
    primes p dividing r and e = r/s, each row is rewritten in a basis:
    1. omega_r^(e a + b) = omega_s^a omega_r^b, and Phi_r(x) = Phi_s(x^e)
       makes the omega_r^b, b < e, a basis over Z[omega_s]: a row is an
       (s, e) array whose column b is the coefficient of omega_r^b.
    2. Z[omega_s] is the tensor product of the Z[omega_p], omega_s^a being
       the product of the omega_p^j_p for a = sum of j_p s/p (mod s).
    3. On each prime axis, omega_p^(p-1) = -(1 + ... + omega_p^(p-2))
       subtracts the last slice from the others.
    A row is zero exactly when nothing nonzero is left.  Each subtraction at
    most doubles an entry, so the rows stay int64 while
    max|C| < 2^(63 - number of primes), and are Python ints otherwise.
    """
    try:
        C = np.asarray(C, dtype=np.int64)
    except OverflowError:
        C = np.asarray(C, dtype=object)
    primes = _factorize(r)
    s = prod(primes)
    big = C.size and max(-int(C.min()), int(C.max())) >= 2 ** (63 - len(primes))
    T = C.astype(object if big else np.int64, copy=False).reshape(len(C), s, r // s)
    a = sum(np.ix_(*(np.arange(p) * (s // p) for p in primes))) % s
    T = T[:, a]  # axes: row, one per prime, then b
    for _ in primes:
        T = np.moveaxis(T[:, :-1] - T[:, -1:], 1, -1)
    return ~T.any(axis=tuple(range(1, T.ndim)))


MAX_CELLS = 2**26


def sums_vanish(n: int, row, exp, r: int, weight=None) -> np.ndarray:
    """Exact zero test of n sums of roots of unity, given as terms: term j
    adds weight[j] * omega_r^exp[j] (exp read mod r; weight 1 when None) to
    sum row[j], where row and exp broadcast together and weight to their
    shape.  The coefficient rows for `vanishes` are counts for unit weights,
    int64 sums when max|weight| times the number of terms is below 2^63, and
    Python-int sums otherwise; an integer array of weights is not made
    Python ints first.  Raises MemoryError, before allocating, when the
    n x r rows would exceed MAX_CELLS = 2^26 coefficients.
    """
    if n * r > MAX_CELLS:
        raise MemoryError(
            f"an exact zero test of {n} x {r} = {n * r} coefficients is above "
            f"the bound of {MAX_CELLS}"
        )
    cells = np.asarray(row, dtype=np.int64) * r + np.asarray(exp, dtype=np.int64) % r
    if weight is None:
        counts = np.bincount(cells.ravel(), minlength=n * r)
    else:
        w = np.asarray(weight)
        w = np.broadcast_to(w if w.dtype.kind == "i" else w.astype(object), cells.shape).ravel()
        big = w.size and max(-int(w.min()), int(w.max())) * w.size >= 2**63
        counts = np.zeros(n * r, dtype=object if big else np.int64)
        np.add.at(counts, cells.ravel(), w.astype(counts.dtype, copy=False))
    return vanishes(counts.reshape(n, r), r)
