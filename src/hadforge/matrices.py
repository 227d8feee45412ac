"""Matrix carriers and equivalence plumbing for complex Hadamard matrices.

A matrix of order d is stored either exactly (`ExponentMatrix`: integer
exponents of a fixed root of unity, global scale 1/sqrt(d)) or numerically
(`ComplexMatrix`: a complex ndarray).  An exponent grid is one read-only
(d, d) int64 array, reduced mod its root order r < 2^63 when the matrix is
made; every exact layer reads it directly.  Sums of two exponents go
through `add_mod`, which stays inside int64 for every such r.  JSON holds
the same grid as plain integers.  Equivalence moves H -> D1 P1 H P2 D2 act
on both kinds; dephasing, unitarity checks and minimal Butson-root
detection live here too.
"""

from __future__ import annotations

import cmath
import json
import operator
import random
from dataclasses import dataclass, field
from math import gcd, lcm, sqrt
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .cyclotomic import sums_vanish

UNITARY_TOL = 1e-9  # scaled by d in the float unitarity test
ENTRY_TOL = 1e-9
FLOAT_ROOT_LIMIT = 2**20  # largest root order is_butson tests on complex input


class NotHadamardFormError(ValueError):
    """Not a complex Hadamard matrix: entries are not unimodular (times
    1/sqrt(d)) within tolerance, or rows are not orthogonal."""


class DimensionMismatchError(ValueError):
    pass


def _root_order(r) -> int:
    """r as an int in [1, 2^63): exponent grids are int64 arrays."""
    r = operator.index(r)
    if not 1 <= r < 2**63:
        raise ValueError(f"root order must be in [1, 2^63), got {r}")
    return r


def _residues(cells, r: int) -> np.ndarray:
    """operator.index(e) % r for each cell of a vector, as int64."""
    return np.array([operator.index(e) % r for e in cells], dtype=np.int64)


def add_mod(a, b, r: int):
    """(a + b) mod r for exponents a, b reduced mod r, as a - (r - b), so
    that no intermediate leaves int64 even for r close to 2^63."""
    return (a - (r - b)) % r


@dataclass(frozen=True)
class ExponentMatrix:
    """d x d matrix with entries omega_r^{exp[i, j]} / sqrt(d).

    `exp` may be given as any d x d grid of integers (Python or numpy); it
    is stored as a read-only int64 array reduced mod r.  Floats, fractions,
    text and ragged grids are refused with ValueError.
    """

    d: int
    r: int
    exp: np.ndarray

    def __post_init__(self) -> None:
        try:
            d, r = operator.index(self.d), _root_order(self.r)
            if d < 1:
                raise ValueError(f"order must be positive, got {d}")
            rows = self.exp
            if isinstance(rows, np.ndarray) and rows.dtype == np.int64:
                if rows.shape != (d, d):
                    raise ValueError("exponent grid shape does not match order")
                exp = rows % r
            else:
                if len(rows) != d or any(len(row) != d for row in rows):
                    raise ValueError("exponent grid shape does not match order")
                exp = np.array([_residues(row, r) for row in rows])
        except TypeError:
            raise ValueError("order, root order and exponents must be integers") from None
        exp.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "exp", exp)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], r: int) -> "ExponentMatrix":
        return ExponentMatrix(len(rows), r, rows)

    def rescaled(self, r_new: int) -> "ExponentMatrix":
        if r_new % self.r != 0:
            raise ValueError(f"{r_new} is not a multiple of {self.r}")
        if r_new == self.r:
            return self
        # e * (r_new // r) < r_new < 2^63 for every reduced exponent e
        return ExponentMatrix(self.d, r_new, self.exp * (_root_order(r_new) // self.r))

    def __eq__(self, other) -> bool:
        """Equal entries: the same minimal-root form, as `__hash__` uses."""
        if not isinstance(other, ExponentMatrix):
            return NotImplemented
        if self.d != other.d:
            return False
        (ra, A), (rb, B) = butson_min_root(self), butson_min_root(other)
        return ra == rb and np.array_equal(A.exp, B.exp)

    def __hash__(self):
        root, reduced = butson_min_root(self)
        return hash((self.d, root, reduced.exp.tobytes()))


@dataclass(frozen=True)
class ComplexMatrix:
    """Plain complex-float carrier; entries include the 1/sqrt(d) scale."""

    d: int
    entries: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.complex128)
        if arr.shape != (self.d, self.d):
            raise ValueError("entry grid shape does not match order")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("non-finite entries")
        object.__setattr__(self, "entries", arr)


Matrix = Union[ExponentMatrix, ComplexMatrix]


def to_complex(H: ExponentMatrix) -> ComplexMatrix:
    return ComplexMatrix(H.d, np.exp(2j * np.pi * H.exp / H.r) / sqrt(H.d))


# ----------------------------------------------------------------------
# equivalence moves
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceMove:
    """result[i][j] = rowPhase[i] * H[rowPerm[i]][colPerm[j]] * colPhase[j].

    For exact moves `r` is the phase root order and the phase lists hold
    integer exponents; for float moves `r` is None and they hold angles in
    radians.
    """

    row_perm: Tuple[int, ...]
    col_perm: Tuple[int, ...]
    row_phases: Tuple[Union[int, float], ...]
    col_phases: Tuple[Union[int, float], ...]
    r: Optional[int] = None

    def __post_init__(self) -> None:
        d = len(self.row_perm)
        if not sorted(self.row_perm) == sorted(self.col_perm) == list(range(d)):
            raise ValueError(f"row_perm and col_perm must be permutations of range({d})")
        if len(self.row_phases) != d or len(self.col_phases) != d:
            raise ValueError(f"need {d} row phases and {d} column phases")

    @property
    def d(self) -> int:
        return len(self.row_perm)

    @property
    def exact(self) -> bool:
        return self.r is not None

    @staticmethod
    def identity(d: int, r: Optional[int] = 1) -> "EquivalenceMove":
        idp = tuple(range(d))
        zeros = (0,) * d if r is not None else (0.0,) * d
        return EquivalenceMove(idp, idp, zeros, zeros, r)


def apply_equivalence(H: Matrix, m: EquivalenceMove) -> Matrix:
    if H.d != m.d:
        raise DimensionMismatchError("move and matrix orders differ")
    if isinstance(H, ExponentMatrix):
        if not m.exact:
            raise ValueError("float move applied to exact matrix")
        r = lcm(H.r, m.r)
        E = H.rescaled(r).exp[np.ix_(m.row_perm, m.col_perm)]
        lift = r // m.r
        rp = _residues((p * lift for p in m.row_phases), r)
        cp = _residues((p * lift for p in m.col_phases), r)
        return ExponentMatrix(H.d, r, add_mod(add_mod(E, rp[:, None], r), cp, r))
    rp = (
        [cmath.exp(2j * cmath.pi * p / m.r) for p in m.row_phases]
        if m.exact
        else [cmath.exp(1j * p) for p in m.row_phases]
    )
    cp = (
        [cmath.exp(2j * cmath.pi * p / m.r) for p in m.col_phases]
        if m.exact
        else [cmath.exp(1j * p) for p in m.col_phases]
    )
    A = H.entries[np.ix_(m.row_perm, m.col_perm)]
    return ComplexMatrix(H.d, np.array(rp)[:, None] * A * np.array(cp)[None, :])


def compose_moves(first: EquivalenceMove, second: EquivalenceMove) -> EquivalenceMove:
    """The single move equivalent to applying `first`, then `second`."""
    if first.d != second.d:
        raise DimensionMismatchError("move orders differ")
    if first.exact != second.exact:
        raise ValueError("cannot mix exact and float moves")
    d = first.d
    row_perm = tuple(first.row_perm[second.row_perm[i]] for i in range(d))
    col_perm = tuple(first.col_perm[second.col_perm[j]] for j in range(d))
    if first.exact:
        r = lcm(first.r, second.r)
        l1, l2 = r // first.r, r // second.r
        rp = tuple(
            (second.row_phases[i] * l2 + first.row_phases[second.row_perm[i]] * l1) % r
            for i in range(d)
        )
        cp = tuple(
            (first.col_phases[second.col_perm[j]] * l1 + second.col_phases[j] * l2) % r
            for j in range(d)
        )
        return EquivalenceMove(row_perm, col_perm, rp, cp, r)
    rp = tuple(
        second.row_phases[i] + first.row_phases[second.row_perm[i]] for i in range(d)
    )
    cp = tuple(
        first.col_phases[second.col_perm[j]] + second.col_phases[j] for j in range(d)
    )
    return EquivalenceMove(row_perm, col_perm, rp, cp, None)


def invert_move(m: EquivalenceMove) -> EquivalenceMove:
    d = m.d
    inv_rp = [0] * d
    inv_cp = [0] * d
    for i in range(d):
        inv_rp[m.row_perm[i]] = i
        inv_cp[m.col_perm[i]] = i
    row_perm = tuple(inv_rp)
    col_perm = tuple(inv_cp)
    if m.exact:
        rph = tuple((-m.row_phases[row_perm[i]]) % m.r for i in range(d))
        cph = tuple((-m.col_phases[col_perm[j]]) % m.r for j in range(d))
        return EquivalenceMove(row_perm, col_perm, rph, cph, m.r)
    rph = tuple(-m.row_phases[row_perm[i]] for i in range(d))
    cph = tuple(-m.col_phases[col_perm[j]] for j in range(d))
    return EquivalenceMove(row_perm, col_perm, rph, cph, None)


def random_move(d: int, r: Optional[int], rng: random.Random) -> EquivalenceMove:
    """Uniformly random equivalence move: two permutations plus diagonal
    phases (exponents mod r, or angles when r is None)."""
    rp = list(range(d))
    cp = list(range(d))
    rng.shuffle(rp)
    rng.shuffle(cp)
    if r is not None:
        rph = tuple(rng.randrange(r) for _ in range(d))
        cph = tuple(rng.randrange(r) for _ in range(d))
    else:
        rph = tuple(rng.uniform(0.0, 2.0 * cmath.pi) for _ in range(d))
        cph = tuple(rng.uniform(0.0, 2.0 * cmath.pi) for _ in range(d))
    return EquivalenceMove(tuple(rp), tuple(cp), rph, cph, r)


# ----------------------------------------------------------------------
# dephasing
# ----------------------------------------------------------------------

def dephase(H: Matrix) -> Tuple[Matrix, EquivalenceMove]:
    """Normalize the first row and column to 1/sqrt(d).

    Convention: divide each row by the phase of its column-0 entry, then each
    column by the phase of the resulting row-0 entry.  Returns the dephased
    matrix together with the move that realizes it.
    """
    d = H.d
    idp = tuple(range(d))
    if isinstance(H, ExponentMatrix):
        E = H.exp
        rp = tuple((-E[:, 0] % H.r).tolist())
        cp = tuple((-(E[0] - E[0, 0]) % H.r).tolist())
        move = EquivalenceMove(idp, idp, rp, cp, H.r)
        return apply_equivalence(H, move), move
    A = H.entries
    mags = np.abs(A)
    if np.max(np.abs(mags - 1 / sqrt(d))) > ENTRY_TOL:
        raise NotHadamardFormError("entries are not unimodular/sqrt(d)")
    rp = tuple(-cmath.phase(A[i, 0]) for i in range(d))
    row_fixed = A * np.exp(1j * np.array(rp))[:, None]
    cp = tuple(-cmath.phase(row_fixed[0, j]) for j in range(d))
    move = EquivalenceMove(idp, idp, rp, cp, None)
    return apply_equivalence(H, move), move


def is_dephased(H: Matrix, tol: float = ENTRY_TOL) -> bool:
    if isinstance(H, ExponentMatrix):
        return not (H.exp[0].any() or H.exp[:, 0].any())
    A = H.entries
    target = 1 / sqrt(H.d)
    return bool(
        np.max(np.abs(A[0, :] - target)) <= tol and np.max(np.abs(A[:, 0] - target)) <= tol
    )


# ----------------------------------------------------------------------
# unitarity
# ----------------------------------------------------------------------

def is_unitary(H: Matrix) -> bool:
    """Exact Gram test for exponent matrices, float test otherwise.

    Exact mode tests the dephased grid at its minimal root, as dephasing
    keeps unitarity: for every row pair i < j the unscaled inner product
    sum_k omega^{e_ik - e_jk} must be algebraically zero; its coefficient
    vector counts the exponent differences.  All d(d-1)/2 count vectors go
    through one `sums_vanish` call.  Diagonal entries are d by construction.
    Float mode gives False, without overflow warnings, on entries whose
    Gram matrix overflows.
    """
    if isinstance(H, ComplexMatrix):
        with np.errstate(over="ignore", invalid="ignore"):
            G = H.entries @ H.entries.conj().T
            return bool(np.max(np.abs(G - np.eye(H.d))) <= UNITARY_TOL * H.d)
    r, H = butson_min_root(dephase(H)[0])
    d, E = H.d, H.exp
    i, j = np.triu_indices(d, 1)
    return bool(sums_vanish(len(i), np.arange(len(i))[:, None], E[i] - E[j], r).all())


# ----------------------------------------------------------------------
# Butson type
# ----------------------------------------------------------------------

def butson_min_root(H: ExponentMatrix) -> Tuple[int, ExponentMatrix]:
    """Smallest root order expressing all entries, with the re-expressed grid.

    Expects a dephased matrix (callers dephase first); the minimal root is
    r / gcd(r, all exponents).
    """
    g = gcd(H.r, int(np.gcd.reduce(H.exp, axis=None)))
    if g == 1:
        return H.r, H
    root = H.r // g
    return root, ExponentMatrix(H.d, root, H.exp // g)


def dephased_min_roots(E: np.ndarray, r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """`butson_min_root(dephase(H)[0])` of a stack of grids: E (N, d, d)
    at the roots r (N,) give the dephased grids at their minimal roots, and
    those roots.  Each grid is E[i, j] - E[i, 0] - E[0, j] + E[0, 0], as
    `dephase` makes it, divided by the gcd of its root and its entries."""
    r = np.asarray(r, dtype=np.int64)
    E = (E - E[:, :, :1]) % r[:, None, None]
    E = (E - E[:, :1, :]) % r[:, None, None]
    g = np.gcd(np.gcd.reduce(E.reshape(len(E), -1), axis=1), r)
    return E // g[:, None, None], r // g


def is_butson(H: Matrix, r: int) -> bool:
    """True when every entry is an r-th root of unity (times 1/sqrt(d)).

    Raises ValueError for r < 1, which is no root order, and for complex
    input above FLOAT_ROOT_LIMIT: there an entry's float error, scaled by r,
    is no longer far below the tolerance, so the verdict means nothing.
    """
    if r < 1:
        raise ValueError(f"root order must be at least 1, got {r}")
    if isinstance(H, ExponentMatrix):
        root, _ = butson_min_root(H)
        return r % root == 0
    if r > FLOAT_ROOT_LIMIT:
        raise ValueError(
            f"a complex matrix is tested only up to root {FLOAT_ROOT_LIMIT}, got {r}"
        )
    ang = np.angle(H.entries * sqrt(H.d)) * r / (2 * np.pi)
    return bool(np.max(np.abs(ang - np.rint(ang))) < 1e-7)


# ----------------------------------------------------------------------
# small-order brute-force equivalence
# ----------------------------------------------------------------------

_SEARCH_LIMIT = 6


def _canonical_form(H: ExponentMatrix) -> Tuple[list, EquivalenceMove]:
    """Lexicographically minimal dephased grid over all row permutations and
    anchor-column choices, with column sorting; returns the realizing move."""
    from itertools import permutations

    d, r = H.d, H.r
    idp = tuple(range(d))
    zeros = (0,) * d
    best_key = None
    best_move = None
    for P in permutations(range(d)):
        for c in range(d):
            cols = (c,) + tuple(j for j in range(d) if j != c)
            m1 = EquivalenceMove(P, cols, zeros, zeros, r)
            A = apply_equivalence(H, m1)
            B, m2 = dephase(A)
            # columns in lexicographic order, row 0 the most significant
            order = tuple(np.lexsort(B.exp[::-1]).tolist())
            m3 = EquivalenceMove(idp, order, zeros, zeros, r)
            key = apply_equivalence(B, m3).exp.ravel().tolist()
            if best_key is None or key < best_key:
                best_key = key
                best_move = compose_moves(compose_moves(m1, m2), m3)
    return best_key, best_move


def equivalence_search_small(
    A: ExponentMatrix, B: ExponentMatrix
) -> Optional[EquivalenceMove]:
    """Exhaustive equivalence witness search for orders up to 6.

    Returns a move with apply_equivalence(A, move) == B, or None when the
    canonical forms differ.
    """
    if A.d != B.d:
        raise DimensionMismatchError("orders differ")
    if A.d > _SEARCH_LIMIT:
        raise ValueError(f"search restricted to d <= {_SEARCH_LIMIT}")
    rr = lcm(A.r, B.r)
    Ae, Be = A.rescaled(rr), B.rescaled(rr)
    key_a, move_a = _canonical_form(Ae)
    key_b, move_b = _canonical_form(Be)
    if key_a != key_b:
        return None
    witness = compose_moves(move_a, invert_move(move_b))
    assert apply_equivalence(Ae, witness) == Be
    return witness


# ----------------------------------------------------------------------
# tensor products
# ----------------------------------------------------------------------

def tensor(A: ExponentMatrix, B: ExponentMatrix) -> ExponentMatrix:
    """Kronecker product in exponent form (root orders lifted to the lcm)."""
    r = lcm(A.r, B.r)
    a, b = A.rescaled(r).exp, B.rescaled(r).exp
    d = A.d * B.d
    # entry (i1 * B.d + i2, j1 * B.d + j2) is a[i1, j1] + b[i2, j2]
    E = add_mod(a[:, None, :, None], b[None, :, None, :], r)
    return ExponentMatrix(d, r, E.reshape(d, d))


# ----------------------------------------------------------------------
# JSON interchange
# ----------------------------------------------------------------------

def matrix_to_json(H: Matrix, raw: bool = False) -> dict:
    if isinstance(H, ExponentMatrix):
        obj = {"d": H.d, "root": H.r, "exponents": H.exp.tolist()}
        if raw or not is_dephased(H):
            obj["raw"] = True
        return obj
    return {
        "d": H.d,
        "re": H.entries.real.tolist(),
        "im": H.entries.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> Matrix:
    if "exponents" in obj:
        return ExponentMatrix(obj["d"], obj["root"], obj["exponents"])
    if "re" in obj and "im" in obj:
        return ComplexMatrix(
            operator.index(obj["d"]), np.array(obj["re"]) + 1j * np.array(obj["im"])
        )
    raise ValueError("unrecognized matrix JSON (want exponents or re/im)")


def load_matrix(path: str) -> Matrix:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))


def dump_matrix(H: Matrix, path: str, raw: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(H, raw=raw), fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def move_to_json(m: EquivalenceMove) -> dict:
    return {
        "row_perm": list(m.row_perm),
        "col_perm": list(m.col_perm),
        "row_phases": list(m.row_phases),
        "col_phases": list(m.col_phases),
        "root": m.r,
    }


def move_from_json(obj: dict) -> EquivalenceMove:
    """Inverse of `move_to_json`.  Permutations, exact phases and the root
    are read with operator.index, as `matrix_from_json` reads exponents, so
    a fractional or text value raises ValueError instead of being cut; the
    phases of a float move must be JSON numbers."""

    def ints(xs) -> tuple:
        return tuple(operator.index(x) for x in xs)

    def angles(xs) -> tuple:
        if not all(type(x) in (int, float) for x in xs):  # no text, no bools
            raise ValueError("float move phases must be numbers")
        return tuple(float(x) for x in xs)

    r = obj.get("root")
    phases = ints if r is not None else angles
    try:
        return EquivalenceMove(
            ints(obj["row_perm"]),
            ints(obj["col_perm"]),
            phases(obj["row_phases"]),
            phases(obj["col_phases"]),
            _root_order(r) if r is not None else None,
        )
    except TypeError:
        raise ValueError("move permutations, phases and root must be integers") from None
