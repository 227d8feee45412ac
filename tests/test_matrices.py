import json
import operator
import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadforge.construct import trivial_family
from hadforge.matrices import (
    FLOAT_ROOT_LIMIT,
    ComplexMatrix,
    DimensionMismatchError,
    EquivalenceMove,
    ExponentMatrix,
    apply_equivalence,
    butson_min_root,
    compose_moves,
    dephase,
    equivalence_search_small,
    invert_move,
    is_butson,
    is_dephased,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    move_from_json,
    move_to_json,
    random_move,
    tensor,
    to_complex,
)
from hadforge.mub import _fanned_basis, fourier, standard_diagonal, triangular_diagonal


def F(n):
    return fourier(n)


# --- strategies -------------------------------------------------------

@st.composite
def exp_matrices(draw):
    d = draw(st.integers(2, 5))
    r = draw(st.sampled_from([2, 3, 4, 6, 12]))
    exp = tuple(
        tuple(draw(st.integers(0, r - 1)) for _ in range(d)) for _ in range(d)
    )
    return ExponentMatrix(d, r, exp)


@st.composite
def moves_for(draw, H):
    rng = random.Random(draw(st.integers(0, 2**30)))
    return random_move(H.d, H.r * draw(st.integers(1, 3)), rng)


# --- basics -----------------------------------------------------------

def test_fourier_is_unitary_exact_and_float():
    for n in (2, 3, 5, 8):
        assert is_unitary(F(n))
        assert is_unitary(to_complex(F(n)))


def test_all_ones_grid_is_not_unitary():
    flat = ExponentMatrix(3, 1, ((0, 0, 0),) * 3)
    assert not is_unitary(flat)


def test_exponent_equality_lifts_roots():
    A = ExponentMatrix(2, 2, ((0, 0), (0, 1)))
    B = ExponentMatrix(2, 4, ((0, 0), (0, 2)))
    assert A == B
    assert hash(A) == hash(B)


def test_equality_compares_minimal_root_forms():
    # the lcm of the two roots is above 2^63, where no grid can be lifted
    A = ExponentMatrix(2, 2**32 + 15, ((0, 0), (0, 1)))
    B = ExponentMatrix(2, 2**32 + 17, ((0, 0), (0, 1)))
    assert A != B
    assert A == ExponentMatrix(2, 2 * (2**32 + 15), ((0, 0), (0, 2)))
    assert ExponentMatrix(2, 2**63 - 1, ((0, 0), (0, 0))) == ExponentMatrix(2, 1, ((0, 0), (0, 0)))


def test_exponent_grid_is_read_only_int64():
    H = ExponentMatrix(2, 4, ((0, 5), (-1, 2**70)))
    assert H.exp.dtype == np.int64 and H.exp.tolist() == [[0, 1], [3, 0]]
    with pytest.raises(ValueError):
        H.exp[0, 0] = 1


@pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 3), (3, 3, 1), (1, 3, 3)])
def test_an_int64_array_of_the_wrong_shape_is_refused(shape):
    with pytest.raises(ValueError, match="shape"):
        ExponentMatrix(3, 4, np.zeros(shape, dtype=np.int64))
    H = ExponentMatrix(3, 4, np.arange(9, dtype=np.int64).reshape(3, 3))
    assert H.exp.tolist() == [[0, 1, 2], [3, 0, 1], [2, 3, 0]]


def test_butson_min_root_reduces():
    doubled = ExponentMatrix(3, 6, tuple(tuple((2 * (i * j)) % 6 for j in range(3)) for i in range(3)))
    root, reduced = butson_min_root(doubled)
    assert root == 3
    assert reduced == F(3)
    assert butson_min_root(F(4))[0] == 4


def test_is_butson_divisibility():
    assert is_butson(F(3), 6)
    assert not is_butson(F(3), 2)
    assert is_butson(to_complex(F(4)), 4)


def bh2(r, a):
    """BH(2, r) with rows (1, 1) and (w^a, -w^a)."""
    return ExponentMatrix(2, r, [[0, 0], [a, a + r // 2]])


def test_is_butson_refuses_complex_input_above_the_float_limit():
    # the float test read these as False at 10^10 and 10^12, and passed a
    # member of the trivial family at 2^62, where every float is an integer
    for r in (10**10, 10**12):
        assert is_butson(bh2(r, 123456789), r)
        with pytest.raises(ValueError):
            is_butson(to_complex(bh2(r, 123456789)), r)
    with pytest.raises(ValueError):
        is_butson(trivial_family(2, 2, [1.0]), 2**62)
    H = to_complex(bh2(FLOAT_ROOT_LIMIT, 123457))
    assert is_butson(H, FLOAT_ROOT_LIMIT) and not is_butson(H, FLOAT_ROOT_LIMIT // 2)
    with pytest.raises(ValueError):
        is_butson(H, FLOAT_ROOT_LIMIT + 2)


@pytest.mark.parametrize("r", [0, -4])
def test_is_butson_refuses_root_below_one(r):
    for H in (F(5), to_complex(F(5))):
        with pytest.raises(ValueError):
            is_butson(H, r)


# --- moves ------------------------------------------------------------

@given(data=st.data())
@settings(max_examples=40)
def test_move_roundtrip_and_composition(data):
    H = data.draw(exp_matrices())
    m1 = data.draw(moves_for(H))
    m2 = data.draw(moves_for(H))
    moved = apply_equivalence(H, m1)
    back = apply_equivalence(moved, invert_move(m1))
    assert back == H
    two_step = apply_equivalence(moved, m2)
    assert apply_equivalence(H, compose_moves(m1, m2)) == two_step


@given(data=st.data())
@settings(max_examples=40)
def test_float_move_roundtrip_and_composition(data):
    H = to_complex(data.draw(exp_matrices()))
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    m1, m2 = random_move(H.d, None, rng), random_move(H.d, None, rng)
    moved = apply_equivalence(H, m1)
    assert np.allclose(apply_equivalence(moved, invert_move(m1)).entries, H.entries)
    two_step = apply_equivalence(moved, m2).entries
    assert np.allclose(apply_equivalence(H, compose_moves(m1, m2)).entries, two_step)


def test_random_move_draws_are_frozen():
    # a seed fixes the move: row order, column order, row phases, then
    # column phases are drawn in that order
    assert random_move(5, 12, random.Random(2026)) == EquivalenceMove(
        (1, 4, 3, 2, 0), (0, 4, 2, 3, 1), (9, 7, 3, 0, 9), (1, 1, 4, 1, 7), 12
    )
    assert random_move(3, None, random.Random(2026)) == EquivalenceMove(
        (2, 1, 0),
        (1, 0, 2),
        (5.555088508471962, 5.622239040729716, 3.9048997969637655),
        (2.6428017127472625, 3.5975559224482567, 5.292966194525043),
        None,
    )
    assert random_move(3, 2**63 - 1, random.Random(7)) == EquivalenceMove(
        (2, 0, 1),
        (2, 0, 1),
        (7574918311415852851, 868196408185819179, 5375270654777870840),
        (8390539026135319669, 1980241222855773941, 792723338049442008),
        2**63 - 1,
    )


@given(data=st.data())
@settings(max_examples=40)
def test_dephase_returns_matrix_and_move(data):
    H = data.draw(exp_matrices())
    Hd, move = dephase(H)
    assert is_dephased(Hd)
    assert apply_equivalence(H, move) == Hd


def test_dephase_float_matches_exact():
    H = ExponentMatrix(3, 6, ((1, 2, 3), (4, 0, 2), (5, 1, 1)))
    Hd, _ = dephase(H)
    Hf, _ = dephase(to_complex(H))
    assert np.allclose(Hf.entries, to_complex(Hd).entries)


def test_move_dimension_mismatch():
    m = EquivalenceMove.identity(3)
    with pytest.raises(DimensionMismatchError):
        apply_equivalence(F(4), m)


def test_move_json_roundtrip():
    rng = random.Random(11)
    m = random_move(4, 12, rng)
    assert move_from_json(json.loads(json.dumps(move_to_json(m)))) == m
    mf = random_move(4, None, rng)
    back = move_from_json(move_to_json(mf))
    assert back.row_perm == mf.row_perm and back.r is None


@pytest.mark.parametrize(
    "field,value",
    [
        ("row_phases", [0, 1.5, 2]),
        ("col_phases", [0, "3", 2]),
        ("root", 6.5),
        ("row_perm", [False, True, 2]),
        ("col_phases", [3, True, 5]),
        ("root", True),
    ],
)
def test_move_json_refuses_non_integers(field, value):
    m = EquivalenceMove((0, 1, 2), (2, 0, 1), (0, 1, 2), (3, 4, 5), 6)
    obj = move_to_json(m)
    assert move_from_json(obj) == m
    obj[field] = value
    with pytest.raises(ValueError):
        move_from_json(obj)


BAD_MOVES = {
    "repeated row index": dict(row_perm=(0, 0, 0)),
    "column index out of range": dict(col_perm=(0, 1, 3)),
    "short column permutation": dict(col_perm=(1, 0)),
    "short row phases": dict(row_phases=(0, 1)),
    "long column phases": dict(col_phases=(0, 1, 2, 3)),
}


@pytest.mark.parametrize("case", sorted(BAD_MOVES))
def test_move_refuses_non_permutations_and_wrong_phase_counts(case):
    good = dict(row_perm=(0, 1, 2), col_perm=(2, 0, 1), row_phases=(0, 1, 2), col_phases=(3, 4, 5))
    for r in (6, None):
        EquivalenceMove(**good, r=r)
        bad = {**good, **BAD_MOVES[case]}
        with pytest.raises(ValueError):
            EquivalenceMove(**bad, r=r)
        obj = {**bad, "root": r}
        with pytest.raises(ValueError):
            move_from_json(json.loads(json.dumps(obj)))


def test_move_with_a_repeated_row_is_refused():
    # applied, (0, 0, 0) would copy row 0 of F3 three times
    with pytest.raises(ValueError):
        apply_equivalence(F(3), EquivalenceMove((0, 0, 0), (0, 1, 2), (0,) * 3, (0,) * 3, 3))


@pytest.mark.parametrize("value", ["1.5", True, False, None, [1.0]])
def test_float_move_json_refuses_text_and_bools(value):
    m = EquivalenceMove((0, 1, 2), (2, 0, 1), (0.0, 1.5, -2.0), (3.0, 0.25, 5.0), None)
    obj = json.loads(json.dumps(move_to_json(m)))
    assert move_from_json(obj) == m
    for field in ("row_phases", "col_phases"):
        bad = {**obj, field: [0.5, value, 1]}
        with pytest.raises(ValueError):
            move_from_json(bad)
    # integers are numbers: an angle of 1 radian reads as 1.0
    assert move_from_json({**obj, "row_phases": [0, 1, 2]}).row_phases == (0.0, 1.0, 2.0)


# --- tensor and small-order equivalence search ------------------------

def test_tensor_of_fouriers():
    T = tensor(F(2), F(3))
    assert T.d == 6
    assert is_unitary(T)
    assert butson_min_root(T)[0] == 6


def test_equivalence_search_finds_scrambled_fourier():
    rng = random.Random(3)
    m = random_move(4, 8, rng)
    scrambled = apply_equivalence(F(4), m)
    wit = equivalence_search_small(F(4), scrambled)
    assert wit is not None
    assert apply_equivalence(F(4).rescaled(8), wit) == scrambled.rescaled(8)


def test_equivalence_search_separates_f4_from_f2xf2():
    assert equivalence_search_small(F(4), tensor(F(2), F(2))) is None


def test_equivalence_search_rejects_large_orders():
    with pytest.raises(ValueError):
        equivalence_search_small(F(7), F(7))


# --- JSON -------------------------------------------------------------

def test_matrix_json_roundtrip_exact():
    H = ExponentMatrix(3, 6, ((0, 0, 0), (0, 2, 4), (0, 4, 2)))
    obj = matrix_to_json(H)
    assert obj == {"d": 3, "root": 6, "exponents": [[0, 0, 0], [0, 2, 4], [0, 4, 2]]}
    assert matrix_from_json(obj) == H


def test_matrix_json_marks_raw_grids():
    H = ExponentMatrix(2, 4, ((1, 0), (0, 3)))
    assert matrix_to_json(H)["raw"] is True


@pytest.mark.parametrize(
    "obj",
    [
        {"d": 2, "root": 2, "exponents": [[False, False], [False, True]]},
        {"d": 2, "root": True, "exponents": [[0, 0], [0, 0]]},
        {"d": True, "root": 2, "exponents": [[1]]},
        {"d": True, "re": [[1.0]], "im": [[0.0]]},
        {"d": 1, "re": [[True]], "im": [[0.0]]},
    ],
    ids=["exponents", "root", "exact-order", "float-order", "float-entry"],
)
def test_matrix_json_refuses_booleans(obj):
    with pytest.raises(ValueError):
        matrix_from_json(obj)
    # the same numbers as integers are read
    ints = json.loads(json.dumps(obj).replace("false", "0").replace("true", "1"))
    assert matrix_from_json(ints).d == ints["d"]


def test_matrix_json_roundtrip_float():
    H = to_complex(F(3))
    back = matrix_from_json(matrix_to_json(H))
    assert isinstance(back, ComplexMatrix)
    assert np.allclose(back.entries, H.entries)


# --- the tuple-grid bodies the int64 grid replaced ---------------------

def reference_grid(d, r, exp):
    """The per-cell constructor: the reduced tuple grid, or ValueError."""
    try:
        d, r = operator.index(d), operator.index(r)
        if d < 1 or not 1 <= r < 2**63:
            raise ValueError("bad order or root order")
        if len(exp) != d or any(len(row) != d for row in exp):
            raise ValueError("exponent grid shape does not match order")
        return tuple(tuple(operator.index(e) % r for e in row) for row in exp)
    except TypeError:
        raise ValueError("order, root order and exponents must be integers") from None


def reference_rescaled(grid, r, r_new):
    m = r_new // r
    return tuple(tuple(e * m for e in row) for row in grid)


def reference_apply_equivalence(grid, r, m):
    """The exact branch of apply_equivalence: (root, grid)."""
    rr = lcm(r, m.r)
    He = reference_rescaled(grid, r, rr)
    lift = rr // m.r
    rp = [p * lift for p in m.row_phases]
    cp = [p * lift for p in m.col_phases]
    d = len(grid)
    new = tuple(
        tuple((rp[i] + He[m.row_perm[i]][m.col_perm[j]] + cp[j]) % rr for j in range(d))
        for i in range(d)
    )
    return rr, new


def reference_dephase(grid, r):
    d = len(grid)
    idp = tuple(range(d))
    rp = tuple((-grid[i][0]) % r for i in range(d))
    cp = tuple((-(grid[0][j] - grid[0][0])) % r for j in range(d))
    move = EquivalenceMove(idp, idp, rp, cp, r)
    return reference_apply_equivalence(grid, r, move), move


def reference_butson_min_root(grid, r):
    g = r
    for row in grid:
        for e in row:
            g = gcd(g, e)
            if g == 1:
                return r, grid
    return r // g, tuple(tuple(e // g for e in row) for row in grid)


def reference_tensor(a, ra, b, rb):
    r = lcm(ra, rb)
    la, lb = r // ra, r // rb
    rows = []
    for i1 in range(len(a)):
        for i2 in range(len(b)):
            rows.append(
                tuple(
                    (a[i1][j1] * la + b[i2][j2] * lb) % r
                    for j1 in range(len(a))
                    for j2 in range(len(b))
                )
            )
    return r, tuple(rows)


def reference_fourier(d):
    return d if d > 1 else 1, tuple(tuple((j * k) % d for k in range(d)) for j in range(d))


def reference_fanned_basis(q, j, diag):
    return tuple(tuple((j * diag[k] + k * m) % q for m in range(q)) for k in range(q))


def same(H, root, grid):
    return H.r == root and H.exp.tolist() == [list(row) for row in grid]


# roots within 4 of 2^63 with one small factor each, so that a grid at the
# factor rescales to the big root, and sums of two exponents overflow int64
BIG_ROOTS = {2**63 - 1: 7, 2**63 - 2: 3, 2**63 - 3: 5, 2**63 - 4: 4}


@st.composite
def grids_and_roots(draw):
    """(d, r, tuple grid of unreduced cells, a divisor of r)."""
    d = draw(st.integers(1, 5))
    if draw(st.booleans()):
        r = draw(st.sampled_from(sorted(BIG_ROOTS)))
        f = BIG_ROOTS[r]
    else:
        f = draw(st.sampled_from([1, 2, 3, 4, 6]))
        r = f * draw(st.integers(1, 5))
    cell = st.one_of(st.integers(-3 * r, 3 * r), st.integers(-(2**70), 2**70))
    grid = tuple(tuple(draw(cell) for _ in range(d)) for _ in range(d))
    return d, r, grid, f


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_array_code_matches_tuple_grid_references(data):
    d, r, raw, f = data.draw(grids_and_roots())
    grid = reference_grid(d, r, raw)
    H = ExponentMatrix(d, r, raw)
    assert same(H, r, grid)

    (root, Hd), move = reference_dephase(grid, r)
    got, got_move = dephase(H)
    assert same(got, root, Hd) and got_move == move
    assert all(type(p) is int for p in got_move.row_phases + got_move.col_phases)
    assert same(butson_min_root(got)[1], *reference_butson_min_root(Hd, root))

    rng = random.Random(data.draw(st.integers(0, 2**32)))
    m = random_move(d, r if r in BIG_ROOTS else r * rng.randint(1, 3), rng)
    assert same(apply_equivalence(H, m), *reference_apply_equivalence(grid, r, m))

    # a grid at the divisor f, rescaled to r, and its product with H
    small = reference_grid(d, f, raw)
    G = ExponentMatrix(d, f, raw)
    assert same(G.rescaled(r), r, reference_rescaled(small, f, r))
    assert same(tensor(H, G), *reference_tensor(grid, r, small, f))
    assert same(tensor(G, H), *reference_tensor(small, f, grid, r))
    assert (G.rescaled(r) == H) == (reference_rescaled(small, f, r) == grid)


@pytest.mark.parametrize("d", range(1, 13))
def test_fourier_matches_tuple_grid_reference(d):
    assert same(fourier(d), *reference_fourier(d))


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_fanned_bases_match_tuple_grid_reference(q):
    for diag in {standard_diagonal(q), triangular_diagonal(q)}:
        for j in range(q):
            assert same(_fanned_basis(q, j, diag), q, reference_fanned_basis(q, j, diag))


@pytest.mark.parametrize(
    "rows",
    [
        [[0, True], [False, 1]],
        [[0, 1.0], [0, 1]],
        [[0, float("nan")], [0, 1]],
        [[0, "1"], [0, 1]],
        ["01", [0, 1]],
        [[0, None], [0, 1]],
        [[0, Fraction(1, 2)], [0, 1]],
        [[0, Fraction(4, 2)], [0, 1]],
        [[0, 2**70], [0, -(2**70)]],
        [[0, np.int64(-7)], [np.int64(2**62), 1]],
        [[0, np.True_], [0, 1]],
        [[0, np.float64(1.0)], [0, 1]],
        [np.array([0, 2**64 - 1], dtype=np.uint64), [0, 1]],
        np.array([[0, 2**64 - 1], [2**63, 1]], dtype=np.uint64),
        np.array([[0, -(2**63)], [2**63 - 1, 1]], dtype=np.int64),
        np.array([[0, 1], [0, 1]], dtype=np.float64),
        np.zeros((2, 2, 1), dtype=np.int64),
        [[0, 1], [0, 1, 2]],
        [[0, 1]],
        [[0, 1], 5],
        [[[0], [1]], [[0], [1]]],
    ],
    ids=lambda rows: repr(rows)[:40],
)
@pytest.mark.parametrize("r", [6, 2**63 - 1])
def test_constructor_cells_match_the_per_cell_reference(rows, r):
    try:
        expected = reference_grid(2, r, rows)
    except ValueError:
        with pytest.raises(ValueError):
            ExponentMatrix(2, r, rows)
        return
    assert same(ExponentMatrix(2, r, rows), r, expected)
