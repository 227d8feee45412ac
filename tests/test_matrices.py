import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadforge.matrices import (
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
from hadforge.mub import fourier


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


def test_matrix_json_roundtrip_float():
    H = to_complex(F(3))
    back = matrix_from_json(matrix_to_json(H))
    assert isinstance(back, ComplexMatrix)
    assert np.allclose(back.entries, H.entries)
