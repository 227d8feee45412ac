import contextlib
import hashlib
import io
import json
import random
import re
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadforge import catalog
from hadforge.cli import main
from hadforge.construct import BlockAssignment, theorem1_build
from hadforge.matrices import (
    ExponentMatrix,
    apply_equivalence,
    dump_matrix,
    matrix_from_json,
    matrix_to_json,
    move_from_json,
    random_move,
    to_complex,
)
from hadforge.mub import fourier

S9_JSON = '{"p":3,"q":3,"K":["I","I","H1"],"L":["F","F","H2"]}'
EMPTY_GRID = '{"d": 0, "root": 4, "exponents": []}'
TWIN_ROWS = '{"d": 3, "root": 3, "exponents": [[0, 0, 0], [0, 1, 2], [0, 1, 2]]}'
OVERFLOWING = '{"d": 2, "re": [[1e200, 1], [1, -1]], "im": [[0, 0], [0, 0]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jrun(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def f4(tmp_path):
    path = tmp_path / "f4.json"
    dump_matrix(fourier(4), str(path))
    return str(path)


@pytest.fixture
def f4_float(tmp_path):
    path = tmp_path / "f4c.json"
    dump_matrix(to_complex(fourier(4)), str(path))
    return str(path)


class TestGen:
    def test_inline_assignment(self, capsys):
        code, out = jrun(capsys, "gen", S9_JSON, "--dephase")
        assert code == 0
        H = matrix_from_json(out)
        assert H.d == 9 and all(e == 0 for e in H.exp[0])

    def test_assignment_from_file(self, capsys, tmp_path):
        spec = tmp_path / "a.json"
        spec.write_text(S9_JSON)
        code, out = jrun(capsys, "gen", str(spec))
        assert code == 0 and matrix_from_json(out).d == 9

    def test_bad_assignment_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", '{"p":3}')
        assert code == 2 and "hadforge:" in err

    @pytest.mark.parametrize(
        "spec,message",
        [
            ('{"p": 2, "q": 3, "K": 5, "L": 7}', "'int' object is not iterable"),
            ('{"p": 0, "q": 3, "K": [], "L": []}', "p must be at least 1, got 0"),
            ('{"p": 2.5, "q": 3, "K": ["I", "I"], "L": ["F", "F"]}', "cannot be interpreted"),
        ],
        ids=["int-labels", "p-0", "fractional-p"],
    )
    def test_malformed_assignment_is_usage_error(self, capsys, spec, message):
        code, out, err = run(capsys, "gen", spec)
        assert code == 2 and out == ""
        assert err.startswith("hadforge: cannot read assignment") and message in err

    def test_basis_on_both_sides_is_usage_error(self, capsys):
        spec = '{"p":2,"q":3,"K":["I","H1"],"L":["F","H1"]}'
        code, out, err = run(capsys, "gen", spec)
        assert code == 2 and out == ""
        assert err.startswith("hadforge:") and "both sides" in err

    def test_float_mode(self, capsys):
        code, out = jrun(capsys, "gen", S9_JSON, "--mode", "float")
        assert code == 0 and "re" in out and "im" in out

    def test_float_mode_prints_the_exact_build_in_complex_form(self, capsys):
        H = theorem1_build(BlockAssignment.from_json(json.loads(S9_JSON)))
        code, out = jrun(capsys, "gen", S9_JSON, "--mode", "float")
        assert code == 0 and out == json.loads(json.dumps(matrix_to_json(to_complex(H))))

    @pytest.mark.parametrize("dephase", [[], ["--dephase"]])
    def test_modes_auto_and_exact_print_the_same_bytes(self, capsys, dephase):
        modes = ([], ["--mode", "auto"], ["--mode", "exact"])
        outs = {run(capsys, "gen", S9_JSON, *mode, *dephase) for mode in modes}
        assert len(outs) == 1 and next(iter(outs))[0] == 0


class TestDephase:
    def test_writes_matrix_and_move(self, capsys, tmp_path):
        scrambled = apply_equivalence(fourier(4), random_move(4, 8, random.Random(1)))
        src = tmp_path / "in.json"
        dump_matrix(scrambled, str(src))
        mv = tmp_path / "mv.json"
        code, out = jrun(capsys, "dephase", str(src), "--move", str(mv))
        assert code == 0
        Hd = matrix_from_json(out)
        assert all(e == 0 for e in Hd.exp[0])
        assert all(row[0] == 0 for row in Hd.exp)
        move = move_from_json(json.loads(mv.read_text()))
        assert apply_equivalence(scrambled, move) == Hd


class TestUnitary:
    def test_exact_pass(self, capsys, f4):
        code, out = jrun(capsys, "unitary", f4)
        assert code == 0
        assert out == {"unitary": True, "mode": "exact", "d": 4}

    def test_failure_exit_code(self, capsys, tmp_path):
        flat = ExponentMatrix(2, 2, ((0, 0), (0, 0)))
        path = tmp_path / "flat.json"
        dump_matrix(flat, str(path))
        code, out = jrun(capsys, "unitary", str(path))
        assert code == 1 and out["unitary"] is False

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_float_grid_is_not_unitary(self, capsys, tmp_path):
        path = tmp_path / "overflowing.json"
        path.write_text(OVERFLOWING)
        code, out = jrun(capsys, "unitary", str(path))
        assert code == 1 and out == {"unitary": False, "mode": "float", "d": 2}

    def test_composite_large_root_gives_a_verdict_quickly(self, capsys, tmp_path):
        # F2 written at root 20010 = 2 * 3 * 5 * 23 * 29; the exact test
        # runs on the dephased grid at its minimal root 2
        path = tmp_path / "composite_root.json"
        path.write_text('{"d": 2, "root": 20010, "exponents": [[0, 0], [0, 10005]]}')
        start = time.perf_counter()
        code, out = jrun(capsys, "unitary", str(path))
        assert code == 0 and out == {"unitary": True, "mode": "exact", "d": 2}
        assert time.perf_counter() - start < 5

    def test_root_with_a_high_prime_power_gives_a_verdict_quickly(self, capsys, tmp_path):
        # F2 written at root 10^6 = 2^6 * 5^6, tested at its minimal root 2
        path = tmp_path / "prime_power_root.json"
        path.write_text('{"d": 2, "root": 1000000, "exponents": [[0, 0], [0, 500000]]}')
        start = time.perf_counter()
        code, out = jrun(capsys, "unitary", str(path))
        assert code == 0 and out == {"unitary": True, "mode": "exact", "d": 2}
        assert time.perf_counter() - start < 5

    def test_root_with_seven_primes_gives_a_verdict_quickly(self, capsys, tmp_path):
        # F2 written at root 510510 = 2 * 3 * 5 * 7 * 11 * 13 * 17, tested at
        # its minimal root 2
        path = tmp_path / "seven_primes_root.json"
        path.write_text('{"d": 2, "root": 510510, "exponents": [[0, 0], [0, 255255]]}')
        start = time.perf_counter()
        code, out = jrun(capsys, "unitary", str(path))
        assert code == 0 and out == {"unitary": True, "mode": "exact", "d": 2}
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("root", [20010, 10**6, 510510])
    def test_large_minimal_root_gives_a_verdict_quickly(self, capsys, tmp_path, root):
        # a member of the F4 family whose minimal root is the root itself, so
        # the zero test runs at that root along five, two and seven prime
        # axes; one changed entry breaks unitarity
        h = root // 2
        rows = [[0, 0, 0, 0], [0, 1, h, h + 1], [0, h, 0, h], [0, h + 1, h, 1]]
        path = tmp_path / "f4_family.json"
        start = time.perf_counter()
        for entry, code_want in ((0, 0), (1, 1)):
            rows[2][2] = entry
            path.write_text(json.dumps({"d": 4, "root": root, "exponents": rows}))
            code, out = jrun(capsys, "unitary", str(path))
            assert code == code_want and out["unitary"] is (code_want == 0)
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("root", [2**40, 2**62])
    def test_fourier_at_a_huge_root_is_unitary_and_isolated(self, capsys, tmp_path, root):
        # F2 written at root 2^40 or 2^62, with and without row and column
        # phases: n * r coefficient rows at that root would not fit in memory
        path = tmp_path / "f2.json"
        for rows in ([[0, 0], [0, root // 2]], [[0, 0], [1, 1 + root // 2]]):
            path.write_text(json.dumps({"d": 2, "root": root, "exponents": rows}))
            code, out = jrun(capsys, "unitary", str(path))
            assert code == 0 and out == {"unitary": True, "mode": "exact", "d": 2}
            code, out = jrun(capsys, "defect", str(path))
            assert code == 0 and out["defect"] == 0 and out["evidence"]["root"] == 2

    def test_zero_test_above_the_cell_bound_is_usage_error(self, capsys, tmp_path):
        # the minimal root of [[0, 0], [0, 1]] at 2^40 is 2^40 itself
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"d": 2, "root": 2**40, "exponents": [[0, 0], [0, 1]]}))
        start = time.perf_counter()
        for command in ("unitary", "defect", "haagerup"):
            code, out, err = run(capsys, command, str(path))
            assert code == 2 and out == ""
            assert err.startswith("hadforge: ") and "bound" in err and err.count("\n") == 1
        assert time.perf_counter() - start < 5

    def test_large_root_gives_a_verdict_in_little_memory(self, capsys, tmp_path):
        # 20011 is prime and the grid's minimal root, so the zero test runs on
        # one row of 20011 coefficients, with no table of x^k mod Phi_20011
        path = tmp_path / "large_root.json"
        path.write_text('{"d": 2, "root": 20011, "exponents": [[0, 0], [0, 10005]]}')
        tracemalloc.start()
        try:
            code, out = jrun(capsys, "unitary", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == {"unitary": False, "mode": "exact", "d": 2}
        assert peak < 20 * 2**20


class TestButson:
    def test_min_root(self, capsys, f4):
        code, out = jrun(capsys, "butson", f4)
        assert code == 0 and out["min_root"] == 4

    def test_divisibility(self, capsys, f4):
        code, out = jrun(capsys, "butson", f4, "--root", "8")
        assert code == 0 and out["is_butson"] is True
        code, out = jrun(capsys, "butson", f4, "--root", "3")
        assert code == 1 and out["is_butson"] is False

    def test_float_needs_root(self, capsys, f4_float):
        code, _, err = run(capsys, "butson", f4_float)
        assert code == 2 and "root" in err

    def test_float_with_root(self, capsys, f4_float):
        code, out = jrun(capsys, "butson", f4_float, "--root", "4")
        assert code == 0 and out["is_butson"] is True

    def test_exact_flag_refuses_float(self, capsys, f4_float):
        code, _, err = run(capsys, "butson", f4_float, "--exact")
        assert code == 2

    def test_float_root_above_the_limit_is_usage_error(self, capsys, f4, f4_float):
        code, out = jrun(capsys, "butson", f4_float, "--root", str(2**20))
        assert code == 0 and out["is_butson"] is True
        code, out, err = run(capsys, "butson", f4_float, "--root", str(2**20 + 4))
        assert code == 2 and out == "" and err.startswith("hadforge: --root:")
        code, out = jrun(capsys, "butson", f4, "--root", str(2**20 + 4))
        assert code == 0 and out["is_butson"] is True

    @pytest.mark.parametrize("root", ["0", "-4"])
    def test_root_below_one_is_usage_error(self, capsys, f4, f4_float, root):
        for path in (f4, f4_float):
            code, out, err = run(capsys, "butson", path, "--root", root)
            assert code == 2 and out == ""
            assert err.startswith("hadforge:") and err.count("\n") == 1


class TestHaagerup:
    def test_exact_members(self, capsys, tmp_path):
        path = tmp_path / "f3.json"
        dump_matrix(fourier(3), str(path))
        code, out = jrun(capsys, "haagerup", str(path))
        assert code == 0
        assert out["members"] == [[0, 1], [1, 3], [2, 3]]
        assert len(out["fingerprint"]) == 64

    def test_float_angles(self, capsys, f4_float):
        code, out = jrun(capsys, "haagerup", f4_float)
        assert code == 0 and len(out["angles"]) == out["size"] == 4
        assert "fingerprint" not in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("grid", [TWIN_ROWS, OVERFLOWING], ids=["twin_rows", "overflowing"])
    def test_non_unitary_grid_is_refused(self, capsys, tmp_path, grid):
        # rows 1 and 2 of TWIN_ROWS are equal; OVERFLOWING's Gram matrix
        # overflows to inf, and its quadruple products would too
        path = tmp_path / "grid.json"
        path.write_text(grid)
        code, out, err = run(capsys, "haagerup", str(path))
        assert code == 2 and out == ""
        assert err == "hadforge: matrix is not unitary, so it has no Haagerup set\n"


class TestDefect:
    def test_exact(self, capsys, f4):
        code, out = jrun(capsys, "defect", f4)
        assert code == 0
        assert out["defect"] == 1 and out["mode"] == "exact"
        assert out["isolated"] is False and out["variables"] == 9

    def test_float(self, capsys, f4_float):
        code, out = jrun(capsys, "defect", f4_float)
        assert code == 0 and out["defect"] == 1 and out["mode"] == "float"

    def test_exact_mode_on_float_input(self, capsys, f4_float):
        code, _, err = run(capsys, "defect", f4_float, "--mode", "exact")
        assert code == 2

    def test_non_unitary_grid_is_refused(self, capsys, tmp_path):
        path = tmp_path / "twin_rows.json"
        path.write_text('{"d":3,"root":3,"exponents":[[0,0,0],[0,1,2],[0,1,2]]}')
        code, out, err = run(capsys, "defect", str(path))
        assert code == 2 and out == ""
        assert err.startswith("hadforge:") and "not unitary" in err

    @pytest.mark.parametrize(
        "grid",
        [
            '{"d":2,"root":0,"exponents":[[0,0],[0,1]]}',
            '{"d":2,"root":2.5,"exponents":[[0,0],[0,1]]}',
            '{"d":2,"root":4,"exponents":[[0,0],[0,1.5]]}',
        ],
        ids=["root-0", "fractional-root", "fractional-exponent"],
    )
    def test_malformed_grid_is_usage_error(self, capsys, tmp_path, grid):
        path = tmp_path / "bad.json"
        path.write_text(grid)
        code, out, err = run(capsys, "defect", str(path))
        assert code == 2 and out == ""
        assert err.startswith("hadforge: cannot read matrix")

    @pytest.mark.parametrize("command", ["defect", "haagerup"])
    def test_empty_grid_is_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "empty.json"
        path.write_text(EMPTY_GRID)
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err.startswith("hadforge: cannot read matrix") and "order must be positive" in err

    @pytest.mark.parametrize(
        "root, message",
        [
            # no k in [59, 118) makes k * 281992 + 1 prime
            (281992, "no prime l = 1 (mod 281992)"),
            # phi(10^6) = 400000 coefficients per entry of a null vector
            (10**6, "phi(1000000) = 400000"),
        ],
    )
    def test_uncertifiable_large_root_is_usage_error(self, capsys, tmp_path, root, message):
        # a member of the F4 family, which has defect 1 at every root
        q, h = root // 4, root // 2
        rows = [[0, 0, 0, 0], [0, q + 1, h, 3 * q + 1], [0, h, 0, h], [0, 3 * q + 1, h, q + 1]]
        path = tmp_path / "f4_family.json"
        path.write_text(json.dumps({"d": 4, "root": root, "exponents": rows}))
        start = time.perf_counter()
        code, out, err = run(capsys, "defect", str(path))
        assert code == 2 and out == ""
        assert err.startswith("hadforge: ") and message in err and err.count("\n") == 1
        assert time.perf_counter() - start < 10

    def test_indeterminate_exit(self, capsys, f4_float, monkeypatch):
        def murky_svd(M, compute_uv=True):
            n = min(M.shape)
            return np.array([1.0] + [0.5] * (n - 2) + [1e-12])

        monkeypatch.setattr(np.linalg, "svd", murky_svd)
        code, out = jrun(capsys, "defect", f4_float)
        assert code == 3 and out["indeterminate"] is True


class TestMub:
    def test_basic(self, capsys):
        code, out = jrun(capsys, "mub", "3")
        assert code == 0
        assert len(out["bases"]) == 4

    def test_triangular_diagonal(self, capsys):
        code, out = jrun(capsys, "mub", "7", "--diagonal", "triangular")
        assert code == 0

    def test_composite_rejected(self, capsys):
        code, _, err = run(capsys, "mub", "6")
        assert code == 2 and "hadforge:" in err

    def test_order_beyond_the_primality_test_rejected(self, capsys):
        code, _, err = run(capsys, "mub", str(10**27 + 7))
        assert code == 2 and "too large" in err


class TestCatalog:
    def test_list(self, capsys):
        code, out = jrun(capsys, "catalog", "list")
        assert code == 0 and len(out) == 14
        assert out[0]["name"] == "S6" and out[-1]["name"] == "S91"

    def test_show_with_matrix(self, capsys):
        code, out = jrun(capsys, "catalog", "show", "S9", "--matrix")
        assert code == 0 and out["expected_root"] == 6
        assert matrix_from_json(out["matrix"]).d == 9

    def test_show_unknown(self, capsys):
        code, _, err = run(capsys, "catalog", "show", "S8")
        assert code == 2

    def test_verify_subset(self, capsys, tmp_path):
        report = tmp_path / "rep.json"
        code, out, _ = run(
            capsys, "catalog", "verify", "S9", "S10", "--json", str(report)
        )
        assert code == 0 and "all checks passed" in out
        assert json.loads(report.read_text())["all_pass"] is True


def test_search_smallest(capsys):
    code, out = jrun(capsys, "search", "2", "2")
    assert code == 0
    assert out["examined"] == 3 and out["isolated"] == []
    assert out["partial"] is False


def test_search_summary_on_stderr(capsys):
    code, out, err = run(capsys, "search", "2", "5")
    assert code == 0 and json.loads(out)["examined"] == 21
    assert re.fullmatch(
        r"hadforge: search 2 5: 21 candidates in 11 orbits, 2 classes, "
        r"1 isolated, \d+\.\d s\n",
        err,
    )


def test_search_summary_counts_conjugation_orbits(capsys):
    # q = 7 is 3 mod 4, so -1 joins the squares and every unit is a multiplier
    code, out, err = run(capsys, "search", "2", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_SHA256["search 2 7"]
    assert re.fullmatch(
        r"hadforge: search 2 7: 43 candidates in 8 orbits, 2 classes, "
        r"1 isolated, \d+\.\d s\n",
        err,
    )


def test_search_summary_names_a_budget_stop(capsys):
    code, out, err = run(capsys, "search", "2", "5", "--budget", "3")
    assert code == 0 and json.loads(out)["partial"] is True
    assert re.fullmatch(
        r"hadforge: search 2 5: 3 candidates in 2 orbits, 1 classes, "
        r"0 isolated, \d+\.\d s, stopped by budget\n",
        err,
    )


def test_search_summary_names_a_time_limit_stop(capsys):
    code, out, err = run(capsys, "search", "2", "3", "--time-limit", "0")
    assert code == 0 and json.loads(out)["partial"] is True
    assert re.fullmatch(
        r"hadforge: search 2 3: 0 candidates in 0 orbits, 0 classes, "
        r"0 isolated, \d+\.\d s, stopped by time limit\n",
        err,
    )


@pytest.mark.parametrize("limit", ["--budget", "--time-limit"])
def test_search_zero_limit_examines_nothing(capsys, limit):
    code, out = jrun(capsys, "search", "2", "3", limit, "0")
    assert code == 0
    assert out["examined"] == 0 and out["partial"] is True
    assert out["classes"] == [] and out["isolated"] == []


@pytest.mark.parametrize(
    "limit,message",
    [
        ("--budget", "budget must be non-negative, got -1"),
        ("--time-limit", "time limit must be non-negative, got -1.0"),
    ],
)
def test_search_negative_limit_is_usage_error(capsys, limit, message):
    code, out, err = run(capsys, "search", "2", "3", limit, "-1")
    assert code == 2 and out == ""
    assert err == f"hadforge: {message}\n"


def test_search_composite_q_is_usage_error(capsys):
    code, out, err = run(capsys, "search", "2", "4")
    assert code == 2 and out == ""
    assert err == "hadforge: 4 is not prime\n"


def test_search_p_below_one_is_usage_error(capsys):
    code, out, err = run(capsys, "search", "0", "3")
    assert code == 2 and out == ""
    assert err.startswith("hadforge:") and err.count("\n") == 1


def test_compare(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_matrix(catalog.load("S9"), str(a))
    dump_matrix(fourier(9), str(b))
    code, out = jrun(capsys, "compare", str(a), str(b))
    assert code == 0
    assert out["verdict"] == "inequivalent" and out["reasons"]
    assert out["defect"] == [0, 4]


def test_compare_refuses_a_non_unitary_grid(capsys, tmp_path):
    flat, f3 = tmp_path / "flat.json", tmp_path / "f3.json"
    flat.write_text('{"d":3,"root":1,"exponents":[[0,0,0],[0,0,0],[0,0,0]]}')
    dump_matrix(fourier(3), str(f3))
    for a, b in ((flat, f3), (f3, flat)):
        code, out, err = run(capsys, "compare", str(a), str(b))
        assert code == 2 and out == ""
        assert err.startswith("hadforge:") and "not unitary" in err


def test_output_flag_writes_file(capsys, f4, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "unitary", f4, "-o", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["unitary"] is True


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "catalog", "list")
    _, second, _ = run(capsys, "catalog", "list")
    assert first == second
    _, g1, _ = run(capsys, "gen", S9_JSON)
    _, g2, _ = run(capsys, "gen", S9_JSON)
    assert g1 == g2


# ----------------------------------------------------------------------
# every JSON-reading command on malformed input
# ----------------------------------------------------------------------

# wrong types, nulls, fractions, negatives and huge values; each huge
# integer is even with magnitude at least 2^63, where roots are refused, so
# no example spends its time on a valid but huge root order or prime
MALFORMED = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, -1, -4, 2**63, 2**64, 10**30, -(2**70)]),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


def corrupt(draw, obj, grids=()):
    """obj with up to two corruptions: a field replaced by a malformed value,
    a missing key, a malformed cell or a ragged row in one of the grids, or
    a malformed value in place of the whole object."""
    kinds = ["field", "missing"] + (["cell", "ragged"] if grids else []) + ["whole"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=2)):
        if not isinstance(obj, dict) or not obj:
            break
        key = draw(st.sampled_from(sorted(obj)))
        # a label list, or the last row of a matrix grid
        cells = obj.get(draw(st.sampled_from(grids))) if grids else None
        if isinstance(cells, list) and cells and isinstance(cells[-1], list):
            cells = cells[-1]
        if kind == "field":
            obj[key] = draw(MALFORMED)
        elif kind == "missing":
            del obj[key]
        elif kind == "cell" and isinstance(cells, list) and cells:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(MALFORMED)
        elif kind == "ragged" and isinstance(cells, list):
            if cells and draw(st.booleans()):
                cells.pop()
            else:
                cells.append(0)
        elif kind == "whole":
            obj = draw(MALFORMED)
    return obj


@st.composite
def matrix_json(draw):
    """An exponent or complex grid of order at most 6, the Fourier matrix or
    random, then corrupted."""
    d = draw(st.integers(0, 6))
    fourier_grid = draw(st.booleans())
    if fourier_grid:
        exponents = [[i * j for j in range(d)] for i in range(d)]
    else:
        row = st.lists(st.integers(0, 11), min_size=d, max_size=d)
        exponents = draw(st.lists(row, min_size=d, max_size=d))
    if draw(st.booleans()):
        shift = draw(st.sampled_from([0, -d, 2**70]))  # huge exponents, same grid
        root = d if fourier_grid else draw(st.integers(1, 12))
        grid = [[e + shift for e in row] for row in exponents]
        obj = {"d": d, "root": root, "exponents": grid}
        return corrupt(draw, obj, ["exponents"])
    phases = 2 * np.pi * np.array(exponents, dtype=float).reshape(d, d) / max(d, 1)
    obj = {"d": d, "re": np.cos(phases).tolist(), "im": np.sin(phases).tolist()}
    return corrupt(draw, obj, ["re", "im"])


@st.composite
def assignment_json(draw):
    p, q = draw(st.sampled_from([(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]))
    hadamard = [f"H{j}" for j in range(1, q)]
    free = st.lists(st.sampled_from(["I"] + hadamard), min_size=p - 1, max_size=p - 1)
    k_labels, l_labels = draw(free), draw(free)
    obj = {
        "p": p,
        "q": q,
        "K": ["I"] + k_labels,
        "L": ["F"] + ["F" if x == "I" else x for x in l_labels],
    }
    return corrupt(draw, obj, ["K", "L"])


COMMAND_INPUTS = st.one_of(
    st.tuples(st.just(["gen"]), assignment_json().map(lambda a: [a])),
    st.tuples(
        st.sampled_from(
            [
                ["dephase"],
                ["unitary"],
                ["butson"],
                ["butson", "--root", "4"],
                ["haagerup"],
                ["defect"],
                ["defect", "--mode", "float"],
            ]
        ),
        st.lists(matrix_json(), min_size=1, max_size=1),
    ),
    st.tuples(st.just(["compare"]), st.lists(matrix_json(), min_size=2, max_size=2)),
)


@given(COMMAND_INPUTS)
@example((["gen"], [{"p": 2, "q": 3, "K": 5, "L": 7}]))
@example((["defect"], [json.loads(EMPTY_GRID)]))
@example((["haagerup"], [json.loads(EMPTY_GRID)]))
@example((["unitary"], [{"d": 2, "root": 2**40, "exponents": [[0, 0], [0, 2**39]]}]))
@example((["defect"], [{"d": 2, "root": 2**40, "exponents": [[0, 0], [0, 2**39]]}]))
@example((["unitary"], [{"d": 2, "root": 2**62, "exponents": [[0, 0], [0, 2**61]]}]))
@example((["defect"], [{"d": 2, "root": 2**62, "exponents": [[0, 0], [0, 2**61]]}]))
@example((["compare"], [{"d": 2, "root": 2**40, "exponents": [[0, 0], [0, 1]]}] * 2))
@settings(max_examples=200, deadline=None)
def test_json_commands_never_show_a_traceback(command_inputs):
    command, objs = command_inputs
    with tempfile.TemporaryDirectory() as tmp:
        if command == ["gen"]:
            args = [json.dumps(objs[0])]
        else:
            args = []
            for k, obj in enumerate(objs):
                path = Path(tmp) / f"m{k}.json"
                path.write_text(json.dumps(obj))
                args.append(str(path))
        argv = command[:1] + args + command[1:]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: an inline spec that reads as an option
                code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


# ----------------------------------------------------------------------
# frozen output bytes
# ----------------------------------------------------------------------

_NAMES = catalog.names()
S9_TO_S35 = _NAMES[_NAMES.index("S9") : _NAMES.index("S35") + 1]


def frozen_output(case: str, tmp: Path) -> bytes:
    """stdout of one CLI call named "<command> <argument>", followed by the
    move file for `dephase --move`.  Matrix arguments are catalog names,
    dumped to a file first."""
    command, arg = case.split(" ", 1)
    if command == "gen":
        argv = ["gen", json.dumps(catalog.entry(arg).recipe), "--dephase"]
    elif command in ("mub", "search"):
        argv = [command, *arg.split()]
    else:
        path = tmp / f"{arg}.json"
        dump_matrix(catalog.load(arg), str(path))
        argv = [command, str(path)]
        argv += {"dephase": ["--move", str(tmp / "move.json")], "defect": ["--mode", "exact"]}.get(
            command, []
        )
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    data = out.getvalue().encode()
    if command == "dephase":
        data += (tmp / "move.json").read_bytes()
    return data


FROZEN_CASES = (
    [f"gen {n}" for n in _NAMES if catalog.entry(n).recipe is not None]
    + [f"{c} {n}" for c in ("dephase", "butson", "haagerup", "defect") for n in S9_TO_S35]
    + [f"mub {q}" for q in (2, 3, 5, 7)]
    + ["search 3 5", "search 2 7"]
)

# sha256 of each case's bytes; exponent grids and moves must reach JSON as
# plain integers, so these pin the output of every exact layer
FROZEN_SHA256 = {
    "gen S6": "33c47156757ba84299660038eaa988bd5e8a498987ac60ae7e907c99d6b1208b",
    "gen S9": "8a019a4c2459879752830c7a287319ad3ae55cf9f4f0a0db3a331f3b08f23533",
    "gen S10": "4cbad567808c86ed472215854b2e1f74ffc5cfe39a041e4912b75525b96b7314",
    "gen Sp10": "697a84285cec97d7c84d200019c93b644e5f2c77f9772f0c3b964a2ab773aaa0",
    "gen S14": "6f760ce793f4fa184b7124ffd1f904319e0847a33fe99846b4fb463a4f4c3548",
    "gen Sp14": "25c2b753368c0bb8e733bc1791048feab95d191f5c279033a486c062405cdd76",
    "gen S15": "522eb1cee195d5c0deba1c3f19a58d6764378c114a4e843af4170f707d376f55",
    "gen S25": "ed5c0207f4ba933e1cee6d07e0fda223b09bae82bcf9559ea08122962442bd2e",
    "gen S35": "2691d74cf3a457b7e9b01012928dba245e97fbed8402180d0bed6c7835e72302",
    "gen S49": "3d1143396bcdbb0f5d7d2b9cfa76e596114a6c05531f0418d9c0679652558c18",
    "gen S77": "870f2bf08754f8085f37ebdc353d38a547aeb9b8d902a08421b530c1f3caa2a9",
    "gen S91": "6dd01039a05754cf36f08ec8602c7dfaebfb5c0a2cea06857fbc8c5ddec54d0d",
    "dephase S9": "533696980989ac99eba5bf66ede8c18abcb995b107893baea4754d69bee5c6a1",
    "dephase S10": "760f2d1d2c1e355a369616a87684f66d84293d4b24a1e5950f90f1134c663c3f",
    "dephase Sp10": "c4ec625602c83ade7ad14f4a546e15a8a33df664e8c6ae3dfe4d110b6a8dd9f4",
    "dephase B10": "9c8ed8dc3cbf6b646ee6583c45f01799ca3c0c47e98ec60fb572d78d586c0e1e",
    "dephase S14": "3146a0aac061a80bfaa5d74d19e6c05ebe60e8bad3ad3fb75517fa0b4fcfc6d7",
    "dephase Sp14": "d0cbe5eab8e775e3dad716f9b77aecc4e3dca2d23f28e20f2ec76006f97d738e",
    "dephase B14": "ddf739b5b850e091bcb8a4fedc446bb09a8df5b1d3da302651ff9bc14ef6a853",
    "dephase S15": "01c8feddebd853b7e09e6a639623b9f27b1ef5a339a5c4f582a7624f714c33b2",
    "dephase S25": "80b382cd7bc00b92f58e9165ea3c6dd7f0bba9415e44877bb47696d860e6197d",
    "dephase S35": "7ae33cbc8220c6fa4ae847c9913e3ec4e3f7e14108ef03f9d336849f34a93173",
    "butson S9": "0ac56e6d96b1dbc0066f35ec002a252a8bb0bcb0297312e8de019abcf0e80a8c",
    "butson S10": "1906c0885a13995bb9c25e01c1854fe456683429372acfeae5b60ddffaf1cea8",
    "butson Sp10": "ed40216ed672ae407c4c7d74062ed73941ab13244d183dd3cfd8ab2a6d588134",
    "butson B10": "1906c0885a13995bb9c25e01c1854fe456683429372acfeae5b60ddffaf1cea8",
    "butson S14": "e4feefdade94ea9e4e71e71503e23bc1675b371475dd5bf7993442d038a38237",
    "butson Sp14": "5cf92af0e234f728a45c7699810b821792b5747beb97147cb220c7dba676faa1",
    "butson B14": "e4feefdade94ea9e4e71e71503e23bc1675b371475dd5bf7993442d038a38237",
    "butson S15": "4626a45b8ecdda396044de5693f40be5b813c2b47349d8826d35f4330e96d90f",
    "butson S25": "41663ea21d299614c6ee09b8a156bf94bd1264eb585fb5b9830d5a6ac4c452a0",
    "butson S35": "0ffab3c3501fbd5bcf16c707f6d3d978da4f5e74f9f905f1a7ac920b8fa51a67",
    "haagerup S9": "70a8f9a75ee6f530417863587a8ff1692ddebce4b2b7bbc45586a2a089d3a0c6",
    "haagerup S10": "1e8d84a8a70fbd294bb35dd40ed915e2f1d96515d7c1b2cf9ea1338bf55439fd",
    "haagerup Sp10": "8bdfba36d6f18aff4b613c13ceb6ba8fc12456c29d48fe731c6b5ad7923d50a7",
    "haagerup B10": "1e8d84a8a70fbd294bb35dd40ed915e2f1d96515d7c1b2cf9ea1338bf55439fd",
    "haagerup S14": "1f72acb783fb66681f9f4d4c0c85d02bc9a54c11e7f1852d96eff97ebd243c47",
    "haagerup Sp14": "18f9c85e40828061f352a6a3e2f29318c11f2e8274a54e6b980cbb20e31012e2",
    "haagerup B14": "1f72acb783fb66681f9f4d4c0c85d02bc9a54c11e7f1852d96eff97ebd243c47",
    "haagerup S15": "2248beeadc0ac478b7de3be4218e8b1650e25a8238a24d08480351e85f1738b0",
    "haagerup S25": "88ef36dbabef262adcf7f05d6bffab223bf6be9d1e92730bec1daff9c09f128a",
    "haagerup S35": "e7aebea903f1f266abd736e9e513d3d2e9e713a209a397373a6c7e28e6b6c2ef",
    "defect S9": "50d6f561c3a854ad575ea2d94d953ed665c4c16e63ab011e6995887bc787cfbb",
    "defect S10": "7e79ee7d5eb76262eafb9ec717783a37d90b170665e0014541b34e406f253170",
    "defect Sp10": "48fb17a302bdcedc98feca567869c34f1636123c0b209c08efd0d1158b8991d2",
    "defect B10": "7e79ee7d5eb76262eafb9ec717783a37d90b170665e0014541b34e406f253170",
    "defect S14": "4022c3eb40c16ce0ad42ed319d1f9c5326525e0597143e3c41f08f6e2b8d806c",
    "defect Sp14": "14600fcec4b7a9c4d2055b197be5a37bb1a19deeb42270bb1bb5ffd776e07cbf",
    "defect B14": "4022c3eb40c16ce0ad42ed319d1f9c5326525e0597143e3c41f08f6e2b8d806c",
    "defect S15": "f8f4c910de8713da5e2b4f4cdd70a6dafb788bf0a3d2633f6b1042cdb19a154a",
    "defect S25": "726d5bbdb9a5e7e6c7abc19ec3d9a9c473e4833985f1193f33e749857d77358e",
    "defect S35": "d950dfc86e9bf6dd5a3cf086efd5296ccabe63caf9dad9b3cf7fe920bcef2f87",
    "mub 2": "7f32d807634b842fae91a0f30c482a0ec7c4aebc174bf2938d1a99ac23b7dd3d",
    "mub 3": "fa7f323b065eebef0c33e3423bec64cfd5f184e852f6be109f687e6c221cba6b",
    "mub 5": "92211469f4e524f49d14dd6842631b2f2197bbb09542556c3dc44c23cd3cfaf7",
    "mub 7": "f45affe9066e4dc6513af5a6f842029df51d3b91a99f709e164bb262974634c1",
    "search 3 5": "ae9dca1ae168bee8fc166a63330d723c2321e1fc4fc2d006eed8e1317c64e22a",
    "search 2 7": "fef1ff5d2f6f472394e69a02eb081ce404a0ade6f114ce0bd1bf7cc1568fcf39",
}


@pytest.mark.parametrize("case", FROZEN_CASES)
def test_output_bytes_are_frozen(case, tmp_path):
    assert hashlib.sha256(frozen_output(case, tmp_path)).hexdigest() == FROZEN_SHA256[case]
