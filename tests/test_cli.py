import contextlib
import io
import json
import random
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadforge import catalog
from hadforge.cli import main
from hadforge.matrices import (
    ExponentMatrix,
    apply_equivalence,
    dump_matrix,
    matrix_from_json,
    move_from_json,
    random_move,
    to_complex,
)
from hadforge.mub import fourier

S9_JSON = '{"p":3,"q":3,"K":["I","I","H1"],"L":["F","F","H2"]}'
EMPTY_GRID = '{"d": 0, "root": 4, "exponents": []}'


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
