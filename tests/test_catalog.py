import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from hadforge import catalog
from hadforge.analyze import fingerprint
from hadforge.matrices import ExponentMatrix, is_butson, is_unitary, to_complex


EXPECTED_ORDER = [
    "S6", "S9", "S10", "Sp10", "B10", "S14", "Sp14", "B14",
    "S15", "S25", "S35", "S49", "S77", "S91",
]


def test_names_and_order():
    assert catalog.names() == EXPECTED_ORDER


@pytest.mark.parametrize("name", EXPECTED_ORDER)
def test_complex_grid_is_butson_at_its_expected_root(name):
    assert is_butson(to_complex(catalog.load(name)), catalog.entry(name).expected_root)


def test_catalog_data_comes_from_its_own_package(monkeypatch):
    # the package loaded under a second name, with "hadforge" unimportable
    pkg = Path(catalog.__file__).parent
    spec = importlib.util.spec_from_file_location(
        "hadforge_second", pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    try:
        sys.modules["hadforge_second"] = module
        spec.loader.exec_module(module)
        second = importlib.import_module("hadforge_second.catalog")
        monkeypatch.setitem(sys.modules, "hadforge", None)
        assert second.names() == EXPECTED_ORDER
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "hadforge_second"]:
            del sys.modules[name]


def test_catalog_is_parsed_once_and_entries_hand_out_copies():
    assert catalog._raw() is catalog._raw()
    e = catalog.entry("S9")
    e.recipe["K"].append("H1")
    e.recipe["p"] = 7
    assert catalog.entry("S9").recipe == {"p": 3, "q": 3, "K": ["I", "I", "H1"], "L": ["F", "F", "H2"]}


@pytest.mark.parametrize("name,d,root,dft", [
    ("S6", 6, 3, 0),
    ("S9", 9, 6, 0),
    ("Sp10", 10, 10, 8),
    ("Sp14", 14, 14, 12),
    ("S91", 91, 182, 0),
])
def test_entry_metadata(name, d, root, dft):
    e = catalog.entry(name)
    assert (e.d, e.expected_root, e.expected_defect) == (d, root, dft)
    assert e.notes


def test_entry_shapes():
    # recipe-only, literal-only, and dual-form entries all occur
    s25 = catalog.entry("S25")
    assert s25.recipe is not None and s25.literal is None
    b10 = catalog.entry("B10")
    assert b10.recipe is None and isinstance(b10.literal, ExponentMatrix)
    s9 = catalog.entry("S9")
    assert s9.recipe is not None and s9.literal is not None
    assert s9.literal_check == "equal"
    assert catalog.entry("S6").literal_check == "equivalence"


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        catalog.entry("S8")
    with pytest.raises(KeyError):
        catalog.assignment("nope")
    with pytest.raises(KeyError):
        catalog.verify_all(["S9", "bogus"])


def test_assignment_needs_a_recipe():
    a = catalog.assignment("S10")
    assert (a.p, a.q) == (2, 5)
    with pytest.raises(ValueError):
        catalog.assignment("B10")


def test_load_prefers_literal():
    assert catalog.load("S9") == catalog.entry("S9").literal
    assert catalog.load("S9") == catalog.build("S9")
    # recipe-only entries are built on demand
    H = catalog.load("S25")
    assert H.d == 25 and is_unitary(H)


def test_builds_are_dephased_and_reduced():
    H = catalog.build("S10")
    assert H.r == 5
    assert all(H.exp[0][k] == 0 for k in range(10))
    assert all(H.exp[j][0] == 0 for j in range(10))


def test_distinct_fingerprints_at_order_10():
    # S10 and Sp10 differ already by defect; B10 matches S10 here
    assert fingerprint(catalog.load("S10")) == fingerprint(catalog.load("B10"))
    assert fingerprint(catalog.load("S10")) != fingerprint(catalog.load("Sp10"))


def test_verify_single_entry():
    rep = catalog.verify("S9")
    assert rep["pass"] and rep["d"] == 9
    checks = rep["checks"]
    assert checks["unitary"]["pass"]
    assert checks["butson_root"] == {
        "pass": True, "computed": 6, "expected": 6, "refined": False,
    }
    assert checks["defect"]["mode"] == "exact" and checks["defect"]["computed"] == 0
    assert checks["literal_matches_recipe"]["method"] == "equal"


def test_verify_equivalence_checked_entry():
    rep = catalog.verify("S6")
    assert rep["pass"]
    assert rep["checks"]["literal_matches_recipe"] == {
        "pass": True, "method": "equivalence",
    }


def test_verify_all_subset_and_report():
    out = catalog.verify_all(["S9", "S10", "Sp10"])
    assert out["all_pass"]
    assert [r["name"] for r in out["entries"]] == ["S9", "S10", "Sp10"]
    text = catalog.format_report(out)
    assert "all checks passed" in text
    for name in ("S9", "S10", "Sp10"):
        assert name in text


def test_format_report_flags_failures():
    out = catalog.verify_all(["S9"])
    out["entries"][0]["pass"] = False
    out["all_pass"] = False
    assert "FAILURES PRESENT" in catalog.format_report(out)
    assert "FAIL" in catalog.format_report(out)
