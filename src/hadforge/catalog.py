"""Reference catalog of Butson-type Hadamard matrices with verification.

Each entry carries an expected minimal Butson root and defect, plus a block
assignment recipe, a literal exponent grid, or both.  `verify` recomputes
everything from scratch — exact unitarity, minimal root, the exactly
certified defect, and literal/recipe agreement — and reports
machine-readable evidence.
"""

from __future__ import annotations

import copy
import functools
import json
import time
from dataclasses import dataclass
from importlib.resources import files
from typing import Dict, List, Optional

from .analyze import _build_defect, defect
from .construct import BlockAssignment, theorem1_build
from .matrices import (
    ExponentMatrix,
    butson_min_root,
    dephase,
    equivalence_search_small,
    is_unitary,
    matrix_from_json,
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    d: int
    expected_root: int
    expected_defect: int
    notes: str
    recipe: Optional[dict] = None
    literal: Optional[ExponentMatrix] = None
    literal_check: Optional[str] = None  # "equal" or "equivalence"


@functools.lru_cache(maxsize=None)
def _raw() -> dict:
    """The parsed catalog, read once per process.  Callers only read it:
    `entry` hands out a copy of every mutable part it returns."""
    text = files(__package__).joinpath("data/catalog.json").read_text()
    return json.loads(text)


def names() -> List[str]:
    return list(_raw()["order"])


def entry(name: str) -> CatalogEntry:
    try:
        e = _raw()["entries"][name]
    except KeyError:
        raise KeyError(f"no catalog entry named {name!r}") from None
    lit = matrix_from_json(e["literal"]) if "literal" in e else None
    return CatalogEntry(
        name=name,
        d=e["d"],
        expected_root=e["expected_root"],
        expected_defect=e["expected_defect"],
        notes=e["notes"],
        recipe=copy.deepcopy(e.get("recipe")),
        literal=lit,
        literal_check=e.get("literal_check"),
    )


def assignment(name: str) -> BlockAssignment:
    e = entry(name)
    if e.recipe is None:
        raise ValueError(f"{name} is stored as a literal grid only")
    r = e.recipe
    return BlockAssignment.from_labels(
        r["p"], r["q"], tuple(r["K"]), tuple(r["L"])
    )


def build(name: str) -> ExponentMatrix:
    """Dephased exact build from the entry's recipe, at its minimal root."""
    H = theorem1_build(assignment(name))
    return butson_min_root(dephase(H)[0])[1]


def load(name: str) -> ExponentMatrix:
    """The entry's representative matrix: the literal grid when one is
    stored, otherwise the dephased recipe build."""
    e = entry(name)
    return e.literal if e.literal is not None else build(name)


def verify(name: str) -> dict:
    """Recompute and check every stored expectation for one entry.

    The defect is certified exactly (every entry is an exponent grid):
    through the Weyl-Heisenberg split of the recipe's build when the grid
    tested is that build and unitary, and through `defect` otherwise.  When
    the recomputed minimal root is a proper divisor of the stored one, both
    are reported and the root check is flagged refined rather than failed.
    """
    e = entry(name)
    t_start = time.perf_counter()
    checks: Dict[str, dict] = {}

    built = build(name) if e.recipe is not None else None
    H = e.literal if e.literal is not None else built

    t = time.perf_counter()
    unitary = is_unitary(H)
    checks["unitary"] = {"pass": unitary, "seconds": round(time.perf_counter() - t, 3)}

    root, _ = butson_min_root(H)
    refined = root != e.expected_root and e.expected_root % root == 0
    checks["butson_root"] = {
        "pass": root == e.expected_root or refined,
        "computed": root,
        "expected": e.expected_root,
        "refined": refined,
    }

    t = time.perf_counter()
    if unitary and built is not None and H == built:
        rep = _build_defect(assignment(name), built, certify=True)
    else:
        rep = defect(H, mode="exact")
    checks["defect"] = {
        "pass": rep.defect == e.expected_defect,
        "computed": rep.defect,
        "expected": e.expected_defect,
        "mode": rep.mode,
        "seconds": round(time.perf_counter() - t, 3),
    }

    if e.literal is not None and e.recipe is not None:
        if e.literal_check == "equivalence":
            ok = equivalence_search_small(built, e.literal) is not None
        else:
            ok = built == e.literal
        checks["literal_matches_recipe"] = {
            "pass": ok,
            "method": e.literal_check or "equal",
        }

    return {
        "name": name,
        "d": e.d,
        "pass": all(c["pass"] for c in checks.values()),
        "checks": checks,
        "seconds": round(time.perf_counter() - t_start, 3),
    }


def verify_all(subset: Optional[List[str]] = None) -> dict:
    """Verify every entry (or a subset), in order."""
    todo = list(subset) if subset is not None else names()
    unknown = [n for n in todo if n not in _raw()["entries"]]
    if unknown:
        raise KeyError(f"no catalog entry named {unknown[0]!r}")
    reports = [verify(n) for n in todo]
    return {"entries": reports, "all_pass": all(r["pass"] for r in reports)}


def format_report(report: dict) -> str:
    """Human-readable table for a verify_all report."""
    head = f"{'name':<6} {'d':>3} {'root':>9} {'defect':>11} {'grid':>6} {'ok':>4} {'sec':>8}"
    lines = [head, "-" * len(head)]
    for r in report["entries"]:
        c = r["checks"]
        root = c["butson_root"]
        droot = f"{root['computed']}/{root['expected']}"
        if root["refined"]:
            droot += "*"
        dd = c["defect"]
        ddef = f"{dd['computed']}/{dd['expected']}({dd['mode'][0]})"
        grid = c.get("literal_matches_recipe")
        gtxt = "-" if grid is None else ("yes" if grid["pass"] else "NO")
        ok = "ok" if r["pass"] else "FAIL"
        lines.append(
            f"{r['name']:<6} {r['d']:>3} {droot:>9} {ddef:>11} {gtxt:>6} {ok:>4} {r['seconds']:>8.2f}"
        )
    lines.append("all checks passed" if report["all_pass"] else "FAILURES PRESENT")
    return "\n".join(lines)
