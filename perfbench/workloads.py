"""The two certification workloads: their inputs, items and frozen checks.

An item is one certification request.  `build(name, seed)` makes a
workload's untimed inputs and returns its items in submission order; each
item's `run` calls only public hadforge functions and returns the observed
outcome, which must equal the item's frozen expectation.  Every call goes
through a module attribute at call time, so a traced pass sees the wrappers
that `tracing.Tracer` installs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

from hadforge import analyze, catalog, cyclotomic, matrices, mub

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

WORKLOADS = ("catalog-exact", "search")

# The item with the smallest order of each workload, for the harness self-check.
SMALLEST = {
    "catalog-exact": "S9",
    "search": "2x7",
}

# The largest cyclotomic orders each workload's items reach (recorded by
# wrapping cyclotomic_polynomial over whole passes).  Warming an order warms
# all of its divisors.
_ROOTS = {
    "catalog-exact": (60, 140),
    "search": (28, 60),
}


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[], dict]
    expect: dict


def build(name: str, seed: int) -> List[Item]:
    """Untimed inputs of workload `name` for `seed`, plus a warm-up that
    fills lazy state (the cyclotomic-polynomial cache for the orders the
    items reach, first-call imports) with inputs smaller than any item."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    for r in _ROOTS[name]:
        cyclotomic.cyclotomic_polynomial(r)
    items = _BUILDERS[name](random.Random(seed))
    _WARMUPS[name]()
    return items


# ----------------------------------------------------------------------
# catalog-exact: `hadforge catalog verify S9 ... S35`
# ----------------------------------------------------------------------

def _catalog_exact(rng: random.Random) -> List[Item]:
    # S6 is left out because its literal equivalence search outweighs its
    # certificate; S49 (17 s) because a run must repeat every item several
    # times; Sp14 because its 1.9 s null-vector check is pure-Python
    # arithmetic, which the machine's noise slows most.  Sp10 takes the
    # null-vector branch of the certificate; the others are full rank.
    expected = EXPECTED["catalog-exact"]

    def verify(name: str) -> dict:
        report = catalog.verify(name)
        return {"pass": report["pass"], "defect_mode": report["checks"]["defect"]["mode"]}

    return [Item(n, lambda n=n: verify(n), expected[n]) for n in expected]


def _warm_catalog() -> None:
    # the steps of catalog.verify on F3, smaller than the smallest entry (d = 9)
    catalog.entry("S6")
    F3 = mub.fourier(3)
    matrices.is_unitary(F3)
    matrices.butson_min_root(F3)
    analyze.defect(F3, mode="exact")


# ----------------------------------------------------------------------
# search: complete assignment enumerations
# ----------------------------------------------------------------------

def _search(rng: random.Random) -> List[Item]:
    # (2,7), not (2,11) at 16 s, so that a run repeats every item several
    # times.
    expected = EXPECTED["search"]

    def enumerate_all(p: int, q: int) -> dict:
        res = analyze.assignment_search(p, q)
        return {
            "examined": res.examined,
            "classes": len(res.classes),
            "isolated": len(res.findings),
            "partial": res.partial,
            "fingerprints": [f.fingerprint for f in res.findings],
        }

    items = []
    for name in expected:
        p, q = (int(x) for x in name.split("x"))
        items.append(Item(name, lambda p=p, q=q: enumerate_all(p, q), expected[name]))
    return items


def _warm_search() -> None:
    analyze.assignment_search(2, 3)


_BUILDERS: Dict[str, Callable[[random.Random], List[Item]]] = {
    "catalog-exact": _catalog_exact,
    "search": _search,
}
_WARMUPS: Dict[str, Callable[[], None]] = {
    "catalog-exact": _warm_catalog,
    "search": _warm_search,
}

