#!/usr/bin/env python3
"""Self time per layer of two hadforge source trees over the perfbench
`search` items, in one process.

Both trees are loaded as `ab_interleave.py` loads them (its `Side`), so they
share one interpreter, one numpy and one state of the host.  In each tree
the layer functions of LAYERS are wrapped wherever a module of the package
binds them (`analyze.rank_mod` as well as `_exactrank.rank_mod`) by a timer
that charges each call to its layer, less the time of the wrapped calls
inside it: its self time.  A pass is the complete searches (3,5), (5,3) and
(2,7), the items of the perfbench `search` workload.  One untimed pass per
tree comes first; then the trees take turns, the one that goes first
alternating from round to round.  The script prints, per layer, each tree's
median self time per pass in ms and the ratio b/a, with `pass` the whole
pass (the timers' own cost included) and `other` the pass less every layer
(enumeration, `_defects`, the reports and digests).  A layer a tree does
not have reads as absent.  With `--json PATH` the medians are also written
to PATH.

Example:
    python3 scripts/layers.py --a ../parent/src --b src --passes 21
"""

import argparse
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_interleave import Side  # noqa: E402

ITEMS = ((3, 5), (5, 3), (2, 7))
LAYERS = (
    ("construct", "build_grids"),
    ("matrices", "dephased_min_roots"),
    ("_weyl", "weyl_splits"),
    ("analyze", "_haagerup_sets"),
    ("_weyl", "block_images"),
    ("_exactrank", "rank_mod"),
)


class Timers:
    """Self time per layer of one tree, summed until `take`."""

    def __init__(self, side: Side):
        self.spent = defaultdict(float)
        self.inner = []  # per open call: the time of the wrapped calls inside it
        self.layers = []
        modules = [m for n, m in sys.modules.items() if n.startswith(side.name + ".")]
        for module, name in LAYERS:
            original = getattr(sys.modules.get(f"{side.name}.{module}"), name, None)
            if original is None:
                continue
            self.layers.append(name)
            wrapped = self.wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            self.inner.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.spent[name] += elapsed - self.inner.pop()
                if self.inner:
                    self.inner[-1] += elapsed

        return timed

    def take(self) -> dict:
        out, self.spent = dict(self.spent), defaultdict(float)
        return out


def one_pass(side: Side, timers: Timers) -> dict:
    """The self time of each layer over one pass, `pass` and `other`, in ms."""
    t0 = time.perf_counter()
    for p, q in ITEMS:
        side.analyze.assignment_search(p, q)
    total = time.perf_counter() - t0
    spent = timers.take()
    out = {name: 1e3 * spent.get(name, 0.0) for name in timers.layers}
    out["pass"] = 1e3 * total
    out["other"] = 1e3 * (total - sum(spent.values()))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--a", required=True, metavar="SRC_DIR", help="tree A (holds hadforge/)")
    ap.add_argument("--b", required=True, metavar="SRC_DIR", help="tree B (holds hadforge/)")
    ap.add_argument("--passes", type=int, default=21, help="timed passes per tree")
    ap.add_argument("--json", metavar="PATH", help="also write the medians here")
    args = ap.parse_args()
    if args.passes < 1:
        ap.error("--passes must be at least 1")

    sides = (Side("a", args.a), Side("b", args.b))
    timers = [Timers(side) for side in sides]
    for side, t in zip(sides, timers):
        one_pass(side, t)
    runs = ([], [])
    for rnd in range(args.passes):
        for i in (0, 1) if rnd % 2 == 0 else (1, 0):
            runs[i].append(one_pass(sides[i], timers[i]))

    medians = [
        {name: statistics.median(run[name] for run in side_runs) for name in side_runs[0]}
        for side_runs in runs
    ]
    names = ["pass"] + sorted(
        {n for m in medians for n in m} - {"pass", "other"},
        key=lambda n: -max(m.get(n, 0.0) for m in medians),
    ) + ["other"]
    w = max(len(n) for n in names)
    print(f"{'layer':<{w}} {'a_ms':>9} {'b_ms':>9} {'b/a':>6}")
    for name in names:
        a, b = (m.get(name) for m in medians)
        cells = [f"{x:>9.2f}" if x is not None else f"{'absent':>9}" for x in (a, b)]
        ratio = f"{b / a:>6.2f}" if a and b is not None else f"{'':>6}"
        print(f"{name:<{w}} {cells[0]} {cells[1]} {ratio}")
    if args.json:
        record = {"a": args.a, "b": args.b, "passes": args.passes, "a_ms": medians[0], "b_ms": medians[1]}
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
