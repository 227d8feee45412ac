#!/usr/bin/env python3
"""Interleaved A/B timing of two hadforge source trees in one process.

Each tree's `hadforge` package is loaded under its own module name
(`hadforge_a`, `hadforge_b`), so both share one interpreter, one numpy and
one state of the host.  Every round runs each call once on each side, and
the side that goes first alternates from round to round, so a drift in the
host's speed falls on both alike.  One untimed warm-up call per side comes
before the first round.  It runs under `tracemalloc`, and the script prints
each side's peak of traced allocations in that call, in MB (2^20 bytes);
the timed rounds are not traced.

A call is `search:P:Q` (`analyze.assignment_search(P, Q)`),
`verify:NAME` (`catalog.verify(NAME)`), `build:NAME`
(`catalog.build(NAME)`), `defect:P:Q:K1,K2,..:L1,L2,..`
(`analyze.defect(H, mode="exact")`, H the assignment with those K and L
block labels, built and dephased once per side outside the timing) or
`examine:P:Q:K1,K2,..:L1,L2,..` (`analyze._examine` of that assignment,
the chunk of one of the stream `_examine_all` that the search runs over
its representatives, with a fresh build cache every time; the assignment
and its complete MUB set are made once per side outside the timing).  The script prints the seconds of every round, then
per call each side's median, the ratio b/a and each side's wins out of the
rounds.  The warm-up calls' results are compared: for a search its
`examined`, `partial`, classes, the K and L labels of every orbit
representative, and every finding (its labels, Butson root, fingerprint
and full report: defect, rank, mode and evidence), and, from a run of
`analyze._examine_all` over the representatives after the traced call,
every representative's Butson root, fingerprint and full report, so
that equal results mean an identical search; for a verify its verdict and defect, for a
build the root and the sha256 of the exponent grid, for a defect the full
report, for an examine the root, fingerprint and full report, for a
certify the K and L labels and full report of every representative.  The number
of orbit representatives each side analysed is printed for every search.
With `--json PATH` the seconds of every round are also written to PATH,
per call and side.  The exit status is 1 when some call's results differ,
after the timed rounds, and 0 otherwise.

Example:
    python3 scripts/ab_interleave.py --a ../parent/src --b src --rounds 7 \\
        search:3:5 search:2:7 verify:S35 build:S91 defect:3:5:I,I,I:F,F,F \\
        examine:2:47:I,H1:F,H2
"""

import argparse
import hashlib
import importlib
import importlib.util
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path


class Side:
    def __init__(self, tag: str, src_dir: str):
        pkg_dir = Path(src_dir).resolve() / "hadforge"
        self.tag = tag
        self.name = f"hadforge_{tag}"
        spec = importlib.util.spec_from_file_location(
            self.name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
        )
        if spec is None:
            raise SystemExit(f"no hadforge package under {src_dir!r}")
        package = importlib.util.module_from_spec(spec)
        sys.modules[self.name] = package
        spec.loader.exec_module(package)
        self.analyze = importlib.import_module(f"{self.name}.analyze")
        self.catalog = importlib.import_module(f"{self.name}.catalog")
        self.construct = importlib.import_module(f"{self.name}.construct")
        self.matrices = importlib.import_module(f"{self.name}.matrices")
        self.inputs = {}  # defect or examine call -> its input, made once
        self.representatives = None  # of the last search run

    def input(self, call: str):
        """The assignment of an examine call, the dephased build of a
        defect call, the (assignment, reduced build) pairs of a certify
        call."""
        if call not in self.inputs:
            kind, p, q, *labels = call.split(":")
            if kind == "certify":
                self.inputs[call] = self.short_builds(int(p), int(q))
                return self.inputs[call]
            K, L = labels
            a = self.construct.BlockAssignment.from_labels(
                int(p), int(q), K.split(","), L.split(",")
            )
            if kind == "defect":
                a = self.matrices.dephase(self.construct.theorem1_build(a))[0]
            self.inputs[call] = a
        return self.inputs[call]

    def short_builds(self, p: int, q: int) -> list:
        """(a, H) of every orbit representative a of the (p, q) search whose
        one-prime bound is above 0, H its dephased build at its minimal
        root."""
        m = self.matrices
        out = []
        for a in self.analyze.assignment_search(p, q).representatives:
            H = m.butson_min_root(m.dephase(self.construct.theorem1_build(a))[0])[1]
            if self.analyze._build_defect(a, H, certify=False).defect > 0:
                out.append((a, H))
        return out

    def run(self, call: str):
        """Run one call; return (seconds, a summary of its result, the
        number of orbit representatives of a search or None)."""
        kind, *args = call.split(":")
        x = self.input(call) if kind in ("defect", "examine", "certify") else None
        t0 = time.perf_counter()
        if kind == "search":
            res = self.analyze.assignment_search(int(args[0]), int(args[1]))
            findings = tuple(
                (f.assignment.K_labels, f.assignment.L_labels, f.butson_root, f.fingerprint)
                + report(f.report)
                for f in res.findings
            )
            labels = tuple((a.K_labels, a.L_labels) for a in res.representatives)
            out = (res.examined, res.partial, tuple(res.classes), labels, findings)
            reps = len(res.representatives)
            self.representatives = res.representatives
        elif kind == "defect":
            out = report(self.analyze.defect(x, mode="exact"))
            reps = None
        elif kind == "examine":
            root, fp, rep = self.analyze._examine(x, {})
            out = (root, fp) + report(rep)
            reps = None
        elif kind == "certify":
            out = tuple(
                (a.K_labels, a.L_labels) + report(self.analyze._build_defect(a, H, certify=True))
                for a, H in x
            )
            reps = None
        elif kind == "verify":
            rep = self.catalog.verify(args[0])
            out = (rep["pass"], rep["checks"]["defect"]["computed"])
            reps = None
        else:
            H = self.catalog.build(args[0])
            out = (H.r, H.exp.shape, hashlib.sha256(H.exp.tobytes()).hexdigest())
            reps = None
        return time.perf_counter() - t0, out, reps

    def run_traced(self, call: str):
        """Run one call under tracemalloc; return its result summary, its
        number of representatives and its peak traced allocation in MB.
        The summary of a search also holds every representative's root,
        fingerprint and full report, examined after the traced call."""
        tracemalloc.start()
        try:
            _, out, reps = self.run(call)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if reps is not None:
            out += tuple(
                (a.K_labels, a.L_labels, root, fp) + report(rep)
                for a, root, fp, rep in self.analyze._examine_all(self.representatives, {})
            )
        return out, reps, peak / 2**20


def report(rep) -> tuple:
    """A defect report in full: defect, rank, mode and evidence."""
    return rep.defect, rep.rank, rep.mode, json.dumps(rep.evidence, sort_keys=True)


def parse_call(text: str) -> str:
    kind, *args = text.split(":")
    ok = (
        (kind in ("search", "certify") and len(args) == 2 and all(a.isdigit() for a in args))
        or (kind in ("verify", "build") and len(args) == 1 and args[0])
        or (
            kind in ("defect", "examine")
            and len(args) == 4
            and all(a.isdigit() for a in args[:2])
        )
    )
    if not ok:
        raise argparse.ArgumentTypeError(
            f"not search:P:Q, certify:P:Q, verify:NAME, build:NAME, "
            f"defect:P:Q:K..:L.. or examine:P:Q:K..:L..: {text!r}"
        )
    return text


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--a", required=True, metavar="SRC_DIR", help="tree A (holds hadforge/)")
    ap.add_argument("--b", required=True, metavar="SRC_DIR", help="tree B (holds hadforge/)")
    ap.add_argument("--rounds", type=int, default=5, help="timed rounds per call")
    ap.add_argument("--json", metavar="PATH", help="also write the round times here")
    ap.add_argument("calls", nargs="+", type=parse_call, metavar="CALL")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    sides = (Side("a", args.a), Side("b", args.b))
    times = {call: ([], []) for call in args.calls}
    differ = False
    for call in args.calls:
        (out_a, reps_a, peak_a), (out_b, reps_b, peak_b) = (
            side.run_traced(call) for side in sides
        )
        print(f"{call}: warm-up peak a {peak_a:.1f} MB, b {peak_b:.1f} MB")
        if reps_a is not None:
            print(f"{call}: representatives a {reps_a}, b {reps_b}")
        if out_a != out_b:
            differ = True
            print(f"{call}: results differ: a {out_a!r}, b {out_b!r}")

    w = max(16, *(len(call) for call in args.calls))
    print(f"{'round':>5}  {'call':<{w}} {'a_s':>9} {'b_s':>9}")
    for rnd in range(args.rounds):
        order = (0, 1) if rnd % 2 == 0 else (1, 0)
        for call in args.calls:
            for i in order:
                times[call][i].append(sides[i].run(call)[0])
            a, b = times[call][0][-1], times[call][1][-1]
            print(f"{rnd + 1:>5}  {call:<{w}} {a:>9.3f} {b:>9.3f}", flush=True)

    print()
    print(f"{'call':<{w}} {'a_med':>9} {'b_med':>9} {'b/a':>6} {'a_wins':>7} {'b_wins':>7}")
    for call, (ta, tb) in times.items():
        ma, mb = statistics.median(ta), statistics.median(tb)
        b_wins = sum(b < a for a, b in zip(ta, tb))
        print(
            f"{call:<{w}} {ma:>9.3f} {mb:>9.3f} {mb / ma:>6.2f} "
            f"{args.rounds - b_wins:>3}/{args.rounds:<3} {b_wins:>3}/{args.rounds:<3}"
        )
    if args.json:
        record = {
            "a": args.a,
            "b": args.b,
            "rounds": args.rounds,
            "calls": {call: {"a_s": ta, "b_s": tb} for call, (ta, tb) in times.items()},
        }
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    if differ:
        print("results differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
