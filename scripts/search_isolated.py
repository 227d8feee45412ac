#!/usr/bin/env python3
"""Enumerate block assignments for a given (p, q) and report the isolated
equivalence classes the search certifies.

Example: python3 scripts/search_isolated.py 3 7 --time-limit 600
"""

import argparse
import json
import sys
import time

from hadforge.analyze import assignment_search


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("p", type=int)
    ap.add_argument("q", type=int, help="prime block size")
    ap.add_argument("--budget", type=int, default=None)
    ap.add_argument("--time-limit", type=float, default=None)
    args = ap.parse_args()

    t0 = time.monotonic()
    res = assignment_search(
        args.p, args.q, budget=args.budget, time_limit=args.time_limit
    )
    elapsed = time.monotonic() - t0

    print(
        f"(p,q)=({args.p},{args.q}): covered {res.examined} assignments in "
        f"{len(res.representatives)} orbits, {len(res.classes)} invariant classes, "
        f"{len(res.findings)} isolated"
        f"{f' (stopped by {res.stopped_by})' if res.partial else ''} in {elapsed:.1f}s"
    )
    for f in res.findings:
        print(
            f"  d={f.assignment.p * f.assignment.q:<3} root={f.butson_root:<4} "
            f"fingerprint={f.fingerprint[:16]}  {json.dumps(f.assignment.to_json())}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
