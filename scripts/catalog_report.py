#!/usr/bin/env python3
"""Recompute every stored catalog expectation and print the summary table.

Every defect is certified exactly.  The full run takes about a minute on
a 2-core machine, almost all of it in the order-77 and order-91 defects
(S91 alone peaks at about 1.2 GB of memory).
"""

import argparse
import json
import sys
import time

from hadforge import catalog


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("names", nargs="*", help="subset of entries (default: all)")
    ap.add_argument("--json", help="also write the machine-readable report here")
    args = ap.parse_args()

    t0 = time.monotonic()
    report = catalog.verify_all(args.names or None)
    print(catalog.format_report(report))
    print(f"total: {time.monotonic() - t0:.1f}s")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return 0 if report["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
