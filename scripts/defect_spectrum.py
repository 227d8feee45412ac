#!/usr/bin/env python3
"""Defect survey: Fourier matrices, their tensor squares, and the catalog.

Quick orientation table for which constructions sit on continuous families
(defect > 0) and which are rigid.  Everything here is certified exactly.
"""

import sys

from hadforge import catalog
from hadforge.analyze import defect
from hadforge.matrices import tensor
from hadforge.mub import fourier

FOURIER_ORDERS = range(2, 14)
TENSOR_PRIMES = (2, 3)


def row(label, H):
    rep = defect(H, mode="exact")
    tag = "isolated" if rep.defect == 0 else f"defect {rep.defect}"
    print(f"  {label:<10} d={H.d:<3} {tag}")


def main() -> int:
    print("Fourier matrices:")
    for d in FOURIER_ORDERS:
        row(f"F{d}", fourier(d))

    print("tensor squares:")
    for p in TENSOR_PRIMES:
        row(f"F{p} x F{p}", tensor(fourier(p), fourier(p)))

    print("catalog entries:")
    for name in catalog.names():
        row(name, catalog.load(name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
