"""Recompute ``reference.json`` with sympy, independently of stormerkit.

``python3 perfbench/make_reference.py`` (about a minute).  The benchmark
only reads the file; this script documents where its numbers come from.
"""

from __future__ import annotations

import json
import math

import sympy

from oracles import REFERENCE_PATH, stormer_values_digest
from workloads import DENSITY_LIMITS, LIST_LIMIT, MERTENS_X


def main() -> None:
    top = max(max(DENSITY_LIMITS), LIST_LIMIT)
    largest = [0, 0] + [max(sympy.factorint(x * x + 1)) for x in range(2, top + 1)]
    largest[1] = 2
    density = {}
    for limit in DENSITY_LIMITS:
        xs = range(1, limit + 1)
        density[str(limit)] = {
            "inclusive": sum(1 for x in xs if largest[x] >= 2 * x),
            "strict": sum(1 for x in xs if largest[x] >= 2 * x + 1),
            "large-factor": sum(1 for x in xs if largest[x] > x),
        }
    listed = [x for x in range(1, LIST_LIMIT + 1) if largest[x] >= 2 * x]
    gap = math.fsum(1.0 / p for p in sympy.sieve.primerange(2, MERTENS_X + 1)) - math.log(math.log(MERTENS_X))
    reference = {
        "density": density,
        "stormer_list": {"limit": LIST_LIMIT, "count": len(listed), "sha256": stormer_values_digest(listed)},
        "mertens": {"x": MERTENS_X, "gap": gap},
    }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
