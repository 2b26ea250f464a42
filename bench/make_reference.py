"""Regenerate ``chsh_reference.json``, the frozen CHSH maxima of chsh-scan.

Run from the repository root:

    python3 bench/make_reference.py

The brute-force scan is the oracle. Every value is cross-checked against
both analytic routes before it is written, so the benchmark itself never
needs them at run time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CROSS_CHECK_TOL = 1e-9


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from polybell import correlations
    from workloads import CHSH_SIZES, REFERENCE_PATH

    values = {}
    for n in CHSH_SIZES:
        brute, _ = correlations.chsh_max_bruteforce(n)
        for route in (correlations.chsh_max_analytic, correlations.chsh_max_closed_form):
            if abs(route(n) - brute) > CROSS_CHECK_TOL:
                print(f"error: {route.__name__}({n}) = {route(n)!r} disagrees with "
                      f"the brute-force scan {brute!r}", file=sys.stderr)
                return 1
        values[str(n)] = brute
    REFERENCE_PATH.write_text(json.dumps({"chsh_max": values}, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH.name} ({len(values)} sizes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
