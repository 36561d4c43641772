#!/usr/bin/env python3
"""Check that `graphlmr run` outputs agree across BLAS threads, CPU kernels
or eigensolvers.

    PYTHONPATH=. python scripts/compare_runs.py [--exact-resolved] BASE OTHER...

Every run in the directory BASE (a ``<name>.csv`` and its
``<name>_meta.json``) is compared with the run of the same name in each
OTHER directory: the curves and the meta JSON ``resolved`` and
``iteration`` numbers must agree within the benchmark's reference
tolerance (rtol 1e-9, atol 1e-12).  With ``--exact-resolved`` the
``resolved`` values must also be equal.  Exits with a message naming the
first run that differs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from perfbench.checks import REF_ATOL, REF_RTOL, compare_to_reference


def problems(base: Path, other: Path, csv: Path, exact_resolved: bool) -> list[str]:
    """What differs between the run ``csv`` in ``base`` and its namesake in ``other``."""
    meta = csv.name.removesuffix(".csv") + "_meta.json"
    want, got = (json.loads((d / meta).read_text()) for d in (base, other))
    found = compare_to_reference(
        (other / csv.name).read_text(), got,
        {"csv": csv.read_text(), "resolved": want["resolved"]})
    if exact_resolved and got["resolved"] != want["resolved"]:
        found.append(f"resolved {got['resolved']} != {want['resolved']}")
    want, got = want["iteration"], got["iteration"]
    if want.keys() != got.keys() or any(
            want[s].keys() != got[s].keys() or not all(
                math.isclose(got[s][k], v, rel_tol=REF_RTOL, abs_tol=REF_ATOL)
                for k, v in want[s].items())
            for s in want):
        found.append(f"iteration {got}, base run {want}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--exact-resolved", action="store_true",
                        help="require equal resolved values, not only close ones")
    parser.add_argument("base", type=Path)
    parser.add_argument("others", type=Path, nargs="+")
    args = parser.parse_args(argv)
    runs = sorted(args.base.glob("*.csv"))
    if not runs:
        sys.exit(f"{args.base} holds no runs")
    for other in args.others:
        for csv in runs:
            if found := problems(args.base, other, csv, args.exact_resolved):
                sys.exit(f"{other / csv.name} differs from {csv}: {found}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
