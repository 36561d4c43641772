"""Correctness checks on what the program wrote or returned.

Every check returns a list of problems; an empty list means the output is
correct.  The checks parse the program's files themselves and recompute what
they can (set validity, C_max, the ILMR fixed point) without calling the code
under test.
"""

from __future__ import annotations

import json
import math
from collections import deque
from pathlib import Path

import numpy as np

# Reference curves are compared with this tolerance.  Reruns of one commit
# are byte-identical; the slack only absorbs summation-order changes, such
# as another BLAS thread count, which move values by ~1e-15 relative.
REF_RTOL = 1e-9
REF_ATOL = 1e-12

# A stream call is correct when its estimate is this close, relative, to the
# exact fixed point.  The default stop rule (increment <= 1e-10 of the
# iterate) leaves at most ~1e-10 * rho / (1 - rho); 1e-6 allows rho < 0.9999.
STREAM_RTOL = 1e-6

CSV_HEADER = "scheme,iteration,mean_rel_error,std_rel_error"


def parse_report_csv(text: str) -> tuple[dict[str, list[tuple[float, float]]], list[str]]:
    """``{scheme: [(mean, std) per iteration]}`` and any format problems."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return {}, [f"csv header is {lines[:1]!r}, expected {CSV_HEADER!r}"]
    curves: dict[str, list[tuple[float, float]]] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            return curves, [f"csv line {line_no}: {len(parts)} fields"]
        scheme, it, mean, std = parts
        try:
            k, mu, sd = int(it), float(mean), float(std)
        except ValueError:
            return curves, [f"csv line {line_no}: unparsable {line!r}"]
        rows = curves.setdefault(scheme, [])
        if k != len(rows):
            return curves, [f"csv line {line_no}: iteration {k}, expected {len(rows)}"]
        rows.append((mu, sd))
    return curves, []


def check_run_output(csv_text: str, meta: dict, schemes: tuple[str, ...],
                     max_iterations: int,
                     steady_range: dict[str, tuple[float, float]] | None = None,
                     ) -> list[str]:
    """Shape, finiteness and internal consistency of one ``run`` output."""
    curves, problems = parse_report_csv(csv_text)
    if problems:
        return problems
    if tuple(curves) != tuple(schemes):
        return [f"csv schemes {tuple(curves)} != {tuple(schemes)}"]
    for scheme, rows in curves.items():
        if len(rows) != max_iterations + 1:
            problems.append(f"{scheme}: {len(rows)} points, expected "
                            f"{max_iterations + 1}")
            continue
        if not all(math.isfinite(m) and math.isfinite(s) and m > 0 and s >= 0
                   for m, s in rows):
            problems.append(f"{scheme}: non-finite, zero or negative values")
            continue
        steady = meta.get("steady_state", {}).get(scheme, {}).get("mean")
        if steady is None or not math.isclose(steady, rows[-1][0], rel_tol=1e-12):
            problems.append(f"{scheme}: meta steady state {steady!r} != csv "
                            f"final mean {rows[-1][0]!r}")
        if steady_range is not None:
            lo, hi = steady_range[scheme]
            if not lo <= rows[-1][0] <= hi:
                problems.append(f"{scheme}: final mean error {rows[-1][0]:.3g} "
                                f"outside the plausible [{lo:g}, {hi:g}]")
    res = meta.get("resolved", {})
    try:
        gamma = res["c_max"] * math.sqrt(res["omega"])
        if not (res["n_sets"] > 0 and math.isclose(gamma, res["gamma"], rel_tol=1e-12)):
            problems.append(f"meta resolved values inconsistent: {res}")
    except (KeyError, TypeError, ValueError):
        problems.append(f"meta resolved block malformed: {res!r}")
    return problems


def compare_to_reference(csv_text: str, meta: dict, reference: dict) -> list[str]:
    """Curves and resolved values against a recorded reference."""
    curves, problems = parse_report_csv(csv_text)
    ref_curves, _ = parse_report_csv(reference["csv"])
    if problems:
        return problems
    if list(curves) != list(ref_curves):
        return [f"schemes {list(curves)} != reference {list(ref_curves)}"]
    for scheme, rows in curves.items():
        got = np.array(rows)
        want = np.array(ref_curves[scheme])
        if got.shape != want.shape:
            problems.append(f"{scheme}: {got.shape} != reference {want.shape}")
        elif not np.allclose(got, want, rtol=REF_RTOL, atol=REF_ATOL):
            worst = int(np.argmax(np.abs(got - want).max(axis=1)))
            problems.append(f"{scheme}: iteration {worst} is {got[worst].tolist()}, "
                            f"reference {want[worst].tolist()}")
    for key, want in reference["resolved"].items():
        have = meta.get("resolved", {}).get(key)
        if not isinstance(have, (int, float)) or not math.isclose(
                have, want, rel_tol=REF_RTOL, abs_tol=REF_ATOL):
            problems.append(f"resolved {key} = {have!r}, reference {want!r}")
    return problems


def read_meta(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Partitions


def parse_partition_file(text: str) -> tuple[list[list[int]], list[str]]:
    sets: list[list[int]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            sets.append([int(tok) for tok in line.split()])
        except ValueError:
            return sets, [f"partition line {line_no}: unparsable {line!r}"]
    return sets, []


def set_diameter(members: list[int], adj: list[list[int]]) -> int | None:
    """Hop diameter of the subgraph induced by ``members``; None if disconnected."""
    inside = set(members)
    diameter = 0
    for source in members:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w in inside and w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) != len(inside):
            return None
        diameter = max(diameter, max(dist.values()))
    return diameter


def check_partition(text: str, adj: list[list[int]], n_max: int
                    ) -> tuple[dict, list[str]]:
    """Validity of a written partition, plus its set count and C_max.

    Valid means: every vertex in exactly one set, no set larger than
    ``n_max``, and every set connected in the graph.
    """
    sets, problems = parse_partition_file(text)
    if problems:
        return {}, problems
    n = len(adj)
    owner = [-1] * n
    for i, members in enumerate(sets):
        if not 1 <= len(members) <= n_max:
            problems.append(f"set {i} has {len(members)} members, limit {n_max}")
        for v in members:
            if not 0 <= v < n:
                problems.append(f"set {i}: vertex {v} out of range")
            elif owner[v] != -1:
                problems.append(f"vertex {v} in sets {owner[v]} and {i}")
            else:
                owner[v] = i
        if problems:
            return {}, problems[:5]
    uncovered = owner.count(-1)
    if uncovered:
        return {}, [f"{uncovered} vertices in no set"]
    c_max = 0.0
    for i, members in enumerate(sets):
        d = set_diameter(members, adj)
        if d is None:
            return {}, [f"set {i} is disconnected"]
        c_max = max(c_max, math.sqrt(len(members) * d))
    return {"n_sets": len(sets), "c_max": c_max}, []


def check_partition_summary(summary: dict, stdout: str) -> list[str]:
    """The CLI's printed set count and C_max agree with the file."""
    expect = (f"{summary['n_sets']} sets (max size ",
              f"C_max = {summary['c_max']:.6g})")
    if not all(part in stdout for part in expect):
        return [f"cli printed {stdout.strip()!r}, file has {summary}"]
    return []


def compare_partition_reference(summary: dict, reference: dict) -> list[str]:
    if summary.get("n_sets") != reference["n_sets"] or not math.isclose(
            summary.get("c_max", -1.0), reference["c_max"], rel_tol=REF_RTOL):
        return [f"partition {summary} != reference {reference}"]
    return []


# ---------------------------------------------------------------------------
# Stream calls


def check_stream_call(run, expected: np.ndarray) -> list[str]:
    est = np.asarray(run.estimate)
    if est.shape != expected.shape:
        return [f"estimate shape {est.shape} != {expected.shape}"]
    err = float(np.linalg.norm(est - expected) / np.linalg.norm(expected))
    if not err <= STREAM_RTOL:
        return [f"estimate off the fixed point by {err:.3g} relative"]
    if run.stop_reason not in ("converged", "max_iterations"):
        return [f"unknown stop reason {run.stop_reason!r}"]
    return []
