#!/usr/bin/env python3
"""Compare two sets of benchmark reports, metric by metric.

    python3 benchmarks/suite/compare.py parent/*.json change/*.json

Reports are the ``--out`` files of ``run.py``; the files of the first
directory named are side A (the parent), those of the second side B (the
change).  The i-th files of each side, in name order, form a pair, so run
them alternately.  For every end-to-end metric and workload it prints
each side's median and quartiles and one verdict, using the bounds in
``BENCHMARK.json``:

* ``improved``   over at least 10 pairs, B wins at least 9 of every 10
  (ties count for neither) and the medians differ by more than A's own
  quartile spread;
* ``unresolved`` a side's quartile spread, as a share of its median, is
  wider than the bound, and not every B run beats every A run;
* ``regressed``  B's median is worse than A's by more than the bound;
* ``unchanged``  otherwise.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]
WIN_SHARE = 0.9
#: Fewer pairs cannot support a gain: two sets of 5 runs of identical code
#: produced a 5-of-5 "win" with the medians apart by more than A's spread.
MIN_PAIRS = 10


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(files: List[Path]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> the untraced values, in file order."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for path in files:
        report = json.loads(path.read_text())
        for workload, entry in report["workloads"].items():
            if "untraced" not in entry:
                continue
            for metric, value in entry["untraced"]["line"]["metrics"].items():
                out.setdefault((workload, metric), []).append(value["value"])
    return out


def verdict(a: List[float], b: List[float], bound: float,
            higher: bool) -> Tuple[str, int]:
    """The row's verdict and the number of pairs B won."""
    def better(x: float, y: float) -> bool:
        return x > y if higher else x < y

    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    wins = sum(better(y, x) for x, y in zip(a, b))
    pairs = min(len(a), len(b))
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and better(med_b, med_a) and (
        abs(med_b - med_a) > qa[2] - qa[0]
    ):
        return "improved", wins
    spread = max(
        (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb)
    )
    if spread > bound and not all(better(y, x) for x in a for y in b):
        return "unresolved", wins
    worse = (med_a - med_b) if higher else (med_b - med_a)
    if med_a and worse / abs(med_a) > bound:
        return "regressed", wins
    return "unchanged", wins


def main(argv: List[str]) -> int:
    files = [Path(p) for p in argv]
    dirs = list(dict.fromkeys(p.resolve().parent for p in files))
    if len(dirs) != 2:
        print(__doc__, file=sys.stderr)
        print(f"need report files from exactly two directories, got {len(dirs)}",
              file=sys.stderr)
        return 2
    side_a = sorted(p for p in files if p.resolve().parent == dirs[0])
    side_b = sorted(p for p in files if p.resolve().parent == dirs[1])
    a, b = load(side_a), load(side_b)
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in decl["workloads"]]
    print(f"A = {dirs[0]} ({len(side_a)} runs), B = {dirs[1]} ({len(side_b)} runs)")
    print(f"{'workload':16s} {'metric':18s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'B/A':>7s} {'wins':>6s}  verdict")
    regressed = 0
    for workload in workloads:
        for spec in decl["end_to_end"]:
            key = (workload, spec["name"])
            if key not in a or key not in b:
                continue
            va, vb = a[key], b[key]
            qa, qb = quartiles(va), quartiles(vb)
            result, wins = verdict(va, vb, spec["bound"], spec["better"] == "higher")
            regressed += result == "regressed"
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            print(f"{workload:16s} {spec['name']:18s} "
                  f"{qa[1]:12.5g} [{qa[0]:.5g}, {qa[2]:.5g}] ".rjust(33)
                  + f"{qb[1]:12.5g} [{qb[0]:.5g}, {qb[2]:.5g}] ".rjust(33)
                  + f"{ratio:7.3f} {wins:2d}/{min(len(va), len(vb)):<3d}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
