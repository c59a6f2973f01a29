"""``compare``: verdict per workload x end-to-end metric between two sets of reports.

    python3 benchmarks/e2e/run.py compare A1.json A2.json A3.json -- B1.json B2.json B3.json

``A`` is the parent, ``B`` the change; each file is a report written with
``--output``.  Rules (choosing-metrics sections 6 and 8), with the bounds of
``BENCHMARK.json``:

``unresolved``  the run-to-run spread of either side (quartile distance over
                the parent's median) is wider than the bound -- unless every B
                run reads better than every A run, which rules a regression
                out (``unchanged``, or ``improved`` if the rule below holds)
``regressed``   B's median is worse than A's by more than the bound
``improved``    at least ten runs a side, B's median better by more than A's
                own quartile distance, and B wins at least nine tenths of the
                index-paired runs
``unchanged``   otherwise

Within one side all runs are of the same commit, so the simulated accelerator
figures and, on ``engine_*`` workloads, every count metric must repeat
exactly across that side's runs of one seed; a difference is an error.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from benchmarks.e2e.stats import quartile_spread, quartiles

Key = Tuple[str, str]   # workload, metric
MIN_PAIRS = 10          # a gain is claimed on at least this many parent/change pairs


def _load(paths: List[str]) -> List[Dict[str, Any]]:
    reports = []
    for path in paths:
        with open(path) as handle:
            reports.append(json.load(handle))
    return reports


def _values(reports: List[Dict[str, Any]], trace: int) -> Dict[Key, List[float]]:
    out: Dict[Key, List[float]] = defaultdict(list)
    for report in reports:
        for entry in report["entries"]:
            if entry["trace"] == trace:
                for name, metric in entry["metrics"].items():
                    out[(entry["workload"], name)].append(metric["value"])
    return out


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    if len(a) < 2 or len(b) < 2:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0   # positive worsening = worse
    qa, qb = quartiles(a), quartiles(b)
    base = abs(qa["median"])
    worsening = sign * (qb["median"] - qa["median"]) / base
    spread = max(quartile_spread(a), (qb["q3"] - qb["q1"]) / base)
    if spread > bound and not all(sign * (y - x) < 0 for x in a for y in b):
        return "unresolved"
    if worsening > bound:
        return "regressed"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    gain = -sign * (qb["median"] - qa["median"])
    if len(pairs) >= MIN_PAIRS and gain > qa["q3"] - qa["q1"] and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def exact_mismatches(reports: List[Dict[str, Any]], side: str) -> List[str]:
    """Deterministic metrics that differ between same-commit runs of one seed."""
    seen: Dict[Tuple[str, int, str], float] = {}
    problems = []
    for report in reports:
        for entry in report["entries"]:
            if not entry["trace"]:
                continue
            for name, metric in entry["metrics"].items():
                exact = name.startswith("accelerator.sim_") or (
                    entry["workload"].startswith("engine_") and metric["unit"] == "count"
                    and not name.startswith("server.")
                )
                if not exact:
                    continue
                key = (entry["workload"], entry["seed"], name)
                if seen.setdefault(key, metric["value"]) != metric["value"]:
                    problems.append(
                        f"{side}: {name} on {entry['workload']} seed {entry['seed']}: "
                        f"{seen[key]} vs {metric['value']}"
                    )
    return problems


def main(argv: List[str], benchmark: Dict[str, Any]) -> int:
    if "--" not in argv:
        sys.stderr.write("usage: compare A.json... -- B.json...\n")
        return 2
    split = argv.index("--")
    side_a, side_b = _load(argv[:split]), _load(argv[split + 1:])
    if not side_a or not side_b:
        sys.stderr.write("compare needs at least one report on each side\n")
        return 2
    if len({report["quick"] for report in side_a + side_b}) > 1:
        sys.stderr.write("compare refuses to mix --quick reports with full runs\n")
        return 2

    a, b = _values(side_a, 0), _values(side_b, 0)
    verdicts: Dict[str, int] = defaultdict(int)
    print(f"{'workload':<20} {'metric':<18} {'A q1/median/q3':>34} {'B q1/median/q3':>34}  verdict")
    for workload in sorted({key[0] for key in a}):
        for spec in benchmark["end_to_end"]:
            key = (workload, spec["name"])
            if key not in a or key not in b:
                continue
            result = verdict(a[key], b[key], spec["better"], spec["bound"])
            verdicts[result] += 1
            qa, qb = quartiles(a[key]), quartiles(b[key])
            cells = ["/".join(f"{q[k]:.5g}" for k in ("q1", "median", "q3")) for q in (qa, qb)]
            print(f"{workload:<20} {spec['name']:<18} {cells[0]:>34} {cells[1]:>34}  {result}"
                  f"  (n={len(a[key])},{len(b[key])}; bound {spec['bound']}; "
                  f"{spec['better']} is better)")
    problems = exact_mismatches(side_a, "A") + exact_mismatches(side_b, "B")
    for problem in problems:
        print(f"NOT EXACT  {problem}")
    print("verdicts: " + ", ".join(f"{count} {name}" for name, count in sorted(verdicts.items()))
          + f"; {len(problems)} exact-match violations")
    return 1 if verdicts["regressed"] or problems else 0
