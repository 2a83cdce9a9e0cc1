#!/usr/bin/env python3
"""Summarise or compare run records written by run.py.

    python3 perfbench/compare.py RUNS          spread of each metric per workload
    python3 perfbench/compare.py BASE CHANGE   medians of BASE against CHANGE

Each argument is a directory of ``<workload>.seed<n>.trace<t>.json`` records.
End-to-end metrics are judged against the bounds in BENCHMARK.json: a
spread is the distance between the quartiles as a share of the median, and
a change is ``regressed`` when its median is worse than the base median by
more than the bound, ``unresolved`` when either side's spread exceeds the
bound and the runs overlap.  Records made on different kernels are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{(workload, trace): {metric: [values]}} and the kernels seen."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    kernels = set()
    for path in sorted(directory.glob("*.trace[01].json")):
        record = json.loads(path.read_text())
        kernels.add((record["env"]["kernel"], record["env"]["libmp"]))
        for name, metric in record["metrics"].items():
            runs[(record["workload"], record["trace"])][name].append(metric["value"])
    return runs, kernels


def stats(values: list) -> tuple[float, float]:
    """(median, quartile distance as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else float("inf")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(Path(arg)) for arg in argv]
    kernels = set().union(*(k for _, k in sets))
    if len(kernels) != 1:
        print(f"refusing to compare runs made on different kernels: {sorted(kernels)}",
              file=sys.stderr)
        return 2
    print(f"kernel {kernels.pop()}")

    if len(sets) == 1:
        runs = sets[0][0]
        for (workload, trace), metrics in sorted(runs.items()):
            print(f"\n{workload} trace={trace}")
            for name, values in metrics.items():
                median, spread = stats(values)
                bound = e2e[name]["bound"] if name in e2e and not trace else None
                flag = ""
                if bound is not None:
                    flag = "ok" if spread < bound / 3 else ("wide" if spread <= bound else "TOO WIDE")
                print(f"  {name:44s} n={len(values):2d} median={median:.6g} "
                      f"spread={spread:.4f}" + (f" bound={bound} {flag}" if bound else ""))
        return 0

    (base, _), (change, _) = sets
    worst = 0
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print(f"\n{workload} trace={trace}")
        for name, values in change[key].items():
            if name not in base[key]:
                continue
            b_med, b_spread = stats(base[key][name])
            c_med, c_spread = stats(values)
            delta = (c_med - b_med) / abs(b_med) if b_med else 0.0
            line = f"  {name:44s} base={b_med:.6g} change={c_med:.6g} ({delta:+.2%})"
            if name in e2e and not trace:
                m = e2e[name]
                worse = -delta if m["better"] == "higher" else delta
                overlap = (min(values) <= max(base[key][name])
                           if m["better"] == "higher"
                           else max(values) >= min(base[key][name]))
                if max(b_spread, c_spread) > m["bound"] and overlap:
                    status = "unresolved"
                elif worse > m["bound"]:
                    status, worst = "regressed", 1
                else:
                    status = "ok"
                line += f" bound={m['bound']} {status}"
            print(line)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
