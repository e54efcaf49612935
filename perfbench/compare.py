"""Compare two sets of benchmark reports (written with ``run.py --report``).

    python3 perfbench/compare.py BASE.json ... -- CHANGE.json ...

Runs are paired by (workload, seed, seconds, trace).  A pair whose input
digests differ is refused: the two sides did not time the same inputs.
For each workload and metric it prints the median of each side and the
change of the median in percent.
"""

from __future__ import annotations

import json
import statistics
import sys


def _load(paths):
    out = {}
    for path in paths:
        with open(path) as fh:
            rep = json.load(fh)
        key = (rep["workload"], rep["seed"], rep["seconds"], rep["trace"])
        out.setdefault(key, []).append(rep)
    return out


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, change = _load(argv[:cut]), _load(argv[cut + 1:])
    refused = 0
    by_workload = {}
    for key in sorted(base.keys() & change.keys()):
        digests = {r["digest"] for r in base[key] + change[key]}
        if len(digests) > 1:
            print(f"refused {key}: input digests differ {sorted(digests)}")
            refused += 1
            continue
        side = by_workload.setdefault(key[0], ({}, {}))
        for i, reps in enumerate((base[key], change[key])):
            for rep in reps:
                for name, m in rep["result"]["metrics"].items():
                    side[i].setdefault(name, []).append(m["value"])
    for workload, (b, c) in sorted(by_workload.items()):
        print(workload)
        for name in b:
            if name not in c:
                continue
            mb, mc = statistics.median(b[name]), statistics.median(c[name])
            delta = f"{100 * (mc - mb) / mb:+.1f}%" if mb else "n/a"
            print(f"  {name:42s} {mb:14.4f} {mc:14.4f} {delta}")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
