"""Print the per-fit stage times of traced benchmark records as Markdown.

    python3 bench/table.py bench/out/*-trace1.json

One row per (K, variance, n, p) in each record's ``fit_table``: the
columns of the ROADMAP baseline table (stats, mles, lrt, gamma, fit).
"""

import json
import sys


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    print("| workload | K, mode | n, p | M / z_M | stats | mles | lrt | gamma | fit |")
    print("|---|---|---|---|---|---|---|---|---|")
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        for row in record.get("fit_table", []):
            print("| {w} | {K} {variance} | {n}, {p} | {M} / {z_M} | {stats_s:.3f} s "
                  "| {mles_s:.3f} s | {lrt_s:.3f} s | {gamma_s:.3f} s | {fit_s:.3f} s |"
                  .format(w=record["workload"], **row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
