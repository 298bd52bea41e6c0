#!/usr/bin/env python3
"""Two sets of ten runs per workload, every run with another seed.

This is the statistic a change to this benchmark is accepted on, and what
produced the table under "Noise" in README.md: per end-to-end metric, the
distance between the quartiles of a set's ten values
(statistics.quantiles(v, n=4)) as a share of their median, and how far the
second set's median is on the worse side of the first's. Run from the root
of the repository:

    python3 benchmark/two_sets.py [workload ...]

It takes everything else (command, run length, metrics, bounds) from
BENCHMARK.json and exits non-zero if a spread or a second median is
outside its bound.
"""

import json
import statistics
import subprocess
import sys
import time

SETS = {"A": range(11, 21), "B": range(21, 31)}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    breaches = 0
    for workload in workloads:
        values = {name: {m["name"]: [] for m in bench["end_to_end"]} for name in SETS}
        started = time.time()
        for name, seeds in SETS.items():
            for seed in seeds:
                command = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0",
                ]
                out = subprocess.run(command, capture_output=True, text=True, check=True)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                if not result["correct"] or result["failed"]:
                    sys.exit(f"{workload} seed {seed}: {result}")
                for metric, reported in result["metrics"].items():
                    values[name][metric].append(reported["value"])
        runs = sum(len(s) for s in SETS.values())
        print(f"{workload} ({(time.time() - started) / runs:.1f} s a run)")
        print(f"  {'metric':<24}{'median A':>14}{'median B':>14}{'B worse by':>11}"
              f"{'iqr/med A':>11}{'iqr/med B':>11}{'bound':>7}")
        for m in bench["end_to_end"]:
            a, b = values["A"][m["name"]], values["B"][m["name"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
            spreads = []
            for v in (a, b):
                q = statistics.quantiles(v, n=4)
                spreads.append((q[2] - q[0]) / statistics.median(v))
            # The set-up time's spread is reported and not held to its bound.
            held = spreads if m["name"] != "setup_s" else []
            breach = worse > m["bound"] or any(s > m["bound"] for s in held)
            breaches += breach
            print(f"  {m['name']:<24}{med_a:>14.6f}{med_b:>14.6f}{worse:>+11.4f}"
                  f"{spreads[0]:>11.4f}{spreads[1]:>11.4f}{m['bound']:>7.2f}"
                  f"{' BREACH' if breach else ''}")
        sys.stdout.flush()
    sys.exit(1 if breaches else 0)


if __name__ == "__main__":
    main()
