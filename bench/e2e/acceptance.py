#!/usr/bin/env python3
"""Acceptance runs of the end-to-end benchmark.

Runs BENCHMARK.json's command on every workload at seeds 0..9, twice (two
acceptance sets), then the traced pass of every workload at seed 0. Writes
the raw result lines and a summary to bench/e2e/baseline/:

  set1.json, set2.json  one record per run: workload, seed, detail, result
  trace.json            the traced pass: per-layer metrics per workload
  summary.json          per set, workload and end-to-end metric: median,
                        quartiles and spread (IQR / median); set 2's median
                        against set 1's; the verdict of every criterion

The criteria, each printed with its verdict:
  steady  both sets' spreads are below a third of the metric's bound
  agree   set 2's median is within the bound of set 1's, either way
  cover   in the traced pass, a traced rep's wall time is within 5 % of an
          untraced library rep's (trace.overhead), so the named layers and
          the remainder account for the library path's time
  correct every run's checks passed

Exits 1 if any criterion fails. Run from the repository root:
python3 bench/e2e/acceptance.py
"""

import json
import os
import statistics
import subprocess
import sys
import time

SEEDS = 10
OUT = "bench/e2e/baseline"
COVER = 0.05


def run(bench, workload, seed, trace):
    argv = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.time()
    out = subprocess.run(argv, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(argv)} failed ({out.returncode}):\n{out.stderr}")
    record = {"workload": workload, "seed": seed,
              "detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}
    r = record["result"]
    print(f"  {workload} seed {seed} trace {trace}: {time.time() - t0:.1f}s "
          f"correct={r['correct']} failed={r['failed']}/{r['attempted']}",
          file=sys.stderr, flush=True)
    return record


def summarise(bench, records):
    out = {}
    for w in bench["workloads"]:
        rows = [r["result"] for r in records if r["workload"] == w["name"]]
        out[w["name"]] = {"correct": all(r["correct"] for r in rows),
                          "failed": sum(r["failed"] for r in rows)}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in rows]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            out[w["name"]][m["name"]] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "target": m["bound"] / 3,
            }
    return out


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.makedirs(OUT, exist_ok=True)
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True)
    commit = git.stdout.strip() or None
    sets = []
    for k in (1, 2):
        print(f"set {k}", file=sys.stderr)
        records = [run(bench, w["name"], seed, 0)
                   for w in bench["workloads"] for seed in range(SEEDS)]
        with open(os.path.join(OUT, f"set{k}.json"), "w") as f:
            json.dump({"commit": commit, "runs": records}, f, indent=1)
        sets.append(summarise(bench, records))
    print("traced pass", file=sys.stderr)
    traced = [run(bench, w["name"], 0, 1) for w in bench["workloads"]]
    with open(os.path.join(OUT, "trace.json"), "w") as f:
        json.dump({"commit": commit, "runs": traced}, f, indent=1)

    verdicts = {}
    for w in sets[0]:
        v = verdicts[w] = {"correct": all(s[w]["correct"] for s in sets)}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            spreads = [s[w][name]["spread"] for s in sets]
            drift = sets[1][w][name]["median"] / sets[0][w][name]["median"] - 1
            v[name] = {"drift": drift,
                       "steady": max(spreads) < bound / 3,
                       "agree": abs(drift) <= bound}
            print(f"{w:18} {name:8} median {sets[0][w][name]['median']:8.4f} "
                  f"spread {spreads[0]:.3f}/{spreads[1]:.3f} "
                  f"(target < {bound / 3:.3f}) drift {drift:+.3f} "
                  f"(bound {bound}): steady={v[name]['steady']} "
                  f"agree={v[name]['agree']}")
    for r in traced:
        overhead = r["result"]["metrics"]["trace.overhead"]["value"]
        v = verdicts[r["workload"]]
        v["cover"] = abs(overhead - 1) <= COVER
        v["correct"] = v["correct"] and r["result"]["correct"]
        print(f"{r['workload']:18} trace.overhead {overhead:.3f} "
              f"(within {COVER}): cover={v['cover']}")

    with open(os.path.join(OUT, "summary.json"), "w") as f:
        json.dump({"commit": commit, "nproc": os.cpu_count(),
                   "run_seconds": bench["run_seconds"], "sets": sets,
                   "verdicts": verdicts}, f, indent=1)
    ok = all(v["correct"] and v["cover"]
             and all(v[m["name"]]["steady"] and v[m["name"]]["agree"]
                     for m in bench["end_to_end"])
             for v in verdicts.values())
    print("all criteria met" if ok else "criteria NOT met")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
