#!/usr/bin/env python3
"""Record ledger/BENCH_ledger.json.  Run from the repository root:

  python3 ledger/collect.py

Per workload: two sets of 5 untraced runs at seed 1, one set of 5 at
seed 2, one untraced run on each of seeds 1-10, and one traced run at
seed 1.  For every end-to-end metric the file holds each set's runs,
median and quartiles, the relative gap between the medians of the two
seed-1 sets, and the spread of the ten seeds (distance between the first
and third quartile as a share of the median) next to the metric's bound.
Each set also keeps, under "measured", the unscaled median operation time
and the median host-speed reading of its runs (see README.md, "Host
speed").
The command, run length, workloads and bounds come from BENCHMARK.json.
A whole collection takes about 55 minutes on two cores.
"""

import json
import statistics
import subprocess
import sys

with open("BENCHMARK.json") as f:
    BENCH = json.load(f)

SETS = [("seed1-a", [1] * 5), ("seed1-b", [1] * 5), ("seed2", [2] * 5),
        ("seeds1-10", list(range(1, 11)))]


def run(workload, seed, trace):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)}: correctness gate failed")
    print(f"  {workload} seed {seed} trace {trace}: {result['attempted']} ops",
          file=sys.stderr)
    if not trace:
        # the unscaled median and the host-speed readings, kept beside
        # the metrics to show what the scaling removes
        with open(f"_ledger/BENCH_{workload}.json") as f:
            bench = json.load(f)
        result["measured"] = {
            "op_p50_ms": bench["op_measured_ms"]["p50"],
            "meter_p50_ms": bench["meter_ms"]["p50"],
        }
    return result


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return {"median": med, "p25": q1, "p75": q3, "runs": xs,
            "spread": (q3 - q1) / med}


def summary(results):
    out = {}
    for name, m in results[0]["metrics"].items():
        out[name] = quartiles([r["metrics"][name]["value"] for r in results])
        out[name].update(unit=m["unit"],
                         attempted=[r["attempted"] for r in results])
    out["measured"] = {k: quartiles([r["measured"][k] for r in results])
                       for k in results[0]["measured"]}
    return out


def main():
    doc = {"run_seconds": BENCH["run_seconds"], "sets": {}, "traced": {},
           "seed1_gap": {}, "seeds1_10_spread": {}}
    for w in BENCH["workloads"]:
        name = w["name"]
        for label, seeds in SETS:
            s = doc["sets"].setdefault(label, {"seeds": seeds, "workloads": {}})
            s["workloads"][name] = summary([run(name, n, 0) for n in seeds])
        doc["traced"][name] = run(name, 1, 1)["metrics"]
        with open(f"_ledger/BENCH_{name}.json") as f:
            doc["host"] = json.load(f)["host"]
        a = doc["sets"]["seed1-a"]["workloads"][name]
        b = doc["sets"]["seed1-b"]["workloads"][name]
        ten = doc["sets"]["seeds1-10"]["workloads"][name]
        for m in BENCH["end_to_end"]:
            k = m["name"]
            gap = abs(b[k]["median"] - a[k]["median"]) / a[k]["median"]
            spread = ten[k]["spread"]
            doc["seed1_gap"].setdefault(name, {})[k] = gap
            doc["seeds1_10_spread"].setdefault(name, {})[k] = spread
            print(f"{name:10s} {k:14s} seed-1 gap {100 * gap:5.1f}%  "
                  f"ten-seed spread {100 * spread:5.1f}%  "
                  f"bound {100 * m['bound']:.0f}%", file=sys.stderr)
        print(f"{name:10s} unscaled op_p50_ms ten-seed spread "
              f"{100 * ten['measured']['op_p50_ms']['spread']:5.1f}%",
              file=sys.stderr)
    with open("ledger/BENCH_ledger.json", "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
