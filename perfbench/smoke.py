#!/usr/bin/env python3
"""Smoke test for the repo benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and
traced, and checks that each run is correct and prints exactly the
metrics BENCHMARK.json names, each with its unit. udp-bulk runs too:
it is left out of BENCHMARK.json as unsteady (see NOTES.md) but kept
runnable. Then runs the simulated workloads twice with one seed and
checks that the metrics marked exact in NOTES.md repeat bit for bit.
Takes well under a minute.
"""

import json
import subprocess
import sys

# Pure functions of the seed: each workload's exact_counts in workloads.ml.
EXACT = {
    "sim-lossy": ["alloc_bytes_per_msg", "acks_per_msg", "data_frames_per_msg"],
    "shard-100k": ["acks_per_msg", "data_frames_per_msg"],
}


def run(workload, trace, seed=1):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"FAIL {' '.join(cmd)}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
    return json.loads(lines[-1])


def check(workload, trace, expected):
    r = run(workload, trace)
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {workload} trace {trace}: result keys {sorted(r)}")
    if not (r["correct"] and r["failed"] == 0 and r["attempted"] >= 1):
        sys.exit(f"FAIL {workload} trace {trace}: {r['correct']=} {r['attempted']=} {r['failed']=}")
    got = {k: v["unit"] for k, v in r["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        sys.exit(f"FAIL {workload} trace {trace}: missing {missing} extra {extra} unit {wrong}")
    for k, v in r["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            sys.exit(f"FAIL {workload} trace {trace}: {k} = {v['value']!r}")
    print(f"ok {workload} trace {trace}: {len(got)} metrics")
    return r


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in [w["name"] for w in bench["workloads"]] + ["udp-bulk"]:
        first = check(w, 0, e2e)
        check(w, 1, layers)
        if w in EXACT:
            again = run(w, 0)
            for name in EXACT[w]:
                a, b = first["metrics"][name]["value"], again["metrics"][name]["value"]
                if a != b:
                    sys.exit(f"FAIL {w}: exact metric {name} differs between runs: {a} vs {b}")
            print(f"ok {w}: exact metrics repeat")
    print("smoke ok")


if __name__ == "__main__":
    main()
