#!/usr/bin/env python3
"""Runs every workload on ten seeds and prints, per end-to-end metric, the
median and the interquartile spread (Q3 - Q1 over the median) the driver
judges the benchmark by, the ten values, and the ten pass digests (which
repeat exactly for a seed). Usage, from the repository root:

    python3 drt-benchmark/spread.py [first-seed] [-- command ...]

The command defaults to the one in BENCHMARK.json.
"""
import json
import statistics
import subprocess
import sys
import time

args = sys.argv[1:]
command = None
if "--" in args:
    command = args[args.index("--") + 1:]
    args = args[:args.index("--")]
first_seed = int(args[0]) if args else 1
bench = json.load(open("BENCHMARK.json"))
command = command or bench["command"]
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

for workload in (w["name"] for w in bench["workloads"]):
    values = {name: [] for name in bounds}
    digests = []
    t0 = time.time()
    for seed in range(first_seed, first_seed + 10):
        out = subprocess.run(
            command + ["--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        digests += [l.split()[1] for l in out.splitlines() if l.startswith("digest ")]
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, (workload, seed)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    print(f"{workload}  ({(time.time() - t0) / 10:.1f} s per run)")
    for name, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above a third of the bound"
        print(f"  {name:16} median {med:14.4f}  spread {spread:7.4f}  bound {bounds[name]}{flag}")
        print("    " + " ".join(f"{x:.5g}" for x in v))
    print("  digests " + " ".join(digests))
    sys.stdout.flush()
