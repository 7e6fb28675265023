"""Measure the run-to-run spread of every end-to-end metric.

Runs ``run.py --trace 0`` once per seed for each workload and writes, per
workload and metric, the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
next to the metric's bound in ``BENCHMARK.json``.  Usage, from the root of
a checkout::

    python3 perfbench/steadiness.py --runs 10 --first-seed 101
    python3 perfbench/steadiness.py --runs 5 --workloads table1-lanes --out /tmp/s.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "steadiness.json"))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"runs": args.runs, "seconds": spec["run_seconds"],
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
              "workloads": {}}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in record["seeds"]:
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            record.setdefault("summaries", []).append(done.stderr.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed} failed its output check")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary = {}
        for name, sample in values.items():
            q1, median, q3 = statistics.quantiles(sample, n=4)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "bound": bounds[name],
                             "values": sample}
            print(f"{workload:14s} {name:13s} median {median:10.4f} "
                  f"spread {summary[name]['spread']:.3f} (bound {bounds[name]})", flush=True)
        record["workloads"][workload] = summary
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
