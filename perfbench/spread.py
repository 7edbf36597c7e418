"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload query --seeds 1-10 [--seconds S]

Runs the benchmark once per seed (each run a fresh process, as the
benchmark always is) and prints, for every end-to-end metric, the median
and the distance between the first and third quartile as a share of the
median, next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
        res = json.loads(last)
        if out.returncode or not res.get("correct"):
            print(f"seed {seed}: exit {out.returncode} {last[:300]}", file=sys.stderr)
            return 1
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{m['name']:32s} median {med:12.4f} {m['unit']:6s} spread {(q3 - q1) / med:7.2%}  bound {m['bound']:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
