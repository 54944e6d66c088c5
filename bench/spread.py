"""Run-to-run spread of the end-to-end metrics, over a set of seeds.

    python3 bench/spread.py --seeds 1-10 [--workloads characters,sections,cli]
        [--seconds 40] [--label set1]

Runs bench/run.py once per seed and workload, one after another, keeps the
result lines in bench/out/spread-<label>.jsonl and prints, per workload and
metric, the median and the spread: the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="characters,sections,cli")
    ap.add_argument("--seconds", default="40")
    ap.add_argument("--label", default="set")
    args = ap.parse_args(argv)
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    log = os.path.join(BENCH_DIR, "out", "spread-%s.jsonl" % args.label)
    results = {}
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = out.stdout.strip().splitlines()
            line = json.loads(lines[-1])
            for name, value in json.loads(lines[-2])["raw_times"].items():
                line["metrics"][name + " (raw, no bound)"] = {"value": value}
            line.update(workload=workload, seed=seed)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(line) + "\n")
            results.setdefault(workload, []).append(line)
    print("| Workload | Metric | Median | Spread | Failed/attempted |")
    print("|---|---|---|---|---|")
    for workload, lines in results.items():
        shares = {"%d/%d" % (r["failed"], r["attempted"]) for r in lines}
        assert all(r["correct"] for r in lines), "a run gave a wrong answer"
        for name in lines[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in lines]
            print("| %s | %s | %.4g | %.3f | %s |" % (
                workload, name, statistics.median(values), spread(values),
                ", ".join(sorted(shares))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
