"""Benchmark of kleinform: seeded workloads, checked answers, one JSON line.

    python3 bench/run.py --workload characters|sections|cli --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout.  A run repeats whole rounds of the
workload, each in a fresh interpreter so every round starts with cold
caches, until the next round would overrun --seconds (at least one round),
then checks every answer against the oracles in oracles.py.  With --trace 0
the last stdout line holds the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of one traced round, plus the tracing overhead
against one untraced round, and the spans go to bench/out/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, BENCH_DIR)

import cliwork  # noqa: E402
import make_data  # noqa: E402
import workloads  # noqa: E402
from reference import reference_seconds  # noqa: E402
from tracing import CLI_COMMANDS  # noqa: E402

WORKLOADS = ("characters", "sections", "cli")
SETUP_SAMPLES = 7
DEADLINE_S = 170


def median(xs):
    return statistics.median(xs)


def run_worker(spec_path, *flags):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), spec_path] + list(flags)
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=DEADLINE_S)
    if done.returncode != 0:
        raise RuntimeError("worker failed (%d): %s" % (done.returncode, done.stderr.strip()))
    return json.loads(done.stdout.strip().splitlines()[-1])


def write_spec(spec, tag):
    path = os.path.join(OUT_DIR, "%s-spec.json" % tag)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path


def merge_layers(reports):
    """Layer metrics of several traced processes: counts and times add up."""
    total = {}
    for layers in reports:
        for key, value in layers.items():
            if key == "lifts.window_max":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


class LibraryRounds:
    """characters and sections: worker processes, one after another.

    A characters round is one worker, so later queries find the caches the
    earlier ones filled.  A sections round runs each count in its own
    worker: a count's cost would otherwise depend on which counts ran
    before it in the seeded order, and each worker times the reference
    around its one count, which follows the machine's drift over the
    round.
    """

    def __init__(self, workload, seed, tag):
        self.spec = getattr(workloads, workload)(seed)
        self.size = len(self.spec["queries"])
        self.path = write_spec(self.spec, tag)
        if self.spec.get("split"):
            self.parts = [write_spec(workloads.one_query(self.spec, q), "%s-%d" % (tag, i))
                          for i, q in enumerate(self.spec["queries"])]
        else:
            self.parts = [self.path]

    def setup(self):
        return run_worker(self.path, "--setup-only")["setup_s"]

    def round(self, trace_path=None):
        reps = [run_worker(path, *(["--trace", "%s.%d" % (trace_path, i)] if trace_path else []))
                for i, path in enumerate(self.parts)]
        layers = None
        if trace_path:
            layers = merge_layers(rep["layers"] for rep in reps)
            layers["cli.import_s"] = median(rep["import_s"] for rep in reps)
        refs = [statistics.mean(rep["ref_s"]) for rep in reps]
        return {"setup_s": reps[0]["setup_s"] if len(reps) == 1 else None,
                "wall_s": sum(rep["wall_s"] for rep in reps),
                "norm": sum(rep["wall_s"] / ref for rep, ref in zip(reps, refs)),
                "latencies": [x for rep in reps for x in rep["latencies"]],
                "scaled": [x / ref for rep, ref in zip(reps, refs) for x in rep["latencies"]],
                "rss_kb": max(rep["rss_kb"] for rep in reps),
                "answers": [a for rep in reps for a in rep["answers"]], "layers": layers}

    @staticmethod
    def failures(answers):
        return sum(1 for a in answers if a is None)

    def check(self, answers):
        workloads.check_library_answers(self.spec, answers)


class CliRounds:
    """cli: one fresh `python3 -m kleinform` per command, one after another."""

    def __init__(self, seed, tag):
        self.work = os.path.join(OUT_DIR, tag)
        self.cmds = cliwork.make(seed, ROOT, self.work)
        self.size = len(self.cmds)
        self.path = write_spec({"commands": [argv for argv, _ in self.cmds]}, tag)

    def setup(self):
        return run_worker(self.path, "--setup-only")["setup_s"]

    def round(self, trace_path=None):
        """Each command's time is divided by the reference timed on each side of it."""
        err = os.path.join(self.work, "stderr.txt")
        outputs, latencies, rss, refs = [], [], [], [reference_seconds(1)]
        for i, (argv, _) in enumerate(self.cmds):
            spans = None if trace_path is None else "%s.%d" % (trace_path, i)
            out, code, elapsed, rss_kb = cliwork.run_command(argv, ROOT, err, spans)
            refs.append(reference_seconds(1))
            outputs.append((out, code))
            latencies.append(elapsed)
            rss.append(rss_kb)
        layers = None if trace_path is None else self.cli_layers(trace_path, latencies)
        scaled = [t / statistics.mean(refs[i:i + 2]) for i, t in enumerate(latencies)]
        return {"setup_s": None, "wall_s": sum(latencies), "norm": sum(scaled),
                "latencies": latencies, "scaled": scaled, "rss_kb": max(rss), "answers": outputs,
                "layers": layers}

    def cli_layers(self, trace_path, latencies):
        """Layer metrics summed over the traced commands, plus cli timings."""
        reports, imports, per_cmd = [], [], {c: [] for c in CLI_COMMANDS}
        for i, (argv, _) in enumerate(self.cmds):
            with open("%s.%d.json" % (trace_path, i), encoding="utf-8") as fh:
                rep = json.load(fh)
            reports.append(rep["layers"])
            imports.append(rep["import_s"])
            per_cmd[argv[0]].append(latencies[i] * 1000)
        total = merge_layers(reports)
        total["cli.import_s"] = median(imports)
        for c, ms in per_cmd.items():
            total["cli.%s.p50_ms" % c] = median(ms)
        return total

    @staticmethod
    def failures(answers):
        return sum(1 for _, code in answers if code != 0)

    def check(self, answers):
        cliwork.check(self.cmds, answers)


def end_to_end(rounds, setups):
    """The end-to-end metrics, as medians over rounds and pooled queries.

    Raw wall and query times move by a fifth or more between runs minutes
    apart on a shared machine, while their ratios to the reference loop
    hold within a few percent, so the ratios are the metrics and the raw
    times are printed beside them (raw_times) without a bound.
    """
    return {
        "setup_s": (median(setups), "s"),
        "wall_norm": (median(r["norm"] for r in rounds), "ref"),
        "query_p50_norm": (median(x for r in rounds for x in r["scaled"]), "ref"),
        "peak_rss_mb": (median(r["rss_kb"] for r in rounds) / 1024, "MB"),
    }


def raw_times(rounds):
    return {"wall_s": median(r["wall_s"] for r in rounds),
            "query_p50_ms": median(x for r in rounds for x in r["latencies"]) * 1000}


UNITS = {"self_s": "s", "certify_s": "s", "import_s": "s", "overhead_s": "s",
         "p50_ms": "ms"}


def per_layer(traced, untraced, library):
    metrics = dict(traced["layers"])
    if library:
        for c in CLI_COMMANDS:
            metrics.setdefault("cli.%s.p50_ms" % c, 0.0)
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return {k: (v, UNITS.get(k.rsplit(".", 1)[-1], "count")) for k, v in metrics.items()}


def _on_deadline(signum, frame):
    raise TimeoutError("run exceeded %d s" % DEADLINE_S)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kleinform", "__init__.py")):
        print("error: no src/kleinform under %s; run from a checkout" % ROOT, file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_S)
    make_data.check()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    if args.workload == "cli":
        bench = CliRounds(args.seed, tag)
    else:
        bench = LibraryRounds(args.workload, args.seed, tag)

    rounds, setups = [], []
    start = time.perf_counter()
    if args.trace:
        rounds.append(bench.round())
        trace_path = os.path.join(OUT_DIR, "trace-%s.jsonl" % tag)
        rounds.append(bench.round(trace_path))
    else:
        round_s = []
        while True:
            t = time.perf_counter()
            rounds.append(bench.round())
            round_s.append(time.perf_counter() - t)
            if time.perf_counter() - start + median(round_s) > args.seconds:
                break
        setups = [r["setup_s"] for r in rounds if r["setup_s"] is not None]
        while len(setups) < SETUP_SAMPLES:
            setups.append(bench.setup())

    # answers are checked after the timed phase: every round must agree with
    # the first, and the first with the oracles
    first = rounds[0]["answers"]
    failed = sum(bench.failures(r["answers"]) for r in rounds)
    correct = all(r["answers"] == first for r in rounds)
    try:
        bench.check(first)
    except AssertionError as exc:
        print("wrong answer: %s" % exc, file=sys.stderr)
        correct = False
    if args.trace:
        metrics = per_layer(rounds[1], rounds[0], args.workload != "cli")
    else:
        metrics = end_to_end(rounds, setups)
        print(json.dumps({"raw_times": raw_times(rounds)}))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.size * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
