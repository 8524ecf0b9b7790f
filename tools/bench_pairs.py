"""Write a BENCH_<n>.json from alternating benchmark runs of two checkouts.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pairs 10 \
        --stage "class model build (linsys.threshold_s)" --out BENCH_17.json \
        [--claim ambient.wall_s] [--trace ambient --trace extfield]

Each pair runs `python3 perfbench/run.py --workload all --seed 0` once in
each checkout, each from its own files; the parent goes first in
even-numbered pairs (from 0) and the change first in odd-numbered ones.  For
every workload and every end-to-end metric that BENCHMARK.json names, the
file records the value of each run, the quartiles of each side (inclusive
method) and in how many pairs the change was better.  `--claim` adds a claim
block for one metric; `--trace W` runs workload W traced at seed 0 once per
side, parent first, and records the per-layer metrics in TRACE_METRICS.
Then `--workload all --seed 5` runs once per side, parent first, and the
`seed5` block records its end-to-end values, `correct` and `failed`.  Last,
the tier-1 tests run in three alternating pairs, in the same order, and the
`tier1` block records each run's wall time and ten slowest tests, each side's
quartiles and the counts of pytest's summary line, which must not differ
between runs of a side.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

TRACE_METRICS = ("cli.run_report_s", "linsys.threshold_s", "linsys.self_s",
                 "linsys.prime_count_s", "picard.self_s", "picard.classes_of_type_calls",
                 "picard.decompositions_calls", "check.known_defects_open",
                 "trace.overhead_ratio")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10")
# one line of pytest's durations section: "0.36s call     tests/x.py::test_y"
DURATION = re.compile(r"(\d+\.\d+)s (setup|call|teardown) +(.+)$")
# one run per side cannot resolve a change of a few seconds; three pairs give
# each side quartiles for about three minutes of half-minute runs
TIER1_PAIRS = 3
ORDER = "parent first in even-numbered pairs (from 0), change first in odd-numbered pairs"


def bench(checkout, args):
    """The last stdout line of one perfbench/run.py invocation, as a dict."""
    cmd = [sys.executable, "perfbench/run.py", *args]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def commit_of(checkout):
    """The HEAD commit of a git checkout, marked when its tracked files differ
    from HEAD; None for a plain copy of files."""
    git = lambda *cmd: subprocess.run(["git", *cmd], cwd=checkout, capture_output=True,
                                      text=True).stdout.strip()
    head = git("rev-parse", "HEAD")
    if head and git("status", "--porcelain", "--untracked-files=no"):
        return f"uncommitted changes on {head}"
    return head or None


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def better(direction, change, parent):
    return change < parent if direction == "lower" else change > parent


def pair_order(i):
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def run_pairs(sides, pairs, args):
    """Per side, the list of run documents, run in alternating order."""
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        for side in pair_order(i):
            runs[side].append(bench(sides[side], args))
            print(f"pair {i} {side} done", file=sys.stderr, flush=True)
    return runs


def end_to_end(runs, workloads, metrics):
    """The per-workload, per-metric block of the BENCH file."""
    out = {}
    for wl in workloads:
        out[wl] = {}
        for m in metrics:
            key = f"{wl}.{m['name']}"
            vals = {side: [round(doc["metrics"][key]["value"], 4) for doc in docs]
                    for side, docs in runs.items()}
            out[wl][m["name"]] = {
                "parent": vals["parent"],
                "change": vals["change"],
                "parent_quartiles": quartiles(vals["parent"]),
                "change_quartiles": quartiles(vals["change"]),
                "change_better": sum(better(m["better"], c, p)
                                     for p, c in zip(vals["parent"], vals["change"])),
            }
    return out


def claim(block, name, direction):
    wl, metric = name.split(".", 1)
    entry = block[wl][metric]
    return {
        "metric": name,
        "parent": entry["parent_quartiles"],
        "change": entry["change_quartiles"],
        "change_wins": entry["change_better"],
        "pairs": len(entry["parent"]),
        "better": direction,
        "median_ratio": round(entry["parent_quartiles"]["median"]
                              / entry["change_quartiles"]["median"], 3),
    }


def traced(sides, workload):
    """One traced run per side, parent first, with the TRACE_METRICS."""
    cmd = ["--workload", workload, "--seed", "0", "--trace", "1"]
    out = {"command": "python3 perfbench/run.py " + " ".join(cmd),
           "note": "one pair, parent first; per-layer medians over the traced repetitions"}
    correct = True
    for side in ("parent", "change"):
        doc = bench(sides[side], cmd)
        correct = correct and doc["correct"]
        out[side] = {n: round(doc["metrics"][n]["value"], 4)
                     for n in TRACE_METRICS if n in doc["metrics"]}
    out["correct"] = correct
    return out


def seed5(sides, workloads, metrics):
    """One run per side at seed 5, parent first: the check at a seed not used while building."""
    cmd = ["--workload", "all", "--seed", "5"]
    docs = {side: bench(sides[side], cmd) for side in ("parent", "change")}
    out = {"command": "python3 perfbench/run.py " + " ".join(cmd),
           "note": "one run per side, parent first, at a seed not used while building"}
    for side, doc in docs.items():
        out[side] = {wl: {m["name"]: round(doc["metrics"][f"{wl}.{m['name']}"]["value"], 4)
                          for m in metrics} for wl in workloads}
    out["correct"] = all(d["correct"] for d in docs.values())
    out["failed"] = {side: d["failed"] for side, d in docs.items()}
    return out


def slowest(stdout):
    """pytest's durations section as test -> seconds; a setup or teardown
    phase is named with its test and the phase in brackets."""
    lines = iter(stdout.splitlines())
    for line in lines:
        if " slowest " in line and line.startswith("="):
            break
    out = {}
    for line in lines:
        m = DURATION.match(line)
        if not m:
            break
        seconds, phase, test = m.groups()
        out[test if phase == "call" else f"{test} ({phase})"] = float(seconds)
    return out


def tier1(sides):
    """TIER1_PAIRS alternating pairs of tier-1 runs, each with its checkout's src
    on PYTHONPATH: every run's wall time and ten slowest tests, each side's
    quartiles, and the counts of pytest's summary line, which must be the same
    in every run of a side."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    out = {"command": "PYTHONPATH=src python " + " ".join(TIER1), "pairs": TIER1_PAIRS,
           "order": ORDER, "note": "wall_s includes interpreter start-up"}
    walls = {"parent": [], "change": []}
    durations = {"parent": [], "change": []}
    first = {}
    for i in range(TIER1_PAIRS):
        for side in pair_order(i):
            start = time.perf_counter()
            run = subprocess.run([sys.executable, *TIER1], cwd=sides[side], capture_output=True,
                                 text=True, env=dict(os.environ, PYTHONPATH=path))
            walls[side].append(round(time.perf_counter() - start, 2))
            durations[side].append(slowest(run.stdout))
            summary = (run.stdout.strip().splitlines() or [""])[-1]
            counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary)}
            if side not in first:
                first[side] = summary, counts
            elif counts != first[side][1]:
                raise RuntimeError(f"tier-1 counts of the {side} differ between runs: "
                                   f"{first[side][0]!r}, then {summary!r}")
    for side, (summary, counts) in first.items():
        out[side] = {"wall_s": walls[side], "slowest_s": durations[side],
                     "wall_quartiles": quartiles(walls[side]), "summary": summary, **counts}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--stage", required=True, help="the stage the change moved")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--claim", help="WORKLOAD.METRIC whose gain is claimed")
    ap.add_argument("--trace", action="append", default=[], metavar="WORKLOAD")
    ns = ap.parse_args(argv)
    if ns.pairs < 2:
        ap.error("quartiles need at least two pairs")
    sides = {"parent": Path(ns.parent).resolve(), "change": Path(ns.change).resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    args = ["--workload", "all", "--seed", "0"]
    runs = run_pairs(sides, ns.pairs, args)
    block = end_to_end(runs, workloads, metrics)
    doc = {
        "stage_moved": ns.stage,
        "parent_commit": commit_of(sides["parent"]),
        "commit": commit_of(sides["change"]),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "end_to_end": {
            "command": "python3 perfbench/run.py " + " ".join(args),
            "pairs": ns.pairs,
            "order": ORDER,
            "note": "each run value is the median over that run's repetitions; "
                    "each side ran from its own copy of the files",
            "correct": all(d["correct"] for docs in runs.values() for d in docs),
            "failed": {side: sum(d["failed"] for d in docs) for side, docs in runs.items()},
            "per_workload": block,
        },
    }
    for wl in ns.trace:
        doc[f"trace_{wl}"] = traced(sides, wl)
    if ns.claim:
        direction = next(m["better"] for m in metrics if m["name"] == ns.claim.split(".", 1)[1])
        doc["claim_" + ns.claim.replace(".", "_")] = claim(block, ns.claim, direction)
    doc["seed5"] = seed5(sides, workloads, metrics)
    doc["tier1"] = tier1(sides)
    Path(ns.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
