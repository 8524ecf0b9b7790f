"""The BENCH file writer in tools/bench_pairs.py, on stand-in benchmark runs, and
the functions perfbench traces."""

import importlib
import importlib.util
import json
import os
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# ambient wall_s at the parent in BENCH_13.json, whose quartiles were taken by hand
PARENT_WALLS = [0.4294, 0.3949, 0.4201, 0.3966, 0.4018, 0.4312, 0.3839, 0.4129, 0.3851, 0.3863]


def _doc(wall, correct=True, failed=0):
    metrics = {"ambient.wall_s": {"value": wall, "unit": "s"},
               "ambient.peak_rss_mb": {"value": 22.5, "unit": "MB"}}
    return {"correct": correct, "attempted": 2, "failed": failed, "metrics": metrics}


def test_quartiles_match_the_hand_assembled_file():
    assert bench_pairs.quartiles(PARENT_WALLS) == {"median": 0.3992, "q1": 0.3885, "q3": 0.4183}


def test_pairs_alternate_and_count_the_better_side(monkeypatch, tmp_path):
    calls = []
    walls = {"parent": iter(PARENT_WALLS), "change": iter(w - 0.03 for w in PARENT_WALLS)}

    def fake_bench(checkout, args):
        side = Path(checkout).name
        seed = args[args.index("--seed") + 1]
        calls.append((side, seed))
        if seed == "5":
            # the change fails one run at seed 5
            return _doc(0.5, correct=side == "parent", failed=int(side == "change"))
        return _doc(next(walls[side]))

    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    monkeypatch.setattr(bench_pairs, "commit_of", lambda checkout: None)
    tier1_runs = []
    monkeypatch.setattr(bench_pairs.subprocess, "run", _fake_pytest(tier1_runs))
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    spec_doc = {"workloads": [{"name": "ambient"}],
                "end_to_end": [{"name": "wall_s", "better": "lower"},
                               {"name": "peak_rss_mb", "better": "lower"}]}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec_doc))
    out = tmp_path / "BENCH_0.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--pairs", "10",
                             "--stage", "a stage", "--out", str(out),
                             "--claim", "ambient.wall_s"]) == 0
    pairs = [("parent", "0"), ("change", "0"), ("change", "0"), ("parent", "0")] * 5
    assert calls == pairs + [("parent", "5"), ("change", "5")]
    doc = json.loads(out.read_text())
    assert doc["stage_moved"] == "a stage"
    e2e = doc["end_to_end"]
    assert e2e["correct"] and e2e["failed"] == {"parent": 0, "change": 0}
    wall = e2e["per_workload"]["ambient"]["wall_s"]
    assert wall["parent"] == PARENT_WALLS
    assert wall["parent_quartiles"]["median"] == 0.3992
    assert wall["change_better"] == 10
    assert e2e["per_workload"]["ambient"]["peak_rss_mb"]["change_better"] == 0
    claim = doc["claim_ambient_wall_s"]
    assert claim["change_wins"] == 10 and claim["pairs"] == 10
    seed5 = doc["seed5"]
    assert seed5["command"] == "python3 perfbench/run.py --workload all --seed 5"
    assert seed5["correct"] is False and seed5["failed"] == {"parent": 0, "change": 1}
    assert seed5["parent"] == seed5["change"] == {"ambient": {"wall_s": 0.5, "peak_rss_mb": 22.5}}
    # the tier-1 tests ran once per side, parent first, from each checkout's src
    assert [Path(cwd).name for cwd, _ in tier1_runs] == ["parent", "change"]
    assert all(path.split(os.pathsep)[0] == "src" for _, path in tier1_runs)
    tier1 = doc["tier1"]
    assert tier1["command"] == "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors"
    for side in ("parent", "change"):
        assert tier1[side]["passed"] == 275 and tier1[side]["failed"] == 2
        assert tier1[side]["summary"] == "2 failed, 275 passed in 26.35s"
        assert tier1[side]["wall_s"] >= 0


def _fake_pytest(runs):
    """A stand-in for subprocess.run that records the tier-1 call's working
    directory and PYTHONPATH and prints pytest's summary line."""
    def run(cmd, cwd, capture_output, text, env):
        assert cmd[1:] == ["-m", "pytest", "-q", "--continue-on-collection-errors"]
        runs.append((cwd, env["PYTHONPATH"]))
        stdout = "....F\n=== short test summary info ===\n2 failed, 275 passed in 26.35s\n"
        return subprocess.CompletedProcess(cmd, 1, stdout=stdout, stderr="")
    return run


def test_tier1_counts_every_outcome_of_the_summary_line(monkeypatch):
    def run(cmd, cwd, capture_output, text, env):
        return subprocess.CompletedProcess(cmd, 1, stdout="1 failed, 3 passed, 2 errors in 0.50s\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    got = bench_pairs.tier1({"parent": "p", "change": "c"})["change"]
    assert {k: got[k] for k in ("failed", "passed", "errors")} == {"failed": 1, "passed": 3,
                                                                   "errors": 2}


def test_perfbench_spans_name_live_functions():
    # a traced benchmark run wraps each of these by name, so a refactor that
    # drops one fails here rather than in the benchmark
    spec = importlib.util.spec_from_file_location("perfbench_child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    for short, names in child.SPANS.items():
        module = importlib.import_module(f"conic_census.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{short}.{name}"
