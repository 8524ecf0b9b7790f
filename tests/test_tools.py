"""The BENCH file writer in tools/bench_pairs.py, on stand-in benchmark runs, and
the functions perfbench traces."""

import importlib
import importlib.util
import json
import os
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

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
    _fake_pytest(monkeypatch, tier1_runs)
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
    # the tier-1 tests ran in three alternating pairs, from each checkout's src
    assert [Path(cwd).name for cwd, _ in tier1_runs] == [side for side, _ in pairs[:6]]
    assert all(path.split(os.pathsep)[0] == "src" for _, path in tier1_runs)
    tier1 = doc["tier1"]
    assert tier1["command"] == "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors"
    assert tier1["pairs"] == 3 and tier1["order"] == bench_pairs.ORDER
    for side, walls in TIER1_WALLS.items():
        assert tier1[side]["passed"] == 275 and tier1[side]["failed"] == 2
        assert tier1[side]["summary"] == f"2 failed, 275 passed in {walls[0]}s"
        assert tier1[side]["wall_s"] == walls
        assert tier1[side]["wall_quartiles"] == bench_pairs.quartiles(walls)
    assert tier1["change"]["wall_quartiles"] == {"median": 27.5, "q1": 27.25, "q3": 28.0}


# tier-1 wall times of the stand-in runs, in each side's run order
TIER1_WALLS = {"parent": [31.0, 30.5, 29.0], "change": [28.5, 27.5, 27.0]}


def _fake_pytest(monkeypatch, runs, summaries=None):
    """Stand-ins for subprocess.run and the clock: each tier-1 call records its
    working directory and PYTHONPATH, takes the side's next TIER1_WALLS time
    and prints pytest's summary line, the next of `summaries` if given."""
    now = [0.0]
    walls = {side: iter(values) for side, values in TIER1_WALLS.items()}
    lines = iter(summaries or ())

    def run(cmd, cwd, capture_output, text, env):
        assert cmd[1:] == ["-m", "pytest", "-q", "--continue-on-collection-errors"]
        runs.append((cwd, env["PYTHONPATH"]))
        wall = next(walls[Path(cwd).name])
        now[0] += wall
        summary = next(lines, f"2 failed, 275 passed in {wall}s")
        stdout = f"....F\n=== short test summary info ===\n{summary}\n"
        return subprocess.CompletedProcess(cmd, 1, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    monkeypatch.setattr(bench_pairs, "time", SimpleNamespace(perf_counter=lambda: now[0]))


def test_tier1_counts_every_outcome_of_the_summary_line(monkeypatch):
    _fake_pytest(monkeypatch, [], ["1 failed, 3 passed, 2 errors in 0.50s"] * 6)
    got = bench_pairs.tier1({"parent": "parent", "change": "change"})["change"]
    assert {k: got[k] for k in ("failed", "passed", "errors")} == {"failed": 1, "passed": 3,
                                                                   "errors": 2}


def test_tier1_refuses_counts_that_differ_between_runs(monkeypatch):
    # the change's second run (the third run overall) loses a test
    summaries = ["2 failed, 275 passed in 1s"] * 6
    summaries[2] = "2 failed, 274 passed in 1s"
    _fake_pytest(monkeypatch, [], summaries)
    with pytest.raises(RuntimeError, match="change differ between runs"):
        bench_pairs.tier1({"parent": "parent", "change": "change"})


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
