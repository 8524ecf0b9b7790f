"""Record perfbench/golden.json: exit code and report hashes of every catalog config.

    python3 perfbench/record_golden.py

Run it only on a commit whose reports are known good; the benchmark fails
every run whose report differs from what this records.
"""

import json
import shutil
import sys

import run as bench


def main():
    shutil.rmtree(bench.TMP, ignore_errors=True)
    bench.TMP.mkdir()
    golden = {}
    try:
        for name, cfg in bench.CONFIGS.items():
            path = bench.TMP / f"{name}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            r = bench.spawn("run", name, path, bench.CHILD_TIMEOUT_S)
            if r.timed_out or "Traceback" in r.err:
                sys.exit(f"{name}: the run failed, nothing recorded\n{r.err}")
            golden[name] = {"exit": r.status, "report_sha256": bench.sha256(r.out),
                            "results_sha256": bench.results_sha(json.loads(r.out)["results"])}
            print(name, golden[name], flush=True)
    finally:
        shutil.rmtree(bench.TMP, ignore_errors=True)
    (bench.HERE / "golden.json").write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                                            encoding="utf-8")


if __name__ == "__main__":
    main()
