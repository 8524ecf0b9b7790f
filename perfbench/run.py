"""Census benchmark: runs the real CLI on a fixed config catalog and checks every report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or `all` to run each in turn.  Every CLI run is a
fresh process (perfbench/child.py, which executes the package's __main__)
with --jobs 1, so caches start cold as they do for a user.  With --trace 0
the run reports the end-to-end metrics, scaled to a nominal host speed by a
fixed reference (perfbench/reference.py) timed around every CLI run; with
--trace 1 it runs traced and untraced copies of the workload and reports the
per-layer metrics, the gf kernel probes and the known-defect probes.  Metric names and units come from
BENCHMARK.json.  The last line of standard output is one JSON object.
perfbench/README.md documents the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from child import SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

L0 = {"l": 0, "a": [1], "b": [1], "c": [2]}
L1 = {"l": 1, "a": [0, 1], "b": [1, 0], "c": [1, 1]}
L2 = {"l": 2, "a": [1, 0, 1], "b": [0, 1, 0], "c": [1, 0, 2]}


def _config(field, bnd, task, **params):
    return {"field": field, "bundle": bnd, "task": task, "params": params}


CONFIGS = {
    "ambient_d2": _config({"p": 3}, L1, "compare", d=2, e_list=[2, 3, 4, 5, 6]),
    "ambient_d4": _config({"p": 3}, L1, "compare", d=4, e_list=[2, 3, 4]),
    "ruled": _config({"p": 3}, L0, "compare", d=2, e_list=[2, 3, 4, 5, 6, 7, 8]),
    "extfield_f9": _config({"q": 9}, L0, "compare", d=2, e_list=[2]),
    "extfield_f25": _config({"q": 25}, L2, "predict", d=2, e_list=[2, 4, 6]),
    "zeta": _config({"p": 3}, L0, "zeta", s=2),
}

# Why each workload exists is documented in perfbench/README.md.
WORKLOADS = {
    "ambient": ("ambient_d2", "ambient_d4"),
    "ruled": ("ruled",),
    "extfield": ("extfield_f9", "extfield_f25"),
    "zeta": ("zeta",),
}

# ROADMAP items 1 and 2: run once per invocation, outside every workload.
DEFECTS = {
    "item1_f9_l1_scan": _config({"q": 9}, L1, "compare", d=2, e_list=[2]),
    "item2_f3_l2_d4_marking": _config({"p": 3}, L2, "compare", d=4, e_list=[2]),
}

# Numbers the README and ROADMAP state, asserted apart from the golden hashes:
# (M_f, M) by height, and the leading digits of the zeta task's final gap.
DOCUMENTED_ROWS = {
    "ruled": {2: (312, 216), 4: (8424, 7260), 8: (6141096, 6001020)},
    "ambient_d4": {2: (387, 225), 3: (5712, 4656), 4: (94323, 87651)},
}
DOCUMENTED_GAP = {"zeta": "0.00000011802041892232"}

# Where each span must fire in a traced run: (metric, relation, value).
TRACE_EXPECT = {
    "ambient": (("curve.zeta_truncated_calls", "==", 0), ("linsys.fiberfree_calls", ">", 0),
                ("linsys.product_pairs", ">", 0)),
    "ruled": (("gf.poly_gcd_calls", ">", 0), ("curve.zeta_truncated_calls", "==", 0),
              ("linsys.product_pairs", ">", 0)),
    "extfield": (("gf.poly_gcd_calls", ">", 0), ("linsys.threshold_s", ">", 0),
                 ("curve.zeta_truncated_calls", "==", 0)),
    "zeta": (("curve.zeta_truncated_calls", "==", 12), ("linsys.fiberfree_calls", "==", 0),
             ("linsys.section_space_calls", "==", 0)),
}

CHILD_TIMEOUT_S = 120
HARD_LIMIT_S = 170        # a workload's child processes are killed after this
SETUP_PROBES = 2          # set-up-only spawns per config per repetition
PROBE_SAMPLE_S = 0.02     # minimum length of one kernel-probe sample
PROBE_SAMPLES = 7
# The perfbench/reference.py kind whose work each workload resembles, and the
# seconds each kind takes on a quiet 2-core x86-64 VM with Python 3.11.7.
# End-to-end times are reported at that host speed: each run's times are scaled
# by the nominal seconds over the reference time measured right before and after it.
REFERENCE = {"ambient": "interp", "ruled": "interp", "extfield": "interp", "zeta": "bigint"}
REF_NOMINAL_S = {"interp": 0.275, "bigint": 0.59}


@dataclass
class Run:
    name: str
    wall: float
    rss_mb: float
    status: int
    out: bytes
    err: str
    side: dict
    timed_out: bool


def spawn(mode, name, config_path, timeout):
    """One CLI process; wall time spans spawn to exit, max RSS comes from wait4."""
    side_path = TMP / "side.json"
    if side_path.exists():
        side_path.unlink()
    argv = [sys.executable, str(HERE / "child.py"), mode, str(side_path),
            "--config", str(config_path), "--jobs", "1"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    fired = []
    err = []

    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    killer = threading.Timer(timeout, lambda: (fired.append(True), proc.kill()))
    killer.start()
    try:
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
    except BaseException:
        proc.kill()
        raise
    finally:
        killer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.monotonic() - t0

    side = {}
    if side_path.exists():
        side = json.loads(side_path.read_text(encoding="utf-8"))
    if "parse_end" in side:
        side["setup_s"] = side["parse_end"] - t0
    return Run(name, wall, usage.ru_maxrss / 1024.0, proc.returncode, out,
               err[0].decode("utf-8", "replace"), side, bool(fired))


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def results_sha(results):
    return sha256(json.dumps(results, sort_keys=True, separators=(",", ":")).encode())


def check_run(run, golden, seed):
    """Problems with one full CLI run; an empty list means the run is correct."""
    name = run.name
    g = golden[name]
    if run.timed_out:
        return [f"{name}: timed out"]
    problems = []
    if run.status != g["exit"]:
        problems.append(f"{name}: exit {run.status}, expected {g['exit']}")
    if "Traceback (most recent call last)" in run.err:
        problems.append(f"{name}: traceback on stderr: {run.err.strip().splitlines()[-1]}")
    if not run.side.get("package", "").startswith(str(SRC)):
        problems.append(f"{name}: package not imported from {SRC}")
    if problems:
        return problems
    try:
        res = json.loads(run.out)["results"]
    except (ValueError, KeyError, TypeError):
        return [f"{name}: output is not a JSON report"]
    if seed == 0 and sha256(run.out) != g["report_sha256"]:
        problems.append(f"{name}: report sha256 differs from the golden report")
    if results_sha(res) != g["results_sha256"]:
        problems.append(f"{name}: seed-invariant results differ from the golden report")
    if name in DOCUMENTED_ROWS:
        got = {r.get("e"): (r.get("enumerated_Mf"), r.get("enumerated_M"))
               for r in res.get("rows", [])}
        for e, pair in DOCUMENTED_ROWS[name].items():
            if got.get(e) != pair:
                problems.append(f"{name}: e={e} gives (M_f, M) = {got.get(e)}, documented {pair}")
    if name in DOCUMENTED_GAP:
        gap = res.get("final_gap", {}).get("decimal", "")
        if not gap.startswith(DOCUMENTED_GAP[name]):
            problems.append(f"{name}: final gap {gap}, documented {DOCUMENTED_GAP[name]}")
    return problems


# --- seeded isomorphic inputs ---


def field_of(gf, spec):
    if "q" in spec:
        q = spec["q"]
        p = next(f for f in range(3, q + 1) if q % f == 0)
        return gf.make_field(p, round(math.log(q, p)))
    return gf.make_field(spec["p"], spec.get("n", 1))


def _conv(F, f, g):
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return out


def _power(F, f, k):
    out = [F.one]
    for _ in range(k):
        out = _conv(F, out, f)
    return out


def isomorphic_copy(gf, cfg, rng, general):
    """The config with its bundle replaced by a random isomorphic bundle.

    A Moebius change of the base coordinate, a permutation of a, b and c, a
    nonzero square factor on each, then one common nonzero factor on all three.
    With general false the change is monomial, t -> s*t or t -> s/t: it keeps
    which coefficients are zero, and so the amount of work, which a general
    change moves by up to a third on the F25 config.
    """
    F = field_of(gf, cfg["field"])
    elems = list(F.elements())
    nonzero = [x for x in elems if x != F.zero]
    l = cfg["bundle"]["l"]
    forms = [[F.from_int(v) if isinstance(v, int) else F.from_digits(v)
              for v in cfg["bundle"][k]] for k in "abc"]
    if general:
        while True:
            al, be, ga, de = (rng.choice(elems) for _ in range(4))
            if F.sub(F.mul(al, de), F.mul(be, ga)) != F.zero:
                break
    else:
        s = rng.choice(nonzero)
        al, be, ga, de = rng.choice([(s, F.zero, F.zero, F.one), (F.zero, s, F.one, F.zero)])
    # coefficient i belongs to X^i Y^(l-i); X -> al X + be Y, Y -> ga X + de Y
    terms = [_conv(F, _power(F, [be, al], i), _power(F, [de, ga], l - i)) for i in range(l + 1)]
    moved = []
    for f in forms:
        g = [F.zero] * (l + 1)
        for c, term in zip(f, terms):
            g = [F.add(x, F.mul(c, y)) for x, y in zip(g, term)]
        moved.append(g)
    rng.shuffle(moved)
    common = rng.choice(nonzero)
    out = dict(cfg, bundle={"l": l})
    for key, g in zip("abc", moved):
        u = rng.choice(nonzero)
        scale = F.mul(common, F.mul(u, u))
        out["bundle"][key] = [F.to_digits(F.mul(scale, c)) for c in g]
    return out


def write_configs(workload, seed, gf, general=False):
    """The workload's configs for this seed, as (name, path) pairs."""
    rng = random.Random(f"{workload}:{seed}:{'general' if general else 'monomial'}")
    paths = []
    for name in WORKLOADS[workload]:
        cfg = CONFIGS[name] if seed == 0 else isomorphic_copy(gf, CONFIGS[name], rng, general)
        path = TMP / f"{name}{'.general' if general else ''}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        paths.append((name, path))
    return paths


# --- statistics ---


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(xs)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(xs)[math.ceil(pct / 100 * n) - 1]


def describe(label, xs, unit):
    t = tail(xs)
    extra = f"p{t[0]}={t[1]:.6g}" if t else "no percentile has ten samples beyond it"
    return (f"  {label:<13} median={median(xs):.6g} {unit}  {extra}  "
            f"min={min(xs):.6g} max={max(xs):.6g}  n={len(xs)}")


# --- measurement ---


class Tally:
    """Runs of one workload: spawns them, checks them and counts the failures."""

    def __init__(self, golden, seed, hard_deadline):
        self.golden, self.seed, self.hard_deadline = golden, seed, hard_deadline
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def timeout(self):
        return max(1.0, min(CHILD_TIMEOUT_S, self.hard_deadline - time.monotonic()))

    def run(self, mode, name, path):
        run = spawn(mode, name, path, self.timeout())
        self.attempted += 1
        if mode == "setup":
            bad = [] if run.status == 0 and "setup_s" in run.side else [f"{name}: set-up probe failed"]
        else:
            bad = check_run(run, self.golden, self.seed)
            if mode == "trace" and "work_error" in run.side:
                bad.append(f"{name}: work counts failed: {run.side['work_error']}")
        if bad:
            self.failed += 1
            self.problems.extend(bad)
        return run


def repetitions(seconds, body):
    """Call body() until the next call would end past the deadline; at least once."""
    start = time.monotonic()
    durations = []
    while True:
        t0 = time.monotonic()
        body(len(durations))
        durations.append(time.monotonic() - t0)
        if time.monotonic() + median(durations) > start + seconds:
            return len(durations)


def reference(kind):
    """Seconds the fixed reference work takes in a fresh process (perfbench/reference.py)."""
    out = subprocess.run([sys.executable, str(HERE / "reference.py"), kind], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return float(out.stdout)


def measure_untraced(workload, paths, tally, seconds):
    """Host-normalized times: each config's spawns are scaled by the references around them."""
    kind = REFERENCE[workload]
    walls, rss, setups = [], [], []
    raw_walls, refs = [], [reference(kind)]

    def rep(_):
        wall, raw, peak = 0.0, 0.0, 0.0
        for name, path in paths:
            runs = [tally.run("setup", name, path) for _ in range(SETUP_PROBES)]
            r = tally.run("run", name, path)
            refs.append(reference(kind))
            scale = REF_NOMINAL_S[kind] / math.sqrt(refs[-2] * refs[-1])
            setups.extend(x.side["setup_s"] * scale for x in runs + [r] if "setup_s" in x.side)
            wall += r.wall * scale
            raw += r.wall
            peak = max(peak, r.rss_mb)
        walls.append(wall)
        raw_walls.append(raw)
        rss.append(peak)

    repetitions(seconds, rep)
    print(describe("raw wall", raw_walls, "s"), flush=True)
    print(describe("reference", refs, "s"), flush=True)
    return {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}


def layer_metrics(runs):
    """Per-layer numbers of one traced repetition, summed over its configs."""
    m = {f"{mod}.self_s": 0.0 for mod in SPANS}
    calls, incl, own = {}, {}, {}
    work = {"members": 0, "product_pairs": 0, "marked": 0}
    repeat_ns = report_bytes = 0
    for r in runs:
        for key, (n, total_ns, self_ns) in r.side.get("spans", {}).items():
            calls[key] = calls.get(key, 0) + n
            incl[key] = incl.get(key, 0) + total_ns
            own[key] = own.get(key, 0) + self_ns
            m[key.split(".")[0] + ".self_s"] += self_ns / 1e9
        for k in work:
            work[k] += r.side.get("work", {}).get(k, 0)
        repeat_ns += r.side.get("fiberfree_repeat_ns", 0)
        report_bytes += len(r.out)

    def s(key):
        return incl.get(key, 0) / 1e9

    m.update({
        "cli.run_report_s": s("cli.run_report"),
        "cli.parse_config_s": s("cli.parse_config"),
        "cli.report_bytes": report_bytes,
        "bundle.validate_bundle_s": s("bundle.validate_bundle"),
        "picard.classes_of_type_calls": calls.get("picard.classes_of_type", 0),
        "picard.decompositions_calls": calls.get("picard.decompositions", 0),
        "picard.normalize_calls": calls.get("picard.normalize", 0),
        "census.compare_table_s": s("census.compare_table"),
        "census.predict_s": s("census.predict"),
        "census.decimal_s": s("census.decimal_of_fraction"),
        "curve.zeta_truncated_calls": calls.get("curve.zeta_truncated", 0),
        "curve.zeta_truncated_s": s("curve.zeta_truncated"),
        "curve.closed_points_s": s("curve.closed_points_up_to"),
        "gf.poly_gcd_calls": calls.get("gf.poly_gcd", 0),
        "gf.poly_gcd_s": s("gf.poly_gcd"),
        "linsys.section_space_calls": calls.get("linsys.section_space", 0),
        "linsys.threshold_s": s("linsys.scan_dimension_threshold"),
        "linsys.fiberfree_calls": calls.get("linsys.fiberfree_count", 0),
        "linsys.fiberfree_s": s("linsys.fiberfree_count"),
        "linsys.fiberfree_repeat_s": repeat_ns / 1e9,
        "linsys.prime_count_s": s("linsys.prime_count"),
        "linsys.prime_count_self_s": own.get("linsys.prime_count", 0) / 1e9,
        "linsys.members": work["members"],
        "linsys.product_pairs": work["product_pairs"],
        "linsys.marked": work["marked"],
    })
    first_s = m["linsys.fiberfree_s"] - m["linsys.fiberfree_repeat_s"]
    pairs = work["product_pairs"]
    m["linsys.fiberfree_ns_per_member"] = first_s * 1e9 / work["members"] if work["members"] else 0.0
    m["linsys.mark_ns_per_pair"] = m["linsys.prime_count_self_s"] * 1e9 / pairs if pairs else 0.0
    m["linsys.mark_yield"] = work["marked"] / pairs if pairs else 0.0
    return m


def measure_traced(workload, paths, tally, seconds):
    """Traced and untraced repetitions in turn: traced, untraced, traced, ..."""
    traced, report_s, plain_out = [], {"trace": [], "run": []}, {}

    def rep(i):
        mode = "run" if i % 2 else "trace"
        runs = [tally.run(mode, name, path) for name, path in paths]
        report_s[mode].append(sum(r.side.get("run_report_ns", 0) for r in runs) / 1e9)
        if mode == "trace":
            traced.append((runs, layer_metrics(runs)))
        else:
            for r in runs:
                plain_out.setdefault(r.name, set()).add(r.out)

    n = repetitions(seconds, rep)
    while n < 3:  # two traced repetitions and one untraced at the least
        rep(n)
        n += 1
    out = {}
    for key, value in traced[0][1].items():
        values = [m[key] for _, m in traced]
        if isinstance(value, int):
            if len(set(values)) != 1:
                tally.problems.append(f"{workload}: count {key} differs across traced runs: {values}")
            out[key] = value
        else:
            out[key] = median(values)
    for runs, _ in traced:
        for r in runs:
            if {r.out} != plain_out[r.name]:
                tally.problems.append(f"{r.name}: traced report differs from the untraced one")
    for metric, rel, value in TRACE_EXPECT[workload]:
        got = out[metric]
        if not (got == value if rel == "==" else got > value):
            tally.problems.append(f"{workload}: {metric} = {got}, expected {rel} {value}")
    out["trace.overhead_ratio"] = median(report_s["trace"]) / median(report_s["run"])
    print(f"  traced repetitions {len(traced)}, untraced {len(report_s['run'])}", flush=True)
    return out


# --- untimed probes ---


def _per_op_ns(fn, ops):
    """Median ns per operation of fn(), which performs `ops` operations."""
    reps = 1
    while True:
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            fn()
        if time.perf_counter_ns() - t0 >= PROBE_SAMPLE_S * 1e9:
            break
        reps *= 2
    samples = []
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter_ns() - t0) / (reps * ops))
    return median(samples)


def kernel_probes(gf):
    """gf arithmetic through its public API on fixed, exhaustive inputs."""
    out = {}
    for q, name in ((3, "F3"), (9, "F9"), (25, "F25")):
        F = field_of(gf, {"q": q})
        elems = list(F.elements())
        pairs = [(a, b) for a in elems for b in elems]
        mul, inv = F.mul, F.inv
        out[f"gf.{name}.mul_ns"] = _per_op_ns(lambda: [mul(a, b) for a, b in pairs], len(pairs))
        if q > 3:
            units = [a for a in elems if a != F.zero]
            out[f"gf.{name}.inv_ns"] = _per_op_ns(lambda: [inv(a) for a in units], len(units))
        if q < 25:
            # every ordered pair of monic quadratics
            monic = [(c0, c1, F.one) for c0 in elems for c1 in elems]
            polys = [(f, g) for f in monic for g in monic]
            out[f"gf.{name}.poly_gcd_us"] = _per_op_ns(
                lambda: [gf.poly_gcd(F, f, g) for f, g in polys], len(polys)) / 1e3
    return out


def known_defects():
    """ROADMAP items 1 and 2; a defect is open while its config does not exit 0."""
    open_count = 0
    for name, cfg in DEFECTS.items():
        path = TMP / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        run = spawn("run", name, path, CHILD_TIMEOUT_S)
        last = run.err.strip().splitlines()[-1] if run.err.strip() else ""
        state = "fixed" if run.status == 0 else "open"
        open_count += state == "open"
        print(f"known defect {name}: {state} (exit {run.status}) {last}", flush=True)
    print(f"check.known_defects_open {open_count}", flush=True)
    return open_count


# --- command line ---


def run_workload(workload, args, gf, golden, declared, defects_open):
    print(f"workload {workload} seed {args.seed} trace {args.trace}", flush=True)
    tally = Tally(golden, args.seed, time.monotonic() + HARD_LIMIT_S)
    paths = write_configs(workload, args.seed, gf)
    if args.trace:
        if args.seed:
            # untimed: one copy under a general Moebius change per config, checked
            # against the seed-invariant results like every other run
            for name, path in write_configs(workload, args.seed, gf, general=True):
                tally.run("run", name, path)
        values = kernel_probes(gf)
        values.update(measure_traced(workload, paths, tally, args.seconds))
        values["check.known_defects_open"] = defects_open
        for name, unit in declared.items():
            print(f"  {name:<34} {values[name]:.6g} {unit}", flush=True)
    else:
        samples = measure_untraced(workload, paths, tally, args.seconds)
        for name, unit in declared.items():
            print(describe(name, samples[name], unit), flush=True)
        values = {name: median(samples[name]) for name in declared}
    ratio = tally.failed / tally.attempted
    print(f"  fail_ratio    {ratio:.6g} ({tally.failed} of {tally.attempted} runs)", flush=True)
    for problem in tally.problems:
        print(f"  FAIL {problem}", flush=True)
    return values, tally


def main(argv=None):
    ap = argparse.ArgumentParser(description="Census benchmark over the conic_census CLI.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "conic_census" / "__main__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'conic_census'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from conic_census import gf

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[layer]}
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, problems = {}, 0, 0, 0
    shutil.rmtree(TMP, ignore_errors=True)
    TMP.mkdir()
    try:
        defects_open = known_defects()
        for workload in names:
            values, tally = run_workload(workload, args, gf, golden, declared, defects_open)
            prefix = f"{workload}." if len(names) > 1 else ""
            for name, unit in declared.items():
                metrics[prefix + name] = {"value": values[name], "unit": unit}
            attempted += tally.attempted
            failed += tally.failed
            problems += len(tally.problems)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print(json.dumps({"correct": problems == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
