"""One CLI run of the census benchmark, exactly as `python -m conic_census ARGS` runs.

    python3 perfbench/child.py MODE SIDE_FILE ARGS...

The package is imported from PYTHONPATH and its `__main__` is executed with
ARGS as the command line.  Before that, public module attributes are replaced
with wrappers; no source file changes.  What the wrappers record is written
as JSON to SIDE_FILE when the interpreter exits.

MODE
  run    stamp when cli.parse_config returns and time cli.run_report
  setup  exit with status 0 as soon as cli.parse_config returns
  trace  like run, plus a timing span around every function in SPANS and the
         exact work counts of the run, computed after the CLI has finished
"""

import atexit
import functools
import importlib
import json
import runpy
import sys
import time

# Only names that callers look up on the module at call time can be wrapped;
# linsys binds bundle.fiber_lines at import, for one, so it is not listed.
# Field-object methods are not wrapped: one run makes millions of calls.
SPANS = {
    "cli": ("parse_config", "run_report", "render_json", "render_csv"),
    "bundle": ("validate_bundle",),
    "picard": ("classes_of_type", "decompositions", "normalize"),
    "linsys": ("section_space", "fiberfree_count", "prime_count",
               "scan_dimension_threshold"),
    "census": ("compare_table", "predict", "decimal_of_fraction"),
    "curve": ("zeta_truncated", "zeta_value", "closed_points_up_to"),
    "gf": ("poly_gcd",),
}


class Tracer:
    """Aggregated spans: calls, outermost inclusive time and self time per name."""

    def __init__(self):
        self.stack = []
        self.stats = {}
        self.depth = {}

    def wrap(self, module, short, name, on_return=None):
        fn = getattr(module, name)
        key = f"{short}.{name}"
        st = self.stats.setdefault(key, [0, 0, 0])
        self.depth[key] = 0
        stack, depth, clock = self.stack, self.depth, time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            depth[key] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[key] -= 1
                st[0] += 1
                if not depth[key]:
                    st[1] += dt
                st[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if on_return is not None:
                on_return(args, kwargs, out, dt)
            return out

        setattr(module, name, span)
        return fn


class WorkLog:
    """Inputs and results of the counting calls, for the exact work counts."""

    def __init__(self):
        self.mf = {}          # (bundle, class) -> fiber-free count, first call
        self.repeat_ns = 0    # time in fiberfree_count for classes already counted
        self.primes = []      # (bundle, d, e, M) per prime_count call

    def fiberfree(self, args, kwargs, out, dt):
        key = (args[0], args[1])
        if key in self.mf:
            self.repeat_ns += dt
        else:
            self.mf[key] = out

    def prime(self, args, kwargs, out, dt):
        self.primes.append((args[0], args[1], args[2], out))

    def counts(self, orig, errors):
        """members, product_pairs and marked, from the logged inputs and results."""
        known = dict(self.mf)

        def mf(b, D):
            if (b, D) not in known:
                known[(b, D)] = orig["linsys.fiberfree_count"](b, D)
            return known[(b, D)]

        members = 0
        for b, D in self.mf:
            try:
                dim = orig["linsys.section_space"](b, D).dim
            except errors.EmptySpace:
                dim = 0
            q = b.field.order
            members += (q ** dim - 1) // (q - 1)
        pairs = marked = 0
        for b, d, e, m in self.primes:
            total = 0
            for D in orig["picard.classes_of_type"](b, d, e):
                total += mf(b, D)
                for D1, D2 in orig["picard.decompositions"](b, D):
                    if D1.dprime == 0 or D2.dprime == 0:
                        continue
                    n1, n2 = mf(b, D1), mf(b, D2)
                    pairs += n1 * (n1 + 1) // 2 if D1 == D2 else n1 * n2
            marked += total - m
        return {"members": members, "product_pairs": pairs, "marked": marked}


def main(argv):
    mode, side_path, cli_args = argv[0], argv[1], argv[2:]
    import conic_census
    from conic_census import cli, errors

    side = {"package": conic_census.__file__}
    tracer = Tracer()
    log = WorkLog()
    orig = {}

    @atexit.register
    def write_side():
        if mode == "trace" and "run_report_end" in side:
            # copied first: the counts below call wrapped functions again
            side["spans"] = {key: list(st) for key, st in tracer.stats.items()}
            side["fiberfree_repeat_ns"] = log.repeat_ns
            try:
                side["work"] = log.counts(orig, errors)
            except Exception as exc:  # reported to the parent as a failed check
                side["work_error"] = repr(exc)
        with open(side_path, "w", encoding="utf-8") as fh:
            json.dump(side, fh)

    if mode == "trace":
        hooks = {"linsys.fiberfree_count": log.fiberfree, "linsys.prime_count": log.prime}
        for short, names in SPANS.items():
            for name in names:
                key = f"{short}.{name}"
                module = importlib.import_module(f"conic_census.{short}")
                orig[key] = tracer.wrap(module, short, name, hooks.get(key))

    parse, run = cli.parse_config, cli.run_report

    def parse_config(*args, **kwargs):
        out = parse(*args, **kwargs)
        side["parse_end"] = time.monotonic()
        if mode == "setup":
            raise SystemExit(0)
        return out

    def run_report(*args, **kwargs):
        t0 = time.perf_counter_ns()
        out = run(*args, **kwargs)
        side["run_report_ns"] = time.perf_counter_ns() - t0
        side["run_report_end"] = True
        return out

    cli.parse_config, cli.run_report = parse_config, run_report
    sys.argv = ["conic_census"] + cli_args
    runpy.run_module("conic_census", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
