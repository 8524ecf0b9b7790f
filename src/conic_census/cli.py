"""Batch front end: parse a JSON config, run one task, emit a JSON or CSV report.

Tasks: classify (singular-fiber catalog), predict (exact constants), enumerate
(per-class dimensions and counts), compare (predicted versus enumerated), zeta
(closed form and Euler-product truncations).  Reports are deterministic: same
config, same bytes.  Every number is an exact integer,
an exact "num/den" string, or a decimal string tagged with its precision and
produced by integer square roots, never binary floats.  --timings adds
wall-clock data and knowingly gives up byte-determinism.  --jobs is accepted
for compatibility and has no effect: every count runs in one thread.

Exit codes: 0 success, 2 bad config or command line, 3 refused enumeration
(budget exhausted or a fiber degree the class lattice cannot represent), 4
internal check failed (an engine consistency assertion; one stderr line, no
report); refusals that strike mid-run leave the finished heights in the
report, flagged, never truncated.
"""

import json
import math
import sys
import time

# census, linsys and picard are imported by the tasks that call them: a zeta or
# classify run then compiles none of the counting engines
from . import bundle, curve, gf
from .errors import (CharTwoUnsupported, ConfigError, EnumerationBudgetExceeded,
                     FieldTooLarge, NonReducedFiber, NotPrime,
                     OddDegreeUnsupported, SingularTotalSpace)

TASKS = ("classify", "predict", "enumerate", "compare", "zeta")
FORMATS = ("json", "csv")
DEFAULT_PRECISION = 12
ZETA_TRUNC_DEPTH = 12


class RunConfig:
    def __init__(self, field, bnd, cv, task, params, resolved):
        self.field = field
        self.bundle = bnd
        self.curve = cv
        self.task = task
        self.params = params
        self.resolved = resolved


def _need(block, path, key, kinds, kindname):
    if key not in block:
        raise ConfigError(f"{path}.{key}", "missing required key")
    v = block[key]
    if not isinstance(v, kinds) or isinstance(v, bool):
        raise ConfigError(f"{path}.{key}", f"must be {kindname}")
    return v


def _parse_field(doc):
    block = doc.get("field")
    if not isinstance(block, dict):
        raise ConfigError("field", "must be an object")
    if "p" in block:
        p = _need(block, "field", "p", int, "an integer")
        n = block.get("n", 1)
    elif "q" in block:
        q = _need(block, "field", "q", int, "an integer")
        if q < 2:
            raise ConfigError("field.q", "must be a prime power at least 3")
        if q > gf.MAX_BASE_ORDER:  # before the factor search, which is linear in q
            raise ConfigError("field", f"q = {q} exceeds the cap {gf.MAX_BASE_ORDER}")
        p = min(f for f in range(2, q + 1) if q % f == 0)
        n = 0
        m = q
        while m % p == 0 and m > 1:
            m //= p
            n += 1
        if m != 1:
            raise ConfigError("field.q", f"{q} is not a prime power")
        if "n" in block and block["n"] != n:
            raise ConfigError("field.n", f"{q} is {p}^{n}, not {p}^{block['n']}")
    else:
        raise ConfigError("field", "needs p (with optional n) or q")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError("field.n", "must be a positive integer")
    if p == 2:
        raise ConfigError("field.p", "characteristic 2 is unsupported")
    # make_field tests p for primality by trial division and prints p^n; any
    # p above the cap, or p >= 2 with 2^n above it, gives p^n above the cap
    if p > gf.MAX_BASE_ORDER or (p > 1 and n > gf.MAX_BASE_ORDER.bit_length()):
        raise ConfigError("field", f"q = {p}^{n} exceeds the cap {gf.MAX_BASE_ORDER}")
    try:
        return gf.make_field(p, n)
    except NotPrime as exc:
        raise ConfigError("field.p", str(exc))
    except FieldTooLarge as exc:
        raise ConfigError("field", str(exc))


def _coeff_element(F, path, v):
    if isinstance(v, int) and not isinstance(v, bool):
        return F.from_int(v)
    if isinstance(v, list) and v and all(isinstance(x, int) and not isinstance(x, bool) for x in v):
        try:
            return F.from_digits(v)
        except ValueError as exc:
            raise ConfigError(path, str(exc))
    raise ConfigError(path, "coefficients are integers or digit vectors")


def _parse_bundle(doc, F):
    block = doc.get("bundle")
    if not isinstance(block, dict):
        raise ConfigError("bundle", "must be an object")
    l = _need(block, "bundle", "l", int, "an integer")
    if l < 0:
        raise ConfigError("bundle.l", "must be nonnegative")
    forms = []
    for key in ("a", "b", "c"):
        coeffs = _need(block, "bundle", key, list, "a list")
        if len(coeffs) != l + 1:
            raise ConfigError(f"bundle.{key}", f"needs exactly {l + 1} coefficients for l = {l}")
        forms.append(tuple(_coeff_element(F, f"bundle.{key}[{i}]", v)
                           for i, v in enumerate(coeffs)))
    return bundle.validate_bundle(F, l, *forms)


def _parse_curve(doc):
    block = doc.get("curve")
    if block is None:
        return curve.P1_CURVE
    if not isinstance(block, dict):
        raise ConfigError("curve", "must be an object")
    genus = _need(block, "curve", "genus", int, "an integer")
    jacobian = _need(block, "curve", "jacobian", int, "an integer")
    l_poly = _need(block, "curve", "l_poly", list, "a list")
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in l_poly):
        raise ConfigError("curve.l_poly", "must be a list of integers")
    try:
        return curve.CurveDescriptor(genus, jacobian, tuple(l_poly))
    except ValueError as exc:
        raise ConfigError("curve", str(exc))


def _parse_params(doc, task, b, cv):
    block = doc.get("params", {})
    if not isinstance(block, dict):
        raise ConfigError("params", "must be an object")
    out = {"d": None, "e_list": None, "s": None, "budget": None,
           "precision": DEFAULT_PRECISION, "format": "json", "output_path": None}
    if "budget" in block:
        v = _need(block, "params", "budget", int, "an integer")
        if v < 1:
            raise ConfigError("params.budget", "must be positive")
        out["budget"] = v
    if "precision" in block:
        v = _need(block, "params", "precision", int, "an integer")
        if v < 1:
            raise ConfigError("params.precision", "must be positive")
        limit = sys.get_int_max_str_digits()
        if limit and v > limit:
            raise ConfigError("params.precision",
                              f"must be at most {limit}, the most digits Python converts "
                              f"to a string (sys.get_int_max_str_digits())")
        out["precision"] = v
    if "format" in block:
        v = _need(block, "params", "format", str, "a string")
        if v not in FORMATS:
            raise ConfigError("params.format", f"must be one of {'/'.join(FORMATS)}")
        out["format"] = v
    if "output_path" in block:
        out["output_path"] = _need(block, "params", "output_path", str, "a string")
    if task in ("predict", "enumerate", "compare"):
        d = _need(block, "params", "d", int, "an integer")
        if d < 1:
            raise ConfigError("params.d", "must be positive")
        if d % 2 and task != "enumerate":
            raise ConfigError("params.d", f"task {task} needs an even fiber degree")
        out["d"] = d
    if task in ("predict", "enumerate", "compare"):
        if "e" in block and "e_list" in block:
            raise ConfigError("params.e", "give e or e_list, not both")
        if "e" in block:
            out["e_list"] = (_need(block, "params", "e", int, "an integer"),)
        elif "e_list" in block:
            es = _need(block, "params", "e_list", list, "a list")
            if not es or not all(isinstance(x, int) and not isinstance(x, bool) for x in es):
                raise ConfigError("params.e_list", "must be a nonempty list of integers")
            out["e_list"] = tuple(es)
        elif task != "predict":
            raise ConfigError("params.e", "missing required key")
    if task == "zeta":
        s = _need(block, "params", "s", int, "an integer")
        if s < 2:
            raise ConfigError("params.s", "the zeta value converges only for s >= 2")
        _check_closed_form_digits(b.field, cv, s)
        out["s"] = s
    if out["format"] == "csv" and task != "compare":
        raise ConfigError("params.format", "csv output exists only for the compare task")
    if task in ("enumerate", "compare") and cv.genus != 0:
        raise ConfigError("curve.genus", "enumeration runs over the projective line only")
    if task in ("enumerate", "compare") and out["d"] % 2 and b.l > 0:
        if b.generic_fiber_trivial:
            raise OddDegreeUnsupported(
                "every singular fiber splits, so the integer class lattice cannot "
                "represent odd fiber degrees")
        raise OddDegreeUnsupported(
            "odd fiber degree requires the ruled model, available only for l = 0")
    return out


def _max_zeta_s(q, limit):
    """Largest s with q^(2s - 1) below 10^limit: on the projective line the
    closed form is q^(2s - 1) / ((q^s - 1)(q^(s - 1) - 1)), in lowest terms."""
    s = int((limit / math.log10(q) + 1) / 2)
    cap = 10 ** limit
    while q ** (2 * s - 1) >= cap:
        s -= 1
    while q ** (2 * s + 1) < cap:
        s += 1
    return s


def _check_closed_form_digits(F, cv, s):
    """Refuse an s whose closed form Python will not convert to a decimal string."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    s_max = _max_zeta_s(F.order, limit)
    if s <= s_max:
        # other L-polynomials move the sizes a little off the line's
        closed = curve.zeta_value(cv, F, s)
        if max(abs(closed.numerator), closed.denominator) < 10 ** limit:
            return
    raise ConfigError(
        "params.s", f"must be at most {s_max} on F{F.order}: beyond that the closed form "
                    f"has more than {limit} digits, the most Python converts to a string "
                    f"(sys.get_int_max_str_digits())")


def _resolved(F, b, cv, task, params):
    coeff_digits = lambda form: [F.to_digits(c) for c in form.coeffs]
    return {
        "field": {"p": F.char, "n": F.degree, "q": F.order},
        "bundle": {"l": b.l, "a": coeff_digits(b.a), "b": coeff_digits(b.b),
                   "c": coeff_digits(b.c)},
        "curve": {"genus": cv.genus, "jacobian": cv.jacobian, "l_poly": list(cv.l_poly)},
        "task": task,
        "params": {k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(params.items())},
    }


def parse_config(text):
    """Validate a JSON config document; report the first error with its field path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("$", "top level must be an object")
    F = _parse_field(doc)
    b = _parse_bundle(doc, F)
    cv = _parse_curve(doc)
    task = doc.get("task")
    if task not in TASKS:
        raise ConfigError("task", f"must be one of {'/'.join(TASKS)}")
    params = _parse_params(doc, task, b, cv)
    return RunConfig(F, b, cv, task, params, _resolved(F, b, cv, task, params))


def _sqrt_obj(x, precision):
    return {"u": str(x.u), "v": str(x.v), "q": x.q,
            "decimal": x.to_decimal(precision), "precision": precision}


def _class_obj(F, D):
    return {"dprime": str(D.dprime), "a": D.a,
            "components": [{"point": curve.point_str(F, P), "side": side, "coeff": c}
                           for P, side, c in D.parts]}


def _task_classify(cfg):
    F = cfg.field
    fibers = sorted(cfg.bundle.singular,
                    key=lambda f: curve.point_sort_key(F, f.point))
    return {
        "singular_fibers": [{"point": curve.point_str(F, f.point),
                             "degree": f.point.degree,
                             "fiber_class": f.fiber_class.value} for f in fibers],
        "total_degree": sum(f.point.degree for f in fibers),
        "generic_fiber_trivial": cfg.bundle.generic_fiber_trivial,
    }, 0


def _task_predict(cfg):
    from . import census, linsys

    b, cv, prm = cfg.bundle, cfg.curve, cfg.params
    d, prec = prm["d"], prm["precision"]
    q = b.field.order
    results = {
        "zeta": str(curve.zeta_value(cv, b.field, d + 1)),
        "a": _sqrt_obj(census.a_const(q, cv.genus, b.l, d), prec),
        "K": _sqrt_obj(census.K_const(b, d), prec),
        "leading_coeff": _sqrt_obj(census.leading_coeff(b, cv, d), prec),
    }
    if cv.genus == 0:
        results["N_emp"] = linsys.scan_dimension_threshold(b, cv, d)
    if prm["e_list"]:
        results["predictions"] = []
        for e in prm["e_list"]:
            main, err = census.predict(b, cv, d, e)
            results["predictions"].append({"e": e, "main": _sqrt_obj(main, prec),
                                           "error_scale": _sqrt_obj(err, prec)})
    return results, 0


def _task_enumerate(cfg):
    from . import linsys, picard

    b, prm = cfg.bundle, cfg.params
    d, budget = prm["d"], prm["budget"]
    status = 0
    heights = []
    for e in prm["e_list"]:
        classes = picard.classes_of_type(b, d, e)
        row = {"e": e,
               "classes": [{"class": _class_obj(b.field, D),
                            "dim": linsys._dim(b, D)} for D in classes]}
        try:
            row["M_f"] = sum(linsys.fiberfree_count(b, D, budget=budget)
                             for D in classes)
            row["M"] = linsys.prime_count(b, d, e, budget=budget)
        except (EnumerationBudgetExceeded, OddDegreeUnsupported) as exc:
            row["refused"] = str(exc)
            status = 3
        heights.append(row)
    return {"N_emp": linsys.scan_dimension_threshold(b, curve.P1_CURVE, d),
            "heights": heights, "partial": status != 0}, status


def _task_compare(cfg):
    from . import census, linsys

    b, cv, prm = cfg.bundle, cfg.curve, cfg.params
    d, budget, prec = prm["d"], prm["budget"], prm["precision"]
    status = 0
    rows = []
    for e in prm["e_list"]:
        try:
            row = census.compare_table(b, cv, d, (e,), budget=budget)[0]
        except (EnumerationBudgetExceeded, OddDegreeUnsupported) as exc:
            main, err = census.predict(b, cv, d, e)
            rows.append({"d": d, "e": e, "predicted": _sqrt_obj(main, prec),
                         "error_scale": _sqrt_obj(err, prec), "refused": str(exc)})
            status = 3
            continue
        rows.append({"d": d, "e": e,
                     "predicted": _sqrt_obj(row["predicted"], prec),
                     "error_scale": _sqrt_obj(row["error_scale"], prec),
                     "enumerated_Mf": row["enumerated_Mf"],
                     "enumerated_M": row["enumerated_M"],
                     "ratio": _sqrt_obj(row["ratio"], prec)})
    return {"N_emp": linsys.scan_dimension_threshold(b, curve.P1_CURVE, d),
            "rows": rows, "partial": status != 0}, status


def _task_zeta(cfg):
    # truncation values are exact rationals with millions of bits by depth 12;
    # reports carry their floor decimals, certified by integer enclosures
    F, cv, prm = cfg.field, cfg.curve, cfg.params
    s, prec = prm["s"], prm["precision"]
    gap_prec = max(prec, 50)
    closed = curve.zeta_value(cv, F, s)
    results = {"s": s, "closed_form": str(closed), "truncations": []}
    if cv.genus == 0:
        last = None
        for depth in range(1, ZETA_TRUNC_DEPTH + 1):
            last = curve.zeta_truncated(F, s, depth)
            results["truncations"].append(
                {"B": depth, "decimal": curve.decimal_of_fraction(last.floor_decimal(prec), prec),
                 "precision": prec})
        gap = last.floor_decimal(gap_prec, closed)
        results["final_gap"] = {
            "decimal": curve.decimal_of_fraction(gap, gap_prec),
            "precision": gap_prec}
    return results, 0


def run_report(cfg, with_timings=False):
    """Execute the configured task; return (report document, exit status)."""
    start = time.monotonic()
    if cfg.task == "classify":
        results, status = _task_classify(cfg)
    elif cfg.task == "predict":
        results, status = _task_predict(cfg)
    elif cfg.task == "enumerate":
        results, status = _task_enumerate(cfg)
    elif cfg.task == "compare":
        results, status = _task_compare(cfg)
    else:
        results, status = _task_zeta(cfg)
    doc = {"config": cfg.resolved, "task": cfg.task, "results": results}
    if with_timings:
        doc["timings"] = {"total_seconds": time.monotonic() - start}
    return doc, status


def render_json(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def render_csv(doc):
    """Flatten compare rows; sqrt values render as their tagged decimals."""
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["d", "e", "predicted", "error_scale", "enumerated_Mf",
                     "enumerated_M", "ratio", "refused"])
    for row in doc["results"]["rows"]:
        writer.writerow([row["d"], row["e"], row["predicted"]["decimal"],
                         row["error_scale"]["decimal"], row.get("enumerated_Mf", ""),
                         row.get("enumerated_M", ""),
                         row["ratio"]["decimal"] if "ratio" in row else "",
                         row.get("refused", "")])
    return out.getvalue()


def _apply_overrides(doc, opts):
    if not isinstance(doc, dict):
        return doc
    if "task" in opts:
        doc["task"] = opts["task"]
    params = doc.setdefault("params", {})
    if isinstance(params, dict):
        for key in ("budget", "precision", "format"):
            if key in opts:
                params[key] = opts[key]
    return doc


# each option's value: int, str, a tuple of choices, or None for a flag
OPTIONS = {
    "--config": (str, "path to a JSON config document (required)"),
    "--task": (TASKS, f"override the task ({'/'.join(TASKS)})"),
    "--format": (FORMATS, f"override the output format ({'/'.join(FORMATS)})"),
    "--budget": (int, "override the enumeration step budget"),
    "--precision": (int, "override decimal rendering digits"),
    "--jobs": (int, "accepted for compatibility; has no effect"),
    "--timings": (None, "append wall-clock timings (breaks byte-determinism)"),
}
USAGE = ("usage: conic-census [-h] --config PATH [--task TASK] [--format FORMAT]\n"
         "                    [--budget N] [--precision N] [--jobs N] [--timings]\n")
HELP = (USAGE + "\nExact constants and exhaustive multisection counts for conic bundles over a\n"
        "projective line.\n\nOptions take --name VALUE or --name=VALUE; the last one given wins.\n"
        "  -h, --help     show this help message and exit\n"
        + "".join(f"  {name:<13}  {text}\n" for name, (_, text) in OPTIONS.items()))


class _UsageError(Exception):
    """A command line that names no config, an unknown option or a bad value."""


def _parse_args(argv):
    """The options of a command line, keyed by name without dashes; None for --help."""
    opts = {}
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            return None
        name, eq, value = arg.partition("=")
        if name not in OPTIONS:
            raise _UsageError(f"unrecognized argument: {arg}")
        kind = OPTIONS[name][0]
        if kind is None:
            if eq:
                raise _UsageError(f"argument {name}: takes no value")
            opts[name[2:]] = True
            continue
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("--"):
                raise _UsageError(f"argument {name}: expected one value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(f"argument {name}: invalid int value: {value!r}")
        elif kind is not str and value not in kind:
            raise _UsageError(f"argument {name}: invalid choice: {value!r} "
                             f"(choose from {', '.join(kind)})")
        opts[name[2:]] = value
    if "config" not in opts:
        raise _UsageError("the following arguments are required: --config")
    return opts


def main(argv=None):
    try:
        opts = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        sys.stderr.write(f"{USAGE}conic-census: error: {exc}\n")
        return 2
    if opts is None:
        sys.stdout.write(HELP)
        return 0
    try:
        with open(opts["config"], encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error at --config: {exc}", file=sys.stderr)
        return 2
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"config error at $: not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(json.dumps(_apply_overrides(doc, opts)))
        report, status = run_report(cfg, with_timings="timings" in opts)
    except ConfigError as exc:
        print(f"config error at {exc.path}: {exc.reason}", file=sys.stderr)
        return 2
    except (NonReducedFiber, SingularTotalSpace, CharTwoUnsupported, NotPrime,
            FieldTooLarge) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EnumerationBudgetExceeded, OddDegreeUnsupported) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    text_out = render_csv(report) if cfg.params["format"] == "csv" else render_json(report)
    if cfg.params["output_path"]:
        try:
            with open(cfg.params["output_path"], "w", encoding="utf-8") as fh:
                fh.write(text_out)
        except OSError as exc:
            print(f"config error at params.output_path: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text_out)
    return status


if __name__ == "__main__":
    sys.exit(main())
