"""Config parsing, report plumbing and exit codes for the batch front end."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import oracles
from conic_census import census, cli, gf, linsys
from conic_census.errors import (ConfigError, NonReducedFiber,
                                 OddDegreeUnsupported, SingularTotalSpace)

TRIVIAL = {"field": {"p": 3, "n": 1},
           "bundle": {"l": 0, "a": [1], "b": [1], "c": [-1]}}
MIXED = {"field": {"p": 3},
         "bundle": {"l": 1, "a": [0, 1], "b": [1, 0], "c": [1, 1]}}
ALLSPLIT = {"field": {"p": 3},
            "bundle": {"l": 1, "a": [0, 1], "b": [1, 0], "c": [2, 2]}}


def doc(base, task, **params):
    out = dict(base)
    out["task"] = task
    out["params"] = params
    return out


def parse(base, task, **params):
    return cli.parse_config(json.dumps(doc(base, task, **params)))


def err_path(base, task, **params):
    with pytest.raises(ConfigError) as info:
        parse(base, task, **params)
    return info.value.path


def test_parse_minimal_trivial():
    cfg = parse(TRIVIAL, "classify")
    assert cfg.field.order == 3 and cfg.bundle.l == 0
    assert cfg.curve.genus == 0 and cfg.task == "classify"
    assert cfg.params["precision"] == 12 and cfg.params["format"] == "json"
    assert cfg.resolved["bundle"]["c"] == [[2]]
    assert cfg.resolved["field"] == {"p": 3, "n": 1, "q": 3}


def test_parse_field_variants():
    nine = dict(TRIVIAL, field={"q": 9},
                bundle={"l": 0, "a": [[1, 0]], "b": [[0, 1]], "c": [[1, 1]]})
    cfg = cli.parse_config(json.dumps(doc(nine, "classify")))
    assert cfg.field.order == 9 and cfg.resolved["field"] == {"p": 3, "n": 2, "q": 9}
    assert err_path(dict(TRIVIAL, field={"p": 2}), "classify") == "field.p"
    assert err_path(dict(TRIVIAL, field={"p": 4}), "classify") == "field.p"
    assert err_path(dict(TRIVIAL, field={"q": 10}), "classify") == "field.q"
    assert err_path(dict(TRIVIAL, field={"q": 9, "n": 3}), "classify") == "field.n"
    assert err_path(dict(TRIVIAL, field={"p": 3, "n": 0}), "classify") == "field.n"
    assert err_path(dict(TRIVIAL, field={"p": 3, "n": 4}), "classify") == "field"
    assert err_path(dict(TRIVIAL, field={}), "classify") == "field"
    assert err_path({"bundle": TRIVIAL["bundle"]}, "classify") == "field"


def test_parse_bundle_errors():
    assert err_path(dict(TRIVIAL, bundle={"l": 0, "a": [1, 1], "b": [1], "c": [-1]}),
                    "classify") == "bundle.a"
    assert err_path(dict(TRIVIAL, bundle={"l": 0, "a": [True], "b": [1], "c": [-1]}),
                    "classify") == "bundle.a[0]"
    assert err_path(dict(TRIVIAL, bundle={"l": 0, "a": ["x"], "b": [1], "c": [-1]}),
                    "classify") == "bundle.a[0]"
    assert err_path({"field": {"p": 3}}, "classify") == "bundle"
    with pytest.raises(SingularTotalSpace):
        parse(dict(TRIVIAL, bundle={"l": 0, "a": [0], "b": [1], "c": [1]}), "classify")
    with pytest.raises(NonReducedFiber):
        parse(dict(TRIVIAL, bundle={"l": 1, "a": [0, 1], "b": [0, 2], "c": [1, 0]}),
              "classify")


def test_parse_curve_and_task():
    g1 = dict(TRIVIAL, curve={"genus": 1, "jacobian": 3, "l_poly": [1, -1, 3]})
    cfg = parse(g1, "predict", d=2)
    assert cfg.curve.genus == 1
    assert err_path(g1, "enumerate", d=2, e=4) == "curve.genus"
    assert err_path(dict(TRIVIAL, curve={"genus": 1}), "classify") == "curve.jacobian"
    assert err_path(dict(TRIVIAL, curve={"genus": 1, "jacobian": 1, "l_poly": [2]}),
                    "classify") == "curve"
    with pytest.raises(ConfigError) as info:
        cli.parse_config(json.dumps(dict(TRIVIAL, task="paint")))
    assert info.value.path == "task"
    with pytest.raises(ConfigError) as info:
        cli.parse_config("[1,2]")
    assert info.value.path == "$"
    with pytest.raises(ConfigError) as info:
        cli.parse_config("{nope")
    assert info.value.path == "$"


def test_parse_params_errors():
    assert err_path(TRIVIAL, "enumerate", e=4) == "params.d"
    assert err_path(TRIVIAL, "enumerate", d=0, e=4) == "params.d"
    assert err_path(TRIVIAL, "compare", d=3, e=4) == "params.d"
    assert err_path(TRIVIAL, "enumerate", d=2) == "params.e"
    assert err_path(TRIVIAL, "enumerate", d=2, e=4, e_list=[4]) == "params.e"
    assert err_path(TRIVIAL, "enumerate", d=2, e_list=[]) == "params.e_list"
    assert err_path(TRIVIAL, "enumerate", d=2, e=4, budget=0) == "params.budget"
    assert err_path(TRIVIAL, "enumerate", d=2, e=4, precision=0) == "params.precision"
    assert err_path(TRIVIAL, "enumerate", d=2, e=4, format="yaml") == "params.format"
    assert err_path(TRIVIAL, "classify", format="csv") == "params.format"
    assert err_path(TRIVIAL, "zeta") == "params.s"
    assert err_path(TRIVIAL, "zeta", s=1) == "params.s"


def test_parse_odd_degree_refusals():
    with pytest.raises(OddDegreeUnsupported):
        parse(MIXED, "enumerate", d=3, e=4)
    with pytest.raises(OddDegreeUnsupported):
        parse(ALLSPLIT, "enumerate", d=3, e=4)
    assert err_path(ALLSPLIT, "compare", d=3, e=4) == "params.d"
    cfg = parse(TRIVIAL, "enumerate", d=3, e=4)
    assert cfg.params["d"] == 3


def test_run_classify():
    report, status = cli.run_report(parse(MIXED, "classify"))
    assert status == 0 and report["task"] == "classify"
    fibers = report["results"]["singular_fibers"]
    assert [f["fiber_class"] for f in fibers] == ["NonSplitPair", "NonSplitPair", "SplitPair"]
    assert {f["point"] for f in fibers} == {"infinity", "t", "t + 1"}
    assert report["results"]["total_degree"] == 3
    assert report["results"]["generic_fiber_trivial"] is False


def test_run_predict():
    report, status = cli.run_report(parse(TRIVIAL, "predict", d=2, e_list=[4]))
    assert status == 0
    res = report["results"]
    assert res["zeta"] == "243/208"
    assert res["leading_coeff"]["u"] == "104/9" and res["leading_coeff"]["v"] == "0"
    assert res["leading_coeff"]["decimal"].startswith("11.5555")
    assert res["N_emp"] == -2
    assert res["predictions"] == [{
        "e": 4,
        "main": {"u": "8424", "v": "0", "q": 3, "decimal": "8424.000000000000",
                 "precision": 12},
        "error_scale": {"u": "81", "v": "0", "q": 3, "decimal": "81.000000000000",
                        "precision": 12}}]


def test_run_enumerate():
    report, status = cli.run_report(parse(MIXED, "enumerate", d=2, e=3))
    assert status == 0
    res = report["results"]
    assert res["N_emp"] == -1 and res["partial"] is False
    (row,) = res["heights"]
    assert row["e"] == 3 and row["M"] == 264 and row["M_f"] == 264
    assert [c["dim"] for c in row["classes"]] == [6]
    assert row["classes"][0]["class"] == {"dprime": "1", "a": 1, "components": []}


def test_run_enumerate_budget_partial():
    cfg = parse(TRIVIAL, "enumerate", d=2, e_list=[2, 8], budget=50000)
    report, status = cli.run_report(cfg)
    assert status == 3
    first, second = report["results"]["heights"]
    assert first["M"] == 216 and first["M_f"] == 312
    assert "M" not in second and "refused" in second
    assert report["results"]["partial"] is True


def test_run_compare_rows():
    report, status = cli.run_report(parse(TRIVIAL, "compare", d=2, e_list=[2, 4]))
    assert status == 0
    rows = report["results"]["rows"]
    assert [r["enumerated_M"] for r in rows] == [216, 7260]
    assert [r["enumerated_Mf"] for r in rows] == [312, 8424]
    assert rows[1]["ratio"]["u"] == "605/702"
    assert rows[1]["ratio"]["decimal"].startswith("0.861823")
    assert report["results"]["N_emp"] == -2


def test_render_csv_golden():
    cfg = parse(TRIVIAL, "compare", d=2, e_list=[2, 4], format="csv", precision=8)
    report, status = cli.run_report(cfg)
    assert status == 0
    want = ("d,e,predicted,error_scale,enumerated_Mf,enumerated_M,ratio,refused\n"
            "2,2,312.00000000,9.00000000,312,216,0.69230769,\n"
            "2,4,8424.00000000,81.00000000,8424,7260,0.86182336,\n")
    assert cli.render_csv(report) == want


def test_run_zeta():
    report, status = cli.run_report(parse(TRIVIAL, "zeta", s=3))
    assert status == 0
    res = report["results"]
    assert res["closed_form"] == "243/208"
    assert len(res["truncations"]) == 12
    values = [Fraction(t["decimal"]) for t in res["truncations"]]
    assert values == sorted(values)
    assert values[-1] < Fraction(243, 208)
    gap = Fraction(res["final_gap"]["decimal"])
    assert gap < Fraction(1, 10 ** 10)
    assert res["final_gap"]["precision"] == 50


def run_main(tmp_path, document, *extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return cli.main(["--config", str(path), *extra])


def test_main_exit_codes(tmp_path, capsys):
    assert run_main(tmp_path, doc(MIXED, "classify")) == 0
    assert "SplitPair" in capsys.readouterr().out
    assert run_main(tmp_path, doc(dict(TRIVIAL, field={"p": 2}), "classify")) == 2
    assert "field.p" in capsys.readouterr().err
    assert run_main(tmp_path, doc(MIXED, "enumerate", d=3, e=4)) == 3
    assert "refused" in capsys.readouterr().err
    assert cli.main(["--config", str(tmp_path / "missing.json")]) == 2
    assert "--config" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert cli.main(["--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_main_jobs_byte_identity(tmp_path, capsys):
    document = doc(TRIVIAL, "compare", d=2, e_list=[2, 4])
    assert run_main(tmp_path, document, "--jobs", "1") == 0
    one = capsys.readouterr().out
    assert run_main(tmp_path, document, "--jobs", "2") == 0
    two = capsys.readouterr().out
    assert one == two and one.endswith("\n")
    assert run_main(tmp_path, document, "--timings") == 0
    assert "timings" in capsys.readouterr().out


def test_main_overrides_and_output_path(tmp_path, capsys):
    document = doc(MIXED, "classify")
    assert run_main(tmp_path, document, "--task", "predict", "--budget", "7",
                    "--precision", "4") == 2
    assert "params.d" in capsys.readouterr().err
    document = doc(TRIVIAL, "predict", d=2)
    assert run_main(tmp_path, document, "--precision", "4") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["leading_coeff"]["decimal"] == "11.5555"
    assert out["config"]["params"]["precision"] == 4
    target = tmp_path / "report.json"
    document = doc(TRIVIAL, "predict", d=2, output_path=str(target))
    assert run_main(tmp_path, document) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["task"] == "predict"
    unwritable = str(tmp_path / "no_such_dir" / "out.json")
    assert run_main(tmp_path, doc(MIXED, "classify", output_path=unwritable)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error at params.output_path: ")
    assert "Traceback" not in captured.err


def test_main_budget_override_refuses(tmp_path, capsys):
    document = doc(TRIVIAL, "enumerate", d=2, e=8)
    assert run_main(tmp_path, document, "--budget", "1000") == 3
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["partial"] is True
    assert "refused" in out["results"]["heights"][0]


def test_main_internal_check_exit_code(tmp_path, capsys):
    # at d=4 on this l=2 bundle the prime-count identity gives I(2H - F) < 0,
    # an engine assertion (ROADMAP item 2);
    # the CLI reports it as one line and exit code 4, never a traceback
    double = {"field": {"p": 3},
              "bundle": {"l": 2, "a": [1, 0, 1], "b": [0, 1, 0], "c": [1, 0, 2]}}
    assert run_main(tmp_path, doc(double, "compare", d=4, e_list=[2])) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal check failed: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_main_extension_field_enumerate(tmp_path, capsys):
    # over F9 every singular fiber of the catalog bundle splits: M_f is
    # counted, then the irreducible count is refused with exit code 3
    document = doc(dict(MIXED, field={"q": 9}), "enumerate", d=2, e_list=[2])
    assert run_main(tmp_path, document) == 3
    height = json.loads(capsys.readouterr().out)["results"]["heights"][0]
    assert height["M_f"] == 4 * 57 + 4 * 64 + 6 * 690
    assert "every singular fiber splits" in height["refused"]


def test_main_digit_vector_errors(tmp_path, capsys):
    for field, digits, message in [({"q": 9}, [1, 1, 1], "digit vector length mismatch"),
                                   ({"q": 9}, [1, 1, 1, 1], "prime field element has one digit"),
                                   ({"p": 3}, [1, 2], "prime field element has one digit")]:
        document = doc(dict(TRIVIAL, field=field,
                            bundle=dict(TRIVIAL["bundle"], a=[digits])), "classify")
        assert run_main(tmp_path, document) == 2
        assert capsys.readouterr().err == f"config error at bundle.a[0]: {message}\n"


def test_main_extension_field_report_order_frozen(tmp_path, capsys):
    # F9 points and classes sort by coefficient digit vectors; the report is
    # frozen byte for byte, so a change of element coding cannot reorder it
    document = {"field": {"q": 9},
                "bundle": {"l": 2, "a": [1, 0, 1], "b": [0, 1, 0], "c": [1, 0, 2]},
                "task": "enumerate", "params": {"d": 2, "e_list": [0, 1, 2], "budget": 100000}}
    assert run_main(tmp_path, document) == 3
    out = capsys.readouterr().out
    height = json.loads(out)["results"]["heights"][0]
    assert height["e"] == 0
    points = [c["point"] for c in height["classes"][0]["class"]["components"]]
    assert points == ["infinity", "t", "t + [0, 1]", "t + [0, 2]", "t + [1, 0]", "t + [2, 0]"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7b62d4e85107190cc33d348984e663faf427665ec31ff8089cea237afd464b00")


@pytest.mark.parametrize("s, digest", [
    (2, "31046b8964842ecafdfab0c60d6c10e490e543bbbe59310539085448bb196587"),
    (3, "50fa585f369f6f72f8ced5e37d03e8d38e19589fe0fb75663b48deb81ae35e92")], ids=["s2", "s3"])
def test_main_zeta_report_frozen(tmp_path, capsys, s, digest):
    # the s = 2 config is the benchmark's zeta workload; both reports are
    # frozen byte for byte, so exact truncations cannot drift in any digit
    document = {"field": {"p": 3}, "bundle": {"l": 0, "a": [1], "b": [1], "c": [2]},
                "task": "zeta", "params": {"s": s}}
    assert run_main(tmp_path, document) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _zeta_report(tmp_path, capsys, field, s, **params):
    document = {"field": field, "bundle": {"l": 0, "a": [1], "b": [1], "c": [-1]},
                "task": "zeta", "params": dict(params, s=s)}
    assert run_main(tmp_path, document) == 0
    return json.loads(capsys.readouterr().out)["results"]


def test_main_zeta_report_large_s(tmp_path, capsys):
    # the exact depth-12 product at s = 20 has about 25 Mbit; the report needs
    # only its floor digits
    F3 = gf.make_field(3)
    res = _zeta_report(tmp_path, capsys, {"p": 3}, 20)
    for t in res["truncations"][:8]:
        exact = oracles.zeta_truncated_exact(F3, 20, t["B"])
        assert t["decimal"] == census.decimal_of_fraction(exact, 12)
    assert res["final_gap"]["decimal"] == "0." + "0" * 50


@pytest.mark.parametrize("q, n", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3)],
                         ids=["F5", "F7", "F9", "F25", "F27"])
def test_main_zeta_reports_on_larger_fields(tmp_path, capsys, q, n):
    # 30 digits: at the default 12, F27's truncations from depth 9 on agree in
    # every printed digit
    F = gf.make_field(q, n)
    res = _zeta_report(tmp_path, capsys, {"q": F.order}, 2, precision=30)
    values = [Fraction(t["decimal"]) for t in res["truncations"]]
    assert len(values) == 12
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < Fraction(res["closed_form"])
    for t in res["truncations"][:3]:
        exact = oracles.zeta_truncated_exact(F, 2, t["B"])
        assert t["decimal"] == census.decimal_of_fraction(exact, 30)



@pytest.mark.parametrize("field, s, ok", [
    ({"p": 3}, 4500, True), ({"p": 3}, 4600, False),
    ({"q": 27}, 1502, True), ({"q": 27}, 1503, False), ({"q": 27}, 4500, False)],
    ids=["F3-4500", "F3-4600", "F27-1502", "F27-1503", "F27-4500"])
def test_main_zeta_closed_form_digit_limit(tmp_path, capsys, field, s, ok):
    # the closed form q^(2s - 1) / ((q^s - 1)(q^(s - 1) - 1)) passes Python's
    # 4300-digit string limit after s = 4506 on F3 and s = 1502 on F27
    document = {"field": field, "bundle": {"l": 0, "a": [1], "b": [1], "c": [2]},
                "task": "zeta", "params": {"s": s}}
    if ok:
        assert run_main(tmp_path, document) == 0
        num, den = json.loads(capsys.readouterr().out)["results"]["closed_form"].split("/")
        assert len(num) <= sys.get_int_max_str_digits()
        return
    assert err_path(document, "zeta", s=s) == "params.s"
    assert run_main(tmp_path, document) == 2
    q = field.get("q", field.get("p"))
    assert capsys.readouterr().err == (
        f"config error at params.s: must be at most {4506 if q == 3 else 1502} on F{q}: "
        f"beyond that the closed form has more than 4300 digits, the most Python "
        f"converts to a string (sys.get_int_max_str_digits())\n")

def test_cli_import_leaves_mpmath_unloaded():
    # only the number-field analogue uses mpmath, and no CLI task reaches it
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = "import sys, conic_census.cli; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout == "False\n"


def test_cli_run_imports_neither_dataclasses_nor_inspect():
    # the value classes are plain classes: a dataclass would import inspect at start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    ruled = {"field": {"p": 3}, "bundle": {"l": 0, "a": [1], "b": [1], "c": [2]},
             "task": "compare", "params": {"d": 2, "e_list": [2, 3, 4, 5, 6, 7, 8]}}
    code = ("import sys, conic_census.cli as cli\n"
            f"cli.run_report(cli.parse_config({json.dumps(json.dumps(ruled))}))\n"
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout == "[]\n"


LAZY = ("conic_census.census", "conic_census.linsys", "conic_census.picard", "csv")


@pytest.mark.parametrize("document, loaded", [
    (None, []),
    (doc(TRIVIAL, "classify"), []),
    (doc(TRIVIAL, "zeta", s=2), ["conic_census.census"]),
    (doc(TRIVIAL, "compare", d=2, e_list=[2]), list(LAZY[:3]))],
    ids=["import", "classify", "zeta", "compare-json"])
def test_cli_loads_only_the_engines_its_task_calls(document, loaded):
    # with PYTHONDONTWRITEBYTECODE every module a run loads is compiled from
    # source, so a task that counts nothing must not load the counting engines
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = "import sys, conic_census.cli as cli\n"
    if document is not None:
        code += ("cfg = cli.parse_config(" + json.dumps(json.dumps(document)) + ")\n"
                 "cli.render_json(cli.run_report(cfg)[0])\n")
    code += f"print(' '.join(m for m in {LAZY!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split() == loaded


@pytest.mark.parametrize("base, params", [
    (MIXED, {"d": 2, "e_list": [2, 4]}), (TRIVIAL, {"d": 3, "e_list": [2, 4]})],
    ids=["F3-l1-d2", "F3-l0-d3"])
def test_enumerate_builds_no_section_space(tmp_path, capsys, monkeypatch, base, params):
    # the printed dims are read from ranks; the report bytes do not change
    document = doc(base, "enumerate", **params)
    assert run_main(tmp_path, document) == 0
    want = capsys.readouterr().out

    def refuse(b, D):
        raise AssertionError("enumerate built a section space")

    monkeypatch.setattr(linsys, "section_space", refuse)
    assert run_main(tmp_path, document) == 0
    assert capsys.readouterr().out == want
