"""Config parsing, report plumbing and exit codes for the batch front end."""

import json
from fractions import Fraction

import pytest

from conic_census import cli
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


def test_main_budget_override_refuses(tmp_path, capsys):
    document = doc(TRIVIAL, "enumerate", d=2, e=8)
    assert run_main(tmp_path, document, "--budget", "1000") == 3
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["partial"] is True
    assert "refused" in out["results"]["heights"][0]


def test_main_internal_check_exit_code(tmp_path, capsys):
    # d=4 marking on this l=2 bundle trips an engine assertion (ROADMAP item 2);
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
