"""Command-line behavior: outputs, exit codes, files."""

import json
import os
import subprocess
import sys
import time
import warnings

import pytest

import nullflow
from nullflow import diffalg, numsim
from nullflow.cli import main
from nullflow.expr import render
from nullflow.hierarchy import seed

SIGMA0 = "k1', k2'"
SIGMA1 = "1/2*k1''' + 3*k1*k1' - 6*k2*k2', -k2''' - 3*k1*k2'"


NUMSIM_NAMES = (
    "BlowUp", "FramePath", "SimConfig", "UnboundParameter", "compile_flow", "evolve",
    "nlie_run", "reconstruct_curve", "run_flow", "run_report", "standard_initial_frame",
    "uniform_grid",
)


def _run_fresh(script: str) -> None:
    """Run script in a new interpreter that imports nullflow from this tree."""
    src = os.path.dirname(os.path.dirname(nullflow.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert result.returncode == 0, result.stderr


def test_exact_commands_never_load_numpy():
    commands = [
        ["hierarchy", "--upto", "3", "--verify"],
        ["bracket", "k1*k1', k2", "k1, k2'"],
        ["flow", "--seed", "1"],
        ["classify", "b;0;0;0"],
    ]
    _run_fresh(
        "import sys\n"
        "from nullflow.cli import main\n"
        "for argv in %r:\n"
        "    assert main(argv) == 0, argv\n"
        "    loaded = {'numpy', 'nullflow.numsim'} & set(sys.modules)\n"
        "    assert not loaded, (argv, loaded)\n" % (commands,)
    )


def test_package_serves_the_numsim_names_from_numsim():
    from nullflow import SimConfig

    assert SimConfig is numsim.SimConfig
    for name in NUMSIM_NAMES:
        assert getattr(nullflow, name) is getattr(numsim, name)


def test_unknown_package_name_raises_without_loading_numpy():
    with pytest.raises(AttributeError, match="no_such_name"):
        nullflow.no_such_name
    _run_fresh(
        "import sys, nullflow\n"
        "try:\n"
        "    nullflow.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "assert 'numpy' not in sys.modules\n"
    )


def test_bracket_of_commuting_pair_prints_zero(capsys):
    assert main(["bracket", SIGMA0, SIGMA1]) == 0
    assert capsys.readouterr().out.strip() == "0, 0"


def test_flow_seed_one_prints_the_third_order_flow(capsys):
    assert main(["flow", "--seed", "1", "--const", "c"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == render(seed(1).flow)
    assert "k1'''" in out


def test_flow_latex_rendering(capsys):
    assert main(["flow", "--seed", "0", "--latex"]) == 0
    out = capsys.readouterr().out
    assert "k_1'" in out


def test_hierarchy_verify_passes(capsys):
    assert main(["hierarchy", "--upto", "3", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "reference V2 flow.k1: ok" in out
    assert "reference V3 field.f: ok" in out
    assert "commute [V1, V3]: ok" in out
    assert "FAIL" not in out


def test_hierarchy_verify_commutes_every_pair_within_the_order_cap(capsys, monkeypatch):
    # V_i's flow has order 2i+1; a pair is checked when its two orders sum
    # to at most the cap, which the command reads when it runs.
    monkeypatch.setattr(diffalg, "MAX_ORDER", 12)
    assert main(["hierarchy", "--upto", "5", "--verify"]) == 0
    out = capsys.readouterr().out
    for pair in ("[V0, V5]", "[V1, V4]", "[V2, V3]"):
        assert "commute %s: ok" % pair in out
    assert "[V1, V5]" not in out and "[V2, V4]" not in out and "FAIL" not in out
    monkeypatch.setattr(diffalg, "MAX_ORDER", 14)
    assert main(["hierarchy", "--upto", "5", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "commute [V1, V5]: ok" in out and "commute [V2, V4]: ok" in out
    assert "[V3, V4]" not in out


def test_hierarchy_verify_passes_under_zero_constants(capsys):
    assert main(["hierarchy", "--upto", "3", "--constants", "zero", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "reference V2 flow.k1: ok" in out
    assert "FAIL" not in out


def test_hierarchy_verify_failure_exits_four(capsys, monkeypatch):
    fake = {
        "ok": False,
        "checks": [
            {"index": 2, "component": "field.f", "ok": False, "difference": "k1"}
        ],
    }
    monkeypatch.setattr("nullflow.cli.verify_reference_forms", lambda entries: fake)
    assert main(["hierarchy", "--upto", "1", "--verify"]) == 4
    assert "FAIL (difference: k1)" in capsys.readouterr().out


def test_hierarchy_output_is_deterministic(capsys):
    assert main(["hierarchy", "--upto", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["hierarchy", "--upto", "2"]) == 0
    assert capsys.readouterr().out == first
    assert "V2 field:" in first


def test_classify_reports_membership(capsys):
    assert main(["classify", "b;0;0;0"]) == 0
    assert capsys.readouterr().out.strip() == "T_PLambda"
    assert main(["classify", "0;k1;0;0"]) == 0
    assert capsys.readouterr().out.strip() == "X_P"


def test_parse_errors_exit_two(capsys):
    assert main(["classify", "k1;0;0"]) == 2
    assert main(["classify", "q1;0;0;0"]) == 2
    assert main(["bracket", "k1'", "k1', 0"]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err
    assert main(["bracket", "k1, k2 + qq", "k1, k2"]) == 2
    assert "(offset 9)" in capsys.readouterr().err
    assert main(["classify", "k1; 0; 0; k2 + qq"]) == 2
    assert "(offset 15)" in capsys.readouterr().err
    deep = "(" * 5000 + "k1" + ")" * 5000 + ", k2"
    assert main(["bracket", deep, "k1, k2"]) == 2
    assert "nesting deeper than" in capsys.readouterr().err
    # Exponents are capped before anything is multiplied out.
    assert main(["bracket", "3^60000*k1, k2", "k1, k2"]) == 2
    assert "MAX_EXPONENT=127 (offset 2)" in capsys.readouterr().err
    assert main(["bracket", "k1^200, k2", "k1, k2"]) == 2
    assert "MAX_EXPONENT=127 (offset 3)" in capsys.readouterr().err
    # So is a power whose result leaves an exponent field.
    for text, offset in (("a^100*k1, k2", 2), ("a^-65*k1, k2", 2), ("(k1^64)^2, k2", 8)):
        assert main(["bracket", text, "k1, k2"]) == 2
        assert "-64..63) (offset %d)" % offset in capsys.readouterr().err
    # Only ASCII digits make an integer.
    for text, offset in (("\u00b2, k2", 0), ("k1^\u00b2, k2", 3), ("k1^(\u0663), k2", 4)):
        assert main(["bracket", text, "k1, k2"]) == 2
        err = capsys.readouterr().err
        assert "unexpected character %r (offset %d)" % (text[offset], offset) in err
    # A literal longer than int() converts is a parse error at its offset.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        digits = "1" * (limit + 1)
        for text, offset in ((digits + "*k1, k2", 0), ("k1^" + digits + ", k2", 3),
                             ("k1^(" + digits + "), k2", 4)):
            assert main(["bracket", text, "k1, k2"]) == 2
            err = capsys.readouterr().err
            assert "integer of %d digits is too long (offset %d)" % (limit + 1, offset) in err


def test_not_exact_exits_three(capsys):
    assert main(["bracket", "Dinv(k1), 0", "k1', 0"]) == 3
    assert "not exact" in capsys.readouterr().err


def test_order_cap_exits_one(capsys):
    assert main(["bracket", "D(k1^(12)), 0", "k1', 0"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_scale_constant_exits_one(capsys):
    # An unknown symbol, and the metric symbols that are no scale at all.
    for name in ("zz", "a", "G", "eps1", "eps2"):
        assert main(["flow", "--seed", "1", "--const", name]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err and "Traceback" not in captured.err
    assert main(["flow", "--seed", "0", "--const", "c3"]) == 0
    assert capsys.readouterr().out.strip() == "c3*k1', c3*k2'"


def test_empty_scale_constant_exits_one_and_is_not_defaulted(capsys):
    # Only an omitted --const takes the default scale; "" is a bad name.
    for index in ("0", "1"):
        assert main(["flow", "--seed", index, "--const", ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown parameter symbol ''\n"


def test_simulate_translation_writes_files(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(
        [
            "simulate",
            "--flow", "translation",
            "--n", "64",
            "--dt", "1e-3",
            "--t-end", "0.01",
            "--out", str(out_dir),
            "--reconstruct",
        ]
    )
    assert code == 0
    for name in ("k1.csv", "k2.csv", "path_final.csv", "report.json"):
        assert (out_dir / name).exists()
    with open(out_dir / "report.json") as fh:
        report = json.load(fh)
    assert report["config"]["grid_points"] == 64
    assert report["config"]["derivative_stencil"] == "central4"
    assert len(report["times"]) == len(report["mass_k1"])
    assert len(report["gram_drift"]) == len(report["times"])
    assert "wrote" in capsys.readouterr().out


def test_simulate_nlie_reconstructs_by_default(tmp_path):
    out_dir = tmp_path / "nlie"
    code = main(
        [
            "simulate",
            "--flow", "nlie",
            "--n", "64",
            "--dt", "1e-4",
            "--t-end", "0.001",
            "--length", "10",
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "path_final.csv").exists()
    with open(out_dir / "report.json") as fh:
        report = json.load(fh)
    assert "gram_drift" in report
    assert report["stability_bound"] == pytest.approx(0.1 * (10 / 64) ** 3)


def test_simulate_blowup_exits_five(tmp_path, capsys):
    flow_file = tmp_path / "flow.txt"
    flow_file.write_text("k1^2, 0\n")
    code = main(
        [
            "simulate",
            "--flow", "file",
            "--flow-file", str(flow_file),
            "--profile", "constant",
            "--amplitude", "10",
            "--n", "64",
            "--dt", "1e-3",
            "--t-end", "0.5",
            "--out", str(tmp_path / "b"),
        ]
    )
    assert code == 5
    assert "blow-up" in capsys.readouterr().err


def test_simulate_initial_state_above_the_blowup_limit_exits_one(tmp_path, capsys):
    # Translation leaves a constant exactly steady, so this run used to stop
    # at step 1 with BlowUp.last_good holding the out-of-range 1e9.
    out = tmp_path / "initrange"
    code = main(["simulate", "--flow", "translation", "--profile", "constant",
                 "--amplitude", "1e9", "--n", "16", "--dt", "1e-3", "--t-end", "1e-3",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: initial state exceeds BLOWUP_LIMIT = 1e+08\n"
    assert not out.exists()


def test_simulate_error_paths_exit_one(tmp_path, capsys):
    flow_file = tmp_path / "flow.txt"
    flow_file.write_text("G*k1', 0\n")
    base = [
        "simulate",
        "--flow", "file",
        "--n", "64",
        "--dt", "1e-3",
        "--t-end", "0.01",
        "--out", str(tmp_path / "x"),
    ]
    assert main(base + ["--flow-file", str(flow_file)]) == 1  # unbound G
    assert main(base) == 1  # missing --flow-file
    assert main(base + ["--flow-file", str(flow_file), "--param", "G"]) == 1
    assert "error" in capsys.readouterr().err
    # A binding whose exact coefficient leaves the float range.
    flow_file.write_text("b^2*k1', b*k2'\n")
    assert main(base + ["--flow-file", str(flow_file), "--param", "b=1e200"]) == 1
    assert "error: coefficient of k1' overflows a float" in capsys.readouterr().err
    for flow in ("nlie", "translation"):
        for name in ("zz", "k1", "config"):
            args = ["simulate", "--flow", flow, "--n", "64", "--dt", "1e-4", "--t-end",
                    "1e-3", "--length", "10", "--out", str(tmp_path / "u"),
                    "--param", "%s=3" % name]
            assert main(args) == 1
            assert "unused parameter bindings: %s" % name in capsys.readouterr().err
    for bad in (["--param", "c=nan"], ["--flow", "translation", "--param", "b=inf"]):
        args = ["simulate", "--n", "64", "--dt", "1e-4", "--t-end", "1e-3",
                "--length", "10", "--out", str(tmp_path / "y")] + bad
        assert main(args) == 1
        assert "must be finite" in capsys.readouterr().err
    for bad in (["--profile", "constant", "--amplitude", "nan"],
                ["--profile", "sine", "--k2-amplitude", "inf"]):
        args = ["simulate", "--flow", "translation", "--n", "64", "--dt", "1e-3",
                "--t-end", "0.01", "--out", str(tmp_path / "w")] + bad
        assert main(args) == 1
        assert "error: initial" in capsys.readouterr().err
    soliton = ["simulate", "--flow", "translation", "--profile", "soliton", "--n", "64",
               "--dt", "1e-3", "--t-end", "0.01", "--out", str(tmp_path / "s"), "--amplitude"]
    assert main(soliton + ["-1"]) == 1
    assert "--amplitude must be nonnegative for a soliton, got -1.0" in capsys.readouterr().err
    assert main(soliton + ["0"]) == 0


def test_simulate_param_value_that_is_no_number_names_the_binding(tmp_path, capsys):
    args = ["simulate", "--flow", "translation", "--n", "64", "--dt", "1e-3", "--t-end",
            "0.01", "--param", "b=abc", "--out", str(tmp_path / "p")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "error: --param b=abc: could not convert string to float: 'abc'\n"
    assert not (tmp_path / "p").exists()


def test_simulate_param_given_twice_exits_one(tmp_path, capsys):
    for second in ("b=2", "b=1"):
        args = ["simulate", "--flow", "translation", "--n", "64", "--dt", "1e-3", "--t-end",
                "0.01", "--param", "b=1", "--param", second, "--out", str(tmp_path / "p")]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: --param b is given more than once\n"
    assert not (tmp_path / "p").exists()


def test_simulate_out_naming_a_file_exits_one_before_any_work(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_flow called")

    monkeypatch.setattr("nullflow.numsim.run_flow", refuse)
    target = tmp_path / "taken"
    target.write_text("keep\n")
    assert main(["simulate", "--t-end", "0.3", "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err == "error: --out %s exists and is not a directory\n" % target
    assert target.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_simulate_empty_out_exits_one_before_any_work(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_flow called")

    monkeypatch.setattr("nullflow.numsim.run_flow", refuse)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--flow", "translation", "--n", "16", "--t-end", "1e-3",
                 "--out", ""]) == 1
    assert capsys.readouterr().err == "error: --out is empty; name the directory to write\n"
    assert not any(tmp_path.iterdir())


def test_simulate_out_below_a_file_exits_one_before_any_work(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_flow called")

    monkeypatch.setattr("nullflow.numsim.run_flow", refuse)
    target = tmp_path / "afile"
    target.write_text("keep\n")
    for out in (target / "sub", target / "sub" / "deeper", target / ".." / "x"):
        assert main(["simulate", "--t-end", "0.3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: --out %s lies below %s, which is not a directory\n" % (out, target)
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "nowhere")
    assert main(["simulate", "--t-end", "0.3", "--out", str(dangling)]) == 1
    assert capsys.readouterr().err == "error: --out %s exists and is not a directory\n" % dangling
    assert main(["simulate", "--t-end", "0.3", "--out", str(dangling / "sub")]) == 1
    err = capsys.readouterr().err
    assert err == "error: --out %s lies below %s, which is not a directory\n" % (
        dangling / "sub", dangling)
    assert target.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "dangling"]


def test_simulate_coefficient_underflow_exits_one(tmp_path, capsys):
    # b^2 rounds to 0.0, which would drop the k1' term silently.
    flow_file = tmp_path / "flow.txt"
    flow_file.write_text("b^2*k1', b*k2'\n")
    for b in ("1e-200", "1e-320"):
        args = ["simulate", "--flow", "file", "--flow-file", str(flow_file), "--n", "64",
                "--dt", "1e-3", "--t-end", "0.01", "--param", "b=" + b,
                "--out", str(tmp_path / "x")]
        assert main(args) == 1
        assert "error: coefficient of k1' underflows a float" in capsys.readouterr().err
        assert not (tmp_path / "x" / "k1.csv").exists()
        assert not (tmp_path / "x").exists()


def test_simulate_stability_bound_out_of_float_range_exits_one(tmp_path, capsys):
    # 0.1 * dx^3 rounds to 0 for the first command and overflows for the second.
    for extra in (["--length", "1e-120"], ["--length", "1e300", "--n", "16"]):
        args = ["simulate", "--t-end", "1", "--out", str(tmp_path / "b")] + extra
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error: domain_length / grid_points" in err
        assert "puts the stability bound out of range" in err


def test_simulate_step_budget_exits_one(tmp_path, capsys):
    args = ["simulate", "--n", "64", "--dt", "1e-300", "--t-end", "1",
            "--out", str(tmp_path / "z")]
    assert main(args) == 1
    assert "MAX_STEPS" in capsys.readouterr().err


def test_simulate_non_finite_report_exits_one_and_writes_nothing(tmp_path, capsys):
    # Reconstruction over a long domain overflows the frames at amplitude
    # 1000; at 120 the frames stay finite but every drift is NaN.
    for amplitude in ("1000", "120"):
        args = ["simulate", "--flow", "nlie", "--profile", "constant", "--amplitude",
                amplitude, "--length", "60", "--n", "64", "--dt", "1e-3", "--t-end",
                "1e-3", "--out", str(tmp_path / "x")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(args) == 1
        assert "error: run report" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def test_simulate_grid_cap_exits_one(tmp_path, capsys):
    args = ["simulate", "--n", "65537", "--t-end", "1", "--out", str(tmp_path / "g")]
    assert main(args) == 1
    assert "error: grid_points must lie in 16 .. MAX_GRID_POINTS = 65536" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_simulate_saved_sample_budget_exits_one_before_the_first_step(tmp_path, capsys):
    # At the default n = 512 the stability bound needs about 270,000 steps,
    # so --stride 3 would save about 90,000 states.
    args = ["simulate", "--flow", "translation", "--reconstruct", "--stride", "3",
            "--t-end", "0.05", "--out", str(tmp_path / "s")]
    start = time.perf_counter()
    assert main(args) == 1
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "MAX_SAVED_SAMPLES = 4194304" in err
    assert not (tmp_path / "s").exists()
