"""Command-line driver: flag handling, report emission, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latcount
from latcount.cli import (
    ExperimentSpec,
    Report,
    emit_report,
    main,
    render_csv,
    render_json,
    resolve_spec,
    build_parser,
)
from latcount.gauges import parse_gauge


def _cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _json_run(capsys, *args):
    code, out, err = _cli(capsys, *args)
    assert code == 0, err
    return json.loads(out)


COUNT_SMALL = ("count", "--group", "sl2z", "--gauge", "rnorm:2",
               "--tmax", "10", "--steps", "4")


def test_count_writes_both_formats(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code, out, err = _cli(capsys, *COUNT_SMALL, "--out", prefix)
    assert code == 0
    assert (tmp_path / "run.csv").exists() and (tmp_path / "run.json").exists()
    assert f"wrote {prefix}.csv" in err and f"wrote {prefix}.json" in err
    csv_text = (tmp_path / "run.csv").read_text()
    assert csv_text.splitlines()[0] == "threshold,count,volume,ratio,abs_dev"
    assert len(csv_text.splitlines()) == 5
    payload = json.loads((tmp_path / "run.json").read_text())
    assert payload["spec"]["kind"] == "count"
    assert payload["spec"]["gauge"] == "rnorm:2"
    assert len(payload["table"]["rows"]) == 4
    assert payload["fits"] == {}  # a 4-point grid is below the 5-sample fit floor


def test_count_fits_appear_with_enough_points(capsys):
    payload = _json_run(capsys, "count", "--group", "sl2z", "--gauge",
                        "rnorm:2", "--tmax", "20", "--steps", "6")
    assert "ratio_decay" in payload["fits"]
    assert "alpha" in payload["fits"]
    (bound,) = payload["bounds"]
    assert bound["name"] == "ratio_decay_rate_vs_alpha"


def test_format_flag_selects_single_file(tmp_path, capsys):
    code, _, _ = _cli(capsys, *COUNT_SMALL, "--out", str(tmp_path / "a"),
                      "--format", "csv")
    assert code == 0
    assert (tmp_path / "a.csv").exists() and not (tmp_path / "a.json").exists()
    code, _, _ = _cli(capsys, *COUNT_SMALL, "--out", str(tmp_path / "b"),
                      "--format", "json")
    assert code == 0
    assert (tmp_path / "b.json").exists() and not (tmp_path / "b.csv").exists()


def test_stdout_modes(capsys):
    payload = _json_run(capsys, *COUNT_SMALL)
    assert payload["table"]["columns"][0] == "threshold"
    code, out, _ = _cli(capsys, *COUNT_SMALL, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "threshold,count,volume,ratio,abs_dev"


def test_reruns_are_bit_identical_outside_runtime(tmp_path, capsys):
    for name in ("x", "y"):
        code, _, _ = _cli(capsys, *COUNT_SMALL, "--out", str(tmp_path / name))
        assert code == 0
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
    a = json.loads((tmp_path / "x.json").read_text())
    b = json.loads((tmp_path / "y.json").read_text())
    a.pop("runtime_seconds"), b.pop("runtime_seconds")
    assert a == b


def test_threads_do_not_change_output(tmp_path, capsys):
    for name, threads in (("t1", "1"), ("t3", "3")):
        code, _, _ = _cli(capsys, *COUNT_SMALL, "--threads", threads,
                          "--out", str(tmp_path / name), "--format", "csv")
        assert code == 0
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t3.csv").read_bytes()


def test_config_file_merges_under_flags(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# comment line\ntmax = 8\nsteps=3\ngauge=rnorm:2\n")
    payload = _json_run(capsys, "count", "--group", "sl2z",
                        "--config", str(cfg))
    assert payload["spec"]["tmax"] == 8.0
    assert payload["spec"]["steps"] == 3
    payload = _json_run(capsys, "count", "--group", "sl2z",
                        "--config", str(cfg), "--tmax", "12")
    assert payload["spec"]["tmax"] == 12.0
    assert payload["spec"]["steps"] == 3


def test_config_and_flags_give_the_same_spec(tmp_path):
    cfg = tmp_path / "torus.cfg"
    cfg.write_text("observable = 2,1\nx0 = 0.1,0.7\ntmax = 3\nsteps = 5\nscale = t\n")
    parser = build_parser()
    from_config = resolve_spec(parser.parse_args(["torus", "--config", str(cfg)]))
    from_flags = resolve_spec(parser.parse_args(
        ["torus", "--observable", "2,1", "--x0", "0.1,0.7", "--tmax", "3",
         "--steps", "5", "--scale", "t"]))
    assert from_config == from_flags
    assert from_config.observable == (2, 1) and from_config.x0 == (0.1, 0.7)
    assert from_config.scale == "t" and from_config.steps == 5


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no-equals-sign\n")
    code, _, err = _cli(capsys, "count", "--config", str(bad))
    assert code == 2 and "invalid spec" in err
    code, _, _ = _cli(capsys, "count", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2


def test_exit_code_spec_error(capsys):
    code, _, err = _cli(capsys, "count", "--group", "sl2z",
                        "--gauge", "banana", "--tmax", "8")
    assert code == 2 and "invalid spec" in err


def test_exit_code_budget(capsys):
    code, _, err = _cli(capsys, "count", "--group", "sl2z", "--gauge",
                        "rnorm:2", "--tmax", "20", "--steps", "3",
                        "--budget", "5")
    assert code == 3 and "budget" in err


def test_exit_code_io_failure(capsys):
    code, _, err = _cli(capsys, *COUNT_SMALL, "--out",
                        "/nonexistent-dir-xyz/prefix")
    assert code == 5 and "I/O" in err


NON_FINITE_TMAX = (
    "count --tmax nan",
    "torus --tmax nan",
    "count --gauge hyperbolic --scale T --tmax nan",
    "admissibility --tmax nan",
    "count --scale t --tmax 1000",
    "count --gauge rnorm:3 --scale t --tmax 800",
    "spectral --tmax nan",
    "balanced --tmax nan",
    "count --tmax inf",
)


@pytest.mark.parametrize("command", NON_FINITE_TMAX)
def test_non_finite_tmax_is_a_spec_error(capsys, command):
    # nan, inf, or a t-scale tmax whose T-scale value overflows a float
    code, out, err = _cli(capsys, *command.split())
    assert code == 2 and "invalid spec" in err
    assert out == ""


def test_overflowing_estimate_exits_budget(capsys):
    code, _, err = _cli(capsys, "count", "--gauge", "hyperbolic", "--tmax", "1e6")
    assert code == 3 and "budget" in err


def test_count_past_the_element_estimate_runs_on_shells(capsys):
    # 14 T^2 = 10,020,024 elements would be over the default budget for a walk;
    # the r2 table of 715,718 entries is not
    payload = _json_run(capsys, "count", "--tmax", "846")
    assert payload["table"]["rows"][-1][1] == 4_294_388


def test_sl3_count_at_tmax_5_is_admitted(capsys):
    # the estimate counts the points of Z^8 in the radius-5 ball, 1,733,537,
    # where the ball bound gave 11,628,819, over the default budget
    payload = _json_run(capsys, "count", "--group", "sl3z", "--tmax", "5")
    assert payload["table"]["rows"][-1][1] == 270_456


OVERFLOWING_VOLUME = (
    "volume --gauge hyperbolic --tmax 1e6",
    "admissibility --tmax 1e6 --steps 2",
    "volume --tmax 1e155",
    "volume --tmax 1e300",
    "volume --gauge rnorm:1 --tmax 1e155 --steps 5",
)


@pytest.mark.parametrize("command", OVERFLOWING_VOLUME)
def test_overflowing_volume_is_a_numerical_failure(capsys, command):
    # a finite threshold whose ball volume does not fit a float
    code, out, err = _cli(capsys, *command.split())
    assert code == 4 and "numerical failure" in err
    assert out == ""


@pytest.mark.parametrize("tmax,message", [
    # past T ~ 1.158e77 the chamber bound's R^2 overflows (it was a log(0) crash)
    ("1e80", "ball volume of rnorm:2 on sl3z at 1e+78 overflows a float"),
    # coarse and fine passes printed as plain floats, not np.float64(...)
    ("1e10", "SL3 chamber quadrature not converged at T=1.77828e+09: "
             "8.242858884137144e+52 vs 8.234192504881295e+52"),
])
def test_large_sl3_volumes_are_numerical_failures(capsys, tmax, message):
    code, out, err = _cli(capsys, "volume", "--group", "sl3z", "--tmax", tmax)
    assert (code, out, err) == (4, "", f"latcount: numerical failure: {message}\n")


def test_largest_hyperbolic_volume_still_runs(capsys):
    payload = _json_run(capsys, "volume", "--gauge", "hyperbolic", "--tmax", "700")
    assert payload["table"]["columns"][2] == "volume"
    assert all(math.isfinite(row[2]) for row in payload["table"]["rows"])
    assert payload["bounds"][0]["passed"]


def test_sl3_volume_runs_past_the_root_cancellation(capsys):
    # the small root of x^2 - R x + c, taken as R - sqrt(R^2 - 4c), was 0 here
    payload = _json_run(capsys, "volume", "--group", "sl3z", "--tmax", "1000")
    vols = [row[2] for row in payload["table"]["rows"]]
    assert all(math.isfinite(v) and v > 0 for v in vols) and vols == sorted(vols)
    assert payload["bounds"][0]["passed"]


def test_unknown_kind_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["banana"])
    assert exc.value.code == 2


def test_scale_conversion_to_native_thresholds(capsys):
    payload = _json_run(capsys, "count", "--group", "sl2z", "--gauge",
                        "rnorm:2", "--scale", "t", "--tmax", "3.0",
                        "--steps", "3")
    assert payload["spec"]["scale"] == "t"
    native_max = payload["spec"]["thresholds"][-1]
    assert native_max == pytest.approx(math.sqrt(2.0 * math.cosh(3.0)), rel=1e-9)


def test_spectral_kind_reports_alpha(capsys):
    payload = _json_run(capsys, "spectral", "--group", "sl2z",
                        "--gauge", "rnorm:2")
    assert payload["fits"]["alpha"]["alpha_T_scale"] == pytest.approx(0.25,
                                                                     abs=0.01)
    (bound,) = payload["bounds"]
    assert bound["passed"] is True
    assert bound["theoretical"] == 0.25


def test_balanced_kind_verdicts(capsys):
    payload = _json_run(capsys, "balanced", "--q", "3", "--tmax", "10",
                        "--steps", "3")
    assert payload["extras"]["weight_verdict"] == "NOT BALANCED"
    assert payload["extras"]["volume_verdict"] == "NOT BALANCED"
    (bound,) = payload["bounds"]
    assert bound["passed"] is True


BOUND_RUNS = (
    ("count", "--tmax", "20", "--steps", "6"),
    ("volume", "--tmax", "20"),
    ("admissibility", "--tmax", "12"),
    ("balanced", "--q", "2"),
    ("coset", "--tmax", "20"),
    ("torus", "--tmax", "20"),
    ("spectral",),
    ("forms", "--tmax", "3000"),
    ("sarith", "--tmax", "30"),
)


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_bounds_always_carry_both_numbers(capsys):
    # report invariant: every kind's bounds show what was compared, in strict JSON
    for args in BOUND_RUNS:
        code, out, err = _cli(capsys, *args)
        assert code == 0, err
        payload = json.loads(out, parse_constant=_refuse_constant)
        assert payload["bounds"], args
        for bound in payload["bounds"]:
            assert {"name", "comparison", "fitted", "passed"} <= set(bound), args
            assert isinstance(bound["passed"], bool)
            if not isinstance(bound["fitted"], str):  # balanced compares two verdicts
                numeric = [v for v in bound.values()
                           if isinstance(v, (int, float)) and not isinstance(v, bool)]
                assert len(numeric) >= 2, args
            assert ("theoretical" in bound
                    or {"theoretical_low", "theoretical_high"} <= set(bound)), args


def test_emit_header_only_for_empty_rows(tmp_path):
    spec = resolve_spec(build_parser().parse_args(list(COUNT_SMALL)))
    report = Report(spec=spec, columns=("a", "b"), rows=[])
    emit_report(report, str(tmp_path / "empty"), "csv")
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"


def test_csv_cells_render_none_and_floats(tmp_path):
    spec = resolve_spec(build_parser().parse_args(list(COUNT_SMALL)))
    report = Report(spec=spec, columns=("a", "b", "c"),
                    rows=[(None, 0.123456789012345, 7)])
    text = render_csv(report)
    assert text.splitlines()[1] == ",0.123456789012,7"


def test_json_rendering_idempotent_at_12_digits():
    spec = resolve_spec(build_parser().parse_args(list(COUNT_SMALL)))
    report = Report(spec=spec, columns=("v",), rows=[(1.0 / 3.0,)],
                    extras={"x": 2.0 / 3.0}, runtime_seconds=0.0)
    first = render_json(report)
    # re-render after a round-trip through the parsed payload: stable digits
    parsed = json.loads(first)
    again = json.dumps(parsed, sort_keys=True, indent=2) + "\n"
    assert first == again


def _subprocess_env():
    """This environment, with the directory holding the imported latcount first
    on PYTHONPATH, so that python -m latcount.cli runs in an uninstalled checkout."""
    env = dict(os.environ)
    src = str(Path(latcount.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "latcount.cli", "--help"],
                          capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 0
    assert "latcount" in proc.stdout


def test_console_script_runs_count(tmp_path):
    prefix = str(tmp_path / "sub")
    proc = subprocess.run(
        [sys.executable, "-m", "latcount.cli", *COUNT_SMALL, "--out", prefix,
         "--format", "csv"],
        capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sub.csv").exists()


def test_env_budget_respected(capsys, monkeypatch):
    monkeypatch.setenv("LATCOUNT_BUDGET", "5")
    code, _, err = _cli(capsys, "count", "--group", "sl2z", "--gauge",
                        "rnorm:2", "--tmax", "20", "--steps", "3")
    assert code == 3
    monkeypatch.setenv("LATCOUNT_BUDGET", "banana")
    code, _, _ = _cli(capsys, "count", "--group", "sl2z", "--gauge",
                      "rnorm:2", "--tmax", "6", "--steps", "2")
    assert code == 2
