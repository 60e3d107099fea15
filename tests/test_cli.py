import contextlib
import dataclasses
import io
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mtemsim as m
from mtemsim import cli, engine
from mtemsim.cli import RunConfig, main, parse_config, run_command
from mtemsim.errors import (BracketError, ConfigError, DomainError, DrawerError, EstimationError, EvaluationError,
                            InputError)


def test_parse_config_defaults():
    config = parse_config()
    assert config.model == "example41"
    assert config.scheme == "mtem"
    assert config.p == 0.5
    assert config.window == (0.4, 1.0)


def test_parse_config_file_body():
    config = parse_config("model=example41\ndelta=5e-4\np=0.5\n")
    assert config.delta == 5e-4


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config("frobnicate=1\n")


@pytest.mark.parametrize("text, flags", [("steps=ten\nfrobnicate=1\n", None), ("steps=ten\n", {"frobnicate": 1})])
def test_an_unknown_key_is_reported_before_any_bad_value(text, flags):
    with pytest.raises(ConfigError, match="^unknown configuration key 'frobnicate'$"):
        parse_config(text, flags)


def test_parse_config_rejects_bad_types():
    with pytest.raises(ConfigError, match="steps"):
        parse_config("steps=ten\n")
    with pytest.raises(ConfigError, match="window"):
        parse_config("window=0.4\n")


def test_parse_config_constraint_violations():
    with pytest.raises(ConfigError, match="paths"):
        parse_config("paths=0\n")
    with pytest.raises(ConfigError, match="p:"):
        parse_config("p=1.5\n")
    # step size above the example41 policy's validity bound 4^-5
    with pytest.raises(ConfigError, match="delta"):
        parse_config("model=example41\nscheme=mtem\ndelta=1e-2\n")
    with pytest.raises(ConfigError, match="linear"):
        parse_config("model=linear\n")
    with pytest.raises(ConfigError, match="example41"):
        parse_config("model=example41\nmu=1.0\n")


def test_em_scheme_allows_large_delta():
    config = parse_config("model=example41\nscheme=em\ndelta=1e-2\n")
    assert config.scheme == "em"


def test_flags_override_file():
    config = parse_config("delta=5e-4\nseed=1\n", flags={"seed": 99, "out": "x"})
    assert config.seed == 99
    assert config.delta == 5e-4
    assert config.out == "x"


def test_comments_and_blank_lines_ignored():
    config = parse_config("# a comment\n\nmodel=example41\n")
    assert config.model == "example41"


def _read(path: Path) -> bytes:
    return path.read_bytes()


def test_simulate_writes_deterministic_csv(tmp_path):
    out = tmp_path / "sim"
    flags = dict(model="example41", delta="5e-4", steps="100", paths="5",
                 seed="7", refinement="2", x0="2.0", out=str(out))
    config = parse_config(flags=flags)
    assert run_command("simulate", config) == 0
    first = _read(tmp_path / "sim_paths.csv")
    assert run_command("simulate", config) == 0
    assert _read(tmp_path / "sim_paths.csv") == first
    header = first.decode().splitlines()[0]
    assert header == "path_index,k,t,x0,diverged"


def test_simulate_zero_start_zero_states(tmp_path):
    out = tmp_path / "zero"
    config = parse_config(flags=dict(model="example41", delta="5e-4", steps="50",
                                     paths="3", seed="1", x0="0.0", out=str(out)))
    assert run_command("simulate", config) == 0
    lines = (tmp_path / "zero_paths.csv").read_text().splitlines()[1:]
    for line in lines:
        assert line.split(",")[3] == "0"


def test_exponent_outputs_and_manifest_roundtrip(tmp_path):
    out = tmp_path / "exp"
    flags = dict(model="linear", mu="-1.0", sigma="0.0", scheme="mtem", p="0.5",
                 delta="0.1", steps="20", paths="8", seed="3", refinement="1",
                 x0="1.0", window="0.0:1.0", out=str(out))
    config = parse_config(flags=flags)
    assert run_command("exponent", config) == 0
    artifacts = ["exp_moment.csv", "exp_fit.csv", "exp_pathwise.csv", "exp_manifest.txt"]
    originals = {name: _read(tmp_path / name) for name in artifacts}

    fit_line = (tmp_path / "exp_fit.csv").read_text().splitlines()[1]
    slope = float(fit_line.split(",")[0])
    assert slope == pytest.approx(0.5 * math.log(0.9) / 0.1, rel=1e-9)

    # the manifest is a valid config file and reproduces the run byte for byte
    manifest_text = (tmp_path / "exp_manifest.txt").read_text()
    config2 = parse_config(text=manifest_text)
    assert config2 == config
    assert run_command("exponent", config2) == 0
    for name in artifacts:
        assert _read(tmp_path / name) == originals[name]


def test_worker_count_does_not_change_output_bytes(tmp_path):
    blobs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}"
        config = parse_config(flags=dict(model="example41", delta="5e-4", steps="200",
                                         paths="96", seed="11", refinement="1",
                                         x0="2.0", window="0.2:1.0", out=str(out)))
        assert run_command("exponent", config, workers=workers) == 0
        blobs.append(_read(tmp_path / f"w{workers}_moment.csv"))
    assert blobs[0] == blobs[1] == blobs[2]


def test_verify_passes_for_example41(tmp_path):
    out = tmp_path / "ver"
    config = parse_config(flags=dict(model="example41", delta="5e-4", seed="5", out=str(out)))
    assert run_command("verify", config) == 0
    lemmas = (tmp_path / "ver_lemmas.csv").read_text().splitlines()
    verdicts = {line.split(",")[0]: line.split(",")[3] for line in lemmas[1:]}
    assert verdicts["global_lipschitz_drift"] == "pass"
    assert verdicts["global_lipschitz_diffusion"] == "pass"
    assert verdicts["lambda_preserved"] == "pass"
    assert verdicts["step_condition_monotone"] == "pass"
    step_rows = (tmp_path / "ver_step_condition.csv").read_text().splitlines()[1:]
    assert len(step_rows) == 3 and all(row.endswith("pass") for row in step_rows)


def test_compare_writes_tallies(tmp_path):
    out = tmp_path / "cmp"
    config = parse_config(flags=dict(model="example41", delta="5e-4", steps="200",
                                     paths="16", seed="13", refinement="1",
                                     x0="2.0", out=str(out)))
    assert run_command("compare", config) == 0
    tallies = (tmp_path / "cmp_tallies.csv").read_text().splitlines()
    assert tallies[0] == "scheme,paths,diverged,divergence_fraction"
    mtem_row = tallies[1].split(",")
    assert mtem_row[0] == "mtem" and mtem_row[2] == "0"
    compare_header = (tmp_path / "cmp_compare.csv").read_text().splitlines()[0]
    assert compare_header == "path_index,k,t,mtem_x0,em_x0"


def test_main_exit_codes(tmp_path):
    out = tmp_path / "m"
    assert main(["simulate", "--model", "example41", "--delta", "5e-4", "--steps", "20",
                 "--paths", "2", "--seed", "1", "--refinement", "1",
                 "--out", str(out)]) == 0
    # configuration error: delta above the policy bound
    assert main(["simulate", "--model", "example41", "--delta", "1e-2",
                 "--out", str(out)]) == 2
    # estimation failure: every EM path explodes long before the fit window
    assert main(["exponent", "--model", "example41", "--scheme", "em", "--delta", "5e-4",
                 "--steps", "400", "--paths", "4", "--seed", "2", "--refinement", "1",
                 "--x0", "1000.0", "--window", "0.5:1.0", "--out", str(out)]) == 4


# Each refusal of a run, as the module docstring documents it: its class, its stderr prefix and its exit code.
REFUSALS = [
    (ConfigError, "configuration error", 2), (InputError, "input error", 2), (DomainError, "input error", 2),
    (BracketError, "input error", 2), (OSError, "io error", 2), (MemoryError, "memory error", 2),
    (EstimationError, "estimation error", 4), (EvaluationError, "estimation error", 4),
    (DrawerError, "drawer error", 5),
]


@pytest.mark.parametrize("kind, prefix, code", [*REFUSALS, (FileNotFoundError, "io error", 2)],
                         ids=lambda value: value.__name__ if isinstance(value, type) else None)
def test_each_refusal_prints_one_line_and_exits_with_its_code(tmp_path, monkeypatch, capsys, kind, prefix, code):
    def refuse(subcommand, config, workers=1):
        raise kind("the run cannot go on")

    monkeypatch.setattr(cli, "run_command", refuse)
    assert main(["simulate", "--out", str(tmp_path / "r")]) == code
    assert capsys.readouterr() == ("", f"{prefix}: the run cannot go on\n")
    assert list(tmp_path.iterdir()) == []


def test_the_cli_refuses_exactly_the_documented_errors(tmp_path, monkeypatch):
    assert cli._REFUSALS == {kind: (prefix, code) for kind, prefix, code in REFUSALS}

    def fail(subcommand, config, workers=1):
        raise RuntimeError("a defect, not a refusal")

    monkeypatch.setattr(cli, "run_command", fail)
    with pytest.raises(RuntimeError, match="a defect, not a refusal"):
        main(["simulate", "--out", str(tmp_path / "r")])


def test_verify_exits_4_where_float64_cannot_resolve_the_lambda_check(tmp_path, capsys):
    # at delta = 1e-50 example41's radius is about 5.8e4, where the functional's terms near 6 h^2 cancel to -1
    assert main(["verify", "--delta", "1e-50", "--out", str(tmp_path / "v")]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("estimation error: stability functional cannot be resolved to 1e-06 at x = ")
    assert err.count("\n") == 1 and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags,message", [
    (["--mu", "0", "--sigma", "0"], "L_R = 0.0"),  # l(R) = 1 / 0
    (["--mu", "1e200", "--sigma", "0.5"], "L_R = 1e+200"),  # L_R^4 overflows
    (["--mu", "-1", "--sigma", "1e300"], "L_R = 1e+300"),
    (["--mu", "nan", "--sigma", "0.5"], "mu: must be finite"),
    (["--mu=-inf", "--sigma", "0.5"], "mu: must be finite"),
    (["--mu", "-1", "--sigma", "inf"], "sigma: must be finite"),
])
def test_hostile_linear_parameters_exit_2_without_traceback(tmp_path, capsys, flags, message):
    argv = ["exponent", "--model", "linear", *flags, "--steps", "20", "--paths", "4",
            "--refinement", "1", "--out", str(tmp_path / "h")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_exponent_on_a_tiny_horizon_exits_without_traceback(tmp_path, capsys):
    # the horizon is 1e-299: every grid point lies within an absolute 1e-9 of the window
    argv = ["exponent", "--model", "example41", "--delta", "1e-300", "--steps", "10",
            "--paths", "4", "--out", str(tmp_path / "tiny")]
    assert main(argv) in (2, 4)
    assert "Traceback" not in capsys.readouterr().err


def test_exponent_fit_that_cannot_be_scaled_exits_4_without_lapack_output(tmp_path, capfd):
    # at t ~ 1e-298 the squared time column underflows; LAPACK would print
    # "** On entry to DLASCL ..." on file descriptor 1 before failing
    argv = ["exponent", "--model", "example41", "--delta", "1e-300", "--steps", "100",
            "--paths", "4", "--out", str(tmp_path / "tiny")]
    assert main(argv) == 4
    out, err = capfd.readouterr()
    assert "DLASCL" not in out and "DLASCL" not in err
    assert "Traceback" not in err and "estimation error" in err


def test_an_exponent_run_from_a_huge_start_prints_its_one_line_only(tmp_path, capfd):
    # |x0|^(2p) overflows at t = 0, and every path leaves the overflow guard at its first step
    argv = ["exponent", "--x0", "1e200", "--p", "0.9", "--steps", "20", "--paths", "4", "--refinement", "1",
            "--out", str(tmp_path / "huge")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 4
    out, err = capfd.readouterr()
    assert out == "" and err.startswith("estimation error: all paths diverged") and err.count("\n") == 1



def test_an_exponent_run_over_a_denormal_horizon_prints_its_one_line_only(tmp_path, capfd):
    # T = 10 * 5e-324: log|X_T| / T overflows, and the run is refused before numpy can warn
    argv = ["exponent", "--model", "example41", "--delta", "5e-324", "--steps", "10", "--paths", "3",
            "--refinement", "1", "--out", str(tmp_path / "denormal")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 4
    out, err = capfd.readouterr()
    assert out == "" and err.startswith("estimation error: pathwise exponents") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())

def test_main_reads_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=example41\ndelta=5e-4\nsteps=20\npaths=2\nseed=4\nrefinement=1\n")
    out = tmp_path / "fromfile"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (tmp_path / "fromfile_paths.csv").exists()


def test_seventeen_digit_formatting(tmp_path):
    out = tmp_path / "fmt"
    config = parse_config(flags=dict(model="example41", delta="5e-4", steps="10",
                                     paths="2", seed="1", refinement="1", out=str(out)))
    run_command("simulate", config)
    row = (tmp_path / "fmt_paths.csv").read_text().splitlines()[2]
    t_field = row.split(",")[2]
    assert float(t_field) == 5e-4
    assert t_field == format(5e-4, ".17g")


def test_a_flag_that_does_not_parse_exits_2_with_its_key(tmp_path, capsys):
    argv = ["simulate", "--steps", "ten", "--paths", "2", "--out", str(tmp_path / "bad")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "steps:" in err and "Traceback" not in err


def test_compare_steps_both_schemes_in_one_run_drawing_each_path_once(tmp_path, monkeypatch):
    radii, drawn = [], []
    run_paths, path_generator = cli.run_paths, engine.path_generator

    def counted_run(model, radius, *args, **kwargs):
        radii.append(radius)
        return run_paths(model, radius, *args, **kwargs)

    def counted_generator(master_seed, path_index):
        drawn.append(path_index)
        return path_generator(master_seed, path_index)

    monkeypatch.setattr(cli, "run_paths", counted_run)
    monkeypatch.setattr(engine, "path_generator", counted_generator)
    # 600 steps: three blocks, and each path's generator lives across them
    config = parse_config(flags=dict(model="example41", delta="5e-4", steps="600", paths="40",
                                     seed="13", refinement="1", x0="3.0", out=str(tmp_path / "cmp")))
    assert run_command("compare", config, workers=2) == 0
    assert len(radii) == 1 and radii[0][1] == math.inf
    assert sorted(drawn) == list(range(40))


@pytest.mark.parametrize("value", [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 5e-4 * 1999,
])
def test_percent_formatting_equals_format_builtin(value):
    # every CSV float field is "%.17g" % v, the same text as format(float(v), ".17g")
    assert "%.17g" % value == format(float(value), ".17g")
    assert "%.17g" % np.float64(value).tolist() == format(np.float64(value), ".17g")


@pytest.mark.parametrize("argv", [
    ["exponent", "--model", "example41", "--delta", "5e-4", "--steps", "10000000000000", "--paths", "4"],
    ["compare", "--steps", "100000000000"],
    ["exponent", "--steps", "9223372036854775807"],
    ["compare", "--paths", "9223372036854775807"],
    ["simulate", "--refinement", "4611686018427387904", "--steps", "10", "--paths", "2"],
])
def test_outputs_too_large_to_allocate_exit_2_without_traceback(tmp_path, capsys, argv):
    # the result arrays (72.8 TiB and 5.8 TiB) are refused at once, before any step
    assert main([*argv, "--out", str(tmp_path / "big")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("memory error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "exponent", "compare"])
@pytest.mark.parametrize("key", ["steps", "paths", "refinement"])
def test_counts_beyond_int64_exit_2_naming_the_key(tmp_path, capsys, command, key):
    # numpy refuses such a size with a ValueError; the config is refused first, before any allocation
    assert main([command, f"--{key}", "99999999999999999999999", "--out", str(tmp_path / "big")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {key}: ") and err.count("\n") == 1


# values of every configuration key, one per kind
_KINDS = ("huge", "zero", "negative", "nan", "inf", "non-numeric")
_INT = ("1" + "0" * 30, "0", "-1", "nan", "inf", "ten")
_FLOAT = ("1e300", "0", "-1", "nan", "inf", "ten")
_TEXT = ("x" * 1000, "0", "-1", "nan", "inf", "ten")
_HOSTILE = {
    "model": _TEXT, "mu": _FLOAT, "sigma": _FLOAT, "scheme": _TEXT, "p": _FLOAT, "delta": _FLOAT,
    "steps": _INT, "paths": _INT, "seed": _INT, "refinement": _INT, "x0": _FLOAT,
    "window": ("0:1e300", "0:0", "-1:1", "nan:1", "0:inf", "lo:hi"), "out": _TEXT,
}


# simulate under mtem, and exponent under em, which no policy bounds: an id without a prefix is simulate's
_HOSTILE_RUNS = {"": ["simulate"], "exponent-em-": ["exponent", "--scheme", "em"]}


@pytest.mark.parametrize("run,key,value", [
    pytest.param(run, key, value, id=f"{run}{key}-{kind}")
    for run in _HOSTILE_RUNS for key, values in _HOSTILE.items() for kind, value in zip(_KINDS, values)])
def test_hostile_values_of_every_key_exit_with_a_documented_code(tmp_path, monkeypatch, capsys, run, key, value):
    assert list(_HOSTILE) == list(cli._KEYS)
    monkeypatch.chdir(tmp_path)  # out values become file names
    argv = [*_HOSTILE_RUNS[run], "--steps", "20", "--paths", "2", "--refinement", "1"]
    if key in ("mu", "sigma"):  # only the linear model reads them
        argv += ["--model", "linear", "--mu", "-1", "--sigma", "0.5"]
    assert main([*argv, f"--{key}={value}"]) in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("p", "1"), ("delta", "inf"), ("delta", "1e-2"), ("x0", "nan"),
                                       ("scheme", "rk4"), ("mu", "nan"), ("sigma", "-inf")])
def test_a_refused_value_is_one_configuration_error_line_that_begins_with_its_key(tmp_path, capfd, key, value):
    # the rules are the library's, and every one of its messages begins with the key; delta=1e-2 is
    # above example41's policy bound under mtem, and the em run must not reach numpy with delta=inf
    argv = ["exponent", "--scheme", "em" if key == "delta" and value == "inf" else "mtem", "--out", str(tmp_path / "r")]
    if key in ("mu", "sigma"):
        argv += ["--model", "linear", "--mu", "-1", "--sigma", "0.5"]
    assert main([*argv, f"--{key}={value}"]) == 2
    out, err = capfd.readouterr()
    assert out == "" and err.startswith(f"configuration error: {key}: ") and err.count("\n") == 1


def test_python_dash_m_mtemsim_runs_the_cli_cleanly(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(m.__file__).resolve().parents[1])}
    argv = ["simulate", "--steps", "20", "--paths", "2", "--refinement", "1", "--out", str(tmp_path / "s")]
    done = subprocess.run([sys.executable, "-m", "mtemsim", *argv], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert (tmp_path / "s_paths.csv").exists()


_SMALL_RUNS = {"simulate": ["--steps", "20", "--paths", "2", "--refinement", "1"],
               "exponent": ["--steps", "20", "--paths", "2", "--refinement", "1"], "verify": [],
               "compare": ["--steps", "2", "--paths", "2", "--refinement", "1"]}


@pytest.mark.parametrize("command", list(_SMALL_RUNS))
def test_every_subcommand_writes_its_files_without_the_locale_encoding(tmp_path, monkeypatch, command):
    # no output depends on the locale: a text file opened without an encoding warns, and fails, under these flags
    env = {**os.environ, "PYTHONPATH": str(Path(m.__file__).resolve().parents[1])}
    argv = [command, *_SMALL_RUNS[command], "--out", "r"]
    (tmp_path / "sub").mkdir(), (tmp_path / "in").mkdir()
    done = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m",
                           "mtemsim", *argv], cwd=tmp_path / "sub", env=env, capture_output=True)
    monkeypatch.chdir(tmp_path / "in")
    assert (done.returncode, done.stderr, main(argv)) == (0, b"", 0)
    written = [{path.name: path.read_bytes() for path in (tmp_path / side).iterdir()} for side in ("sub", "in")]
    assert written[0] == written[1] and "r_manifest.txt" in written[0]


def test_drawers_close_their_pipes(tmp_path):
    # a drawer's ResourceWarning reaches its own stderr only, which pytest's hooks cannot see
    env = {**os.environ, "PYTHONPATH": str(Path(m.__file__).resolve().parents[1])}
    argv = ["simulate", "--workers", "2", "--paths", "1024", "--steps", "20", "--refinement", "1",
            "--out", str(tmp_path / "s")]
    done = subprocess.run([sys.executable, "-X", "dev", "-m", "mtemsim", *argv], env=env, capture_output=True,
                          text=True)
    assert (done.returncode, done.stderr) == (0, "")


def test_python_m_mtemsim_exits_with_the_clis_code(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(m.__file__).resolve().parents[1])}
    argv = ["simulate", "--delta", "1e-2", "--out", str(tmp_path / "r")]
    done = subprocess.run([sys.executable, "-m", "mtemsim", *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 2 and done.stderr.startswith("configuration error: delta: ")


def test_a_failed_verdict_exits_3_with_its_files_written(tmp_path, monkeypatch):
    verify_step_condition = cli.verify_step_condition
    monkeypatch.setattr(cli, "verify_step_condition",
                        lambda *args: dataclasses.replace(verify_step_condition(*args), passed=False))
    assert main(["verify", "--out", str(tmp_path / "v")]) == 3
    assert (tmp_path / "v_lemmas.csv").read_text().endswith("step_condition_monotone,,,fail\n")
    assert (tmp_path / "v_manifest.txt").exists()


def test_compare_writes_the_trajectories_of_the_first_four_paths_only(tmp_path):
    assert main(["compare", "--steps", "5", "--paths", "6", "--refinement", "1", "--out", str(tmp_path / "c")]) == 0
    rows = (tmp_path / "c_compare.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == [i for i in range(4) for _ in range(6)]


@pytest.mark.parametrize("workers", ["0", "-5"])
@pytest.mark.parametrize("command", ["simulate", "exponent", "verify", "compare"])
def test_a_worker_count_below_one_is_one_configuration_error_before_any_file(tmp_path, capsys, command, workers):
    assert main([command, "--workers", workers, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: workers: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["compare", "verify"])
def test_a_step_beyond_the_mtem_bound_is_refused_before_compare_or_verify_writes(tmp_path, capsys, command):
    # both step mtem whatever scheme says, so the mtem policy bounds delta there too
    assert main([command, "--scheme", "em", "--delta", "1e-2", "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: delta: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_an_exponent_window_too_short_to_fit_writes_nothing(tmp_path, capsys):
    argv = ["exponent", "--steps", "5", "--paths", "2", "--refinement", "1", "--out", str(tmp_path / "r")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: fit window ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config, flags, message", [
    (b"model=example41\nx0=2.\xff\n", [], "config: 'utf-8' codec can't decode byte 0xff"),
    (b"out=r\x00s\n", [], "out: must be a non-empty path prefix without a NUL"),
    (None, ["--out", "r\udcff"], "out: must encode as UTF-8"),  # how argv holds the byte 0xff
], ids=["config-not-utf-8", "out-with-nul", "out-not-utf-8"])
def test_bytes_the_cli_cannot_read_or_write_are_one_configuration_error(tmp_path, monkeypatch, capsys, config,
                                                                        flags, message):
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--steps", "2", "--paths", "2", "--refinement", "1", *flags]
    if config is not None:
        (tmp_path.parent / "bytes.cfg").write_bytes(config)
        argv += ["--config", str(tmp_path.parent / "bytes.cfg")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# Every character str.splitlines breaks a line at, in code point order, then "\r\n", one break of two.
LINE_BREAKS = ["\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r\n"]


def test_the_line_breaks_are_every_character_splitlines_breaks_at():
    assert [c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) == 2] == LINE_BREAKS[:-1]


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=lambda brk: brk.encode("unicode_escape").decode())
def test_an_out_prefix_with_a_line_break_is_one_configuration_error_before_any_file(tmp_path, monkeypatch, capsys,
                                                                                     brk):
    # the manifest holds out on one line: "a\nseed=5" would replay as seed 5, and write other bytes
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--seed", "7", "--steps", "2", "--paths", "2", "--refinement", "1",
                 "--out", f"a{brk}seed=5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: out: must be a non-empty path prefix without a NUL or a line break")
    assert len(err.splitlines()) == err.count("\n") == 1 and list(tmp_path.iterdir()) == []


def _flag(value) -> str:
    """The text of a flag that parses to ``value``."""
    return value if isinstance(value, str) else ":".join(map(repr, value)) if isinstance(value, tuple) else repr(value)


@pytest.mark.parametrize("fields", [
    pytest.param({"out": "x\nseed=5"}, id="out-newline"), pytest.param({"out": "x\u2028seed=5"}, id="out-u2028"),
    pytest.param({"out": "a\0b"}, id="out-nul"), pytest.param({"out": "a\udcffb"}, id="out-lone-surrogate"),
    pytest.param({"out": " sp"}, id="out-leading-space"), pytest.param({"window": (0.9, 0.1)}, id="window"),
    pytest.param({"model": "linear", "sigma": 0.5}, id="linear-without-mu"), pytest.param({"steps": 0}, id="steps"),
    pytest.param({"p": 1.5}, id="p"), pytest.param({"delta": 1e-2}, id="delta-above-the-mtem-bound"),
    pytest.param({"x0": math.inf}, id="x0"),
])
def test_a_run_config_that_parse_config_refuses_cannot_be_built(tmp_path, monkeypatch, fields):
    # run_command runs the RunConfig it is handed, so one built in code meets the rules of one parsed from text
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError) as parsed:
        parse_config(flags={key: _flag(value) for key, value in fields.items()})
    with pytest.raises(ConfigError) as built:
        RunConfig(**fields)
    assert str(built.value) == str(parsed.value)
    assert list(tmp_path.iterdir()) == []


def _built(how: str, fields: dict) -> RunConfig:
    return RunConfig(**fields) if how == "built" else parse_config(flags=fields)


@pytest.mark.parametrize("how, fields, message", [
    pytest.param("built", {"p": np.float64(0.25)}, "p: cannot parse 'np.float64(0.25)'", id="numpy-float"),
    pytest.param("built", {"steps": np.int64(20)}, "steps: cannot parse 'np.int64(20)'", id="numpy-int"),
    pytest.param("built", {"x0": [2.0]}, "x0: cannot parse '[2.0]'", id="x0-list"),
    pytest.param("built", {"steps": True}, "steps: cannot parse 'True'", id="steps-bool"),
    pytest.param("built", {"window": [0.1, 0.5]}, "window: cannot parse '[0.1, 0.5]'", id="window-list"),
    pytest.param("built", {"window": (0.1,)}, "window: cannot parse '0.1'", id="window-one"),
    pytest.param("built", {"window": None}, "window: cannot parse 'None'", id="window-none"),
    pytest.param("built", {"model": None}, "model: unknown key 'None'", id="model-none"),
    pytest.param("flags", {"steps": 7.9}, "steps: cannot parse '7.9'", id="flag-steps-float"),
    pytest.param("flags", {"steps": True}, "steps: cannot parse 'True'", id="flag-steps-bool"),
    pytest.param("built", {"x0": math.nan}, "x0: must be finite, got nan", id="x0-nan"),
    pytest.param("built", {"window": (math.nan, 1.0)},
                 "window: fractions must satisfy 0 <= lo < hi <= 1, got nan:1.0", id="window-nan"),
])
def test_a_field_whose_text_does_not_read_back_as_it_is_refused(tmp_path, monkeypatch, how, fields, message):
    # a manifest holds each field as text, so a value that its text does not read back as cannot replay
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError) as refused:
        _built(how, fields)
    assert str(refused.value).startswith(message) and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("how, fields, held", [
    pytest.param("built", {"out": 5}, {"out": "5"}, id="out-int"),
    pytest.param("built", {"steps": "20"}, {"steps": 20}, id="steps-text"),
    pytest.param("built", {"window": "0.1:0.5"}, {"window": (0.1, 0.5)}, id="window-text"),
    pytest.param("built", {"window": (0.4, 1)}, {"window": (0.4, 1.0)}, id="window-int"),
    pytest.param("built", {"delta": 1, "scheme": "em"}, {"delta": 1.0, "scheme": "em"}, id="delta-int"),
    pytest.param("flags", {"window": (0.1, 0.2)}, {"window": (0.1, 0.2)}, id="flag-window-tuple"),
])
def test_a_field_given_as_a_value_or_its_text_holds_what_its_manifest_reads_back_as(tmp_path, monkeypatch, how,
                                                                                    fields, held):
    monkeypatch.chdir(tmp_path)
    config = _built(how, fields)
    assert repr({key: getattr(config, key) for key in held}) == repr(held)  # the types too: 20, not "20"
    cli._write_manifest(config, "simulate")
    assert parse_config(text=(tmp_path / f"{config.out}_manifest.txt").read_text(encoding="utf-8")) == config


@pytest.mark.parametrize("key, value", [("x0", "-1e9"), ("mu", "-2.5e-1"), ("sigma", "-1E3"), ("delta", "-1e-3")])
def test_a_negative_flag_value_in_exponent_form_runs_as_its_equals_form(tmp_path, monkeypatch, capsys, key, value):
    argv = ["simulate", "--steps", "2", "--paths", "2", "--refinement", "1", "--out", "r"]
    if key in ("mu", "sigma"):
        argv += ["--model", "linear", "--mu", "-1", "--sigma", "0.5"]
    runs = []
    for name, flag in (("spaced", [f"--{key}", value]), ("joined", [f"--{key}={value}"])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        code = main([*argv, *flag])
        runs.append((code, capsys.readouterr().err, {path.name: path.read_bytes() for path in Path().iterdir()}))
    assert runs[0] == runs[1]


def test_a_flag_takes_no_other_flag_as_its_value(capsys):
    with pytest.raises(SystemExit) as done:
        main(["simulate", "--out", "--x0", "1"])
    assert done.value.code == 2 and "argument --out: expected one argument" in capsys.readouterr().err


_VALID_CONFIG = b"# mtemsim 0.1.0\nmodel=example41\nscheme=mtem\np=0.5\ndelta=0.0005\nseed=7\nx0=2.0\nwindow=0.4:1.0\n"


def _mutated(valid: bytes, rng: random.Random, least: int = 0) -> bytes:
    """``valid`` with 1 to 4 bytes inserted, deleted or replaced by any byte from ``least`` up."""
    data = bytearray(valid)
    for _ in range(rng.randint(1, 4)):
        edit, byte = rng.randrange(3), rng.randrange(least, 256)
        edit = edit if data else 0  # nothing left to delete or replace
        at = rng.randrange(len(data) + (edit == 0))
        if edit == 0:
            data.insert(at, byte)
        elif edit == 1:
            del data[at]
        else:
            data[at] = byte
    return bytes(data)


def _mutated_configs(count: int, seed: int) -> list[bytes]:
    """``count`` copies of the valid config, each with 1 to 4 bytes inserted, deleted or replaced by any byte."""
    rng = random.Random(seed)
    return [_mutated(_VALID_CONFIG, rng) for _ in range(count)]


_MUTATED = _mutated_configs(300, seed=8)
# tiny runs; exponent needs 10 grid points in its window
_MUTATION_RUNS = [["simulate", "--steps", "2"], ["exponent", "--steps", "20"], ["compare", "--steps", "2"]]


@pytest.mark.parametrize("index", range(len(_MUTATED)))
def test_a_config_with_any_bytes_exits_with_a_documented_code_and_one_line(tmp_path, capsys, index):
    config = tmp_path / "run.cfg"
    config.write_bytes(_MUTATED[index])
    argv = [*_MUTATION_RUNS[index % 3], "--paths", "2", "--refinement", "1", "--config", str(config),
            "--out", str(tmp_path / "r")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4, 5)
    assert out == "" and err.count("\n") <= 1 and "Traceback" not in err


# a valid value of every flag; mu and sigma are read by the linear model only
_VALID_FLAGS = {"model": "example41", "mu": "-1", "sigma": "0.5", "scheme": "mtem", "p": "0.5", "delta": "0.0005",
                "steps": "20", "paths": "2", "seed": "7", "refinement": "1", "x0": "2.0", "window": "0.4:1.0",
                "out": "r"}


def _mutated_flags(count: int, seed: int) -> list[tuple[str, str]]:
    """``count`` (key, value) pairs, a valid value of each flag in turn with 1 to 4 byte edits, as argv decodes it.

    No edit writes a NUL, which argv cannot carry; any other byte that is not UTF-8 becomes a lone surrogate.
    """
    rng, keys = random.Random(seed), list(_VALID_FLAGS)
    return [(key, os.fsdecode(_mutated(_VALID_FLAGS[key].encode(), rng, least=1)))
            for key in (keys[i % len(keys)] for i in range(count))]


_MUTATED_FLAGS = _mutated_flags(300, seed=9)


@pytest.mark.parametrize("index", range(len(_MUTATED_FLAGS)))
def test_a_flag_with_any_bytes_exits_with_a_documented_code_and_one_line(tmp_path, monkeypatch, capsys, index):
    key, value = _MUTATED_FLAGS[index]
    assert list(_VALID_FLAGS) == list(cli._KEYS)
    monkeypatch.chdir(tmp_path)  # out values become file names

    def open_inside(path, *args, **kwargs):  # an edited out may name any directory: write under tmp_path only
        if not Path(path).resolve().is_relative_to(tmp_path.resolve()):
            raise PermissionError(f"outside the test directory: {path!r}")
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", open_inside, raising=False)
    argv = [*_MUTATION_RUNS[index % 3], "--paths", "2", "--refinement", "1"]
    if key in ("mu", "sigma"):
        argv += ["--model", "linear", "--mu", "-1", "--sigma", "0.5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, f"--{key}={value}"])
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4, 5)
    assert out == "" and err.count("\n") <= 1 and "Traceback" not in err


def test_every_accepted_mutation_writes_a_manifest_that_replays_to_an_equal_config(monkeypatch):
    manifests = {}

    class Manifest(io.StringIO):  # the manifest kept in memory: an edited out may name any path
        def __init__(self, path, *args, **kwargs):
            super().__init__()
            self.path = path

        def close(self):
            manifests[self.path] = self.getvalue()
            super().close()

    monkeypatch.setattr(cli, "open", Manifest, raising=False)
    accepted = []
    for text in _MUTATED:
        with contextlib.suppress(UnicodeDecodeError, ConfigError):  # the CLI reads a config as strict UTF-8
            accepted.append(parse_config(text=text.decode("utf-8")))
    for key, value in _MUTATED_FLAGS:
        linear = {"model": "linear", "mu": "-1", "sigma": "0.5"} if key in ("mu", "sigma") else {}
        with contextlib.suppress(ConfigError):
            accepted.append(parse_config(flags={**linear, key: value}))
    replayed = []
    for config in accepted:
        cli._write_manifest(config, "simulate")
        replayed.append(parse_config(text=manifests.pop(f"{config.out}_manifest.txt")))
    assert replayed == accepted and len(accepted) == 41  # 14 files and 27 flags of the 600
