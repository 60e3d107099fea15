import math
from pathlib import Path

import pytest

import mtemsim as m
from mtemsim.cli import main, parse_config, run_command
from mtemsim.errors import ConfigError


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
