"""End-to-end command-line tests driven through main(argv)."""

import argparse
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import fields

import pytest

import holosearch
from holosearch import field
from holosearch.cli import _OPTIONS, _SUBCOMMANDS, build_parser, config_from_args, main, parse_config_file
from holosearch.experiments import ExperimentConfig, run_render
from holosearch.pgm import load_pgm
from holosearch.slm import ModulationScheme


def run_cli(args):
    return main([str(a) for a in args])


# --------------------------------------------------------------- subcommands


def test_run_ab_end_to_end(tmp_path, capsys):
    out = tmp_path / "ab"
    rc = run_cli(["run-ab", "--resolution", 64, "--iterations", 150,
                  "--out-dir", out])
    assert rc == 0
    for name in ("trace_random.csv", "trace_sps.csv",
                 "replay_random.pgm", "replay_sps.pgm", "summary.txt"):
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert "initial_mse = " in stdout
    assert "improvement_error_reduction = " in stdout
    assert f"wrote {out}/summary.txt" in stdout


def test_output_bytes_do_not_follow_blas_threads(tmp_path):
    """``holo`` caps BLAS at one thread when the caller sets no count, so a
    run with the variable unset writes what a run with it set to 1 writes.
    At 128^2 the full-grid error is a dot product long enough for OpenBLAS to
    split across threads, which sums in another order. summary.txt is left
    out: it holds the wall time."""
    src = os.path.dirname(os.path.dirname(holosearch.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    written = {}
    for threads in (None, "1"):
        out = tmp_path / f"threads-{threads}"
        run_env = env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "holosearch.cli", "run-ab", "--resolution", "128",
                        "--iterations", "200", "--out-dir", str(out)],
                       env=run_env, capture_output=True, check=True, timeout=300)
        written[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "summary.txt"}
    assert sorted(written[None]) == ["replay_random.pgm", "replay_sps.pgm", "trace_random.csv", "trace_sps.csv"]
    assert written[None] == written["1"]


@pytest.mark.parametrize("scheme", ["binary-phase", "phase:cont"])
def test_output_bytes_do_not_follow_the_core_count(tmp_path, monkeypatch, scheme):
    """A render on one core, where the caller runs both blocks of every
    split, writes what a render on three writes, where the helper takes
    some. At 128^2 the grid is under the split floor, so the floor is
    lowered to split it."""
    monkeypatch.setattr(field, "_MIN_BLOCK", 1024)
    written = {}
    for cores in (1, 3):
        monkeypatch.setattr(field, "_usable_cores", lambda: cores)
        out = tmp_path / f"cores-{cores}"
        run_render(ExperimentConfig(resolution=128, iterations=500, selection="sps",
                                    scheme=ModulationScheme.from_name(scheme), out_dir=str(out)))
        written[cores] = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "summary.txt"}
    assert sorted(written[1]) == ["hologram.pgm", "replay.pgm", "trace.csv"]
    assert written[1] == written[3]


def test_scatter_end_to_end(tmp_path, capsys):
    out = tmp_path / "sc"
    rc = run_cli(["scatter", "--resolution", 64, "--out-dir", out])
    assert rc == 0
    lines = (out / "scatter.csv").read_text().splitlines()
    assert lines[0] == "pixel_index,delta,mse_change"
    assert len(lines) == 4097  # 64x64 grid, full sweep fits the sample budget
    stdout = capsys.readouterr().out
    assert "pearson_fit_observed = " in stdout
    summary = (out / "summary.txt").read_text()
    # scatter defaults to the continuous-phase scheme
    assert "scheme = phase:cont" in summary


def test_hist_end_to_end(tmp_path, capsys):
    out = tmp_path / "h"
    rc = run_cli(["hist", "--resolution", 64, "--out-dir", out])
    assert rc == 0
    for name in ("hist_magnitude.csv", "hist_angle.csv", "hist_change.csv"):
        assert (out / name).exists()
    assert "pixels = 4096" in capsys.readouterr().out


def test_render_end_to_end(tmp_path, capsys):
    out = tmp_path / "r"
    rc = run_cli(["render", "--resolution", 64, "--iterations", 100,
                  "--seed", 3, "--out-dir", out])
    assert rc == 0
    img = load_pgm(out / "replay.pgm")
    assert img.shape == (64, 64)
    assert "final_mse = " in capsys.readouterr().out


# Every ExperimentConfig field but out_dir, in field order.
CONFIG_KEYS = ["image", "resolution", "scheme", "algorithm", "selection", "iterations", "seed", "symmetry",
               "t_coeff", "t0", "trace_stride", "recompute_interval", "scatter_samples"]

# Per subcommand: the key = value lines it prints, the artifacts it announces
# with "wrote", and the driver keys summary.txt lists after the config keys.
LAYOUT = {
    "run-ab": (
        ["initial_mse", "final_mse_random", "final_mse_sps", "improvement_error_reduction",
         "accepted_random", "accepted_sps"],
        ["summary.txt"],
        ["initial_mse", "final_mse_random", "final_mse_sps", "error_reduction_random",
         "error_reduction_sps", "improvement_error_reduction", "improvement_final_error",
         "accepted_random", "accepted_sps", "wall_time_s"]),
    "scatter": (
        ["samples", "fit_coefficient", "pearson_fit_observed"],
        ["scatter.csv"],
        ["samples", "fit_coefficient", "pearson_fit_observed", "baseline_mse", "wall_time_s"]),
    "hist": (
        ["pixels"],
        ["hist_magnitude.csv", "hist_angle.csv", "hist_change.csv"],
        ["pixels", "bins"]),
    "render": (
        ["initial_mse", "final_mse", "accepted"],
        ["hologram.pgm", "replay.pgm"],
        ["initial_mse", "final_mse", "accepted", "wall_time_s"]),
}


@pytest.mark.parametrize("command", sorted(LAYOUT))
def test_stdout_and_summary_layout(command, tmp_path, capsys):
    """Each subcommand prints its report lines exactly as summary.txt has them,
    then one "wrote" line per announced artifact; summary.txt lists the config
    keys, then the driver's, in a fixed order."""
    printed, announced, driver_keys = LAYOUT[command]
    out = tmp_path / command
    rc = run_cli([command, "--resolution", 64, "--iterations", 60,
                  "--scatter-samples", 300, "--out-dir", out])
    assert rc == 0
    stdout = capsys.readouterr().out.splitlines()
    summary = (out / "summary.txt").read_text().splitlines()
    assert [line.split(" = ")[0] for line in stdout[:len(printed)]] == printed
    assert stdout[len(printed):] == [f"wrote {out}/{name}" for name in announced]
    assert [line.split(" = ")[0] for line in summary] == CONFIG_KEYS + driver_keys
    for line in stdout[:len(printed)]:
        assert line in summary, line


def test_symmetry_flag(tmp_path):
    out = tmp_path / "s"
    rc = run_cli(["render", "--resolution", 64, "--iterations", 0,
                  "--symmetry", "--out-dir", out])
    assert rc == 0
    assert "symmetry = true" in (out / "summary.txt").read_text()


def test_sa_schedule_flags(tmp_path):
    out = tmp_path / "sa"
    rc = run_cli(["render", "--resolution", 64, "--iterations", 200,
                  "--algorithm", "sa", "--t-coeff", 0.001, "--t0", 4.0,
                  "--out-dir", out])
    assert rc == 0
    summary = (out / "summary.txt").read_text().splitlines()
    assert {"algorithm = sa", "t_coeff = 0.001", "t0 = 4"} <= set(summary)


def test_unset_schedule_echoes_none(tmp_path):
    out = tmp_path / "default"
    assert run_cli(["render", "--resolution", 64, "--iterations", 0, "--out-dir", out]) == 0
    summary = (out / "summary.txt").read_text().splitlines()
    assert {"t_coeff = None", "t0 = None"} <= set(summary)


def test_scatter_of_one_sample_reports_nan_correlation(tmp_path, capsys):
    """One sample leaves the correlation undefined: nan, not a failed run."""
    out = tmp_path / "one"
    assert run_cli(["scatter", "--resolution", 64, "--scatter-samples", 1, "--out-dir", out]) == 0
    assert "pearson_fit_observed = nan" in capsys.readouterr().out.splitlines()
    assert len((out / "scatter.csv").read_text().splitlines()) == 2


def test_sa_whose_temperature_underflows_runs(tmp_path):
    """exp(-800) is 0.0 in double precision, so the late iterations of this
    schedule run at T = 0 and reject every worsening candidate."""
    out = tmp_path / "cold"
    rc = run_cli(["render", "--resolution", 64, "--iterations", 400, "--algorithm", "sa",
                  "--t-coeff", 1, "--t0", 800, "--out-dir", out])
    assert rc == 0
    assert "t0 = 800" in (out / "summary.txt").read_text().splitlines()


# ----------------------------------------------------------------- failures


def test_bad_scheme_exits_2(capsys):
    rc = run_cli(["run-ab", "--scheme", "bogus"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("holo: ")
    assert "bogus" in err


def test_missing_image_exits_2(tmp_path, capsys):
    rc = run_cli(["render", "--image", tmp_path / "absent.pgm",
                  "--out-dir", tmp_path / "o"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("holo: ")


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_failed_run_leaves_no_out_dir(command, tmp_path, capsys):
    """A run that cannot load its image creates no output directory."""
    out = tmp_path / "o"
    rc = run_cli([command, "--image", tmp_path / "absent.pgm", "--out-dir", out])
    assert rc == 2
    assert capsys.readouterr().err.startswith("holo: ")
    assert not out.exists()


def test_t_coeff_without_sa_exits_2(tmp_path, capsys):
    rc = run_cli(["render", "--resolution", 64, "--t-coeff", 0.5,
                  "--out-dir", tmp_path / "o"])
    assert rc == 2
    assert "sa" in capsys.readouterr().err


def test_unknown_subcommand_raises_system_exit():
    with pytest.raises(SystemExit):
        run_cli(["optimise"])


# -------------------------------------------------------------- config files


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# benchmark defaults\n"
        "resolution = 128\n"
        "iterations = 500\n"
        "trace-stride = 10\n"
        "out_dir = /tmp/somewhere\n"
        "\n"
        "symmetry = yes\n"
        "scheme = phase:4\n")
    values = parse_config_file(p)
    assert values["resolution"] == 128
    assert values["iterations"] == 500
    assert values["trace_stride"] == 10
    assert values["out_dir"] == "/tmp/somewhere"
    assert values["symmetry"] is True
    assert values["scheme"] == "phase:4"


def test_parse_config_file_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("resolution = 128\nwavelength = 633\n")
    with pytest.raises(ValueError) as ei:
        parse_config_file(p)
    assert "wavelength" in str(ei.value)
    assert ":2" in str(ei.value)  # names the offending line


def test_parse_config_file_bad_value(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("iterations = soon\n")
    with pytest.raises(ValueError) as ei:
        parse_config_file(p)
    assert "iterations" in str(ei.value)


def test_parse_config_file_bad_boolean_names_its_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("# a comment\niterations = 10\nsymmetry = maybe\n")
    with pytest.raises(ValueError) as ei:
        parse_config_file(p)
    assert str(ei.value) == f"{p}:3: expected a boolean word, got 'maybe'"


def test_parse_config_file_bad_syntax(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("just some words\n")
    with pytest.raises(ValueError):
        parse_config_file(p)


def test_config_file_through_cli(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "o"
    cfg.write_text("resolution = 64\niterations = 50\nseed = 7\n")
    rc = run_cli(["render", "--config", cfg, "--out-dir", out])
    assert rc == 0
    summary = (out / "summary.txt").read_text()
    assert "resolution = 64" in summary
    assert "seed = 7" in summary


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "o"
    cfg.write_text("resolution = 64\nseed = 7\niterations = 50\n")
    rc = run_cli(["render", "--config", cfg, "--seed", 9, "--out-dir", out])
    assert rc == 0
    summary = (out / "summary.txt").read_text()
    assert "seed = 9" in summary  # flag wins
    assert "resolution = 64" in summary  # file still supplies the rest


def test_no_symmetry_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "o"
    cfg.write_text("resolution = 64\niterations = 0\nsymmetry = yes\n")
    rc = run_cli(["render", "--config", cfg, "--no-symmetry", "--out-dir", out])
    assert rc == 0
    assert "symmetry = false" in (out / "summary.txt").read_text()


# --------------------------------------------------------- argument plumbing


def test_defaults_match_experiment_config():
    parser = build_parser()
    args = parser.parse_args(["run-ab"])
    cfg = config_from_args(args)
    assert cfg.image == "synthetic-mandrill"
    assert cfg.resolution == 128
    assert cfg.scheme.name == "binary-phase"
    assert cfg.algorithm == "ds-fast"
    assert cfg.selection == "random"
    assert cfg.iterations == 20_000
    assert cfg.seed == 0
    assert cfg.symmetry is False


def test_scatter_default_scheme_is_continuous():
    parser = build_parser()
    cfg = config_from_args(parser.parse_args(["scatter"]))
    assert cfg.scheme.name == "phase:cont"
    # but an explicit flag still wins
    cfg2 = config_from_args(
        parser.parse_args(["scatter", "--scheme", "binary-phase"]))
    assert cfg2.scheme.name == "binary-phase"


def test_options_are_the_experiment_config_fields():
    """One option table serves the flags and the config-file keys; it names
    every ExperimentConfig field, in field order."""
    assert list(_OPTIONS) == [f.name for f in fields(ExperimentConfig)]
    args = build_parser().parse_args(["render"])
    assert sorted(vars(args)) == sorted(["command", "config", *_OPTIONS])


def test_readme_names_every_flag_of_every_subcommand():
    """README's "Command line" section names exactly the flags ``holo``'s
    subcommands accept (help aside), so a flag added or removed in the
    parser is added or removed there too."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {flag for sub in subparsers.choices.values() for action in sub._actions
                for flag in action.option_strings} - {"-h", "--help"}
    assert named == accepted
