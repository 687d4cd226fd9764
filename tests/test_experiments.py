"""Tests for the experiment drivers: A/B convergence, scatter, histograms,
render, and the artifact files they write."""

import math
import os

import numpy as np
import pytest

from holosearch.experiments import (
    HISTOGRAM_BINS,
    HISTOGRAM_HEADER,
    SCATTER_HEADER,
    TRACE_HEADER,
    ExperimentConfig,
    ab_improvements,
    histogram_rows,
    hologram_to_image,
    prepare_target,
    run_convergence_ab,
    run_histograms,
    run_render,
    run_scatter_experiment,
    scatter_sweep,
)
from holosearch.field import dft2, idft2
from holosearch.metrics import ConvergenceTrace, mse
from holosearch.pgm import CLAMP_UNIT, load_pgm, save_pgm
from holosearch.slm import ModulationScheme, quantise
from holosearch.targets import TargetImage, synthetic_mandrill

BINARY_PHASE = ModulationScheme("phase", 2)
CONT_PHASE = ModulationScheme("phase", None)


def fast_config(tmp_path, **kw):
    base = dict(resolution=64, iterations=200, trace_stride=50,
                out_dir=str(tmp_path / "out"))
    base.update(kw)
    return ExperimentConfig(**base)


# ------------------------------------------------------------------- configs


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(resolution=100)
    with pytest.raises(ValueError):
        ExperimentConfig(algorithm="dbs")
    with pytest.raises(ValueError):
        ExperimentConfig(selection="greedy")
    with pytest.raises(ValueError):
        ExperimentConfig(iterations=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(t_coeff=0.5)  # only meaningful under sa
    with pytest.raises(ValueError):
        ExperimentConfig(algorithm="sa", t_coeff=-0.5, t0=6.0)
    with pytest.raises(ValueError):
        ExperimentConfig(scatter_samples=0)


def test_config_custom_schedule_needs_both_knobs():
    with pytest.raises(ValueError, match="sa"):
        ExperimentConfig(algorithm="sa", t_coeff=0.5)
    with pytest.raises(ValueError, match="sa"):
        ExperimentConfig(algorithm="sa", t0=3.0)
    full = ExperimentConfig(algorithm="sa", t_coeff=0.5, t0=3.0, iterations=10)
    sc = full.search_config()
    assert sc.schedule.t_coeff == 0.5
    assert sc.schedule.t0 == 3.0
    assert sc.schedule.total_n == 10


# -------------------------------------------------------------- prepare_target


def test_prepare_target_builtin():
    cfg = ExperimentConfig(resolution=64)
    t = prepare_target(cfg)
    assert t.shape == (64, 64)
    assert abs(t.energy / (64 * 64) - 1.0) < 1e-12


def test_prepare_target_symmetry():
    cfg = ExperimentConfig(resolution=64, symmetry=True)
    t = prepare_target(cfg)
    assert np.array_equal(t.mag, t.mag[::-1, ::-1])
    assert abs(t.energy / (64 * 64) - 1.0) < 1e-12


def test_prepare_target_from_pgm_file(tmp_path):
    rng = np.random.default_rng(701)
    src = rng.random((32, 32))
    p = tmp_path / "input.pgm"
    save_pgm(src, p, CLAMP_UNIT)
    cfg = ExperimentConfig(image=str(p), resolution=64)
    t = prepare_target(cfg)
    assert t.shape == (64, 64)
    # nearest-neighbour upscale then energy scale: 2x2 blocks stay constant
    assert np.allclose(t.mag[::2, ::2], t.mag[1::2, 1::2])


def test_prepare_target_missing_file():
    cfg = ExperimentConfig(image="/no/such/file.pgm", resolution=64)
    with pytest.raises(OSError):
        prepare_target(cfg)


# ----------------------------------------------------------- ab_improvements


def test_ab_improvements_identical_traces():
    tr = ConvergenceTrace()
    tr.append(0, 1.0, 0)
    tr2 = ConvergenceTrace()
    tr2.append(0, 1.0, 0)
    assert ab_improvements(tr, tr2) == (0.0, 0.0)


def test_ab_improvements_degenerate_baseline_is_nan():
    base = ConvergenceTrace()
    base.append(0, 1.0, 0)
    base.append(10, 1.0, 0)  # no reduction
    var = ConvergenceTrace()
    var.append(0, 1.0, 0)
    var.append(10, 0.5, 3)
    by_reduction, by_final = ab_improvements(base, var)
    assert math.isnan(by_reduction)
    assert abs(by_final - 0.5) < 1e-12


# ------------------------------------------------------------------- run-ab


def test_run_ab_writes_artifacts(tmp_path):
    cfg = fast_config(tmp_path)
    report = run_convergence_ab(cfg)
    out = tmp_path / "out"
    for name in ("trace_random.csv", "trace_sps.csv",
                 "replay_random.pgm", "replay_sps.pgm", "summary.txt"):
        assert (out / name).exists()

    lines = (out / "trace_random.csv").read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    # iteration 0 and the final iteration are always present
    assert lines[1].startswith("0,")
    assert lines[-1].startswith("200,")

    sps_lines = (out / "trace_sps.csv").read_text().splitlines()
    assert lines[1] == sps_lines[1]  # shared starting point, byte-equal

    summary = (out / "summary.txt").read_text()
    for key in ("image = ", "resolution = 64", "initial_mse = ",
                "final_mse_random = ", "final_mse_sps = ",
                "error_reduction_random = ", "error_reduction_sps = ",
                "improvement_error_reduction = ", "improvement_final_error = ",
                "accepted_random = ", "accepted_sps = ", "wall_time_s = "):
        assert key in summary, key
    assert report.initial_mse > 0.0


def test_run_ab_zero_iterations_zero_improvement(tmp_path):
    cfg = fast_config(tmp_path, iterations=0)
    report = run_convergence_ab(cfg)
    assert report.improvement_error_reduction == 0.0
    assert report.improvement_final_error == 0.0
    assert report.final_mse_random == report.final_mse_sps == report.initial_mse


def test_run_ab_byte_deterministic(tmp_path):
    cfg_a = fast_config(tmp_path, out_dir=str(tmp_path / "a"), seed=5)
    cfg_b = fast_config(tmp_path, out_dir=str(tmp_path / "b"), seed=5)
    run_convergence_ab(cfg_a)
    run_convergence_ab(cfg_b)
    for name in ("trace_random.csv", "trace_sps.csv",
                 "replay_random.pgm", "replay_sps.pgm"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name
    # summaries agree except for the wall-time line
    sa = [l for l in (tmp_path / "a" / "summary.txt").read_text().splitlines()
          if not l.startswith("wall_time_s")]
    sb = [l for l in (tmp_path / "b" / "summary.txt").read_text().splitlines()
          if not l.startswith("wall_time_s")]
    assert sa == sb


# ------------------------------------------------------------------- scatter


def test_scatter_sweep_delta_zero_gives_zero_change():
    # craft an aperture whose first pixel is already an allowed value:
    # quantising it is a no-op, so the error change must be exactly zero
    rng = np.random.default_rng(702)
    t = TargetImage(rng.random((8, 8)))
    aperture = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    aperture[0, 0] = 1.0 + 0.0j
    deltas, changes = scatter_sweep(t, aperture, BINARY_PHASE, np.array([0]))
    assert deltas[0] == 0.0
    assert changes[0] == 0.0


def test_scatter_sweep_matches_full_recompute():
    rng = np.random.default_rng(703)
    t = TargetImage(rng.random((8, 8)))
    aperture = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    quantised = quantise(aperture, BINARY_PHASE)
    baseline = mse(t.mag, dft2(aperture))
    indices = np.array([0, 5, 17, 63])
    _, changes = scatter_sweep(t, aperture, BINARY_PHASE, indices)
    for row, idx in enumerate(indices):
        test_ap = aperture.copy()
        test_ap.ravel()[idx] = quantised.ravel()[idx]
        want = mse(t.mag, dft2(test_ap)) - baseline
        assert abs(changes[row] - want) < 1e-12


def test_run_scatter_small(tmp_path):
    cfg = fast_config(tmp_path, scheme=CONT_PHASE, scatter_samples=500)
    report = run_scatter_experiment(cfg)
    assert report.n_samples == 500
    lines = (tmp_path / "out" / "scatter.csv").read_text().splitlines()
    assert lines[0] == SCATTER_HEADER
    assert len(lines) == 501
    assert report.pearson_fit_observed > 0.9
    assert report.fit_coefficient > 0.0


def test_run_scatter_all_pixels_when_small(tmp_path):
    cfg = fast_config(tmp_path, scheme=CONT_PHASE, scatter_samples=10_000)
    report = run_scatter_experiment(cfg)
    # 64x64 grid has 4096 pixels, fewer than requested: sweep all of them
    assert report.n_samples == 4096
    lines = (tmp_path / "out" / "scatter.csv").read_text().splitlines()
    assert len(lines) == 4097
    idx = sorted(int(l.split(",")[0]) for l in lines[1:])
    assert idx == list(range(4096))


# ---------------------------------------------------------------- histograms


def test_histogram_rows_degenerate_range():
    rows = histogram_rows(np.zeros(100), 0.0, 0.0)
    assert len(rows) == HISTOGRAM_BINS
    assert rows[0][2] == 100
    assert sum(r[2] for r in rows) == 100


def test_histogram_rows_counts_everything():
    rng = np.random.default_rng(704)
    v = rng.random(1000)
    rows = histogram_rows(v, 0.0, 1.0)
    assert sum(r[2] for r in rows) == 1000
    # edges tile the range
    assert rows[0][0] == 0.0
    assert rows[-1][1] == 1.0


def test_run_histograms(tmp_path):
    cfg = fast_config(tmp_path)
    report = run_histograms(cfg)
    out = tmp_path / "out"
    n = 64 * 64
    assert report.n_pixels == n
    for name in ("hist_magnitude.csv", "hist_angle.csv", "hist_change.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == HISTOGRAM_HEADER
        assert len(lines) == HISTOGRAM_BINS + 1
        counts = [int(l.split(",")[2]) for l in lines[1:]]
        assert sum(counts) == n, name


def test_run_histograms_angles_roughly_uniform(tmp_path):
    """Random-phase back-projection angles: chi-square against uniform over
    64 bins stays under a generous 5-sigma-ish bound."""
    cfg = fast_config(tmp_path, resolution=128)
    run_histograms(cfg)
    lines = (tmp_path / "out" / "hist_angle.csv").read_text().splitlines()[1:]
    counts = np.array([int(l.split(",")[2]) for l in lines], dtype=np.float64)
    n = counts.sum()
    expect = n / HISTOGRAM_BINS
    chi2 = float(((counts - expect) ** 2 / expect).sum())
    # df = 63: mean 63, sd ~ sqrt(126) ~ 11.2; 63 + 5*11.2 ~ 119
    assert chi2 < 119.0


def test_run_histograms_zero_changes_land_in_bin_zero(tmp_path):
    # continuous amplitude of an already-real-valued aperture is the edge
    # case; easier: quantisation changes of an already-quantised aperture
    rng = np.random.default_rng(705)
    t = TargetImage(rng.random((8, 8)))
    rows = histogram_rows(np.zeros(64), 0.0, 0.0)
    assert rows[0][2] == 64
    assert all(r[2] == 0 for r in rows[1:])


# -------------------------------------------------------------------- render


def test_hologram_to_image_phase_mapping():
    holo = np.array([[1.0 + 0.0j, -1.0 + 0.0j]])
    img = hologram_to_image(holo, BINARY_PHASE)
    # angle 0 -> 0.5 grey, angle pi -> 1.0
    assert abs(img[0, 0] - 0.5) < 1e-15
    assert abs(img[0, 1] - 1.0) < 1e-15


def test_hologram_to_image_amplitude_mapping():
    holo = np.array([[0.25 + 0.0j, 1.5 + 0.0j]])
    img = hologram_to_image(holo, ModulationScheme("amplitude", None))
    assert img[0, 0] == 0.25
    assert img[0, 1] == 1.0


def test_run_render(tmp_path):
    cfg = fast_config(tmp_path)
    report = run_render(cfg)
    out = tmp_path / "out"
    for name in ("hologram.pgm", "replay.pgm", "trace.csv", "summary.txt"):
        assert (out / name).exists()
    holo = load_pgm(out / "hologram.pgm")
    assert holo.shape == (64, 64)
    # binary phase renders as mid-grey and white only
    vals = set(np.unique(np.rint(holo.mag * 255)).tolist())
    assert vals <= {128.0, 255.0}
    assert report.final_mse <= report.initial_mse
    summary = (out / "summary.txt").read_text()
    assert "selection = random" in summary
    assert "final_mse = " in summary


def test_run_render_replay_golden_digest(tmp_path):
    """Byte digest of the rendered replay for the pinned benchmark run.

    A same-build, run-to-run pin: floats are promised bit-identical only on
    one numpy build and CPU. It holds with and without numpy's AVX-512
    dispatch, because 8-bit PGM quantisation absorbs last-bit differences."""
    import hashlib
    cfg = ExperimentConfig(resolution=128, iterations=2000, seed=42,
                           selection="sps", symmetry=True,
                           out_dir=str(tmp_path / "out"))
    run_render(cfg)
    raw = (tmp_path / "out" / "replay.pgm").read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    assert digest == ("6b7175398799a9e0d10f532f73d485a8"
                      "014b6060e888d1a4b692eaa1381f5abc")
