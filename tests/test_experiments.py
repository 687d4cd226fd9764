"""Tests for the experiment drivers: A/B convergence, scatter, histograms,
render, and the artifact files they write."""

import dataclasses
import hashlib
import multiprocessing
import os
import threading

import numpy as np
import pytest

from holosearch import field
from holosearch.experiments import (
    HISTOGRAM_BINS,
    HISTOGRAM_HEADER,
    SCATTER_HEADER,
    TRACE_HEADER,
    ExperimentConfig,
    histogram_rows,
    hologram_to_image,
    prepare_target,
    run_convergence_ab,
    run_histograms,
    run_render,
    run_scatter_experiment,
    scatter_sweep,
)
from holosearch.field import dft2
from holosearch.metrics import mse
from holosearch.pgm import CLAMP_UNIT, load_pgm, save_pgm
from holosearch.search import SearchConfig, run_search
from holosearch.slm import ModulationScheme, change_map, quantise
from holosearch.targets import TargetImage
from test_field import fresh_helpers

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
    for bad in ({"resolution": 64.0}, {"resolution": True}, {"seed": 1.5}, {"seed": True},
                {"scatter_samples": 2.5}, {"iterations": True}, {"trace_stride": 2.5}):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            ExperimentConfig(**bad)
    counts = ExperimentConfig(resolution=np.int64(64), seed=np.int64(3), scatter_samples=np.int32(5))
    assert (counts.resolution, counts.seed, counts.scatter_samples) == (64, 3, 5)


def test_config_custom_schedule_needs_both_knobs():
    with pytest.raises(ValueError, match="sa"):
        ExperimentConfig(algorithm="sa", t_coeff=0.5)
    with pytest.raises(ValueError, match="sa"):
        ExperimentConfig(algorithm="sa", t0=3.0)
    full = ExperimentConfig(algorithm="sa", t_coeff=0.5, t0=3.0, iterations=10)
    sc = full.search_config()
    assert sc.t_coeff == 0.5
    assert sc.t0 == 3.0


def test_search_config_fields_are_experiment_config_fields():
    """search_config copies every SearchConfig field by name, so each is an
    ExperimentConfig field; all but the two without a SearchConfig default
    take that default."""
    experiment = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    for field in dataclasses.fields(SearchConfig):
        assert field.name in experiment, field.name
        if field.name not in ("iterations", "scheme"):
            assert experiment[field.name].default == field.default, field.name


@pytest.mark.parametrize("iterations", [0, 7, 20_000])
def test_default_search_config_is_search_configs_default(iterations):
    """ExperimentConfig takes its search defaults from SearchConfig."""
    got = ExperimentConfig(iterations=iterations).search_config()
    want = SearchConfig(iterations=iterations, scheme=BINARY_PHASE)
    for field in dataclasses.fields(SearchConfig):
        assert getattr(got, field.name) == getattr(want, field.name), field.name


# -------------------------------------------------------------- prepare_target


def test_prepare_target_builtin():
    cfg = ExperimentConfig(resolution=64)
    t = prepare_target(cfg)
    assert t.shape == (64, 64)
    assert abs(t.energy / (64 * 64) - 1.0) < 1e-12


def test_prepare_target_symmetry():
    cfg = ExperimentConfig(resolution=64, symmetry=True)
    t = prepare_target(cfg)
    assert np.array_equal(t.mag, np.roll(t.mag[::-1, ::-1], 1, axis=(0, 1)))
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


# --------------------------------------------------------- reports and summaries


@pytest.mark.parametrize("driver", [run_convergence_ab, run_scatter_experiment,
                                    run_histograms, run_render], ids=lambda d: d.__name__)
def test_summary_driver_lines_are_the_report_fields(driver, tmp_path):
    """After the config echo, summary.txt holds one line per report field in
    declaration order, each value read back exactly; ``paths`` names every
    file the driver wrote."""
    report = driver(fast_config(tmp_path, scatter_samples=300))
    out = tmp_path / "out"
    echo = len(dataclasses.fields(ExperimentConfig)) - 1  # every field but out_dir
    lines = (out / "summary.txt").read_text().splitlines()[echo:]
    names = [f.name for f in dataclasses.fields(report) if f.name != "paths"]
    assert [line.split(" = ")[0] for line in lines] == names
    for line, name in zip(lines, names):
        value, text = getattr(report, name), line.split(" = ", 1)[1]
        assert (float(text) if isinstance(value, float) else text) == \
            (value if isinstance(value, float) else str(value)), line
    assert sorted(report.paths) == sorted(os.listdir(out))
    assert all(path == str(out / name) for name, path in report.paths.items())


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
    deltas, changes, _ = scatter_sweep(t, aperture, BINARY_PHASE, np.array([0]))
    assert deltas[0] == 0.0
    assert changes[0] == 0.0


def test_scatter_sweep_matches_full_recompute():
    """Each sampled pixel's delta is the whole-grid change map's entry, and
    its error change that of a full transform of the aperture with that one
    pixel quantised. At 1024^2 a whole-grid quantise runs in split tiles."""
    for size, scheme, indices in ((8, BINARY_PHASE, [0, 5, 17, 63]),
                                  (1024, CONT_PHASE, [0, 4097, 524_800, 1024 * 1024 - 1])):
        rng = np.random.default_rng(703)
        t = TargetImage(rng.random((size, size)))
        aperture = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        quantised = quantise(aperture, scheme)
        baseline = mse(t.mag, dft2(aperture))
        indices = np.array(indices)
        deltas, changes, got_baseline = scatter_sweep(t, aperture, scheme, indices)
        assert got_baseline == baseline
        assert np.array_equal(deltas, change_map(aperture, quantised).ravel()[indices])
        for row, idx in enumerate(indices):
            test_ap = aperture.copy()
            test_ap.ravel()[idx] = quantised.ravel()[idx]
            want = mse(t.mag, dft2(test_ap)) - baseline
            assert abs(changes[row] - want) < 1e-12


def test_run_scatter_small(tmp_path):
    cfg = fast_config(tmp_path, scheme=CONT_PHASE, scatter_samples=500)
    report = run_scatter_experiment(cfg)
    assert report.samples == 500
    lines = (tmp_path / "out" / "scatter.csv").read_text().splitlines()
    assert lines[0] == SCATTER_HEADER
    assert len(lines) == 501
    assert report.pearson_fit_observed > 0.9
    assert report.fit_coefficient > 0.0


def test_run_scatter_all_pixels_when_small(tmp_path):
    cfg = fast_config(tmp_path, scheme=CONT_PHASE, scatter_samples=10_000)
    report = run_scatter_experiment(cfg)
    # 64x64 grid has 4096 pixels, fewer than requested: sweep all of them
    assert report.samples == 4096
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
    assert report.pixels == n
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
    assert digest == ("b098501e84501d7766671aba0f62de70"
                      "97427eb23c547fe08c4f996ccbce753b")


# ------------------------------------------------------------ fork safety


def _set_up_digest() -> str:
    """sha256 of a 1024^2 set-up: the prepared target, then the hologram and
    replay of a zero-iteration sps search on it."""
    config = ExperimentConfig(resolution=1024, iterations=0, selection="sps")
    target = prepare_target(config)
    result = run_search(target, config.search_config(), config.seed)
    digest = hashlib.sha256()
    for arr in (target.mag, result.hologram, result.replay):
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _search_digest() -> str:
    """sha256 of a 64^2 phase:8 sa search of 2000 iterations: its hologram,
    replay and final error."""
    config = ExperimentConfig(resolution=64, iterations=2000, algorithm="sa",
                              scheme=ModulationScheme.from_name("phase:8"))
    result = run_search(prepare_target(config), config.search_config(), config.seed)
    digest = hashlib.sha256(result.hologram.tobytes() + result.replay.tobytes())
    digest.update(repr(result.final_mse).encode())
    return digest.hexdigest()


def _send_digest(conn, digest) -> None:
    conn.send((digest(), field._helper is not None and field._helper.is_alive()))
    conn.close()


def _digest_in_forked_child(digest) -> str:
    """``digest()`` computed in a child forked from this process, which must
    have split its own work over helpers it started itself."""
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_digest, args=(sender, digest))
    child.start()
    sender.close()
    try:
        assert receiver.poll(120), "the forked child sent nothing within 120 s"
        got, helped = receiver.recv()
    finally:
        child.join(30)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert helped, "the forked child ran with no live helper"
    return got


def test_split_set_up_runs_in_a_forked_child(monkeypatch):
    """A process forked after a split set-up holds none of its parent's
    helper thread or queued blocks: the child starts a helper of its own,
    repeats the set-up, splitting it again, and gets the parent's bytes."""
    monkeypatch.setattr(field, "_may_start_helper", True)
    want = _set_up_digest()
    assert field._helper is not None, "the parent's split started no helper"
    assert _digest_in_forked_child(_set_up_digest) == want


def test_split_search_runs_in_a_forked_child(monkeypatch):
    """A child forked after a search whose loop split over a helper, while
    that helper is alive, repeats the search with the parent's bytes."""
    monkeypatch.setattr(field, "_may_start_helper", True)
    monkeypatch.setattr(field, "_MIN_BLOCK", 1)
    want = _search_digest()
    assert field._helper.is_alive()
    assert _digest_in_forked_child(_search_digest) == want


def _send_helper_flag(conn) -> None:
    conn.send(field._may_start_helper)
    conn.close()


def test_forked_child_reads_its_own_core_count(monkeypatch):
    """The helper flag is set once per process: the parent keeps the flag
    it holds, and a child forked from it sets the flag again from what its
    own CPU affinity reads (this host's, then one core and 99 read in its
    place), whatever the parent's flag, a failed start's included."""
    ctx = multiprocessing.get_context("fork")
    for cores in (None, 1, 99):
        if cores is not None:
            monkeypatch.setattr(field, "_read_cores", lambda cores=cores: cores)
        want = field._read_cores() > 1
        monkeypatch.setattr(field, "_may_start_helper", not want)
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_send_helper_flag, args=(sender,))
        child.start()
        sender.close()
        try:
            assert receiver.poll(60), "the forked child sent nothing within 60 s"
            got = receiver.recv()
        finally:
            child.join(30)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert got is want, cores
        assert field._may_start_helper is not want


def threads_and_splits(monkeypatch, resolution, scheme):
    """With a helper allowed to start, and one of its own, a sps set-up and
    a 200-iteration search at ``resolution``: the threads it started, the
    block count ``field._block_count`` gave each caller in ``field`` (every
    ``_split_rows`` call, ``slm._split_tiles``' among them, and
    ``_fft_pass``' warm-up check) and the helper."""
    monkeypatch.setattr(field, "_may_start_helper", True)
    start = threading.Thread.start
    started = []
    splits = []
    block_count = field._block_count

    def record(thread):
        started.append(thread)
        start(thread)

    def count(rows, elements):
        k = block_count(rows, elements)
        splits.append(k)
        return k

    monkeypatch.setattr(threading.Thread, "start", record)
    monkeypatch.setattr(field, "_block_count", count)
    config = ExperimentConfig(resolution=resolution, iterations=200, selection="sps",
                              scheme=ModulationScheme.from_name(scheme))
    with fresh_helpers():
        run_search(prepare_target(config), config.search_config(), config.seed)
        return started, splits, field._helper


@pytest.mark.parametrize("scheme", ["binary-phase", "phase:8"])
def test_set_up_under_the_split_floor_starts_no_thread(monkeypatch, scheme):
    """A 128^2 sps search, under the split floor in every kernel (target,
    back-projection, quantisation, change map, sort, the replay's
    transform, and the loop's update and error), splits no block and starts
    no thread, even with a helper allowed to start."""
    started, splits, helper = threads_and_splits(monkeypatch, 128, scheme)
    assert started == [] and helper is None
    assert splits and all(k == 1 for k in splits)


def test_split_search_starts_one_helper(monkeypatch):
    """A 512^2 sps set-up and search split every kernel in two blocks and
    start exactly one thread, the helper."""
    started, splits, helper = threads_and_splits(monkeypatch, 512, "binary-phase")
    assert started == [helper] and helper.daemon
    assert splits and all(k == 2 for k in splits)
