"""Experiment harness: reproducible runs that leave artifacts on disk.

Each experiment takes an :class:`ExperimentConfig` and writes its outputs
(CSV traces, PGM renders, a ``summary.txt`` of key = value lines) into
``config.out_dir``. For a fixed (image, config, seed) triple every CSV and PGM
is byte-identical run to run on one numpy build and CPU; summaries additionally
carry wall times, which of course vary. Across numpy builds and CPUs the floats
agree only to oracle tolerance, since numpy does not promise last-bit agreement
of its transcendental functions or its FFT there.

Floats in CSVs and summaries are written with 17 significant digits, enough to
round-trip any 64-bit value exactly; across builds and CPUs those CSVs may
therefore differ in their last digits.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .field import delta_update, dft2
from .metrics import ConvergenceTrace, final_error_improvement, mse, pearson, relative_improvement
from .pgm import CLAMP_UNIT, LINEAR_MAX, load_pgm, save_pgm
from .rng import STREAM_PHASE, STREAM_SELECTION, substream
from .search import (
    SELECT_RANDOM,
    SELECT_SPS,
    SearchConfig,
    back_project,
    require_integer,
    run_search,
)
from .slm import AMPLITUDE, PHASE, ModulationScheme, change_map, quantise
from .targets import (
    SYNTHETIC_NAMES,
    TargetImage,
    induce_symmetry,
    normalize_energy,
    resample_nearest,
    synthetic_target,
)

RESOLUTIONS = (64, 128, 256, 512, 1024, 2048)
HISTOGRAM_BINS = 64

TRACE_HEADER = "iteration,mse,accepted"
SCATTER_HEADER = "pixel_index,delta,mse_change"
HISTOGRAM_HEADER = "bin_lo,bin_hi,count"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's knobs; mirrors the command-line flags one to one."""

    image: str = "synthetic-mandrill"
    resolution: int = 128
    scheme: ModulationScheme = ModulationScheme(PHASE, 2)
    algorithm: str = SearchConfig.algorithm
    selection: str = SearchConfig.selection
    iterations: int = 20_000
    seed: int = 0
    symmetry: bool = False
    t_coeff: float | None = SearchConfig.t_coeff
    t0: float | None = SearchConfig.t0
    out_dir: str = "out"
    trace_stride: int = SearchConfig.trace_stride
    recompute_interval: int = SearchConfig.recompute_interval
    scatter_samples: int = 10_000

    def __post_init__(self):
        for name in ("resolution", "seed", "scatter_samples"):
            require_integer(name, getattr(self, name))
        if self.resolution not in RESOLUTIONS:
            raise ValueError(f"resolution must be one of {RESOLUTIONS}, got {self.resolution}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.scatter_samples < 1:
            raise ValueError(f"scatter-samples must be >= 1, got {self.scatter_samples}")
        # SearchConfig validates every other field.
        self.search_config()

    def search_config(self, selection: str | None = None) -> SearchConfig:
        """The search these knobs describe: every SearchConfig field copied
        by name, with ``selection`` in place of config.selection when given."""
        knobs = {f.name: getattr(self, f.name) for f in fields(SearchConfig)}
        if selection is not None:
            knobs["selection"] = selection
        return SearchConfig(**knobs)


def prepare_target(config: ExperimentConfig) -> TargetImage:
    """Load or synthesize the configured image, fully prepared for a search.

    Builtin synthetic names are generated at the requested resolution; paths
    are loaded as binary PGM and nearest-neighbor resampled. Symmetry (if on)
    is applied before energy normalization, which always comes last.
    """
    if config.image in SYNTHETIC_NAMES:
        img = synthetic_target(config.image, config.resolution)
    else:
        img = resample_nearest(load_pgm(config.image), config.resolution, config.resolution)
    if config.symmetry:
        img = induce_symmetry(img)
    return normalize_energy(img)


def _text(value) -> str:
    """How every number in an artifact or on stdout is written: floats with
    17 significant digits, booleans as true/false, anything else as str()."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def format_entry(key: str, value) -> str:
    """One ``key = value`` line of summary.txt or of ``holo``'s stdout."""
    return f"{key} = {_text(value)}"


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_text, row)) + "\n")


def write_trace_csv(trace: ConvergenceTrace, path) -> None:
    """Write iteration,mse,accepted rows (one per trace sample)."""
    _write_csv(path, TRACE_HEADER, trace.samples)


def _artifact_paths(config: ExperimentConfig, *names: str) -> dict[str, str]:
    """Create config.out_dir and map each artifact name, and summary.txt, to its path there.

    Drivers call it once the target is loaded, so a run that cannot load its
    image leaves no directory behind."""
    os.makedirs(config.out_dir, exist_ok=True)
    return {name: os.path.join(config.out_dir, name) for name in (*names, "summary.txt")}


def _write_summary(config: ExperimentConfig, report) -> None:
    """Write summary.txt: one line per config field in declaration order (all
    but ``out_dir``, the scheme by its name), then one line per report field
    in declaration order (all but ``paths``)."""
    echo = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "out_dir"}
    echo["scheme"] = config.scheme.name
    results = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "paths"}
    with open(report.paths["summary.txt"], "w", encoding="ascii", newline="") as fh:
        for key, value in (*echo.items(), *results.items()):
            fh.write(format_entry(key, value) + "\n")


@dataclass
class AbReport:
    """One A/B selection comparison. Like every driver's report, its fields
    are summary.txt's driver lines in order, and ``paths`` maps each artifact
    name (summary.txt included) to its file."""

    initial_mse: float
    final_mse_random: float
    final_mse_sps: float
    error_reduction_random: float
    error_reduction_sps: float
    improvement_error_reduction: float
    improvement_final_error: float
    accepted_random: int
    accepted_sps: int
    wall_time_s: float
    paths: dict[str, str]


def run_convergence_ab(config: ExperimentConfig) -> AbReport:
    """Run the configured search twice, random vs sorted selection, and compare.

    Both runs use the same seed, so they start from the identical quantised
    back-projection and identical initial error; only the pixel-selection
    policy differs. Writes trace_random.csv, trace_sps.csv, the two final
    replay magnitudes as PGM, and summary.txt.
    """
    target = prepare_target(config)
    paths = _artifact_paths(config, "trace_random.csv", "trace_sps.csv", "replay_random.pgm", "replay_sps.pgm")
    t_start = time.perf_counter()
    result_random = run_search(target, config.search_config(SELECT_RANDOM), config.seed)
    result_sps = run_search(target, config.search_config(SELECT_SPS), config.seed)
    wall = time.perf_counter() - t_start

    write_trace_csv(result_random.trace, paths["trace_random.csv"])
    write_trace_csv(result_sps.trace, paths["trace_sps.csv"])
    save_pgm(result_random.replay, paths["replay_random.pgm"], LINEAR_MAX)
    save_pgm(result_sps.replay, paths["replay_sps.pgm"], LINEAR_MAX)

    report = AbReport(
        initial_mse=result_random.trace.initial_mse,
        final_mse_random=result_random.final_mse,
        final_mse_sps=result_sps.final_mse,
        error_reduction_random=result_random.trace.initial_mse - result_random.final_mse,
        error_reduction_sps=result_sps.trace.initial_mse - result_sps.final_mse,
        improvement_error_reduction=relative_improvement(result_random.trace, result_sps.trace),
        improvement_final_error=final_error_improvement(result_random.trace, result_sps.trace),
        accepted_random=result_random.accepted,
        accepted_sps=result_sps.accepted,
        wall_time_s=wall,
        paths=paths,
    )
    _write_summary(config, report)
    return report


@dataclass
class ScatterReport:
    """Square-law check: per-pixel quantisation change vs error change."""

    samples: int
    fit_coefficient: float
    pearson_fit_observed: float
    baseline_mse: float
    wall_time_s: float
    paths: dict[str, str]


def scatter_sweep(
    target: TargetImage, aperture: np.ndarray, scheme: ModulationScheme, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-pixel effect of quantising single aperture pixels.

    For each flat pixel index, the unquantised aperture has that one pixel
    replaced by its quantised value; returned are the quantisation-change
    magnitudes ``delta``, the resulting changes in replay error, and the
    replay error of the unquantised aperture they are relative to. Only the
    sampled pixels are quantised. One O(N) replay update per pixel, which
    also takes the previous pixel's change back out.
    """
    picked = aperture.ravel()[indices]
    quantised = quantise(picked, scheme)
    deltas = change_map(picked, quantised)
    replay = dft2(aperture)
    baseline = mse(target.mag, replay)
    width = target.width

    changes = np.empty(len(indices))
    move = None
    for row, idx in enumerate(indices):
        idx = int(idx)
        move = delta_update(replay, idx % width, idx // width, quantised[row] - picked[row], undo=move)
        changes[row] = mse(target.mag, replay) - baseline
    return deltas, changes, baseline


def run_scatter_experiment(config: ExperimentConfig) -> ScatterReport:
    """Quantisation-change vs error-change scatter for one back-projection.

    Samples config.scatter_samples pixels without replacement (all pixels if
    the grid is smaller), sweeps them with single-pixel replay updates, fits
    ``mse_change = a * delta**2`` through the origin by least squares, and
    reports the Pearson correlation between fitted and observed changes.
    Writes scatter.csv (rows ordered by pixel index) and summary.txt.
    """
    target = prepare_target(config)
    paths = _artifact_paths(config, "scatter.csv")
    aperture = back_project(target, substream(config.seed, STREAM_PHASE))

    n_pixels = target.mag.size
    if config.scatter_samples >= n_pixels:
        indices = np.arange(n_pixels)
    else:
        picker = substream(config.seed, STREAM_SELECTION)
        indices = np.sort(picker.choice(n_pixels, size=config.scatter_samples, replace=False))

    t_start = time.perf_counter()
    deltas, changes, baseline = scatter_sweep(target, aperture, config.scheme, indices)
    wall = time.perf_counter() - t_start

    d2 = deltas * deltas
    denom = float(d2 @ d2)
    coeff = float(d2 @ changes) / denom if denom > 0 else float("nan")
    correlation = pearson(coeff * d2, changes)

    _write_csv(paths["scatter.csv"], SCATTER_HEADER, zip(indices, deltas, changes))

    report = ScatterReport(len(indices), coeff, correlation, baseline, wall, paths)
    _write_summary(config, report)
    return report


@dataclass
class HistogramReport:
    """Back-projection histograms: pixel count and bins per histogram."""

    pixels: int
    bins: int
    paths: dict[str, str]


def histogram_rows(values: np.ndarray, lo: float, hi: float) -> list[tuple[float, float, int]]:
    """Fixed-width 64-bin histogram rows (bin_lo, bin_hi, count) over [lo, hi].

    The top edge is inclusive so every in-range value lands in a bin; a
    degenerate range (hi <= lo) widens to one unit so constant data counts in
    bin 0.
    """
    if hi <= lo:
        hi = lo + 1.0
    counts, edges = np.histogram(values.ravel(), bins=HISTOGRAM_BINS, range=(lo, hi))
    return [(float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(HISTOGRAM_BINS)]


def run_histograms(config: ExperimentConfig) -> HistogramReport:
    """Histogram the back-projected aperture for one (image, seed) pair.

    Emits 64-bin histograms of pixel magnitudes (over [0, max]), pixel angles
    (over [-pi, pi]), and quantisation-change magnitudes for the configured
    scheme (over [0, max]); each histogram's counts sum to the pixel count.
    """
    target = prepare_target(config)
    paths = _artifact_paths(config, "hist_magnitude.csv", "hist_angle.csv", "hist_change.csv")
    aperture = back_project(target, substream(config.seed, STREAM_PHASE))
    magnitudes = np.abs(aperture)
    angles = np.angle(aperture)
    changes = change_map(aperture, quantise(aperture, config.scheme))

    _write_csv(paths["hist_magnitude.csv"], HISTOGRAM_HEADER,
               histogram_rows(magnitudes, 0.0, float(magnitudes.max())))
    _write_csv(paths["hist_angle.csv"], HISTOGRAM_HEADER, histogram_rows(angles, -np.pi, np.pi))
    _write_csv(paths["hist_change.csv"], HISTOGRAM_HEADER, histogram_rows(changes, 0.0, float(changes.max())))

    report = HistogramReport(magnitudes.size, HISTOGRAM_BINS, paths)
    _write_summary(config, report)
    return report


@dataclass
class RenderReport:
    """One search run and its rendered hologram and replay."""

    initial_mse: float
    final_mse: float
    accepted: int
    wall_time_s: float
    paths: dict[str, str]


def hologram_to_image(hologram: np.ndarray, scheme: ModulationScheme) -> np.ndarray:
    """Map a hologram to displayable [0, 1] greys.

    Phase devices show the angle, mapped linearly from [-pi, pi] (binary
    devices come out mid-grey and white); amplitude devices show the pixel
    value directly.
    """
    if scheme.kind == AMPLITUDE:
        return np.clip(hologram.real, 0.0, 1.0)
    return (np.angle(hologram) + np.pi) / (2.0 * np.pi)


def run_render(config: ExperimentConfig) -> RenderReport:
    """One search run; writes hologram.pgm, replay.pgm, trace.csv, summary.txt."""
    target = prepare_target(config)
    paths = _artifact_paths(config, "hologram.pgm", "replay.pgm", "trace.csv")
    t_start = time.perf_counter()
    result = run_search(target, config.search_config(), config.seed)
    wall = time.perf_counter() - t_start

    save_pgm(hologram_to_image(result.hologram, config.scheme), paths["hologram.pgm"], CLAMP_UNIT)
    save_pgm(result.replay, paths["replay.pgm"], LINEAR_MAX)
    write_trace_csv(result.trace, paths["trace.csv"])

    report = RenderReport(result.initial_mse, result.final_mse, result.accepted, wall, paths)
    _write_summary(config, report)
    return report
