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
from dataclasses import dataclass

import numpy as np

from .field import delta_update, dft2
from .metrics import ConvergenceTrace, final_error_improvement, mse, pearson, relative_improvement
from .pgm import CLAMP_UNIT, LINEAR_MAX, load_pgm, save_pgm
from .rng import STREAM_PHASE, STREAM_SELECTION, substream
from .search import (
    ALGO_DS_FAST,
    SELECT_RANDOM,
    SELECT_SPS,
    AnnealingSchedule,
    SearchConfig,
    back_project,
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
    algorithm: str = ALGO_DS_FAST
    selection: str = SELECT_RANDOM
    iterations: int = 20_000
    seed: int = 0
    symmetry: bool = False
    t_coeff: float | None = None
    t0: float | None = None
    out_dir: str = "out"
    trace_stride: int = 100
    recompute_interval: int = 50_000
    scatter_samples: int = 10_000

    def __post_init__(self):
        if self.resolution not in RESOLUTIONS:
            raise ValueError(f"resolution must be one of {RESOLUTIONS}, got {self.resolution}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.scatter_samples < 1:
            raise ValueError(f"scatter-samples must be >= 1, got {self.scatter_samples}")
        # SearchConfig and AnnealingSchedule validate every other field.
        self.search_config()

    def search_config(self, selection: str | None = None) -> SearchConfig:
        """The search these knobs describe, with ``selection`` in place of
        config.selection when given. --t-coeff and --t0 build a custom
        annealing schedule together; SearchConfig rejects one outside sa."""
        schedule = None
        if self.t_coeff is not None or self.t0 is not None:
            if self.t_coeff is None or self.t0 is None:
                raise ValueError("a custom sa schedule needs both --t-coeff and --t0")
            schedule = AnnealingSchedule(self.t_coeff, self.t0, max(self.iterations, 1))
        return SearchConfig(
            iterations=self.iterations,
            scheme=self.scheme,
            algorithm=self.algorithm,
            selection=self.selection if selection is None else selection,
            schedule=schedule,
            recompute_interval=self.recompute_interval,
            trace_stride=self.trace_stride,
        )


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


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_trace_csv(trace: ConvergenceTrace, path) -> None:
    """Write iteration,mse,accepted rows (one per trace sample)."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(TRACE_HEADER + "\n")
        for s in trace.samples:
            fh.write(f"{s.iteration},{s.mse:.17g},{s.accepted}\n")


def _artifact_paths(config: ExperimentConfig, *names: str) -> dict[str, str]:
    """Create config.out_dir and map each artifact name, and summary.txt, to its path there."""
    os.makedirs(config.out_dir, exist_ok=True)
    return {name: os.path.join(config.out_dir, name) for name in (*names, "summary.txt")}


def _write_summary(paths: dict[str, str], config: ExperimentConfig, extra: list[tuple[str, object]]) -> None:
    """Write summary.txt: the config's key = value lines, then the driver's ``extra`` ones."""
    entries = [
        ("image", config.image),
        ("resolution", config.resolution),
        ("scheme", config.scheme.name),
        ("algorithm", config.algorithm),
        ("iterations", config.iterations),
        ("seed", config.seed),
        ("symmetry", config.symmetry),
    ] + extra
    with open(paths["summary.txt"], "w", encoding="ascii", newline="") as fh:
        for key, value in entries:
            fh.write(f"{key} = {_fmt(value)}\n")


@dataclass
class AbReport:
    """Numbers and file paths from one A/B selection comparison."""

    initial_mse: float
    final_mse_random: float
    final_mse_sps: float
    improvement_error_reduction: float
    improvement_final_error: float
    accepted_random: int
    accepted_sps: int
    wall_time_s: float
    trace_random_path: str
    trace_sps_path: str
    replay_random_path: str
    replay_sps_path: str
    summary_path: str


def ab_improvements(baseline: ConvergenceTrace, variant: ConvergenceTrace) -> tuple[float, float]:
    """Both improvement numbers for an A/B pair, tolerant of degenerate runs.

    Identical final errors mean improvement 0 under either definition (this
    covers 0-iteration runs, where neither trace moved). Otherwise the
    error-reduction-based and final-error-based definitions are evaluated;
    a definition whose denominator is degenerate yields nan rather than an
    error, so one odd run cannot kill a sweep.
    """
    if variant.final_mse == baseline.final_mse:
        return 0.0, 0.0
    try:
        by_reduction = relative_improvement(baseline, variant)
    except ValueError:
        by_reduction = float("nan")
    try:
        by_final = final_error_improvement(baseline, variant)
    except ValueError:
        by_final = float("nan")
    return by_reduction, by_final


def run_convergence_ab(config: ExperimentConfig) -> AbReport:
    """Run the configured search twice, random vs sorted selection, and compare.

    Both runs use the same seed, so they start from the identical quantised
    back-projection and identical initial error; only the pixel-selection
    policy differs. Writes trace_random.csv, trace_sps.csv, the two final
    replay magnitudes as PGM, and summary.txt.
    """
    paths = _artifact_paths(config, "trace_random.csv", "trace_sps.csv", "replay_random.pgm", "replay_sps.pgm")
    target = prepare_target(config)
    t_start = time.perf_counter()
    result_random = run_search(target, config.search_config(SELECT_RANDOM), config.seed)
    result_sps = run_search(target, config.search_config(SELECT_SPS), config.seed)
    wall = time.perf_counter() - t_start

    if result_sps.trace.initial_mse != result_random.trace.initial_mse:
        raise AssertionError("selection policies must share the starting error for one seed")
    by_reduction, by_final = ab_improvements(result_random.trace, result_sps.trace)

    write_trace_csv(result_random.trace, paths["trace_random.csv"])
    write_trace_csv(result_sps.trace, paths["trace_sps.csv"])
    save_pgm(result_random.replay, paths["replay_random.pgm"], LINEAR_MAX)
    save_pgm(result_sps.replay, paths["replay_sps.pgm"], LINEAR_MAX)

    _write_summary(paths, config, [
        ("initial_mse", result_random.trace.initial_mse),
        ("final_mse_random", result_random.final_mse),
        ("final_mse_sps", result_sps.final_mse),
        ("error_reduction_random", result_random.trace.initial_mse - result_random.final_mse),
        ("error_reduction_sps", result_sps.trace.initial_mse - result_sps.final_mse),
        ("improvement_error_reduction", by_reduction),
        ("improvement_final_error", by_final),
        ("accepted_random", result_random.accepted),
        ("accepted_sps", result_sps.accepted),
        ("wall_time_s", wall),
    ])

    return AbReport(
        initial_mse=result_random.trace.initial_mse,
        final_mse_random=result_random.final_mse,
        final_mse_sps=result_sps.final_mse,
        improvement_error_reduction=by_reduction,
        improvement_final_error=by_final,
        accepted_random=result_random.accepted,
        accepted_sps=result_sps.accepted,
        wall_time_s=wall,
        trace_random_path=paths["trace_random.csv"],
        trace_sps_path=paths["trace_sps.csv"],
        replay_random_path=paths["replay_random.pgm"],
        replay_sps_path=paths["replay_sps.pgm"],
        summary_path=paths["summary.txt"],
    )


@dataclass
class ScatterReport:
    """Square-law check: per-pixel quantisation change vs error change."""

    n_samples: int
    fit_coefficient: float
    pearson_fit_observed: float
    baseline_mse: float
    csv_path: str
    summary_path: str


def scatter_sweep(
    target: TargetImage, aperture: np.ndarray, scheme: ModulationScheme, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel effect of quantising single aperture pixels.

    For each flat pixel index, the unquantised aperture has that one pixel
    replaced by its quantised value; returned are the quantisation-change
    magnitudes ``delta`` and the resulting changes in replay error relative to
    the unquantised aperture. One O(N) replay update per pixel.
    """
    quantised = quantise(aperture, scheme)
    deltas_all = change_map(aperture, quantised).ravel()
    replay0 = dft2(aperture)
    baseline = mse(target.mag, replay0)
    width = target.width
    aperture_flat = aperture.ravel()
    quantised_flat = quantised.ravel()

    deltas = np.empty(len(indices))
    changes = np.empty(len(indices))
    scratch = np.empty_like(replay0)
    for row, idx in enumerate(indices):
        idx = int(idx)
        np.copyto(scratch, replay0)
        delta_update(scratch, idx % width, idx // width, quantised_flat[idx] - aperture_flat[idx])
        deltas[row] = deltas_all[idx]
        changes[row] = mse(target.mag, scratch) - baseline
    return deltas, changes


def run_scatter_experiment(config: ExperimentConfig) -> ScatterReport:
    """Quantisation-change vs error-change scatter for one back-projection.

    Samples config.scatter_samples pixels without replacement (all pixels if
    the grid is smaller), sweeps them with single-pixel replay updates, fits
    ``mse_change = a * delta**2`` through the origin by least squares, and
    reports the Pearson correlation between fitted and observed changes.
    Writes scatter.csv (rows ordered by pixel index) and summary.txt.
    """
    paths = _artifact_paths(config, "scatter.csv")
    target = prepare_target(config)
    aperture = back_project(target, substream(config.seed, STREAM_PHASE))

    n_pixels = target.mag.size
    if config.scatter_samples >= n_pixels:
        indices = np.arange(n_pixels)
    else:
        picker = substream(config.seed, STREAM_SELECTION)
        indices = np.sort(picker.choice(n_pixels, size=config.scatter_samples, replace=False))

    t_start = time.perf_counter()
    deltas, changes = scatter_sweep(target, aperture, config.scheme, indices)
    wall = time.perf_counter() - t_start

    d2 = deltas * deltas
    denom = float(d2 @ d2)
    coeff = float(d2 @ changes) / denom if denom > 0 else float("nan")
    correlation = pearson(coeff * d2, changes) if denom > 0 else float("nan")
    baseline = mse(target.mag, dft2(aperture))

    with open(paths["scatter.csv"], "w", encoding="ascii", newline="") as fh:
        fh.write(SCATTER_HEADER + "\n")
        for idx, delta, change in zip(indices, deltas, changes):
            fh.write(f"{int(idx)},{delta:.17g},{change:.17g}\n")

    _write_summary(paths, config, [
        ("samples", len(indices)),
        ("fit_coefficient", coeff),
        ("pearson_fit_observed", correlation),
        ("baseline_mse", baseline),
        ("wall_time_s", wall),
    ])

    return ScatterReport(
        n_samples=len(indices),
        fit_coefficient=coeff,
        pearson_fit_observed=correlation,
        baseline_mse=baseline,
        csv_path=paths["scatter.csv"],
        summary_path=paths["summary.txt"],
    )


@dataclass
class HistogramReport:
    magnitude_path: str
    angle_path: str
    change_path: str
    summary_path: str
    n_pixels: int


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


def _write_histogram(path, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(HISTOGRAM_HEADER + "\n")
        for lo, hi, count in rows:
            fh.write(f"{lo:.17g},{hi:.17g},{count}\n")


def run_histograms(config: ExperimentConfig) -> HistogramReport:
    """Histogram the back-projected aperture for one (image, seed) pair.

    Emits 64-bin histograms of pixel magnitudes (over [0, max]), pixel angles
    (over [-pi, pi]), and quantisation-change magnitudes for the configured
    scheme (over [0, max]); each histogram's counts sum to the pixel count.
    """
    paths = _artifact_paths(config, "hist_magnitude.csv", "hist_angle.csv", "hist_change.csv")
    target = prepare_target(config)
    aperture = back_project(target, substream(config.seed, STREAM_PHASE))
    magnitudes = np.abs(aperture)
    angles = np.angle(aperture)
    changes = change_map(aperture, quantise(aperture, config.scheme))

    _write_histogram(paths["hist_magnitude.csv"], histogram_rows(magnitudes, 0.0, float(magnitudes.max())))
    _write_histogram(paths["hist_angle.csv"], histogram_rows(angles, -np.pi, np.pi))
    _write_histogram(paths["hist_change.csv"], histogram_rows(changes, 0.0, float(changes.max())))

    _write_summary(paths, config, [("pixels", magnitudes.size), ("bins", HISTOGRAM_BINS)])

    return HistogramReport(
        magnitude_path=paths["hist_magnitude.csv"],
        angle_path=paths["hist_angle.csv"],
        change_path=paths["hist_change.csv"],
        summary_path=paths["summary.txt"],
        n_pixels=magnitudes.size,
    )


@dataclass
class RenderReport:
    initial_mse: float
    final_mse: float
    accepted: int
    wall_time_s: float
    hologram_path: str
    replay_path: str
    trace_path: str
    summary_path: str


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
    paths = _artifact_paths(config, "hologram.pgm", "replay.pgm", "trace.csv")
    target = prepare_target(config)
    t_start = time.perf_counter()
    result = run_search(target, config.search_config(), config.seed)
    wall = time.perf_counter() - t_start

    save_pgm(hologram_to_image(result.hologram, config.scheme), paths["hologram.pgm"], CLAMP_UNIT)
    save_pgm(result.replay, paths["replay.pgm"], LINEAR_MAX)
    write_trace_csv(result.trace, paths["trace.csv"])

    _write_summary(paths, config, [
        ("selection", config.selection),
        ("initial_mse", result.initial_mse),
        ("final_mse", result.final_mse),
        ("accepted", result.accepted),
        ("wall_time_s", wall),
    ])

    return RenderReport(
        initial_mse=result.initial_mse,
        final_mse=result.final_mse,
        accepted=result.accepted,
        wall_time_s=wall,
        hologram_path=paths["hologram.pgm"],
        replay_path=paths["replay.pgm"],
        trace_path=paths["trace.csv"],
        summary_path=paths["summary.txt"],
    )
