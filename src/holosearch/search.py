"""Iterative hologram search: direct search and simulated annealing.

:func:`run_search` is the single entry point. Direct search and annealing
share one loop: start from a quantised random-phase back-projection of the
target, then repeatedly pick a pixel, propose a different allowed value,
score the candidate by phase-insensitive MSE, and keep or revert it. The
variants differ only in two policies:

* acceptance: direct search keeps strict improvements; simulated annealing
  also keeps a worsening candidate with Boltzmann probability
  ``exp(-dE / T)`` under an exponentially decaying temperature.
* pixel selection: uniform random, or a fixed pass over pixels sorted by how
  much quantisation moved them (largest change first), wrapping around when
  the list is exhausted.

Scoring uses an O(N) single-pixel replay update rather than a full transform;
``ds-naive`` runs the mathematically identical full-transform path in a loop
of its own and exists to cross-check the fast one decision-for-decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .field import delta_update, dft2, idft2
from .metrics import ConvergenceTrace, mse
from .rng import (
    STREAM_ACCEPTANCE,
    STREAM_PHASE,
    STREAM_PROPOSAL,
    STREAM_SELECTION,
    substream,
)
from .slm import ModulationScheme, change_map, propose_value, quantise
from .targets import TargetImage

ALGO_DS_NAIVE = "ds-naive"
ALGO_DS_FAST = "ds-fast"
ALGO_SA = "sa"
ALGORITHMS = (ALGO_DS_NAIVE, ALGO_DS_FAST, ALGO_SA)

SELECT_RANDOM = "random"
SELECT_SPS = "sps"
SELECTIONS = (SELECT_RANDOM, SELECT_SPS)


@dataclass(frozen=True)
class AnnealingSchedule:
    """Exponentially decaying temperature ``T(n) = t_coeff * exp(-t0 * n / total_n)``.

    n is the zero-based iteration index; total_n the planned run length.
    t_coeff sets the starting temperature and t0 how many e-foldings the run
    covers. Useful temperatures live on the scale of a single accepted
    change's error delta (roughly initial_error / pixel_count), not of the
    total error; see the engine's default.
    """

    t_coeff: float
    t0: float
    total_n: int

    def __post_init__(self):
        if not (self.t_coeff > 0 and math.isfinite(self.t_coeff)):
            raise ValueError(f"t_coeff must be positive and finite, got {self.t_coeff}")
        if not (self.t0 > 0 and math.isfinite(self.t0)):
            raise ValueError(f"t0 must be positive and finite, got {self.t0}")
        if self.total_n < 1:
            raise ValueError(f"total_n must be >= 1, got {self.total_n}")

    def temperature(self, n: int) -> float:
        return self.t_coeff * math.exp(-self.t0 * n / self.total_n)


def boltzmann_accept(delta_e: float, temperature: float, rng: np.random.Generator) -> bool:
    """One annealing acceptance decision.

    Improvements and zero deltas (dE <= 0) are always kept and consume no
    randomness; a worsening candidate consumes exactly one uniform draw and is
    kept with probability exp(-dE / T).
    """
    if delta_e <= 0:
        return True
    return rng.random() < math.exp(-delta_e / temperature)


@dataclass
class RandomOrder:
    """Uniform random pixel selection (stateless)."""


@dataclass
class SortedOrder:
    """Fixed pass over a pixel permutation, wrapping at the end.

    ``order`` holds flat pixel indices (row-major, index = y*width + x);
    ``cursor`` is the next position to serve.
    """

    order: np.ndarray
    cursor: int = 0


PixelOrder = RandomOrder | SortedOrder


def sps_order(changes: np.ndarray) -> SortedOrder:
    """Selection order for sorted pixel selection.

    Pixels are visited in descending order of quantisation-change magnitude;
    equal magnitudes keep ascending pixel-index order, so the permutation is
    fully determined by the change map.
    """
    flat = np.asarray(changes, dtype=np.float64).ravel()
    return SortedOrder(order=np.argsort(-flat, kind="stable"))


def next_pixel(order: PixelOrder, width: int, height: int, rng: np.random.Generator) -> tuple[int, int]:
    """Yield the next (x, y) pixel to test under a selection policy.

    RandomOrder draws one uniform index per call; SortedOrder serves its
    permutation in order, consuming no randomness, and wraps around without
    re-sorting once exhausted.
    """
    if isinstance(order, SortedOrder):
        idx = int(order.order[order.cursor])
        order.cursor += 1
        if order.cursor == len(order.order):
            order.cursor = 0
    else:
        idx = int(rng.integers(width * height))
    return idx % width, idx // width


def back_project(target: TargetImage, rng: np.random.Generator) -> np.ndarray:
    """Initial aperture guess: inverse-transform the target under random phases.

    Each target pixel gets an independent uniform phase in [0, 2*pi) (one draw
    per pixel in row-major order), which spreads the aperture energy over the
    whole grid. Energy is preserved exactly up to rounding; an all-zero target
    back-projects to the all-zero aperture.
    """
    phases = rng.uniform(0.0, 2.0 * np.pi, size=target.shape)
    return idft2(target.mag * np.exp(1j * phases))


@dataclass(frozen=True)
class SearchConfig:
    """Everything a search run needs besides the target and the seed.

    recompute_interval bounds floating-point drift in the incrementally
    updated replay: after that many accepted updates the replay and error are
    refreshed from a full transform. trace_stride controls how often the
    convergence trace is sampled (iteration 0 and the final iteration are
    always recorded).
    """

    iterations: int
    scheme: ModulationScheme
    algorithm: str = ALGO_DS_FAST
    selection: str = SELECT_RANDOM
    schedule: AnnealingSchedule | None = None
    recompute_interval: int = 50_000
    trace_stride: int = 100

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if not isinstance(self.scheme, ModulationScheme):
            raise ValueError(f"scheme must be a ModulationScheme, got {type(self.scheme).__name__}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.selection not in SELECTIONS:
            raise ValueError(f"selection must be one of {SELECTIONS}, got {self.selection!r}")
        if self.schedule is not None and self.algorithm != ALGO_SA:
            raise ValueError(f"schedule is only meaningful for algorithm {ALGO_SA!r}")
        if self.recompute_interval < 1:
            raise ValueError(f"recompute_interval must be >= 1, got {self.recompute_interval}")
        if self.trace_stride < 1:
            raise ValueError(f"trace_stride must be >= 1, got {self.trace_stride}")


@dataclass
class SearchResult:
    """Outcome of one run: final aperture state, score, and history.

    ``replay`` is the engine's final replay field (incrementally maintained on
    the fast paths); ``final_mse`` matches a from-scratch transform of
    ``hologram`` to well within the drift bound, and ``hologram`` holds only
    values the scheme allows.
    """

    hologram: np.ndarray
    replay: np.ndarray
    trace: ConvergenceTrace
    accepted: int
    final_mse: float
    initial_mse: float = dataclass_field(default=float("nan"))


def _default_schedule(initial_mse: float, n_pixels: int, iterations: int) -> AnnealingSchedule:
    """Schedule for ``sa`` when config.schedule is None: t0 = 6 over config.iterations
    and t_coeff = 8 * initial_error / pixel_count.

    One pixel change moves the error by about 4/pixel_count energy units, so that
    starting temperature admits a modest share of worsening moves early while
    e^-6 of it is cold enough to end the run greedy. As t_coeff -> 0 the behavior
    converges to direct search (worsening acceptance probability underflows to
    zero).
    """
    # Degenerate zero initial error still needs a positive temperature; any
    # tiny value keeps the run equivalent to direct search.
    t_coeff = 8.0 * initial_mse / n_pixels
    if t_coeff <= 0:
        t_coeff = float(np.finfo(np.float64).tiny)
    return AnnealingSchedule(t_coeff=t_coeff, t0=6.0, total_n=max(iterations, 1))


def _start(target: TargetImage, config: SearchConfig, seed: int) -> tuple[np.ndarray, np.ndarray, PixelOrder]:
    """Set-up shared by every algorithm: the quantised random-phase
    back-projection, its replay, and the pixel-selection order."""
    projected = back_project(target, substream(seed, STREAM_PHASE))
    hologram = quantise(projected, config.scheme)
    replay = dft2(hologram)
    order = sps_order(change_map(projected, hologram)) if config.selection == SELECT_SPS else RandomOrder()
    return hologram, replay, order


def run_search(target: TargetImage, config: SearchConfig, seed: int) -> SearchResult:
    """Run the search config.algorithm names.

    ``sa`` anneals under config.schedule, or :func:`_default_schedule` when
    that is None. ``ds-naive`` makes the same decisions as ``ds-fast`` for the
    same seed. The all-zero (degenerate) target is valid and accepts nothing
    under direct search, since no single-pixel change can lower its error.
    """
    if config.algorithm == ALGO_DS_NAIVE:
        return _naive_search(target, config, seed)
    hologram, replay, order = _start(target, config, seed)
    select_rng = substream(seed, STREAM_SELECTION)
    proposal_rng = substream(seed, STREAM_PROPOSAL)
    accept_rng = substream(seed, STREAM_ACCEPTANCE)

    height, width = target.shape
    target_mag = target.mag
    current_mse = initial_mse = mse(target_mag, replay)

    annealing = config.algorithm == ALGO_SA
    schedule = None
    if annealing:
        schedule = config.schedule or _default_schedule(initial_mse, width * height, config.iterations)

    trace = ConvergenceTrace()
    trace.append(0, current_mse, 0)
    accepted = 0
    accepts_since_refresh = 0

    for it in range(1, config.iterations + 1):
        x, y = next_pixel(order, width, height, select_rng)
        old_value = hologram[y, x]
        new_value = propose_value(old_value, config.scheme, proposal_rng)
        increment = delta_update(replay, x, y, new_value - old_value)
        candidate_mse = mse(target_mag, replay)

        if annealing:
            keep = boltzmann_accept(candidate_mse - current_mse, schedule.temperature(it - 1), accept_rng)
        else:
            keep = candidate_mse < current_mse

        if keep:
            accepted += 1
            current_mse = candidate_mse
            hologram[y, x] = new_value
            accepts_since_refresh += 1
            if accepts_since_refresh >= config.recompute_interval:
                replay = dft2(hologram)
                current_mse = mse(target_mag, replay)
                accepts_since_refresh = 0
        else:
            replay -= increment

        if it % config.trace_stride == 0 or it == config.iterations:
            trace.append(it, current_mse, accepted)

    return SearchResult(hologram, replay, trace, accepted, current_mse, initial_mse)


def _naive_search(target: TargetImage, config: SearchConfig, seed: int) -> SearchResult:
    """``ds-naive``: direct search that scores each candidate with a full
    transform of the changed hologram. It draws the same random numbers as
    ``ds-fast`` and is the reference the fast path is tested against."""
    hologram, replay, order = _start(target, config, seed)
    select_rng = substream(seed, STREAM_SELECTION)
    proposal_rng = substream(seed, STREAM_PROPOSAL)
    height, width = target.shape
    current_mse = initial_mse = mse(target.mag, replay)
    trace = ConvergenceTrace()
    trace.append(0, current_mse, 0)
    accepted = 0
    for it in range(1, config.iterations + 1):
        x, y = next_pixel(order, width, height, select_rng)
        old_value = hologram[y, x]
        hologram[y, x] = propose_value(old_value, config.scheme, proposal_rng)
        candidate_replay = dft2(hologram)
        candidate_mse = mse(target.mag, candidate_replay)
        if candidate_mse < current_mse:
            accepted += 1
            current_mse, replay = candidate_mse, candidate_replay
        else:
            hologram[y, x] = old_value
        if it % config.trace_stride == 0 or it == config.iterations:
            trace.append(it, current_mse, accepted)
    return SearchResult(hologram, replay, trace, accepted, current_mse, initial_mse)
