"""Iterative hologram search: direct search and simulated annealing.

:func:`run_search` is the single entry point. Direct search and annealing
share one loop: start from a quantised random-phase back-projection of the
target, then repeatedly pick a pixel, propose a different allowed value,
score the candidate by phase-insensitive MSE, and keep or revert it. The
variants differ only in two policies:

* acceptance: direct search keeps strict improvements; simulated annealing
  also keeps a worsening candidate with Boltzmann probability
  ``exp(-dE / T)`` under an exponentially decaying temperature.
* pixel selection: uniform random, or a permutation of the pixels sorted by
  how much quantisation moved them (largest change first), served by
  iteration number and repeated pass after pass.

Scoring uses an O(N) single-pixel replay update rather than a full transform.
Every error a fast search reports, each candidate's and those of the set-up
and every refresh, comes from the aperture energy:
``N * mse = E - 2 * sum(|R| * T) + sum(T^2)``, with E moved in O(1) per
candidate; the direct form ``mean((|T| - |R|)^2)`` is the reference that
``ds-naive`` and the tests score with. For a real aperture (binary phase and
every amplitude scheme) the replay is Hermitian, so the search transforms
(with a real-input FFT), updates and scores only its leading ``Ny//2 + 1``
rows, against the folded target, and mirror-fills the rest once at the end;
complex apertures use the whole grid. Set-up and every refresh (after each
``recompute_interval`` accepts) are one step: a fresh transform of the
hologram into those rows of the one replay array, which is allocated
untransformed, and its energy-form error. A rejected candidate is rolled back
inside the next candidate's update (``delta_update(..., undo=)``), and one
still pending when the loop ends is reverted before the replay is returned.
``ds-naive`` runs the mathematically identical full-transform path in a loop
of its own and exists to cross-check the fast one decision-for-decision.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .field import delta_update, dft2, fill_mirror, half_rows, idft2, revert, unit_phasors
from .metrics import ConvergenceTrace, fold_target, mse
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


def boltzmann_accept(delta_e: float, temperature: float, rng: np.random.Generator) -> bool:
    """One annealing acceptance decision.

    Improvements and zero deltas (dE <= 0) are always kept and consume no
    randomness; a worsening candidate consumes exactly one uniform draw and is
    kept with probability exp(-dE / T). A temperature that has underflowed to
    0.0 rejects it, the T -> 0+ limit, after the same one draw.
    """
    if delta_e <= 0:
        return True
    draw = rng.random()
    return temperature > 0 and draw < math.exp(-delta_e / temperature)


def sps_order(changes: np.ndarray) -> np.ndarray:
    """Selection order for sorted pixel selection, as flat pixel indices
    (row-major, index = y*width + x).

    Pixels are visited in descending order of quantisation-change magnitude;
    equal magnitudes keep ascending pixel-index order, so the permutation is
    fully determined by the change map. It equals
    ``np.argsort(-changes.ravel(), kind="stable")``, with -0.0 taken as 0.0.

    ``changes`` must be non-negative and finite, as :func:`change_map`
    produces it; a negative, NaN or infinite entry raises ValueError.

    The order comes from one sort of N packed 64-bit keys. For a
    non-negative float the bit pattern grows with the value, so the
    complemented pattern, shifted left past the sign bit (which also folds
    -0.0 onto 0.0), sorts the largest value first. Its low k bits, k =
    ``(N-1).bit_length()``, are replaced by the pixel index, which orders
    equal values by index. Values that differ only in the bits dropped can
    share a key prefix in the wrong order, so every run of keys with one
    prefix is re-sorted by its full values, equal values or not.
    """
    flat = np.asarray(changes, dtype=np.float64).ravel()
    n = flat.size
    if n == 0:
        return np.empty(0, dtype=np.intp)
    low, high = flat.min(), flat.max()
    if not (low >= 0.0 and high < math.inf):
        raise ValueError("changes must be non-negative and finite")
    shift = np.uint64((n - 1).bit_length())
    index_mask = (np.uint64(1) << shift) - np.uint64(1)
    keys = np.empty(n, dtype=np.uint64)
    np.left_shift(flat.view(np.uint64), np.uint64(1), out=keys)
    np.invert(keys, out=keys)
    keys &= ~index_mask
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort()
    # Mark both keys of each adjacent pair that shares a prefix. A smaller
    # prefix only holds larger values, so one stable sort of the marked keys
    # by descending value keeps each run in place and orders it as the
    # stable argsort would.
    shared = (keys[1:] ^ keys[:-1]) <= index_mask
    marked = np.zeros(n, dtype=bool)
    marked[1:] = shared
    marked[:-1] |= shared
    at = np.flatnonzero(marked)
    run = keys[at]
    keys[at] = run[np.argsort(-flat[run & index_mask], kind="stable")]
    keys &= index_mask
    return keys.view(np.int64)


def next_pixel(order: np.ndarray | None, n: int, width: int, height: int, rng: np.random.Generator) -> tuple[int, int]:
    """The (x, y) pixel tested at zero-based iteration n.

    Under sorted selection this is ``order[n % order.size]``: one pass over
    the permutation, repeated without re-sorting, and no randomness drawn.
    With ``order`` None it is one uniform draw from rng.
    """
    if order is None:
        idx = int(rng.integers(width * height))
    else:
        idx = int(order[n % order.size])
    return idx % width, idx // width


def back_project(target: TargetImage, rng: np.random.Generator) -> np.ndarray:
    """Initial aperture guess: inverse-transform the target under random phases.

    Each target pixel gets an independent uniform phase in [0, 2*pi) (one draw
    per pixel in row-major order), which spreads the aperture energy over the
    whole grid. Energy is preserved exactly up to rounding; an all-zero target
    back-projects to the all-zero aperture.
    """
    field = unit_phasors(rng.uniform(0.0, 2.0 * np.pi, size=target.shape))
    field *= target.mag
    return idft2(field)


def require_integer(name: str, value) -> None:
    """Raise ValueError naming the field unless value is an int or a numpy
    integer; a bool is not a count."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> None:
    """Raise ValueError naming the field unless value is a real number, such
    as a Python or numpy int or float; a bool is not a temperature."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class SearchConfig:
    """Everything a search run needs besides the target and the seed.

    ``sa`` cools as ``T(n) = t_coeff * exp(-t0 * n / iterations)`` at
    zero-based iteration n. Give both t_coeff and t0, or neither for
    :func:`_default_schedule`, which explains the useful scale of t_coeff.

    recompute_interval bounds floating-point drift in the incrementally
    updated replay: after that many accepted updates the replay and error are
    refreshed from a fresh transform, of the leading rows for a real
    aperture. trace_stride controls how often the convergence trace is
    sampled (iteration 0 and the final iteration are always recorded).
    """

    iterations: int
    scheme: ModulationScheme
    algorithm: str = ALGO_DS_FAST
    selection: str = SELECT_RANDOM
    t_coeff: float | None = None
    t0: float | None = None
    recompute_interval: int = 50_000
    trace_stride: int = 100

    def __post_init__(self):
        for name in ("iterations", "recompute_interval", "trace_stride"):
            require_integer(name, getattr(self, name))
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if not isinstance(self.scheme, ModulationScheme):
            raise ValueError(f"scheme must be a ModulationScheme, got {type(self.scheme).__name__}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.selection not in SELECTIONS:
            raise ValueError(f"selection must be one of {SELECTIONS}, got {self.selection!r}")
        if (self.t_coeff is None) != (self.t0 is None):
            raise ValueError(f"a custom {ALGO_SA} schedule needs both t_coeff and t0")
        if self.t_coeff is not None:
            for name in ("t_coeff", "t0"):
                value = getattr(self, name)
                require_real(name, value)
                if not (value > 0 and math.isfinite(value)):
                    raise ValueError(f"{name} must be positive and finite, got {value}")
            if self.algorithm != ALGO_SA:
                raise ValueError(f"schedule is only meaningful for algorithm {ALGO_SA!r}")
        if self.recompute_interval < 1:
            raise ValueError(f"recompute_interval must be >= 1, got {self.recompute_interval}")
        if self.trace_stride < 1:
            raise ValueError(f"trace_stride must be >= 1, got {self.trace_stride}")


@dataclass
class SearchResult:
    """Outcome of one run: final aperture state, score, and history.

    ``replay`` is the engine's final replay field (incrementally maintained on
    the fast paths; for a real aperture only rows ``0 .. Ny//2`` are, and
    the rows below are mirror-filled from them, so the field is exactly
    Hermitian); ``final_mse`` matches a from-scratch transform of
    ``hologram`` to well within the drift bound, and ``hologram`` holds only
    values the scheme allows. The start error is ``trace.initial_mse``.
    """

    hologram: np.ndarray
    replay: np.ndarray
    trace: ConvergenceTrace
    accepted: int
    final_mse: float


def _default_schedule(initial_mse: float, n_pixels: int) -> tuple[float, float]:
    """The ``(t_coeff, t0)`` of ``sa`` when the config gives neither: t0 = 6
    over the run and t_coeff = 8 * initial_error / pixel_count.

    The scale is sized for a binary-phase flip (|dh|^2 = 4), which moves the
    error by about 4/pixel_count energy units: that starting temperature
    admits a modest share of worsening moves early, and e^-6 of it is meant
    to end the run near greedy. Multi-level schemes move the error by less
    per change, and for them it is too hot: on the 128^2 synthetic bars under
    phase:8, 20k iterations, seed 0, a default ``sa`` run went from 0.2306 to
    0.2645 while ds-fast reached 0.2192 (ROADMAP.md, open items). As
    t_coeff -> 0 the run converges to direct search; a zero start error
    gives T = 0, where :func:`boltzmann_accept` rejects after its one draw.
    """
    return 8.0 * initial_mse / n_pixels, 6.0


def _start(target: TargetImage, config: SearchConfig, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Set-up shared by every algorithm: the quantised random-phase
    back-projection, an untransformed replay array of its shape for the
    caller to transform into, and the sps order (None for random).

    The back-projection is dropped as soon as the change map is taken, so it
    is not held through the sort. The replay is allocated before the sort's
    temporaries, as it outlives them: the other order leaves holes in the
    malloc heap that raised the peak RSS of a 1024^2 render by 16 MiB."""
    projected = back_project(target, substream(seed, STREAM_PHASE))
    hologram = quantise(projected, config.scheme)
    changes = change_map(projected, hologram) if config.selection == SELECT_SPS else None
    del projected
    replay = np.empty(hologram.shape, dtype=np.complex128)
    order = None if changes is None else sps_order(changes)
    return hologram, replay, order


def run_search(target: TargetImage, config: SearchConfig, seed: int) -> SearchResult:
    """Run the search config.algorithm names.

    ``sa`` anneals under config.t_coeff and config.t0, or
    :func:`_default_schedule` when they are None, cooling over
    config.iterations. ``ds-naive`` makes the same decisions as ``ds-fast``
    for the same seed. The all-zero (degenerate) target is valid and accepts
    nothing under direct search, since no single-pixel change can lower its
    error.
    """
    if config.algorithm == ALGO_DS_NAIVE:
        return _naive_search(target, config, seed)
    real = config.scheme.is_real
    hologram, replay, order = _start(target, config, seed)
    select_rng = substream(seed, STREAM_SELECTION)
    proposal_rng = substream(seed, STREAM_PROPOSAL)
    accept_rng = substream(seed, STREAM_ACCEPTANCE)

    # Every error here, candidate, set-up or refresh, is scored from the
    # aperture energy and the replay's leading rows: all of them for a
    # complex aperture, the Hermitian half for a real one (against the folded
    # target). Only those rows are ever transformed.
    height, width = target.shape
    rows = half_rows(height) if real else height
    scored = fold_target(target.mag, real)
    leading = replay[:rows]

    def refresh() -> tuple[float, float]:
        """Set-up and refresh: transform the hologram into the replay's
        leading rows, and return the energy and the error from them."""
        dft2(hologram, rows=rows if real else None, out=leading)
        fresh = float(np.vdot(hologram, hologram).real)
        return fresh, mse(scored, leading, energy=fresh)

    energy, current_mse = refresh()

    annealing = config.algorithm == ALGO_SA
    t_coeff, t0 = config.t_coeff, config.t0
    if annealing and t_coeff is None:
        t_coeff, t0 = _default_schedule(current_mse, width * height)
    # A rejected candidate stays in the replay until the next update takes it
    # back out in the same pass.
    pending = None

    trace = ConvergenceTrace()
    trace.append(0, current_mse, 0)
    accepted = 0

    for it in range(1, config.iterations + 1):
        x, y = next_pixel(order, it - 1, width, height, select_rng)
        old_value = hologram[y, x]
        new_value = propose_value(old_value, config.scheme, proposal_rng)
        move = delta_update(replay, x, y, new_value - old_value, rows, undo=pending)
        candidate_energy = energy + abs(new_value) ** 2 - abs(old_value) ** 2
        candidate_mse = mse(scored, leading, energy=candidate_energy)

        if annealing:
            temperature = t_coeff * math.exp(-t0 * (it - 1) / config.iterations)
            keep = boltzmann_accept(candidate_mse - current_mse, temperature, accept_rng)
        else:
            keep = candidate_mse < current_mse

        pending = None if keep else move
        if keep:
            accepted += 1
            current_mse, energy = candidate_mse, candidate_energy
            hologram[y, x] = new_value
            if accepted % config.recompute_interval == 0:
                energy, current_mse = refresh()

        if it % config.trace_stride == 0 or it == config.iterations:
            trace.append(it, current_mse, accepted)

    if pending is not None:
        revert(replay, pending)
    if real:
        fill_mirror(replay, rows)
    return SearchResult(hologram, replay, trace, accepted, current_mse)


def _naive_search(target: TargetImage, config: SearchConfig, seed: int) -> SearchResult:
    """``ds-naive``: direct search that scores each candidate with a full
    transform of the changed hologram. It draws the same random numbers as
    ``ds-fast`` and is the reference the fast path is tested against."""
    hologram, replay, order = _start(target, config, seed)
    dft2(hologram, out=replay)
    select_rng = substream(seed, STREAM_SELECTION)
    proposal_rng = substream(seed, STREAM_PROPOSAL)
    height, width = target.shape
    current_mse = mse(target.mag, replay)
    trace = ConvergenceTrace()
    trace.append(0, current_mse, 0)
    accepted = 0
    for it in range(1, config.iterations + 1):
        x, y = next_pixel(order, it - 1, width, height, select_rng)
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
    return SearchResult(hologram, replay, trace, accepted, current_mse)
