"""Error metrics and convergence traces.

The error measure throughout is the phase-insensitive mean squared error
between target and replay magnitudes: ``mean((|T| - |R|)^2)``. Replay phase is
free (nothing constrains it physically), so only magnitudes are compared.

Expanding the square,

    N * mse = E - 2 * sum(|R| * T) + sum(T^2),     E = sum(|R|^2),

so a search that tracks E scores a candidate with one magnitude pass and one
dot product. A Hermitian replay (that of a real aperture) can be scored
exactly from its leading :func:`~holosearch.field.half_rows` rows: ``|R|``
takes the same value at (v, u) and at its point reflection
((-v) % Ny, (-u) % Nx). So the cross term is a sum over the leading rows
against the folded target ``T_f = w_v * (T + T reflected)``, with w = 1/2 on
the rows that are their own reflection (row 0, and row Ny/2 when Ny is even)
and 1 elsewhere. This holds for any target, symmetric or not. E is the
aperture's energy by Parseval, which a one-pixel change moves by
``|new|^2 - |old|^2``.

Below ``2 * field._MIN_BLOCK`` elements the cross term is one magnitude
pass and one dot product. From there each of the two fixed row blocks of
``field._split_rows`` writes its rows' magnitudes and takes their dot
product with the target's rows while both are in its core's cache, and the
cross term is the block 0 product plus the block 1 product, in that
order. The bounds follow the grid alone, so the bytes depend neither on
the core count nor on the thread that ran a block.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .field import _block_count, _split_rows, half_rows


class FoldedTarget(NamedTuple):
    """A target magnitude pattern folded onto the leading rows of the grid;
    see :func:`fold_target`."""

    folded: np.ndarray
    energy: float
    size: int


def fold_target(target_mag: np.ndarray, hermitian: bool = True) -> FoldedTarget:
    """A magnitude pattern in the form :func:`mse` scores from aperture energy.

    For a Hermitian replay, returns the (Ny//2 + 1, Nx) folded array ``T_f``,
    the target's energy ``sum(T^2)`` and its pixel count, which :func:`mse`
    needs to score the field from its leading rows alone. With ``hermitian``
    False the "folded" array is the (Ny, Nx) target itself (C-contiguous,
    copied only if it was not), scored against every row.
    """
    flat = target_mag.ravel()
    energy, size = float(flat @ flat), flat.size
    if not hermitian:
        return FoldedTarget(np.ascontiguousarray(target_mag), energy, size)
    ny, nx = target_mag.shape
    rows = half_rows(ny)
    folded = np.empty((rows, nx))
    # Point reflection of rows 0 .. rows-1: row 0 maps to itself, row v to
    # row Ny - v; column 0 maps to itself, column u to column Nx - u.
    folded[0, 0] = target_mag[0, 0]
    folded[0, 1:] = target_mag[0, :0:-1]
    src = target_mag[ny - 1:ny - rows:-1]
    folded[1:, :1] = src[:, :1]
    folded[1:, 1:] = src[:, :0:-1]
    folded += target_mag[:rows]
    folded[0] *= 0.5
    if ny % 2 == 0:
        folded[ny // 2] *= 0.5
    return FoldedTarget(folded, energy, size)


def mse(target_mag: np.ndarray | FoldedTarget, replay: np.ndarray, energy: float | None = None) -> float:
    """Phase-insensitive mean squared error between a magnitude pattern and a field.

    ``target_mag`` holds the wanted magnitudes (real, non-negative),
    ``replay`` the complex field to score. Shapes must match exactly.

    Energy form: with ``energy`` given, ``target_mag`` is a
    :class:`FoldedTarget`, ``energy`` is the field's total energy
    ``sum(|R|^2)`` and ``replay`` holds the rows the folded target covers:
    the leading rows of a Hermitian field, or every row of any field when
    the target was not folded. The result is the error of the whole field
    (see the module docstring).
    """
    if energy is not None:
        folded = target_mag
        if folded.folded.shape != replay.shape:
            raise ValueError(f"shape mismatch: folded target {folded.folded.shape} vs rows {replay.shape}")
        # A small grid is one pass and one dot, as a split costs it more
        # than the pass. A large one is scored in two row blocks, each
        # writing into the arrays allocated here; see the module docstring.
        rows, target = replay.shape[0], folded.folded
        if _block_count(rows, replay.size) == 1:
            cross = np.abs(replay).ravel() @ target.ravel()
        else:
            magnitude = np.empty(replay.shape)
            partial = np.empty(2)

            def score(part: slice) -> None:
                np.abs(replay[part], out=magnitude[part])
                np.dot(magnitude[part].ravel(), target[part].ravel(), out=partial[0 if part.start == 0 else 1, ...])

            _split_rows(rows, replay.size, score)
            cross = partial[0] + partial[1]
        return float((energy - 2.0 * cross + folded.energy) / folded.size)
    if target_mag.shape != replay.shape:
        raise ValueError(f"shape mismatch: target {target_mag.shape} vs replay {replay.shape}")
    d = np.abs(replay)
    d -= target_mag
    flat = d.ravel()
    return float(flat @ flat / flat.size)


def pearson(x, y) -> float:
    """Pearson correlation coefficient of two equal-length 1D samples.

    Returns nan where the correlation is undefined: fewer than 2 samples, or
    zero variance in either sample. Raises ValueError for mismatched lengths,
    which is a fault of the caller. The result is clipped to [-1, 1] to
    absorb last-bit rounding.
    """
    xa = np.asarray(x, dtype=np.float64).ravel()
    ya = np.asarray(y, dtype=np.float64).ravel()
    if xa.size != ya.size:
        raise ValueError(f"length mismatch: {xa.size} vs {ya.size}")
    if xa.size < 2:
        return float("nan")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    vx = float(xc @ xc)
    vy = float(yc @ yc)
    if vx == 0.0 or vy == 0.0:
        return float("nan")
    return float(np.clip((xc @ yc) / np.sqrt(vx * vy), -1.0, 1.0))


class TraceSample(NamedTuple):
    iteration: int
    mse: float
    accepted: int


class ConvergenceTrace:
    """Sampled (iteration, mse, accepted-count) history of one search run.

    Samples are appended in run order; iterations must be strictly increasing
    and accepted counts non-decreasing. Every trace starts at iteration 0 with
    the initial error and zero accepted, so traces from runs that share a
    starting point can be compared sample-for-sample.
    """

    def __init__(self):
        self.samples: list[TraceSample] = []

    def append(self, iteration: int, mse_value: float, accepted: int) -> None:
        if self.samples:
            last = self.samples[-1]
            if iteration <= last.iteration:
                raise ValueError(f"iterations must increase: {iteration} after {last.iteration}")
            if accepted < last.accepted:
                raise ValueError(f"accepted count decreased: {accepted} after {last.accepted}")
        elif iteration != 0:
            raise ValueError(f"trace must start at iteration 0, got {iteration}")
        self.samples.append(TraceSample(int(iteration), float(mse_value), int(accepted)))

    @property
    def initial_mse(self) -> float:
        return self.samples[0].mse

    @property
    def final_mse(self) -> float:
        return self.samples[-1].mse

    @property
    def final_iteration(self) -> int:
        return self.samples[-1].iteration


def _check_pair(baseline: ConvergenceTrace, variant: ConvergenceTrace) -> None:
    """Raise ValueError unless two traces are the arms of one A/B comparison:
    both non-empty, from the same starting error, to the same iteration."""
    if not baseline.samples or not variant.samples:
        raise ValueError("empty trace")
    if baseline.initial_mse != variant.initial_mse:
        raise ValueError(
            f"traces start from different errors: {baseline.initial_mse!r} vs {variant.initial_mse!r}"
        )
    if baseline.final_iteration != variant.final_iteration:
        raise ValueError(
            f"traces end at different iterations: {baseline.final_iteration} vs {variant.final_iteration}"
        )


def relative_improvement(baseline: ConvergenceTrace, variant: ConvergenceTrace) -> float:
    """How much more error the variant removed than the baseline, relatively.

    ``(E_b - E_v) / (E_0 - E_b)``, where E_0 is the shared initial error and
    E_b, E_v the final errors; positive means the variant ended lower.

    Like :func:`final_error_improvement`: 0.0 when the two arms end at the
    same error (a 0-iteration run included); nan when the ratio is undefined,
    here when the baseline made no reduction (E_0 - E_b <= 0); ValueError when
    the traces are not one A/B pair (an empty trace, different starting
    errors or different final iterations).
    """
    _check_pair(baseline, variant)
    if variant.final_mse == baseline.final_mse:
        return 0.0
    reduction = baseline.initial_mse - baseline.final_mse
    if reduction <= 0:
        return float("nan")
    return (baseline.final_mse - variant.final_mse) / reduction


def final_error_improvement(baseline: ConvergenceTrace, variant: ConvergenceTrace) -> float:
    """Relative final-error gap ``(E_b - E_v) / E_b``.

    A second, blunter comparison reported alongside
    :func:`relative_improvement`, under the same rule: 0.0 when the arms end
    equal, nan when the ratio is undefined (a zero baseline final error),
    ValueError when the traces are not one A/B pair.
    """
    _check_pair(baseline, variant)
    if variant.final_mse == baseline.final_mse:
        return 0.0
    if baseline.final_mse == 0:
        return float("nan")
    return (baseline.final_mse - variant.final_mse) / baseline.final_mse
