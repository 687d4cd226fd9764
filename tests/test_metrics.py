"""Tests for the error metric, correlation and improvement accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosearch.field import delta_update, dft2, half_rows
from holosearch.metrics import (
    ConvergenceTrace,
    TraceSample,
    final_error_improvement,
    fold_target,
    mse,
    pearson,
    relative_improvement,
)
from holosearch.slm import ModulationScheme, propose_value, quantise


def mse_loop(target_mag, replay):
    """Double-loop oracle for the magnitude-only mean squared error."""
    ny, nx = target_mag.shape
    acc = 0.0
    for y in range(ny):
        for x in range(nx):
            d = abs(replay[y, x]) - target_mag[y, x]
            acc += d * d
    return acc / (nx * ny)


# ----------------------------------------------------------------------- mse


def test_mse_matches_loop_oracle():
    rng = np.random.default_rng(301)
    t = rng.random((16, 16))
    r = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    assert abs(mse(t, r) - mse_loop(t, r)) < 1e-12


def test_mse_zero_when_magnitudes_match():
    rng = np.random.default_rng(302)
    t = rng.random((8, 8))
    r = t * np.exp(2j * np.pi * rng.random((8, 8)))
    assert mse(t, r) <= 1e-30


def test_mse_single_pixel_example():
    t = np.zeros((2, 2))
    r = np.zeros((2, 2), dtype=np.complex128)
    r[0, 1] = 2.0
    assert mse(t, r) == 1.0


def test_mse_phase_insensitive():
    rng = np.random.default_rng(303)
    t = rng.random((8, 8))
    r = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rotated = r * np.exp(2j * np.pi * rng.random((8, 8)))
    assert abs(mse(t, r) - mse(t, rotated)) < 1e-12


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse(np.zeros((2, 2)), np.zeros((2, 3), dtype=np.complex128))


@settings(derandomize=True, deadline=None, max_examples=90, database=None)
@given(family=st.sampled_from(["binary-phase", "binary-amplitude", "amplitude", "amplitude:cont",
                               "phase", "phase:cont"]),
       levels=st.integers(3, 8), height=st.integers(4, 13), width=st.integers(4, 13),
       seed=st.integers(0, 2**32 - 1))
def test_half_plane_score_matches_full_transform(family, levels, height, width, seed):
    """After a random one-pixel change to an aperture, the energy-form score
    equals the full magnitude error of a fresh transform, for any
    (non-symmetric) target: from the leading rows and the folded target for
    a real aperture, from every row and the unfolded target for a complex
    one."""
    name = f"{family}:{levels}" if family in ("amplitude", "phase") else family
    scheme = ModulationScheme.from_name(name)
    real = not family.startswith("phase")
    assert scheme.is_real is real
    rng = np.random.default_rng(seed)
    target = rng.random((height, width)) * 2.0
    hologram = quantise(rng.standard_normal((height, width)) + 1j * rng.standard_normal((height, width)),
                        scheme)
    replay = dft2(hologram)
    rows = half_rows(height) if real else height
    energy = float(np.vdot(hologram, hologram).real)
    x, y = int(rng.integers(width)), int(rng.integers(height))
    old = hologram[y, x]
    new = propose_value(old, scheme, rng)
    delta_update(replay, x, y, new - old, rows)
    hologram[y, x] = new
    score = mse(fold_target(target, real), replay[:rows], energy=energy + abs(new) ** 2 - abs(old) ** 2)
    want = mse(target, dft2(hologram))
    assert abs(score - want) <= 1e-12 * want


def test_half_plane_score_shape_mismatch():
    folded = fold_target(np.ones((6, 5)))
    assert folded.folded.shape == (4, 5)
    with pytest.raises(ValueError):
        mse(folded, np.zeros((3, 5), dtype=np.complex128), energy=1.0)


def test_mse_nonnegative():
    rng = np.random.default_rng(304)
    for _ in range(20):
        t = rng.random((4, 4))
        r = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert mse(t, r) >= 0.0


# ------------------------------------------------------------------- pearson


def test_pearson_perfect_linear():
    x = np.arange(10.0)
    assert abs(pearson(x, 2.0 * x + 3.0) - 1.0) < 1e-12
    assert abs(pearson(x, -x) - (-1.0)) < 1e-12


def test_pearson_affine_invariance():
    rng = np.random.default_rng(305)
    x = rng.standard_normal(50)
    y = rng.standard_normal(50)
    r0 = pearson(x, y)
    r1 = pearson(3.0 * x - 7.0, 0.5 * y + 2.0)
    assert abs(r0 - r1) < 1e-12


def test_pearson_square_pairs_strongly_correlated():
    # (x, x^2) on positive support correlates well but not perfectly
    x = np.linspace(0.1, 2.0, 100)
    r = pearson(x, x * x)
    assert r >= 0.95


def test_pearson_bounds():
    rng = np.random.default_rng(306)
    for _ in range(20):
        x = rng.standard_normal(9)
        y = rng.standard_normal(9)
        assert -1.0 <= pearson(x, y) <= 1.0


def test_pearson_errors():
    # undefined correlations are nan
    assert math.isnan(pearson(np.array([1.0]), np.array([2.0])))
    assert math.isnan(pearson(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0])))
    assert math.isnan(pearson(np.array([1.0, 2.0, 3.0]), np.array([4.0, 4.0, 4.0])))
    # mismatched lengths are the caller's fault
    with pytest.raises(ValueError):
        pearson(np.array([1.0, 2.0]), np.array([2.0]))


# -------------------------------------------------------------------- traces


def make_trace(mses, iterations=None, accepted=None):
    tr = ConvergenceTrace()
    iterations = iterations or list(range(len(mses)))
    accepted = accepted or list(range(len(mses)))
    for it, e, a in zip(iterations, mses, accepted):
        tr.append(it, e, a)
    return tr


def test_trace_accessors():
    tr = make_trace([1.0, 0.6, 0.5], [0, 10, 20], [0, 4, 7])
    assert tr.initial_mse == 1.0
    assert tr.final_mse == 0.5
    assert tr.final_iteration == 20
    assert tr.samples[-1].accepted == 7
    assert tr.samples[1] == TraceSample(10, 0.6, 4)


def test_trace_append_validation():
    tr = ConvergenceTrace()
    with pytest.raises(ValueError):
        tr.append(5, 1.0, 0)  # must start at iteration 0
    tr.append(0, 1.0, 0)
    with pytest.raises(ValueError):
        tr.append(0, 0.9, 1)  # iterations strictly increasing
    tr.append(10, 0.9, 3)
    with pytest.raises(ValueError):
        tr.append(20, 0.8, 2)  # accepted count may not decrease


# -------------------------------------------------------- improvement ratios


def test_relative_improvement_identical_traces():
    a = make_trace([1.0, 0.5, 0.4])
    b = make_trace([1.0, 0.5, 0.4])
    assert relative_improvement(a, b) == 0.0


def test_relative_improvement_example():
    base = make_trace([1.0, 0.7, 0.5])
    var = make_trace([1.0, 0.6, 0.4])
    # (0.5 - 0.4) / (1.0 - 0.5) = 0.2
    assert abs(relative_improvement(base, var) - 0.2) < 1e-12


def test_relative_improvement_negative_when_variant_worse():
    base = make_trace([1.0, 0.5])
    var = make_trace([1.0, 0.6])
    assert relative_improvement(base, var) < 0.0


def test_relative_improvement_errors():
    with pytest.raises(ValueError):
        relative_improvement(ConvergenceTrace(), ConvergenceTrace())
    with pytest.raises(ValueError):
        # differing initial error: not the same starting field
        relative_improvement(make_trace([1.0, 0.5]), make_trace([0.9, 0.5]))
    with pytest.raises(ValueError):
        # differing final iteration: not a like-for-like comparison
        relative_improvement(make_trace([1.0, 0.5], [0, 10]),
                             make_trace([1.0, 0.5], [0, 20]))
    # baseline made no reduction: the ratio is undefined
    assert math.isnan(relative_improvement(make_trace([1.0, 1.0]), make_trace([1.0, 0.5])))
    assert math.isnan(relative_improvement(make_trace([1.0, 1.5]), make_trace([1.0, 0.5])))


def test_final_error_improvement():
    base = make_trace([1.0, 0.5])
    var = make_trace([1.0, 0.4])
    assert abs(final_error_improvement(base, var) - 0.2) < 1e-12
    # a zero baseline final error leaves the ratio undefined
    assert math.isnan(final_error_improvement(make_trace([1.0, 0.0]), var))
    with pytest.raises(ValueError):
        final_error_improvement(ConvergenceTrace(), var)
    with pytest.raises(ValueError):
        final_error_improvement(base, make_trace([0.9, 0.4]))
    with pytest.raises(ValueError):
        final_error_improvement(base, make_trace([1.0, 0.4], [0, 10]))


def test_ab_identical_traces_improve_by_zero():
    """Arms that end equal improve by 0 under both definitions, also where a
    ratio would be undefined: a 0-iteration run, or no reduction at all."""
    for mses in ([1.0], [1.0, 1.0], [1.0, 0.0]):
        assert relative_improvement(make_trace(mses), make_trace(mses)) == 0.0
        assert final_error_improvement(make_trace(mses), make_trace(mses)) == 0.0


def test_ab_degenerate_baseline_is_nan():
    base = make_trace([1.0, 1.0], [0, 10], [0, 0])  # no reduction
    var = make_trace([1.0, 0.5], [0, 10], [0, 3])
    assert math.isnan(relative_improvement(base, var))
    assert abs(final_error_improvement(base, var) - 0.5) < 1e-12
