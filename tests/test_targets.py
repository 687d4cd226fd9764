"""Tests for target image handling: validation, energy, symmetry, resampling
and the built-in synthetic patterns."""

import hashlib

import numpy as np
import pytest

from holosearch.field import dft2
from holosearch.targets import (
    TargetImage,
    induce_symmetry,
    normalize_energy,
    resample_nearest,
    synthetic_bars,
    synthetic_mandrill,
    synthetic_target,
)


# --------------------------------------------------------------- TargetImage


def test_target_image_validation():
    with pytest.raises(ValueError):
        TargetImage(np.zeros(4))
    with pytest.raises(ValueError):
        TargetImage(np.zeros((1, 4)))
    with pytest.raises(ValueError):
        TargetImage(np.array([[1.0, np.nan], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        TargetImage(np.array([[1.0, -0.1], [0.0, 0.0]]))


def test_target_image_read_only():
    t = TargetImage(np.ones((2, 2)))
    with pytest.raises(ValueError):
        t.mag[0, 0] = 2.0


def test_target_image_copies_input():
    src = np.ones((2, 2))
    t = TargetImage(src)
    src[0, 0] = 5.0
    assert t.mag[0, 0] == 1.0


def test_target_image_accessors():
    t = TargetImage(np.ones((3, 5)))
    assert t.shape == (3, 5)
    assert t.height == 3
    assert t.width == 5
    assert t.energy == 15.0


# ---------------------------------------------------------- normalize_energy


def test_normalize_constant_one_unchanged():
    t = TargetImage(np.ones((4, 4)))
    out = normalize_energy(t)
    assert np.array_equal(out.mag, t.mag)


def test_normalize_constant_two_becomes_one():
    out = normalize_energy(TargetImage(np.full((4, 6), 2.0)))
    assert np.allclose(out.mag, 1.0, atol=1e-15)


def test_normalize_random_energy():
    rng = np.random.default_rng(501)
    t = TargetImage(rng.random((16, 16)) + 0.01)
    out = normalize_energy(t)
    assert abs(out.energy / (16 * 16) - 1.0) < 1e-12


def test_normalize_zero_image_error():
    with pytest.raises(ValueError):
        normalize_energy(TargetImage(np.zeros((4, 4))))


# ----------------------------------------------------------- induce_symmetry


def origin_reflection(a):
    """a reflected through the DFT origin: out[v, u] = a[-v mod h, -u mod w]."""
    h, w = a.shape
    return a[np.ix_(-np.arange(h) % h, -np.arange(w) % w)]


def test_induce_symmetry_2x2_example():
    """Every pixel of a 2x2 grid is its own mirror through the DFT origin, so
    the image stays as it is. On a 3x3 grid (0, 0) is fixed, (0, 1) pairs
    with (0, 2) and (1, 2) with (2, 1)."""
    a, b = 0.7, 0.4
    t = TargetImage(np.array([[a, 0.0], [0.0, 0.0]]))
    assert np.array_equal(induce_symmetry(t).mag, t.mag)
    t3 = TargetImage(np.array([[a, a, 0.0], [0.0, 0.0, b], [0.0, 0.0, 0.0]]))
    assert np.array_equal(induce_symmetry(t3).mag,
                          np.array([[a, a, a], [0.0, 0.0, b], [0.0, b, 0.0]]))


def test_induce_symmetry_exactly_rotation_invariant():
    rng = np.random.default_rng(502)
    out = induce_symmetry(TargetImage(rng.random((7, 9))))
    assert np.array_equal(out.mag, origin_reflection(out.mag))


@pytest.mark.parametrize("shape", [(8, 8), (6, 9)])
def test_real_aperture_replay_has_the_induced_symmetry(shape):
    """Oracle for the convention: a real aperture's replay magnitude (binary
    phase, or amplitude levels) is symmetric through the DFT origin, not
    about the grid centre, and induce_symmetry leaves it as it is."""
    rng = np.random.default_rng(506)
    for aperture in (rng.choice([-1.0, 1.0], size=shape), rng.random(shape)):
        mag = np.abs(dft2(aperture))
        assert np.allclose(mag, origin_reflection(mag), rtol=0, atol=1e-12)
        assert not np.allclose(mag, mag[::-1, ::-1], rtol=0, atol=1e-3)
        assert np.allclose(induce_symmetry(TargetImage(mag)).mag, mag, rtol=0, atol=1e-12)


def test_induce_symmetry_idempotent():
    rng = np.random.default_rng(503)
    t = TargetImage(rng.random((8, 8)))
    once = induce_symmetry(t)
    twice = induce_symmetry(once)
    assert np.array_equal(once.mag, twice.mag)


def test_induce_symmetry_never_decreases():
    rng = np.random.default_rng(504)
    t = TargetImage(rng.random((8, 8)))
    out = induce_symmetry(t)
    assert np.all(out.mag >= t.mag)


def test_induce_symmetry_symmetric_input_unchanged():
    rng = np.random.default_rng(505)
    base = rng.random((6, 6))
    sym = np.maximum(base, origin_reflection(base))
    out = induce_symmetry(TargetImage(sym))
    assert np.array_equal(out.mag, sym)


# ---------------------------------------------------------- resample_nearest


def test_resample_identity():
    rng = np.random.default_rng(506)
    t = TargetImage(rng.random((8, 8)))
    out = resample_nearest(t, 8, 8)
    assert np.array_equal(out.mag, t.mag)


def test_resample_upsample_replicates():
    t = TargetImage(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = resample_nearest(t, 4, 4)
    expect = np.array([[1.0, 1.0, 2.0, 2.0],
                       [1.0, 1.0, 2.0, 2.0],
                       [3.0, 3.0, 4.0, 4.0],
                       [3.0, 3.0, 4.0, 4.0]])
    assert np.array_equal(out.mag, expect)


def test_resample_downsample_picks_grid():
    t = TargetImage(np.arange(16.0).reshape(4, 4))
    out = resample_nearest(t, 2, 2)
    # source index = dst_index * 4 // 2 -> rows/cols {0, 2}
    assert np.array_equal(out.mag, np.array([[0.0, 2.0], [8.0, 10.0]]))


def test_resample_too_small():
    t = TargetImage(np.ones((4, 4)))
    with pytest.raises(ValueError):
        resample_nearest(t, 1, 4)


# ----------------------------------------------------------------- synthetic


def test_synthetic_mandrill_deterministic():
    a = synthetic_mandrill(64)
    b = synthetic_mandrill(64)
    assert np.array_equal(a.mag, b.mag)


def full_grid_mandrill(size):
    """The texture routine as it was before it took its phasors from cos/sin,
    computed its spectrum on one quadrant and transformed only the spectrum's
    Hermitian part: 1/f amplitude over the whole grid, times numpy's complex
    exp, and the real part of a full complex inverse transform."""
    rng = np.random.default_rng(np.random.SeedSequence(8062436))
    f = np.hypot(np.fft.fftfreq(size)[:, None], np.fft.fftfreq(size)[None, :])
    amp = (f + 1.0 / size) ** -1.2
    amp[0, 0] = 0.0
    tex = np.fft.ifft2(amp * np.exp(2j * np.pi * rng.random((size, size)))).real
    lo, hi = tex.min(), tex.max()
    tex = (tex - lo) / (hi - lo)
    return np.clip(1.3 * (tex - 0.5) + 0.5, 0.0, 1.0) ** 2.2


@pytest.mark.parametrize("size", [2, 3, 4, 5, 8, 17, 64, 127, 128, 255, 256, 511, 512, 1024])
def test_synthetic_mandrill_equals_full_grid_routine(size):
    # The inverse real transform of the Hermitian part rounds differently
    # from the real part of the full complex one; the bound was fixed
    # before measuring (worst measured: 1.4e-15, at 1024).
    assert np.max(np.abs(synthetic_mandrill(size).mag - full_grid_mandrill(size))) <= 1e-14


# sha256 of synthetic_mandrill(size).mag.tobytes() on numpy 2.4.6, as
# dispatched on a CPU with AVX-512 and with NPY_DISABLE_CPU_FEATURES="X86_V4
# AVX512_ICL AVX512_SPR": numpy's SIMD ``**`` rounds differently between the
# two, so each dispatch has its own bytes.
MANDRILL_DIGESTS = {
    "2.4.6": {
        17: {"709bd54eb2e54d8f7c82ef7b452e09a59cbaf9be814d9d5754c26781a23a2a5e",
             "84751492ad02d961040ec995b3ab7898d5fcb5511b13bfef3a62445eb7ac95f1"},
        64: {"6c8873819ed21e4ce791e36feecbcb63349ebd4afcec4e6aba4c994a05054fbf",
             "d18b54aa00055b3561b3ef120c85e705cb59adc083b57624d21c4f96d50775d1"},
    },
}


@pytest.mark.parametrize("size", [17, 64])
def test_synthetic_mandrill_golden_digest(size):
    """Pins the texture's bytes per numpy build, at an odd and an even size:
    the oracle above bounds the values, this catches any change of bits."""
    digests = MANDRILL_DIGESTS.get(np.__version__)
    if digests is None:
        pytest.skip(f"no texture digest recorded for numpy {np.__version__}")
    assert hashlib.sha256(synthetic_mandrill(size).mag.tobytes()).hexdigest() in digests[size]


def test_synthetic_mandrill_range_and_shape():
    t = synthetic_mandrill(64)
    assert t.shape == (64, 64)
    assert t.mag.min() >= 0.0
    assert t.mag.max() <= 1.0
    assert t.mag.max() > 0.5  # not a near-empty image


def test_synthetic_mandrill_spectral_spread():
    # natural-image-like: most energy at low frequency but a real tail
    t = synthetic_mandrill(128)
    spec = np.abs(np.fft.fft2(t.mag)) ** 2
    total = spec.sum()
    dc = spec[0, 0]
    assert 0.5 < dc / total < 0.99
    assert (total - dc) > 0.0


def test_synthetic_bars_binary_and_deterministic():
    t = synthetic_bars(64)
    assert t.shape == (64, 64)
    vals = np.unique(t.mag)
    assert set(vals.tolist()) <= {0.0, 1.0}
    assert 0.0 in vals and 1.0 in vals
    assert np.array_equal(t.mag, synthetic_bars(64).mag)


@pytest.mark.parametrize("size, lit", [(2, 1), (3, 1), (4, 2), (5, 2)])
def test_synthetic_bars_too_small_for_the_chart_get_the_fallback_block(size, lit):
    """Grids below 6 cannot hold the finest group; they get a top-left block
    of size//2 rows by max(size//4, 1) columns."""
    mag = synthetic_bars(size).mag
    assert mag.sum() == lit
    assert mag[0, 0] == 1.0


@pytest.mark.parametrize("make", [synthetic_bars, synthetic_mandrill])
def test_synthetic_targets_need_two_pixels(make):
    with pytest.raises(ValueError, match="^size must be >= 2, got 1$"):
        make(1)


def test_synthetic_dispatch():
    a = synthetic_target("synthetic-mandrill", 32)
    assert np.array_equal(a.mag, synthetic_mandrill(32).mag)
    b = synthetic_target("synthetic-bars", 32)
    assert np.array_equal(b.mag, synthetic_bars(32).mag)
    with pytest.raises(ValueError):
        synthetic_target("lena", 32)
