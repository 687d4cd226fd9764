"""Tests for the unitary transform pair and delta updates.

The DFT oracle here is the literal quadruple loop over the defining sum,
kept deliberately slow and independent of any FFT library.
"""

import math

import numpy as np
import pytest

from holosearch.field import as_field, delta_update, dft2, idft2


def dft2_loop(field):
    """Brute-force unitary 2D DFT: four nested index loops, no FFT."""
    field = np.asarray(field, dtype=np.complex128)
    ny, nx = field.shape
    out = np.zeros((ny, nx), dtype=np.complex128)
    for v in range(ny):
        for u in range(nx):
            acc = 0.0 + 0.0j
            for y in range(ny):
                for x in range(nx):
                    ph = -2.0 * math.pi * (u * x / nx + v * y / ny)
                    acc += field[y, x] * complex(math.cos(ph), math.sin(ph))
            out[v, u] = acc / math.sqrt(nx * ny)
    return out


def idft2_loop(field):
    """Brute-force unitary inverse: conjugate kernel, same 1/sqrt(N) scale."""
    field = np.asarray(field, dtype=np.complex128)
    ny, nx = field.shape
    out = np.zeros((ny, nx), dtype=np.complex128)
    for y in range(ny):
        for x in range(nx):
            acc = 0.0 + 0.0j
            for v in range(ny):
                for u in range(nx):
                    ph = 2.0 * math.pi * (u * x / nx + v * y / ny)
                    acc += field[v, u] * complex(math.cos(ph), math.sin(ph))
            out[y, x] = acc / math.sqrt(nx * ny)
    return out


def random_field(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------- dft2/idft2


def test_dft2_delta_2x2():
    # unit impulse at the origin spreads to a flat 1/sqrt(4) spectrum
    f = np.zeros((2, 2), dtype=np.complex128)
    f[0, 0] = 1.0
    out = dft2(f)
    assert np.allclose(out, np.full((2, 2), 0.5 + 0.0j), atol=1e-15)


def test_idft2_constant_2x2():
    f = np.full((2, 2), 0.5 + 0.0j)
    out = idft2(f)
    expect = np.zeros((2, 2), dtype=np.complex128)
    expect[0, 0] = 1.0
    assert np.allclose(out, expect, atol=1e-15)


@pytest.mark.parametrize("shape", [(4, 4), (8, 8)])
def test_dft2_matches_loop_oracle(shape):
    rng = np.random.default_rng(101)
    f = random_field(rng, shape)
    got = dft2(f)
    want = dft2_loop(f)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("shape", [(4, 4), (8, 8)])
def test_idft2_matches_loop_oracle(shape):
    rng = np.random.default_rng(102)
    f = random_field(rng, shape)
    got = idft2(f)
    want = idft2_loop(f)
    assert np.max(np.abs(got - want)) < 1e-12


def test_loop_oracle_non_square():
    rng = np.random.default_rng(103)
    f = random_field(rng, (4, 8))
    assert np.max(np.abs(dft2(f) - dft2_loop(f))) < 1e-12


@pytest.mark.parametrize("shape", [(8, 8), (16, 16), (8, 32), (64, 64)])
def test_parseval(shape):
    rng = np.random.default_rng(104)
    f = random_field(rng, shape)
    e_in = float(np.sum(np.abs(f) ** 2))
    e_out = float(np.sum(np.abs(dft2(f)) ** 2))
    assert abs(e_out - e_in) / e_in < 1e-10


def test_round_trip():
    rng = np.random.default_rng(105)
    f = random_field(rng, (8, 8))
    back = idft2(dft2(f))
    assert np.max(np.abs(back - f)) < 1e-10
    fwd = dft2(idft2(f))
    assert np.max(np.abs(fwd - f)) < 1e-10


def test_as_field_validation():
    with pytest.raises(ValueError):
        as_field(np.zeros(4, dtype=np.complex128))
    with pytest.raises(ValueError):
        as_field(np.zeros((1, 4), dtype=np.complex128))
    # real input is promoted, not rejected
    out = as_field(np.ones((2, 2)))
    assert out.dtype == np.complex128


def test_dft2_accepts_real_input():
    f = np.eye(4)
    out = dft2(f)
    assert out.dtype == np.complex128
    assert np.max(np.abs(out - dft2_loop(f))) < 1e-12


# -------------------------------------------------------------- delta_update


def test_delta_update_zero_is_noop():
    rng = np.random.default_rng(108)
    replay = random_field(rng, (4, 4))
    keep = replay.copy()
    inc = delta_update(replay, 1, 2, 0.0 + 0.0j)
    assert np.array_equal(replay, keep)
    assert np.array_equal(inc, np.zeros((4, 4), dtype=np.complex128))


def test_delta_update_matches_full_transform():
    rng = np.random.default_rng(109)
    holo = random_field(rng, (8, 8))
    replay = dft2(holo)
    dh = -1.3 + 0.7j
    x, y = 5, 2
    delta_update(replay, x, y, dh)
    holo[y, x] += dh
    assert np.max(np.abs(replay - dft2(holo))) < 1e-10


def test_delta_update_rollback():
    # rejected move: subtracting the returned increment restores the field
    rng = np.random.default_rng(110)
    holo = random_field(rng, (8, 8))
    replay = dft2(holo)
    keep = replay.copy()
    inc = delta_update(replay, 3, 6, 0.8 - 0.2j)
    replay -= inc
    assert np.max(np.abs(replay - keep)) < 1e-12


def test_delta_update_out_of_bounds():
    replay = np.zeros((4, 4), dtype=np.complex128)
    with pytest.raises(IndexError):
        delta_update(replay, 4, 0, 1.0)
    with pytest.raises(IndexError):
        delta_update(replay, 0, -1, 1.0)


def test_delta_update_drift_many_updates():
    """10^4 incremental updates on 64x64 stay within 1e-6 of a recompute."""
    rng = np.random.default_rng(111)
    n = 64
    holo = np.exp(2j * np.pi * rng.random((n, n)))
    replay = dft2(holo)
    for _ in range(10_000):
        x = int(rng.integers(n))
        y = int(rng.integers(n))
        new = np.exp(2j * np.pi * rng.random())
        dh = new - holo[y, x]
        delta_update(replay, x, y, dh)
        holo[y, x] = new
    drift = np.max(np.abs(replay - dft2(holo)))
    assert drift < 1e-6


def test_single_pixel_energy_closed_form():
    # a lone pixel of magnitude d on an otherwise empty aperture puts
    # energy d^2 into the replay; against a zero target the MSE is d^2/N
    n = 8
    holo = np.zeros((n, n), dtype=np.complex128)
    replay = dft2(holo)
    d = 0.37
    delta_update(replay, 3, 5, d)
    mse = float(np.mean(np.abs(replay) ** 2))
    assert abs(mse - d * d / (n * n)) < 1e-12
