"""Tests for the unitary transform pair and delta updates.

The DFT oracle here is the literal quadruple loop over the defining sum,
kept deliberately slow and independent of any FFT library.
"""

import contextlib
import functools
import gc
import math
import queue
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosearch import field, metrics, slm
from holosearch.field import (
    as_field,
    delta_update,
    dft2,
    fill_mirror,
    half_rows,
    idft2,
    reflect,
    revert,
    unit_phasors,
)
from holosearch.metrics import fold_target, mse
from holosearch.slm import ModulationScheme, change_map, quantise
from holosearch.targets import synthetic_mandrill


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


def same_bytes(a, b) -> bool:
    """Equal dtype, shape and bytes: unlike ==, tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -------------------------------------------------------------- unit_phasors


def test_unit_phasors_equal_complex_exp_bit_for_bit():
    # Pins, per numpy build, that cos/sin written into the two parts give
    # the bytes of numpy's complex exp, which the set-up code used before.
    edges = [0.0, -0.0, math.pi / 2, math.pi, math.nextafter(2 * math.pi, 0.0), 1e6]
    theta = np.concatenate((edges, np.random.default_rng(111).uniform(-8.0, 8.0, 100_000)))
    assert same_bytes(unit_phasors(theta), np.exp(1j * theta))
    # sin(-0.0) is -0.0, but 1j * -0.0 has a +0.0 imaginary part
    assert math.copysign(1.0, unit_phasors(np.array([-0.0]))[0].imag) == 1.0


def test_unit_phasors_keeps_shape():
    theta = np.random.default_rng(112).uniform(0.0, 2 * math.pi, (3, 5))
    assert same_bytes(unit_phasors(theta), np.exp(1j * theta))
    assert same_bytes(unit_phasors(theta.T), np.exp(1j * theta.T))
    assert same_bytes(unit_phasors(np.float64(0.5)), np.exp(1j * np.float64(0.5)))
    assert isinstance(unit_phasors(0.5), np.complex128)


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


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(height=st.integers(2, 33), width=st.integers(2, 33), stored_complex=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_dft2_leading_rows_of_a_real_field(height, width, stored_complex, seed):
    """``dft2(f, rows=half_rows(ny))`` is the leading rows of the whole
    transform, for odd and even sides, a real field stored as float64 or
    complex128; fill_mirror rebuilds the whole transform from them; and a
    nonzero imaginary part anywhere is refused."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((height, width))
    if stored_complex:
        f = f + 0j
    rows = half_rows(height)
    full = dft2(f)
    leading = dft2(f, rows=rows)
    bound = 1e-12 * np.linalg.norm(f)
    assert leading.shape == (rows, width)
    assert np.max(np.abs(leading - full[:rows])) <= bound

    rebuilt = np.full((height, width), np.nan, dtype=np.complex128)
    rebuilt[:rows] = leading
    fill_mirror(rebuilt, rows)
    assert np.max(np.abs(rebuilt - full)) <= bound

    g = f + 0j
    g[rng.integers(height), rng.integers(width)] += 1j * rng.uniform(1e-300, 1.0)
    with pytest.raises(ValueError, match="real field"):
        dft2(g, rows=rows)


@pytest.mark.parametrize("height, rows", [(2, 0), (2, 3), (7, 5), (8, 6)])
def test_dft2_rows_outside_the_half_are_refused(height, rows):
    with pytest.raises(ValueError, match="^rows must be 1 .. "):
        dft2(np.ones((height, 3)), rows=rows)


# -------------------------------------------------------------- delta_update


def test_delta_update_zero_is_noop():
    rng = np.random.default_rng(108)
    replay = random_field(rng, (4, 4))
    keep = replay.copy()
    move = delta_update(replay, 1, 2, 0.0 + 0.0j)
    assert np.array_equal(replay, keep)
    assert np.array_equal(move.p, np.zeros(4, dtype=np.complex128))
    delta_update(replay, 2, 3, 0.0 + 0.0j, undo=move)
    assert np.array_equal(replay, keep)


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
    # rejected move: reverting the returned move, or undoing it inside a
    # zero move, restores the field
    rng = np.random.default_rng(110)
    holo = random_field(rng, (8, 8))
    replay = dft2(holo)
    keep = replay.copy()
    move = delta_update(replay, 3, 6, 0.8 - 0.2j)
    undone = replay.copy()
    revert(replay, move)
    assert np.max(np.abs(replay - keep)) < 1e-12
    delta_update(undone, 0, 0, 0.0, undo=move)
    assert np.max(np.abs(undone - keep)) < 1e-12


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


@pytest.mark.parametrize("shape", [(8, 8), (7, 10), (10, 7), (9, 9)])
def test_delta_update_leading_rows(shape):
    """rows=k adds the first k rows of the full update and leaves the other
    rows untouched."""
    rng = np.random.default_rng(112)
    ny, nx = shape
    base = random_field(rng, shape)
    full = base.copy()
    delta_update(full, nx - 2, ny - 3, 0.4 - 1.1j)
    for k in (1, half_rows(ny), ny - 1, ny):
        part = base.copy()
        move = delta_update(part, nx - 2, ny - 3, 0.4 - 1.1j, rows=k)
        assert move.p.shape == (k,)
        assert move.w.shape == (2, nx)
        assert np.array_equal(part[:k], full[:k])
        assert np.array_equal(part[k:], base[k:])


@pytest.mark.parametrize("shape", [(4, 6), (13, 5), (64, 64), (1024, 768)])
def test_delta_update_table_twiddles_match_exp(shape):
    """Twiddles read from the roots-of-unity table agree with the direct
    formula exp(-2j*pi*(u*x/Nx + v*y/Ny)), including the largest angles. The
    formula's phase is reduced exactly, in integers, to one turn first."""
    ny, nx = shape
    v = np.arange(ny)[:, None]
    u = np.arange(nx)[None, :]
    for x, y in ((0, 0), (1, 1), (nx - 1, ny - 1), (nx // 3, ny // 2)):
        replay = np.zeros(shape, dtype=np.complex128)
        delta_update(replay, x, y, math.sqrt(nx * ny))
        turns = ((u * x * ny + v * y * nx) % (nx * ny)) / (nx * ny)
        want = np.exp(-2j * np.pi * turns)
        assert np.max(np.abs(replay - want)) < 1e-13


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(n=st.sampled_from([2, 3, 7, 64, 255, field._TWIDDLE_TABLE_MAX, field._TWIDDLE_TABLE_MAX + 1, 384, 1024]),
       pos=st.integers(0, 1 << 12), count=st.integers(1, 1 << 12))
def test_twiddles_equal_the_gathered_roots(n, pos, count):
    """_twiddles gives ``_roots(n)[(pos*k) % n]`` for k < count bit for bit,
    below, at and above the table's cap: a read-only slice of the table up
    to the cap, a new gather above it."""
    pos, count = pos % n, 1 + (count - 1) % n
    got = field._twiddles(pos, n, count)
    assert same_bytes(got, field._roots(n)[(pos * np.arange(count)) % n])
    if n <= field._TWIDDLE_TABLE_MAX:
        assert not got.flags.writeable and np.shares_memory(got, field._twiddle_table(n))
    else:
        assert got.flags.writeable


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(height=st.integers(2, 13), width=st.integers(2, 13), real=st.booleans(), leading=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_delta_update_undo_leaves_only_the_new_move(height, width, real, leading, seed):
    """``delta_update(R, m2, undo=m1)`` after ``delta_update(R, m1)`` gives
    the transform of the aperture with only m2 applied, on odd and even
    shapes, for real and complex changes, over every row or the leading
    half_rows."""
    rng = np.random.default_rng(seed)
    holo = random_field(rng, (height, width))
    replay = dft2(holo)
    before = replay.copy()
    rows = half_rows(height) if leading else None

    def change():
        dh = rng.standard_normal() if real else complex(*rng.standard_normal(2))
        return int(rng.integers(width)), int(rng.integers(height)), dh

    (x1, y1, dh1), (x2, y2, dh2) = change(), change()
    m1 = delta_update(replay, x1, y1, dh1, rows)
    delta_update(replay, x2, y2, dh2, rows, undo=m1)
    holo[y2, x2] += dh2
    want = dft2(holo)
    k = height if rows is None else rows
    assert np.max(np.abs(replay[:k] - want[:k])) < 1e-12
    assert np.array_equal(replay[k:], before[k:])


@pytest.mark.parametrize("rows", [None, half_rows(41)])
def test_delta_update_spans_row_tiles(rows):
    """A grid so wide that its rows take several tiles, the last one partial:
    the update, and a later one that undoes it, match the direct formula."""
    ny, nx = 41, 8192
    k = ny if rows is None else rows
    v = np.arange(k)[:, None]
    u = np.arange(nx)[None, :]

    def direct(x, y):
        return np.exp(-2j * np.pi * ((u * x * ny + v * y * nx) % (nx * ny)) / (nx * ny))

    replay = np.zeros((ny, nx), dtype=np.complex128)
    scale = math.sqrt(nx * ny)
    m1 = delta_update(replay, 5000, 17, scale, rows)
    assert np.max(np.abs(replay[:k] - direct(5000, 17))) < 1e-13
    delta_update(replay, 123, 40, -2.0 * scale, rows, undo=m1)
    assert np.max(np.abs(replay[:k] + 2.0 * direct(123, 40))) < 1e-13
    assert not replay[k:].any()


def test_delta_update_undo_rows_must_match():
    replay = np.zeros((6, 4), dtype=np.complex128)
    move = delta_update(replay, 1, 1, 1.0, half_rows(6))
    with pytest.raises(ValueError):
        delta_update(replay, 2, 2, 1.0, undo=move)


@pytest.mark.parametrize("shape", [(2, 2), (2, 5), (3, 3), (6, 9), (7, 4), (8, 8)])
def test_fill_mirror_completes_real_aperture_replay(shape):
    """The replay of a real aperture is recovered from its leading rows."""
    rng = np.random.default_rng(113)
    replay = dft2(rng.standard_normal(shape))
    rows = half_rows(shape[0])
    filled = replay.copy()
    filled[rows:] = np.nan
    fill_mirror(filled, rows)
    assert np.array_equal(filled[:rows], replay[:rows])
    assert np.max(np.abs(filled - replay)) < 1e-12


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(height=st.integers(2, 40), width=st.integers(2, 40), complex_=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_reflect_is_the_point_reflection_over_every_leading_block(height, width, complex_, seed):
    """reflect writes, into every leading block of the grid (one row and
    one column among them), what np.roll of the flipped source holds there,
    and returns the array it was given."""
    rng = np.random.default_rng(seed)
    src = random_field(rng, (height, width)) if complex_ else rng.standard_normal((height, width))
    want = np.roll(src[::-1, ::-1], 1, axis=(0, 1))
    for rows in range(1, height + 1):
        for cols in range(1, width + 1):
            out = np.empty((rows, cols), dtype=src.dtype)
            assert reflect(src, out) is out
            assert same_bytes(out, want[:rows, :cols]), (rows, cols)


# ------------------------------------------------------------- row blocks

SCHEMES = [ModulationScheme.from_name(name) for name in (
    "binary-phase", "binary-amplitude", "phase:3", "phase:8", "amplitude:5", "phase:cont", "amplitude:cont")]


# The states of the helper switch, ``field._may_start_helper``, the one thing
# the split reads of the machine: see :func:`switched`.
HELPER_STATES = ["off", "on", "stalled"]


@contextlib.contextmanager
def switched(state):
    """The helper switch in ``state``: "off", with no helper, so the caller
    runs every block; "on", with the process's helper, started by the first
    split that needs it; "stalled", on, with a helper that takes every
    offered block and claims none, so the caller again runs them all."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_may_start_helper", state != "off")
        if state == "off":
            mp.setattr(field, "_helper", None)
        elif state == "stalled":
            jobs, helper = stalled_helper()
            mp.setattr(field, "_jobs", jobs)
            mp.setattr(field, "_helper", helper)
        yield


@contextlib.contextmanager
def forced_blocks(state, split=True, tile=None):
    """With the helper switch in ``state`` (:func:`switched`), cut every
    kernel, whatever the grid size, into two blocks of near-equal size from
    two rows on (one block with ``split`` false), and quantise/change_map
    into tiles of ``tile`` elements."""
    with switched(state), pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_MIN_BLOCK", 1 if split else 1 << 62)
        mp.setattr(field, "_HEAD_START", 0)
        if tile is not None:
            mp.setattr(slm, "_TILE", tile)
        yield


@contextlib.contextmanager
def fresh_helpers(loop=None):
    """A helper of the block's own: no helper thread and an empty queue at
    its start. With ``loop`` given, a helper started in the block runs
    ``loop(jobs)`` in place of the package's loop. A helper started in the
    block outlives it, idle on a queue nothing offers to again. A helper
    that fails to start in the block stops no start after it: the helper
    flag it clears is restored."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_jobs", queue.SimpleQueue())
        mp.setattr(field, "_helper", None)
        mp.setattr(field, "_may_start_helper", field._may_start_helper)
        if loop is not None:
            mp.setattr(field, "_help", loop)
        yield


def stalled(jobs):
    """A helper's loop that takes every offered block off the queue and never
    claims one, as a helper busy elsewhere would."""
    while True:
        jobs.get()


@functools.lru_cache(maxsize=None)
def stalled_helper():
    """The queue and thread of one helper running :func:`stalled`, shared by
    every test that switches to it: a helper stays alive, idle, for the
    whole process, so none is started per test or per example."""
    jobs = queue.SimpleQueue()
    helper = threading.Thread(target=stalled, args=(jobs,), daemon=True)
    helper.start()
    return jobs, helper


def never_gets(jobs):
    """A helper's loop that never takes a block off the queue."""
    threading.Event().wait()


def finishes(call, seconds=60):
    """Run ``call`` on a watchdog thread; True if it returned in time (a
    split that waits on a block nobody runs would hang)."""
    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(seconds)
    return not thread.is_alive()


def split_kernel_outputs(f, theta, real, size):
    """What every kernel that splits its work returns for these inputs."""
    rows = half_rows(real.shape[0])
    out = {
        "unit_phasors": unit_phasors(theta),
        "unit_phasors 1-D": unit_phasors(theta[0]),
        "unit_phasors 0-d": unit_phasors(theta[0, 0]),
        "dft2": dft2(f),
        "idft2": idft2(f),
        "dft2 rows": dft2(real, rows=rows),
        "dft2 one row": dft2(real, rows=1),
        "texture": synthetic_mandrill(size).mag,
    }
    given = np.empty_like(f)
    assert dft2(f, out=given) is given
    out["dft2 out="] = given
    given = np.empty(real.shape, dtype=np.complex128)[:rows]
    assert dft2(real, rows=rows, out=given) is given
    out["dft2 rows out="] = given
    for scheme in SCHEMES:
        for label, x in (("2-D", f), ("1-D", f[-1]), ("0-d", f[0, 0])):
            q = quantise(x, scheme)
            out[f"quantise {scheme.name} {label}"] = q
            out[f"change_map {scheme.name} {label}"] = change_map(x, q)
    return out


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(height=st.integers(2, 40), width=st.integers(2, 40), size=st.integers(2, 40),
       seed=st.integers(0, 2**32 - 1))
def test_split_kernels_give_the_bytes_of_one_block(height, width, size, seed):
    """Each kernel gives the same bytes in one block and in two, with the
    helper off, on and stalled, with quantise and change_map also cut into
    3-element tiles, for odd and even shapes. Zeros of both signs and exact phase ties
    are among the quantised values. dft2(rows=) stays the leading rows of
    the whole transform in every block count. One block gives the bytes of
    numpy's own fft2, ifft2 and rfftn calls. dft2(out=) returns the array
    it was given, the leading rows of a taller one included, holding the
    bytes of the call without out=."""
    rng = np.random.default_rng(seed)
    f = 2 * (rng.standard_normal((height, width)) + 1j * rng.standard_normal((height, width)))
    special = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1 + 1j, -1 - 1j, 0.5, 1j, -1.0]
    f.ravel()[:len(special)] = special[:f.size]
    theta = rng.uniform(-8.0, 8.0, (height, width))
    real = rng.standard_normal((height, width))
    with forced_blocks("off", split=False):
        want = split_kernel_outputs(f, theta, real, size)
    rfftn = np.fft.rfftn(real, axes=(1, 0), norm="ortho")
    assert same_bytes(want["dft2"], np.fft.fft2(f, norm="ortho"))
    assert same_bytes(want["idft2"], np.fft.ifft2(f, norm="ortho"))
    assert same_bytes(want["dft2 rows"], rfftn[:half_rows(height)])
    assert same_bytes(want["dft2 one row"], rfftn[:1])
    assert same_bytes(want["dft2 out="], want["dft2"])
    assert same_bytes(want["dft2 rows out="], want["dft2 rows"])
    bound = 1e-12 * np.linalg.norm(real)
    for state in HELPER_STATES:
        with forced_blocks(state, tile=3):
            got = split_kernel_outputs(f, theta, real, size)
            leading = dft2(real, rows=half_rows(height))
            full = dft2(real)
        for name in want:
            assert same_bytes(got[name], want[name]), (state, name)
            assert type(got[name]) is type(want[name]), (state, name)
        assert np.max(np.abs(leading - full[:half_rows(height)])) <= bound


@pytest.mark.parametrize("n", [64, 128, 256])
def test_tiled_quantise_and_change_map_give_the_one_call_bytes(n):
    """quantise and change_map tile every grid, under the split floor (64^2,
    128^2) and above it (256^2), and give the bytes of one call over the
    whole array: slm._nearest, and the magnitude of the difference. slm
    asks field for no block count of its own."""
    rng = np.random.default_rng(n)
    f = 2 * random_field(rng, (n, n))
    f.ravel()[:8] = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1 + 1j, -1 - 1j, 0.5, 1j, -1.0]
    assert not hasattr(slm, "_block_count")
    for scheme in SCHEMES:
        q = quantise(f, scheme)
        assert same_bytes(q, slm._nearest(f, scheme)), (n, scheme.name)
        assert same_bytes(change_map(f, q), np.abs(q - f)), (n, scheme.name)


def test_no_helper_starts_when_the_flag_is_false(monkeypatch):
    """With the helper flag false, as on one core, a 512^2 set-up split
    starts no thread: the caller runs both blocks and queues none."""
    start, calls = threading.Thread.start, []

    def record(thread):
        calls.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    monkeypatch.setattr(field, "_may_start_helper", False)
    theta = np.random.default_rng(11).uniform(-4.0, 4.0, (512, 512))
    with fresh_helpers():
        blocks = []
        field._split_rows(512, 512 * 512, lambda block: blocks.append(threading.current_thread()))
        unit_phasors(theta)
        dft2(theta)
        assert blocks == [threading.current_thread()] * 2
        assert calls == [] and field._helper is None and field._jobs.empty()


def test_split_rows_reraises_the_first_exception_of_a_worker_block(monkeypatch):
    """Both blocks run, and the first block's failure is re-raised, or else
    the second's; the split starts one daemon helper, which outlives it."""
    monkeypatch.setattr(field, "_may_start_helper", True)
    monkeypatch.setattr(field, "_MIN_BLOCK", 1)
    monkeypatch.setattr(field, "_HEAD_START", 0)
    for failing, error in (((0, 4), "block from 0"), ((4,), "block from 4")):
        seen = []

        def fn(block, failing=failing):
            seen.append((block.start, block.stop))
            if block.start in failing:
                raise ZeroDivisionError(f"block from {block.start}")

        with fresh_helpers():
            with pytest.raises(ZeroDivisionError, match=error):
                field._split_rows(9, 9, fn)
            helper = field._helper
            assert helper is not None and helper.daemon and helper.is_alive()
        assert sorted(seen) == [(0, 4), (4, 9)]


def test_split_rows_blocks_keep_the_callers_numpy_error_state(monkeypatch):
    """A block a helper runs is under the caller's np.errstate, as block 0
    is: block 0 holds the caller until a helper has taken block 1."""
    monkeypatch.setattr(field, "_may_start_helper", True)
    monkeypatch.setattr(field, "_MIN_BLOCK", 1)
    monkeypatch.setattr(field, "_HEAD_START", 0)
    taken = threading.Event()
    caller = threading.current_thread()

    def fn(block):
        if block.start == 0:
            assert taken.wait(60), "no helper took block 1"
        else:
            assert threading.current_thread() is not caller
            taken.set()
            np.divide(np.ones(1), np.zeros(1))

    with fresh_helpers(), np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        field._split_rows(2, 2, fn)


def test_split_rows_runs_small_work_inline(monkeypatch):
    """Below two minimum blocks, or in one row, the one block runs on the
    calling thread."""
    monkeypatch.setattr(field, "_may_start_helper", True)
    threads = []
    for rows, elements in ((2 * field._MIN_BLOCK - 1, 2 * field._MIN_BLOCK - 1), (1, 1 << 30)):
        threads.clear()
        field._split_rows(rows, elements, lambda block: threads.append((threading.current_thread(), block)))
        assert threads == [(threading.current_thread(), slice(0, rows))]


def test_split_rows_gives_the_caller_a_head_start(monkeypatch):
    """Every split cuts two blocks, block 0 _HEAD_START elements larger
    than block 1 (to a row), and neither left empty, with bounds that are
    the same with the helper off, on and stalled; off or stalled, the
    caller runs both."""
    monkeypatch.setattr(field, "_MIN_BLOCK", 1)
    for rows, width in ((256, 256), (257, 512), (100, 1000), (5, 1 << 20), (2, 1 << 20), (5, 1), (7, 1)):
        bounds = []
        for state in HELPER_STATES:
            blocks, threads = [], set()

            def record(block):
                if block.start == 0:
                    time.sleep(0.01)  # time for a helper that claims blocks to take block 1
                blocks.append(block)
                threads.add(threading.current_thread())

            with switched(state):
                field._split_rows(rows, rows * width, record)
            bounds.append(sorted((b.start, b.stop) for b in blocks))
            if state != "on":
                assert threads == {threading.current_thread()}, state
        assert bounds[0] == bounds[1] == bounds[2]
        (start, mid), (_, stop) = bounds[0]
        assert start == 0 and stop == rows and 1 <= mid < rows
        head = min(rows - 2, rows * field._HEAD_START // (rows * width))
        assert abs(mid - head - (rows - mid)) <= 1


def blocks_and_outputs(state, f, real, n):
    """With the helper switch in ``state`` and, when on, a helper of its
    own: the blocks every split kernel cuts, as sorted (rows, elements,
    start, stop), what the kernels return, and the helper, if any."""
    bounds, lock, split_rows = [], threading.Lock(), field._split_rows

    def record(rows, elements, fn):
        def block(part):
            with lock:
                bounds.append((rows, elements, part.start, part.stop))
            fn(part)

        split_rows(rows, elements, block)

    with pytest.MonkeyPatch.context() as mp, fresh_helpers(), switched(state):
        for module in (field, metrics, slm):
            mp.setattr(module, "_split_rows", record)
        got = split_kernel_outputs(f, f.real, real, n)
        got["loop"] = loop_kernel_outputs(dft2(f), f, False, "all")
        got["loop half"] = loop_kernel_outputs(dft2(real), real, True, "half")
        return sorted(bounds), got, field._helper


def test_every_kernels_block_bounds_follow_the_grid_alone():
    """At the real floor, the blocks each split kernel cuts (set-up and
    loop kernels on a 256^2 grid, which split, and on a 128^2 one, which do
    not) are the same with the helper off, on and stalled, and so are the
    bytes. With the switch on, a helper starts only on a split."""
    rng = np.random.default_rng(5)
    for n in (256, 128):
        f = random_field(rng, (n, n))
        real = rng.standard_normal((n, n))
        bounds, want, helper = blocks_and_outputs("off", f, real, n)
        assert helper is None
        assert any(stop < rows for rows, _, _, stop in bounds) == (n == 256)
        for state in ("on", "stalled"):
            got_bounds, got, helper = blocks_and_outputs(state, f, real, n)
            assert got_bounds == bounds, (n, state)
            if state == "on":
                assert (helper is not None) == (n == 256), n
            else:
                assert helper is stalled_helper()[1]
            for name in ("loop", "loop half"):
                (replays, errors), (want_replays, want_errors) = got.pop(name), want[name]
                assert errors == want_errors, (n, state, name)
                assert all(same_bytes(a, b) for a, b in zip(replays, want_replays)), (n, state, name)
            for name in got:
                assert same_bytes(got[name], want[name]), (n, state, name)


def test_split_kernels_leave_no_thread_behind(monkeypatch):
    """A split starts no thread of its own: the first one starts the one
    persistent helper, a daemon thread, and
    after that every split call, one that raised included, leaves the
    process the threads it had before."""
    monkeypatch.setattr(field, "_may_start_helper", True)
    monkeypatch.setattr(field, "_MIN_BLOCK", 1)
    rng = np.random.default_rng(6)
    f = rng.standard_normal((12, 10)) + 1j * rng.standard_normal((12, 10))
    replay = dft2(f)
    scored = fold_target(np.abs(f), hermitian=False)
    calls = [lambda: unit_phasors(f.real), lambda: dft2(f), lambda: idft2(f),
             lambda: dft2(f.real, rows=7), lambda: synthetic_mandrill(12),
             lambda: revert(replay, delta_update(replay, 3, 4, 1j)),
             lambda: mse(scored, replay, energy=1.0)]
    calls += [lambda s=s: change_map(f, quantise(f, s)) for s in SCHEMES]
    with fresh_helpers():
        before = threading.active_count()
        field._split_rows(12, 12, lambda block: None)
        helper = field._helper
        assert helper.daemon and threading.active_count() == before + 1
        baseline = threading.active_count()
        for call in calls:
            call()
            assert threading.active_count() == baseline
        with pytest.raises(ValueError):
            field._split_rows(12, 12, lambda block: int("not a number"))
        assert threading.active_count() == baseline
        assert field._helper is helper


def test_split_rows_runs_blocks_inline_when_a_thread_cannot_start(monkeypatch):
    """With no helper able to start, the calling thread runs both blocks and
    queues none; the first failed start clears the helper flag, and no
    split tries another;
    once the helper has started, no split starts another thread. A kernel
    split either way keeps its bytes."""
    rng = np.random.default_rng(8)
    f = rng.standard_normal((12, 10)) + 1j * rng.standard_normal((12, 10))
    with forced_blocks("off", split=False):
        want = dft2(f)
    start = threading.Thread.start
    calls = []

    def start_unless_failing(thread):
        calls.append(thread)
        if failing:
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_unless_failing)
    caller = threading.current_thread()
    failing = True
    with forced_blocks("on"), fresh_helpers():
        where = {}
        field._split_rows(8, 8, lambda block: where.setdefault(block.start, threading.current_thread()))
        assert sorted(where) == [0, 4] and all(t is caller for t in where.values())
        assert field._helper is None and field._jobs.empty()
        assert field._may_start_helper is False
        for _ in range(3):
            assert same_bytes(dft2(f), want)
        assert len(calls) == 1
    failing = False
    calls.clear()
    with forced_blocks("on"), fresh_helpers():
        assert same_bytes(dft2(f), want)
        assert field._helper is calls[0]
        where = {}
        field._split_rows(9, 9, lambda block: where.setdefault(block.start, 0))
        assert sorted(where) == [0, 4]
        assert same_bytes(dft2(f), want)
        assert len(calls) == 1


# ------------------------------------------------------- loop kernels, split

LOOP_SHAPES = [(2, 2), (3, 5), (4, 7), (9, 4), (13, 6), (40, 3)]


def loop_kernel_outputs(replay, holo, real, rows_kind):
    """The replay after each of a sequence of updates and undos and after a
    final revert, and the energy-form error of each updated replay, as the
    fast search runs them."""
    ny, nx = replay.shape
    rows = {"all": None, "half": half_rows(ny), "one": 1}[rows_kind]
    scored, k = scored_rows(holo, rows_kind)
    replay = replay.copy()
    replays, errors = [], []
    pending = None
    for i, (x, y) in enumerate(((0, 0), (nx - 1, ny - 1), (nx // 2, ny // 3), (1 % nx, 1 % ny))):
        dh = 2.0 if real else complex(0.5, -1.5)
        move = delta_update(replay, x, y, dh * (i + 1), rows, undo=pending)
        replays.append(replay.copy())
        errors.append(mse(scored, replay[:k], energy=float(i + 3)))
        pending = None if i == 1 else move
    if pending is not None:
        revert(replay, pending)
    replays.append(replay)
    return replays, errors


def scored_rows(holo, rows_kind):
    """The target loop_kernel_outputs scores against, and its row count."""
    ny = holo.shape[0]
    k = {"all": ny, "half": half_rows(ny), "one": 1}[rows_kind]
    return fold_target(np.abs(holo)[:k], hermitian=False), k


def two_block_errors(replays, holo, rows_kind):
    """The errors of loop_kernel_outputs as a split energy-form mse forms
    them, computed here in one thread: from two rows on, the magnitudes of
    the rows before and after the loop split's middle bound (under the
    current ``_HEAD_START``) each dotted with the target's rows, block 0's
    product plus block 1's."""
    scored, k = scored_rows(holo, rows_kind)
    target = scored.folded
    errors = []
    for i, replay in enumerate(replays[:-1]):
        magnitude = np.abs(replay[:k])
        if k < 2:
            cross = magnitude.ravel() @ target.ravel()
        else:
            head = min(k - 2, k * field._HEAD_START // magnitude.size)
            mid = head + (k - head) // 2
            cross = magnitude[:mid].ravel() @ target[:mid].ravel() + magnitude[mid:].ravel() @ target[mid:].ravel()
        errors.append(float((float(i + 3) - 2.0 * cross + scored.energy) / scored.size))
    return errors


def assert_loop_outputs(got, want_replays, holo, rows_kind):
    """Replays with the bytes of one block, errors with those of the
    two-block formula, bit for bit."""
    replays, errors = got
    assert len(replays) == len(want_replays)
    assert all(same_bytes(a, b) for a, b in zip(replays, want_replays))
    assert same_bytes(np.array(errors), np.array(two_block_errors(replays, holo, rows_kind)))


@pytest.mark.parametrize("head", [0, None])
@pytest.mark.parametrize("state", HELPER_STATES)
@settings(derandomize=True, deadline=None, max_examples=12, database=None)
@given(shape=st.sampled_from(LOOP_SHAPES), real=st.booleans(), rows_kind=st.sampled_from(["all", "half", "one"]),
       tile=st.sampled_from([16, 24, 48, 1 << 19]), seed=st.integers(0, 2**32 - 1))
def test_loop_kernels_give_the_bytes_of_one_block(state, head, shape, real, rows_kind, tile, seed):
    """delta_update (all rows, the half plane, one row; with and without
    undo=) and revert give the bytes of one block when split in two, with
    the helper off, on or stalled, with near-equal blocks or the caller's
    head start;
    the split energy-form mse gives the bytes of the two-block formula
    computed inline at the same bounds, and one block the one dot. Tiles of
    a few rows put merged last rows and one-row blocks in the split."""
    rng = np.random.default_rng(seed)
    holo = rng.standard_normal(shape) if real else random_field(rng, shape)
    replay = dft2(holo)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_TILE_BYTES", tile * 2 * shape[1])  # tile rows = tile // 8, at least two
        mp.setattr(field, "_scratch", field._Scratch())
        want, errors = loop_kernel_outputs(replay, holo, real, rows_kind)
        scored, k = scored_rows(holo, rows_kind)
        assert same_bytes(np.array(errors), np.array([
            float((float(i + 3) - 2.0 * (np.abs(r[:k]).ravel() @ scored.folded.ravel()) + scored.energy) / scored.size)
            for i, r in enumerate(want[:-1])]))
        mp.setattr(field, "_MIN_BLOCK", 1)
        if head is not None:
            mp.setattr(field, "_HEAD_START", head)
        with switched(state):
            assert_loop_outputs(loop_kernel_outputs(replay, holo, real, rows_kind), want, holo, rows_kind)


def test_stalled_helper_leaves_every_block_to_the_caller(monkeypatch):
    """A helper that never claims a block costs no wait: the caller runs
    every block, every split set-up kernel and loop update keeps the bytes
    of one block, and the split error those of the two-block formula."""
    rng = np.random.default_rng(9)
    f = random_field(rng, (12, 10))
    holo = rng.standard_normal((12, 10))
    with forced_blocks("off", split=False):
        want = split_kernel_outputs(f, f.real, holo, 12)
    want_replays, _ = loop_kernel_outputs(dft2(holo), holo, True, "half")
    with forced_blocks("on"), fresh_helpers(stalled):
        callers, where, got = [], set(), {}

        def split():
            callers.append(threading.current_thread())
            field._split_rows(9, 9, lambda block: where.add(threading.current_thread()))

        assert finishes(split)
        assert finishes(lambda: got.update(split_kernel_outputs(f, f.real, holo, 12)))
        assert finishes(lambda: got.update(loop=loop_kernel_outputs(dft2(holo), holo, True, "half")))
        assert field._helper is not None
        assert_loop_outputs(got.pop("loop"), want_replays, holo, "half")
    assert where == set(callers)
    for name in want:
        assert same_bytes(got[name], want[name]), name


def test_split_loop_kernels_under_thread_stress(monkeypatch):
    """Four threads, more than the cores, each run updates and errors on a
    replay of their own, every call split in two blocks with the helper on,
    with the interpreter switching threads every few microseconds:
    each ends with the bytes it gets alone, and the replays with those of
    one block. Some of the split errors differ from the unsplit ones in
    their last bits, so the two-block formula is the one checked."""
    rng = np.random.default_rng(10)
    holos = [random_field(rng, (48, 40)) for _ in range(4)]
    unsplit = [loop_kernel_outputs(dft2(h), h, False, "all") for h in holos]
    got = [None] * 4
    with forced_blocks("on"):
        want = [loop_kernel_outputs(dft2(h), h, False, "all") for h in holos]
        def work(i):
            for _ in range(40):
                got[i] = loop_kernel_outputs(dft2(holos[i]), holos[i], False, "all")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i in range(4):
            assert_loop_outputs(want[i], unsplit[i][0], holos[i], "all")
            assert_loop_outputs(got[i], unsplit[i][0], holos[i], "all")
            assert same_bytes(np.array(got[i][1]), np.array(want[i][1])), i
    assert any(a != b for i in range(4) for a, b in zip(want[i][1], unsplit[i][1]))


def test_a_split_keeps_no_block_alive(monkeypatch):
    """Once a split returns, nothing holds its blocks' arrays: not a helper
    that ran a block, nor a block still queued for a helper that never took
    it off the queue."""
    monkeypatch.setattr(field, "_may_start_helper", True)
    monkeypatch.setattr(field, "_MIN_BLOCK", 1)
    for loop in (None, never_gets):
        with fresh_helpers(loop):
            for _ in range(3):
                data = np.arange(8.0)
                ref = weakref.ref(data)
                field._split_rows(8, 8, lambda block, data=data: data[block].sum())
                del data
                gc.collect()
                assert ref() is None


def test_split_inside_a_block_completes(monkeypatch):
    """A block that splits again, on the caller or on a helper, finishes:
    the thread that offered the inner blocks runs any nobody has claimed."""
    monkeypatch.setattr(field, "_may_start_helper", True)
    monkeypatch.setattr(field, "_MIN_BLOCK", 1)
    monkeypatch.setattr(field, "_HEAD_START", 0)
    covered = []
    lock = threading.Lock()

    def inner(block):
        with lock:
            covered.extend(range(block.start, block.stop))

    def outer(block):
        field._split_rows(block.stop - block.start, block.stop - block.start,
                          lambda part: inner(slice(block.start + part.start, block.start + part.stop)))

    for _ in range(20):
        covered.clear()
        assert finishes(lambda: field._split_rows(8, 8, outer))
        assert sorted(covered) == list(range(8))
