"""Complex-field arithmetic for scalar diffraction.

Fields are dense 2D complex128 arrays of shape ``(height, width)``, indexed
``[y, x]``. The transform pair is unitary: both directions carry the
``1/sqrt(Nx*Ny)`` normalization, so ``idft2(dft2(f)) == f`` up to rounding and
total energy ``sum(|.|^2)`` is preserved in either direction. That same
normalization appears in :func:`delta_update`, which is what keeps
incrementally-maintained replay fields consistent with a from-scratch
transform.

The transform of a real aperture is Hermitian: ``R[v, u]`` is the complex
conjugate of ``R[(-v) % Ny, (-u) % Nx]``. Rows ``0 .. Ny//2``
(:func:`half_rows` of them) therefore determine the whole field, so a search
over a real aperture computes only those rows (``dft2(..., rows=)``, a
real-input FFT), updates only those rows (``delta_update(..., rows=)``) and
mirror-fills the lower rows once, with :func:`fill_mirror`, before it hands
the field back.

:func:`delta_update` computes its increment, an outer product of two twiddle
vectors, as one real matrix product per row tile and returns the move it
added. A search rolls a rejected move back by passing it as the next call's
``undo``, so taking it out costs no pass of its own; :func:`revert` takes
back a move that no later update will.

Large kernels work in contiguous row blocks (:func:`_split_rows`): the
set-up kernels (:func:`unit_phasors`, :func:`dft2`, :func:`idft2`, the
synthetic texture's transform, and through ``slm._split_tiles``
``slm.quantise`` and ``slm.change_map``) and the search loop's two (the
replay update of :func:`delta_update` and :func:`revert`, and the scoring
pass of ``metrics.mse``'s energy form). Each splits into two row blocks
from ``2 * _MIN_BLOCK`` elements and two rows, whose bounds follow the rows
and elements alone, never the core count. The calling thread runs the
first block, and the second too unless the one persistent helper thread
has taken it; when no helper may start, the caller runs both. The update
and the set-up kernels compute every element by the same numpy call on the
same values, so their bytes do not depend on the blocks. The scoring pass
also takes one dot product per block, and the error adds the two in block
order, so its bytes follow the two fixed blocks, never the core count or
the thread that ran a block. Smaller work is one block, run on the calling
thread. The transforms are numpy's own 1-D passes, written through
``out=``, which ``numpy.fft`` takes from numpy 2.0 on.

Whether the helper may start is one flag, ``_may_start_helper``: set from
the process's CPU affinity (more than one core) at import and again in a
forked child, and cleared when a thread fails to start. A candidate's
twiddles are a slice of a per-size table of every position's twiddle row,
for axis lengths up to ``_TWIDDLE_TABLE_MAX``. Tables and tile scratch that
live as long as the process are kept outside the malloc heap
(:func:`_mapped`).
"""

from __future__ import annotations

import contextvars
import math
import mmap
import os
import queue
import threading
from collections.abc import Callable
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

# Elements per block below which a kernel does not split: a kernel over N
# elements in at least two rows runs in two blocks from N = 2 * _MIN_BLOCK,
# and in one below. On a 2-vCPU KVM guest, with the helper thread already
# awake, a split made a search on a 128^2 complex aperture (16k elements)
# about half as fast and one on a 256^2 real aperture's half-plane (33k)
# slower, and one on a 256^2 complex aperture (65k) or a 512^2 half-plane
# (132k) faster; it also shortened the set-up of 256^2 and 512^2 grids.
_MIN_BLOCK = 1 << 15

# Elements the calling thread works through while the helper thread wakes up
# (15-20 us on that guest): the caller's block is larger than the helper's
# by this much, so that the caller seldom waits for the helper.
_HEAD_START = 1 << 14


def _read_cores() -> int:
    """Cores this process may run on, from its CPU affinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_count(rows: int, elements: int) -> int:
    """Blocks :func:`_split_rows` cuts ``rows`` into for work on
    ``elements`` elements: two from two rows and ``2 * _MIN_BLOCK``
    elements, otherwise one."""
    return 2 if rows >= 2 and elements >= 2 * _MIN_BLOCK else 1


class _Job:
    """The second block of a split. Whichever thread takes its lock first
    runs it, the helper or the caller that offered it, and holds the lock
    until the block is done."""

    __slots__ = ("call", "lock", "error")

    def __init__(self, call: Callable[[], None]):
        self.call: Callable[[], None] | None = call
        self.lock = threading.Lock()
        self.error: BaseException | None = None

    def take(self) -> bool:
        """Run the block unless another thread is running it; False if one
        is. The block's own exception is kept for the caller."""
        if not self.lock.acquire(blocking=False):
            return False
        try:
            if self.call is not None:
                self.call()
        except BaseException as exc:  # re-raised on the calling thread
            self.error = exc
        finally:
            self.call = None  # a block that has run keeps none of its arrays alive
            self.lock.release()
        return True


def _forget_helpers() -> None:
    """Start with no helper thread and an empty queue, and set
    ``_may_start_helper`` from this process's own cores: at import, and in a
    forked child, which has none of its parent's threads and may have other
    cores. The flag is the one switch for the helper: true with more than
    one core, cleared when a start fails."""
    global _jobs, _helper, _helper_lock, _may_start_helper
    _jobs = queue.SimpleQueue()
    _helper = None
    _helper_lock = threading.Lock()
    _may_start_helper = _read_cores() > 1


_forget_helpers()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _help(jobs: queue.SimpleQueue) -> None:
    """The helper thread's loop: take each offered block in turn and run it
    if the caller has not. It holds no job while it waits for the next."""
    while True:
        jobs.get().take()


def _offer(job: _Job) -> None:
    """Queue ``job`` for the helper thread, first starting it if there is
    none yet and ``_may_start_helper`` allows it. A failed start clears the
    flag, so no start is tried again until a fork resets it; with no helper
    nothing is queued, and the caller runs the block."""
    global _helper, _may_start_helper
    if _helper is None and _may_start_helper:
        with _helper_lock:
            if _helper is None and _may_start_helper:
                thread = threading.Thread(target=_help, args=(_jobs,), daemon=True)
                try:
                    thread.start()
                    _helper = thread
                except RuntimeError:  # no thread to spare
                    _may_start_helper = False
    if _helper is not None:
        _jobs.put(job)


def _split_rows(rows: int, elements: int, fn: Callable[[slice], None]) -> None:
    """Call ``fn(block)`` for contiguous slices that cover ``range(rows)``.

    Below :func:`_block_count`'s floor this is the one call ``fn(slice(0,
    rows))``. Otherwise there are two blocks, the first ``_HEAD_START``
    elements larger than the second (each keeps at least one row), so the
    bounds follow ``rows`` and ``elements`` alone. The second is offered to
    the persistent daemon helper thread, started on the first split that
    needs it. The calling thread runs the first block, then the second if
    the helper has not claimed it yet, and waits only for a block the helper
    is running, so a busy or absent helper costs about a run on one thread,
    and a split inside a block cannot deadlock. The offered block runs in a
    copy of the caller's context (so numpy's error state carries over).
    Both blocks have run when this returns, and the first block's exception,
    or else the second's, is re-raised here.

    ``fn`` must write its results into arrays the caller allocated (numpy
    releases the interpreter lock there, so blocks run in parallel), keep its
    temporaries to a tile, and call only numpy and this module's tile
    helpers: no function that splits work itself and nothing a profiler may
    have wrapped.
    """
    if _block_count(rows, elements) == 1:
        fn(slice(0, rows))
        return
    head = min(rows - 2, rows * _HEAD_START // elements)
    mid = head + (rows - head) // 2
    job = _Job(partial(contextvars.copy_context().run, fn, slice(mid, rows)))
    _offer(job)
    first = None
    try:
        fn(slice(0, mid))
    except BaseException as exc:  # re-raised once both blocks have run
        first = exc
    if not job.take():
        with job.lock:  # the helper is running it
            pass
    error = first if first is not None else job.error
    if error is not None:
        raise error


def as_field(data) -> np.ndarray:
    """Coerce ``data`` to a C-contiguous complex128 field array.

    Parameters
    ----------
    data : array_like
        Anything numpy can turn into a 2D array.

    Returns
    -------
    numpy.ndarray
        complex128 array of shape (height, width).

    Raises
    ------
    ValueError
        If the result is not 2D or either side is smaller than 2. Grids whose
        element count exceeds the platform's addressable size fail inside
        numpy at allocation, i.e. still at construction time.
    """
    arr = np.ascontiguousarray(data, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"field must be 2D, got {arr.ndim}D")
    if arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ValueError(f"field must be at least 2x2, got {arr.shape[0]}x{arr.shape[1]}")
    return arr


def unit_phasors(theta) -> np.ndarray:
    """``exp(1j*theta)`` for an array of real angles, as a new complex128
    array of theta's shape, written as ``cos(theta) + 1j*sin(theta)``.

    The cosine and sine go straight into the real and imaginary parts, which
    skips the complex exponential's own arithmetic (about a third faster at
    1M angles). A -0.0 angle gives +0.0 imaginary part, as ``1j*theta`` folds
    it. With numpy's complex ``exp`` built on the same ``cos`` and ``sin``,
    the result equals ``np.exp(1j*theta)`` bit for bit for every finite
    angle; that holds per numpy build and is pinned by a test there. As from
    ``np.exp``, a scalar angle gives a numpy scalar.
    """
    theta = np.asarray(theta)
    z = np.empty(theta.shape, dtype=np.complex128)
    src, dst = theta.reshape(-1), z.reshape(-1)
    _split_rows(src.size, src.size, lambda block: _phasors_into(src[block], dst[block]))
    return z if z.ndim else z[()]


def _phasors_into(theta: np.ndarray, z: np.ndarray) -> None:
    """Write :func:`unit_phasors` of ``theta`` into ``z``, on this thread."""
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    z.imag += 0.0


def dft2(f, rows: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Unitary forward 2D DFT of a field (aperture plane -> replay plane).

    With ``rows`` given, the field must be real and only the leading
    ``rows`` rows of its transform are returned, ``1 <= rows <=
    half_rows(height)``. They come from a real-input FFT down the columns,
    which computes rows ``0 .. height//2`` in about half the time of the
    whole transform; they equal the whole transform's to rounding.

    ``out``, a complex128 array of the result's shape (the leading rows of
    a taller one will do), takes the last pass's result and is returned,
    with the bytes of the call without it.

    Raises
    ------
    ValueError
        If ``rows`` is given and the field has a nonzero imaginary part, or
        ``rows`` is outside that range.
    """
    field = as_field(f)
    if rows is None:
        return _fft2(np.fft.fft, field, out)
    ny, nx = field.shape
    if not 1 <= rows <= half_rows(ny):
        raise ValueError(f"rows must be 1 .. {half_rows(ny)}, got {rows}")
    if field.imag.any():
        raise ValueError("the leading rows alone are computed only for a real field")
    # rfftn(axes=(1, 0))'s passes: a real FFT down the columns, then an FFT
    # along the rows, of which only the leading ones are kept.
    columns = np.empty((half_rows(ny), nx), dtype=np.complex128)
    _fft_pass(np.fft.rfft, field.real, columns, 0, field.size, norm="ortho")
    if out is None:
        out = np.empty((rows, nx), dtype=np.complex128)
    _fft_pass(np.fft.fft, columns[:rows], out, 1, field.size, norm="ortho")
    return out


def idft2(f) -> np.ndarray:
    """Unitary inverse 2D DFT of a field (replay plane -> aperture plane)."""
    return _fft2(np.fft.ifft, as_field(f))


def _fft2(transform, field: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``fft2``/``ifft2`` (as ``transform``) of a field, unitary, in numpy's
    own two passes: along the rows, then down the columns, into ``out`` (a
    new array when None). Each pass's result is allocated after the pass
    before, as numpy allocates them: the order of multi-MiB allocations
    decides how many fresh pages the set-up touches. In one block these are
    the calls numpy's ``fft2``/``ifft2`` make, so the bytes are theirs."""
    rows = np.empty_like(field)
    _fft_pass(transform, field, rows, 1, field.size, norm="ortho")
    if out is None:
        out = np.empty_like(field)
    _fft_pass(transform, rows, out, 0, field.size, norm="ortho")
    return out


def _fft_pass(transform, src: np.ndarray, out: np.ndarray, axis: int, elements: int, **kwargs) -> None:
    """``transform(src, axis=axis, out=out, **kwargs)`` for 2D arrays, in
    blocks of the other axis (:func:`_split_rows`, sized by ``elements``).

    numpy transforms each line along ``axis`` by itself, so the blocks give
    the bytes of one call. Before a split, the plan for the line length is
    made on this thread: numpy's pocketfft is built single-threaded and
    keeps its plans in a cache without a lock, so the blocks must only read
    it. Every transform, split or not, passes ``out=``, which ``numpy.fft``
    takes from numpy 2.0 on.
    """
    lines = src.shape[1 - axis]
    if _block_count(lines, elements) > 1:
        transform(np.zeros(src.shape[axis], dtype=src.dtype), **kwargs)

    def block(part: slice) -> None:
        index = (slice(None), part) if axis == 0 else (part, slice(None))
        transform(src[index], axis=axis, out=out[index], **kwargs)

    _split_rows(lines, elements, block)


def half_rows(height: int) -> int:
    """Number of leading rows, ``height//2 + 1``, that determine a Hermitian
    field of that height: every later row is the point reflection of one of
    rows ``1 .. height//2``."""
    return height // 2 + 1


def reflect(src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the point reflection of ``src`` through the DFT origin into
    ``out`` and return it: ``out[v, u] = src[(-v) % Ny, (-u) % Nx]`` for
    ``src`` of shape ``(Ny, Nx)``, over the leading rows and columns that
    ``out`` has (at most ``Ny`` and ``Nx``). Row and column 0 map to
    themselves, row v to row Ny - v and column u to column Nx - u: four
    slice copies, with no temporaries."""
    rows, cols = out.shape
    out[0, 0] = src[0, 0]
    out[0, 1:] = src[0, :0:-1][:cols - 1]
    out[1:, 0] = src[:0:-1, 0][:rows - 1]
    out[1:, 1:] = src[:0:-1, :0:-1][:rows - 1, :cols - 1]
    return out


def fill_mirror(replay: np.ndarray, rows: int) -> None:
    """Complete a Hermitian field in place from its first ``rows`` rows.

    Sets ``replay[v, u] = conj(replay[(Ny - v) % Ny, (Nx - u) % Nx])`` for
    ``v = rows .. Ny-1``. ``rows`` must be at least :func:`half_rows`, so the
    source rows (``1 .. Ny-rows``) and the filled rows never overlap.
    """
    ny = replay.shape[0]
    src = replay[ny - rows:0:-1]
    np.conjugate(src[:, :1], out=replay[rows:, :1])
    np.conjugate(src[:, :0:-1], out=replay[rows:, 1:])


def _mapped(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A new zeroed array in its own anonymous mapping, for scratch and tables
    that live as long as the process (:func:`_roots`,
    :func:`_twiddle_table`, :func:`_tile`). Kept out of the malloc heap, a
    long-lived block cannot sit among a search's freed multi-MiB
    temporaries and keep the heap from shrinking (under glibc malloc one
    raised the peak RSS of a 1024^2 render by 8 MiB)."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * dtype.itemsize), dtype=dtype).reshape(shape)


@lru_cache(maxsize=None)
def _roots(n: int) -> np.ndarray:
    """Table of exp(-2j*pi*k/n) for k = 0..n-1. Shared, read-only and
    :func:`_mapped`."""
    w = _mapped((n,), np.complex128)
    np.exp((-2j * np.pi / n) * np.arange(n), out=w)
    w.setflags(write=False)
    return w


# Largest axis length n whose twiddles come from :func:`_twiddle_table`, of
# 16 n^2 bytes: 1 MiB at 256. A 512 table would add 4 MiB (+6%) to the 66 MiB
# peak RSS of a 512^2 binary A/B run, whose twiddles are a small part of a
# candidate; above the cap each call gathers its own.
_TWIDDLE_TABLE_MAX = 256


@lru_cache(maxsize=None)
def _twiddle_table(n: int) -> np.ndarray:
    """Table ``T[pos, k] = _roots(n)[(pos*k) % n]`` of every position's
    twiddle row, for pos, k = 0..n-1. Shared, read-only and
    :func:`_mapped`."""
    table = _mapped((n, n), np.complex128)
    k = np.arange(n)
    np.take(_roots(n), np.multiply.outer(k, k) % n, out=table)
    table.setflags(write=False)
    return table


def _twiddles(pos: int, n: int, count: int) -> np.ndarray:
    """exp(-2j*pi*pos*k/n) for k = 0..count-1 (count <= n), read from the
    roots table as ``W[(pos*k) % n]`` so the angle never grows with k. Up to
    ``_TWIDDLE_TABLE_MAX`` this is a read-only slice of
    :func:`_twiddle_table`, which holds the same values bit for bit; above
    it, a new array gathered from :func:`_roots`."""
    if n <= _TWIDDLE_TABLE_MAX:
        return _twiddle_table(n)[pos, :count]
    return _roots(n)[(pos * np.arange(count)) % n]


# Bytes of increment computed per row tile: small enough that a tile is still
# in L2 when it is added to the replay. On one thread, 512 KiB tiles made the
# product at 256^2 to 1024^2 as fast as 256 KiB ones or up to 12% faster, and
# 1 MiB ones (a split 512^2 half-plane block in one product) up to 30% slower.
_TILE_BYTES = 512 * 1024


class _Scratch(threading.local):
    """Per-thread tile scratch, by width (see :func:`_tile`)."""

    def __init__(self):
        self.tiles: dict[int, np.ndarray] = {}


_scratch = _Scratch()


def _tile(width: int) -> np.ndarray:
    """Scratch for one row tile of a real-view increment ``width`` floats
    wide: :func:`_tile_rows` rows, and half as many again that
    :func:`_add_rows` may merge in, :func:`_mapped`. Each thread has its
    own, so blocks and searches that run on different threads never share
    one."""
    tile = _scratch.tiles.get(width)
    if tile is None:
        step = _tile_rows(width)
        tile = _mapped((step + step // 2, width), np.float64)
        _scratch.tiles[width] = tile
    return tile


def _tile_rows(width: int) -> int:
    """Rows of a ``_TILE_BYTES`` tile ``width`` floats wide, at least two."""
    return max(2, _TILE_BYTES // (8 * width))


class Move(NamedTuple):
    """The increment of one :func:`delta_update` as its two factors:
    ``increment[v, u] = p[v] * w[0, u]`` over the rows the update touched.
    ``w[1]`` is ``1j * w[0]``, so that the float64 views multiply to the
    float64 view of the increment (see :func:`_add_product`)."""

    p: np.ndarray
    w: np.ndarray


def _add_product(replay: np.ndarray, p: np.ndarray, w: np.ndarray) -> None:
    """``replay[:rows] += sum_j outer(p[:, j], w[2*j])`` for complex p of shape
    (rows, m) and w of shape (2m, Nx) whose odd rows are 1j times the even ones.

    In float64 views this is one real matmul, ``(rows x 2m) @ (2m x 2Nx)``:
    with ``p = a + ib`` and ``w[2j] = c + id``, row ``[a, b]`` times the
    columns ``[c, -d]`` and ``[d, c]`` gives ``ac - bd`` and ``ad + bc``, the
    real and imaginary parts of the product, in the row blocks of
    :func:`_split_rows`.
    """
    rows = p.shape[0]
    pf = p.view(np.float64)
    if rows == 1:
        # numpy sends a one-row product to gemv, which rounds differently
        # from gemm; two rows keep rows=1 bit-identical to a full update.
        pf = np.concatenate((pf, pf))
    wf = w.view(np.float64)
    rf = replay.view(np.float64)
    _split_rows(rows, rows * replay.shape[1], lambda part: _add_rows(rf, pf, wf, part.start, part.stop))


def _add_rows(rf: np.ndarray, pf: np.ndarray, wf: np.ndarray, start: int, stop: int) -> None:
    """``rf[start:stop] += pf[start:stop] @ wf``, the float64 views of
    :func:`_add_product`: the matmul writes one row tile at a time into this
    thread's scratch, which stays in cache until it is added."""
    buf = _tile(wf.shape[1])
    step = _tile_rows(wf.shape[1])
    r0 = start
    while r0 < stop:
        # Last rows that would make at most half a tile join the tile before
        # them, for fewer and fuller products; a tile of one row is
        # multiplied with a neighbouring row, to keep it out of gemv.
        r1 = stop if stop - r0 <= step + step // 2 else r0 + step
        lo = min(r0, pf.shape[0] - 2)
        hi = max(r1, lo + 2)
        out = buf[:hi - lo]
        np.matmul(pf[lo:hi], wf, out=out)
        rf[r0:r1] += out[r0 - lo:r1 - lo]
        r0 = r1


def delta_update(replay: np.ndarray, x: int, y: int, dh: complex, rows: int | None = None,
                 undo: Move | None = None) -> Move:
    """Add the replay-plane effect of changing aperture pixel (x, y) by ``dh``.

    ``replay`` must be the unitary forward transform of the aperture and is
    updated in place:

        replay[v, u] += dh / sqrt(Nx*Ny) * exp(-2j*pi*(u*x/Nx + v*y/Ny))

    which is exactly the transform of a field that is ``dh`` at (x, y) and zero
    elsewhere. Cost is O(Nx*Ny) against O(Nx*Ny*log(Nx*Ny)) for a fresh
    transform. The twiddles come from cached tables of the Nx-th and Ny-th
    roots of unity (:func:`_twiddles`), and the increment is computed and
    added one row tile at a time (:func:`_add_product`), so it never exists
    as a grid-sized array. A large update splits its rows in two blocks,
    with the bytes of one. Calls on different replays may run on different
    threads at once: each thread multiplies into its own scratch. One
    replay must not be updated from two threads at once.

    With ``rows`` given, only rows ``0 .. rows-1`` are updated and the other
    rows are left untouched; a Hermitian field needs no more than
    :func:`half_rows`. None updates every row.

    ``undo`` takes back an earlier move in the same pass: the move this
    function returned for a rejected candidate, over the same rows. A search
    rolls a rejected candidate back this way, inside the next candidate's
    update, and takes back one still pending at its end with :func:`revert`.

    Returns
    -------
    Move
        The move just added, to pass as a later call's ``undo`` or to
        :func:`revert`. Taking a move back is not bit-exact: ``R + inc - inc``
        rounds.

    Raises
    ------
    IndexError
        If (x, y) lies outside the grid. The field must be at least 2x2, as
        produced by :func:`as_field`.
    ValueError
        If ``undo`` covers a different number of rows.
    """
    ny, nx = replay.shape
    if not (0 <= x < nx and 0 <= y < ny):
        raise IndexError(f"pixel ({x}, {y}) outside {nx}x{ny} grid")
    if rows is None:
        rows = ny
    m = 1 if undo is None else 2
    p = np.empty((rows, m), dtype=np.complex128)
    w = np.empty((2 * m, nx), dtype=np.complex128)
    w[0] = _twiddles(x, nx, nx)
    np.multiply(w[0], 1j, out=w[1])
    np.multiply(_twiddles(y, ny, rows), dh / math.sqrt(nx * ny), out=p[:, 0])
    if undo is not None:
        if undo.p.shape[0] != rows:
            raise ValueError(f"undo covers {undo.p.shape[0]} rows, this update {rows}")
        np.negative(undo.p, out=p[:, 1])
        w[2:] = undo.w
    _add_product(replay, p, w)
    return Move(p[:, 0], w[:2])


def revert(replay: np.ndarray, move: Move) -> None:
    """Take ``move`` back out of ``replay``: the rows it touched lose its
    increment again, to rounding."""
    _add_product(replay, -move.p[:, None], move.w)
