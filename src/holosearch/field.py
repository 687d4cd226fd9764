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
over a real aperture updates only those rows (``delta_update(..., rows=)``)
and mirror-fills the lower rows once, with :func:`fill_mirror`, before it
hands the field back.
"""

from __future__ import annotations

import math
import mmap
from functools import lru_cache

import numpy as np


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


def dft2(f) -> np.ndarray:
    """Unitary forward 2D DFT of a field (aperture plane -> replay plane)."""
    return np.fft.fft2(as_field(f), norm="ortho")


def idft2(f) -> np.ndarray:
    """Unitary inverse 2D DFT of a field (replay plane -> aperture plane)."""
    return np.fft.ifft2(as_field(f), norm="ortho")


def half_rows(height: int) -> int:
    """Number of leading rows, ``height//2 + 1``, that determine a Hermitian
    field of that height: every later row is the point reflection of one of
    rows ``1 .. height//2``."""
    return height // 2 + 1


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


@lru_cache(maxsize=None)
def _roots(n: int) -> np.ndarray:
    """Table of exp(-2j*pi*k/n) for k = 0..n-1. Shared and read-only.

    The table lives for the whole process, so it is kept in its own anonymous
    mapping rather than in the malloc heap: a long-lived block there, placed
    among a search's freed multi-MiB temporaries, keeps the heap from
    shrinking (under glibc malloc it raised the peak RSS of a 1024^2 render
    by 8 MiB).
    """
    w = np.frombuffer(mmap.mmap(-1, 16 * n), dtype=np.complex128)
    np.exp((-2j * np.pi / n) * np.arange(n), out=w)
    w.setflags(write=False)
    return w


def _twiddles(pos: int, n: int, count: int) -> np.ndarray:
    """exp(-2j*pi*pos*k/n) for k = 0..count-1, read from the roots table as
    ``W[(pos*k) % n]`` so the angle never grows with k."""
    return _roots(n)[(pos * np.arange(count)) % n]


def delta_update(replay: np.ndarray, x: int, y: int, dh: complex, rows: int | None = None) -> np.ndarray:
    """Add the replay-plane effect of changing aperture pixel (x, y) by ``dh``.

    ``replay`` must be the unitary forward transform of the aperture and is
    updated in place:

        replay[v, u] += dh / sqrt(Nx*Ny) * exp(-2j*pi*(u*x/Nx + v*y/Ny))

    which is exactly the transform of a field that is ``dh`` at (x, y) and zero
    elsewhere. Cost is O(Nx*Ny) against O(Nx*Ny*log(Nx*Ny)) for a fresh
    transform. The twiddles come from a cached table of the Nx-th and Ny-th
    roots of unity.

    With ``rows`` given, only rows ``0 .. rows-1`` are updated and the other
    rows are left untouched; a Hermitian field needs no more than
    :func:`half_rows`. None updates every row.

    Returns
    -------
    numpy.ndarray
        The increment that was added, of shape (rows, Nx). Rolling back a
        rejected candidate is ``replay[:rows] -= increment``, which is
        bit-identical to adding the increment recomputed with ``-dh``.

    Raises
    ------
    IndexError
        If (x, y) lies outside the grid. The field must be at least 2x2, as
        produced by :func:`as_field`.
    """
    ny, nx = replay.shape
    if not (0 <= x < nx and 0 <= y < ny):
        raise IndexError(f"pixel ({x}, {y}) outside {nx}x{ny} grid")
    if rows is None:
        rows = ny
    wu = _twiddles(x, nx, nx)
    wv = _twiddles(y, ny, rows)
    wv *= dh / math.sqrt(nx * ny)
    inc = np.multiply.outer(wv, wu)
    replay[:rows] += inc
    return inc
