"""Complex-field arithmetic for scalar diffraction.

Fields are dense 2D complex128 arrays of shape ``(height, width)``, indexed
``[y, x]``. The transform pair is unitary: both directions carry the
``1/sqrt(Nx*Ny)`` normalization, so ``idft2(dft2(f)) == f`` up to rounding and
total energy ``sum(|.|^2)`` is preserved in either direction. That same
normalization appears in :func:`delta_update`, which is what keeps
incrementally-maintained replay fields consistent with a from-scratch
transform.
"""

from __future__ import annotations

import math

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


def delta_update(replay: np.ndarray, x: int, y: int, dh: complex) -> np.ndarray:
    """Add the replay-plane effect of changing aperture pixel (x, y) by ``dh``.

    ``replay`` must be the unitary forward transform of the aperture and is
    updated in place:

        replay[v, u] += dh / sqrt(Nx*Ny) * exp(-2j*pi*(u*x/Nx + v*y/Ny))

    which is exactly the transform of a field that is ``dh`` at (x, y) and zero
    elsewhere. Cost is O(Nx*Ny) against O(Nx*Ny*log(Nx*Ny)) for a fresh
    transform.

    Returns
    -------
    numpy.ndarray
        The increment that was added. Rolling back a rejected candidate is
        ``replay -= increment``, which is bit-identical to adding the increment
        recomputed with ``-dh``.

    Raises
    ------
    IndexError
        If (x, y) lies outside the grid. The field must be at least 2x2, as
        produced by :func:`as_field`.
    """
    ny, nx = replay.shape
    if not (0 <= x < nx and 0 <= y < ny):
        raise IndexError(f"pixel ({x}, {y}) outside {nx}x{ny} grid")
    wu = np.exp((-2j * np.pi * x / nx) * np.arange(nx))
    wv = np.exp((-2j * np.pi * y / ny) * np.arange(ny))
    wv *= dh / math.sqrt(nx * ny)
    inc = np.multiply.outer(wv, wu)
    replay += inc
    return inc
