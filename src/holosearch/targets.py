"""Target images: the magnitude patterns a search tries to reproduce.

A target is a non-negative real 2D array. Before a search it is
energy-normalized so the total power ``sum(mag^2)`` equals the pixel count;
with a unitary transform pair, that puts targets on the same energy scale as a
unit-magnitude modulator aperture, so error values are comparable across
resolutions and images.

Two deterministic synthetic targets are built in: a textured stand-in with a
natural-image-like falling amplitude spectrum, and a three-bar resolution
chart. Both depend only on the requested size.

The texture's inverse transform is ``irfft2``'s two passes, which a large
texture splits into the two row blocks of ``field._split_rows``; its bytes
do not depend on the number of blocks. The rescale after it runs as one
block on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import _fft_pass, half_rows, unit_phasors

# Fixed generator seed for the synthetic texture; part of what makes builtin
# targets byte-identical run to run on one numpy build and CPU. Across builds
# and CPUs numpy's SIMD ``**`` may round differently in the last bit, so the
# texture agrees there only to oracle tolerance.
_TEXTURE_SEED = 8062436
SYNTHETIC_MANDRILL = "synthetic-mandrill"
SYNTHETIC_BARS = "synthetic-bars"
SYNTHETIC_NAMES = (SYNTHETIC_MANDRILL, SYNTHETIC_BARS)


@dataclass(frozen=True)
class TargetImage:
    """Immutable wrapper around a validated magnitude pattern."""

    mag: np.ndarray

    def __post_init__(self):
        arr = np.array(self.mag, dtype=np.float64, order="C")
        if arr.ndim != 2:
            raise ValueError(f"target must be 2D, got {arr.ndim}D")
        if arr.shape[0] < 2 or arr.shape[1] < 2:
            raise ValueError(f"target must be at least 2x2, got {arr.shape[0]}x{arr.shape[1]}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("target contains non-finite values")
        if np.any(arr < 0):
            raise ValueError("target magnitudes must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "mag", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.mag.shape

    @property
    def height(self) -> int:
        return self.mag.shape[0]

    @property
    def width(self) -> int:
        return self.mag.shape[1]

    @property
    def energy(self) -> float:
        flat = self.mag.ravel()
        return float(flat @ flat)


def normalize_energy(img: TargetImage) -> TargetImage:
    """Scale so total power equals the pixel count: sum(mag^2) == Nx*Ny.

    Raises ValueError on an all-zero image (no finite scale exists).
    """
    e = img.energy
    if e == 0.0:
        raise ValueError("cannot energy-normalize an all-zero target")
    return TargetImage(img.mag * np.sqrt(img.mag.size / e))


def induce_symmetry(img: TargetImage) -> TargetImage:
    """Pointwise max of the image and its reflection through the DFT origin,
    which maps pixel (v, u) to ((-v) mod height, (-u) mod width).

    The result equals its own reflection, which matters for real apertures
    (binary phase and every amplitude scheme): their replay fields are
    conjugate-symmetric about the origin, so only targets with this symmetry
    are reachable. Idempotent; never darkens a pixel.
    """
    return TargetImage(np.maximum(img.mag, np.roll(img.mag[::-1, ::-1], 1, axis=(0, 1))))


def resample_nearest(img: TargetImage, height: int, width: int) -> TargetImage:
    """Nearest-neighbor resample to (height, width).

    Source pixel for output index i along an axis is ``i * src // dst``
    (exact integer arithmetic): replication on integer upscale, top-left
    block pixel on integer downscale. Same-size input is returned unchanged.
    """
    if height < 2 or width < 2:
        raise ValueError(f"resample size must be at least 2x2, got {height}x{width}")
    if (height, width) == img.shape:
        return img
    ys = np.arange(height) * img.height // height
    xs = np.arange(width) * img.width // width
    return TargetImage(img.mag[np.ix_(ys, xs)])


def synthetic_mandrill(size: int) -> TargetImage:
    """Deterministic textured target with natural-photograph statistics.

    Spectral synthesis: a random-phase spectrum with amplitude ~ 1/f**1.2
    (the falling spectrum of natural scenes), inverse-transformed, min-max
    scaled, given a mild contrast stretch so shadows and highlights actually
    saturate, then decoded from display gamma (2.2) to linear magnitudes.
    Spans fine detail, smooth regions, and a photograph-like intensity
    histogram without shipping a photograph.
    """
    if size < 2:
        raise ValueError(f"size must be >= 2, got {size}")
    rng = np.random.default_rng(np.random.SeedSequence(_TEXTURE_SEED))
    # The texture is Re(ifft2(S)) for the spectrum S = amp * phasors, that
    # is the inverse real transform of S's Hermitian part
    # H[v, u] = (S[v, u] + conj(S[-v, -u])) / 2, of which only columns
    # 0 .. size//2 are formed. amp[-v, -u] == amp[v, u]: fftfreq is exactly
    # antisymmetric, f[size - k] == -f[k], and hypot ignores signs. So amp is
    # computed on rows and columns 0 .. size//2, mirrored into the other
    # rows, and carries the 1/2.
    h = half_rows(size)
    fq = np.fft.fftfreq(size)[:h]
    amp = np.empty((size, h))
    amp[:h] = (np.hypot(fq[:, None], fq[None, :]) + 1.0 / size) ** -1.2
    amp[h:] = amp[size - h:0:-1]
    amp[0, 0] = 0.0  # flat offset added back by the [0, 1] rescale
    amp *= 0.5
    phasors = unit_phasors(2 * np.pi * rng.random((size, size)))
    # Point reflection of columns 0 .. h-1: row 0 maps to itself, row v to
    # row size - v; column 0 maps to itself, column u to column size - u.
    herm = np.empty((size, h), dtype=np.complex128)
    herm[0, 0] = phasors[0, 0]
    herm[0, 1:] = phasors[0, size - 1:size - h:-1]
    herm[1:, 0] = phasors[:0:-1, 0]
    herm[1:, 1:] = phasors[:0:-1, size - 1:size - h:-1]
    np.conjugate(herm, out=herm)
    herm += phasors[:, :h]
    herm *= amp
    # irfft2's passes: an inverse FFT down the columns, then an inverse real
    # FFT along the rows.
    columns = np.empty_like(herm)
    _fft_pass(np.fft.ifft, herm, columns, 0, size * size)
    tex = np.empty((size, size))
    _fft_pass(np.fft.irfft, columns, tex, 1, size * size, n=size)
    # Freed here, as irfft2 frees it: kept alive through the rescale, it
    # made repeated 256^2 and 512^2 textures 3-5% slower.
    del columns
    # (tex - lo) / span, then clip(1.3 * (tex - 0.5) + 0.5, 0, 1) ** 2.2
    lo = tex.min()
    span = tex.max() - lo
    tex -= lo
    tex /= span
    tex -= 0.5
    tex *= 1.3
    tex += 0.5
    np.clip(tex, 0.0, 1.0, out=tex)
    np.power(tex, 2.2, out=tex)
    return TargetImage(tex)


def synthetic_bars(size: int) -> TargetImage:
    """Deterministic resolution chart: paired three-bar groups at halving scales.

    Bright bars (1.0) on a dark field, one vertical and one horizontal group
    per scale, laid out along the diagonal like a bar-target chart. Purely
    arithmetic; no randomness.
    """
    if size < 2:
        raise ValueError(f"size must be >= 2, got {size}")
    img = np.zeros((size, size))
    w = max(size // 16, 1)  # finest chart: bar width, halved each group
    oy = ox = max(size // 32, 1)
    while w >= 1 and oy + 5 * w <= size:
        length = 5 * w
        for k in range(3):  # vertical bars
            x0 = ox + 2 * k * w
            if x0 + w <= size:
                img[oy:oy + length, x0:x0 + w] = 1.0
        hy = oy + length + w
        for k in range(3):  # horizontal bars
            y0 = hy + 2 * k * w
            if y0 + w <= size and ox + length <= size:
                img[y0:y0 + w, ox:ox + length] = 1.0
        step = length + 6 * w
        oy += step
        ox += step
        w //= 2
    if not img.any():  # grids too small for the layout still get a pattern
        img[: size // 2, : max(size // 4, 1)] = 1.0
    return TargetImage(img)


def synthetic_target(name: str, size: int) -> TargetImage:
    """Look up a builtin synthetic target by name."""
    if name == SYNTHETIC_MANDRILL:
        return synthetic_mandrill(size)
    if name == SYNTHETIC_BARS:
        return synthetic_bars(size)
    raise ValueError(f"unknown synthetic target {name!r}; builtins: {', '.join(SYNTHETIC_NAMES)}")
