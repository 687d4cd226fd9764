"""Spatial light modulator model: allowed pixel values, quantisation, proposals.

Two modulation kinds are supported. Phase schemes hold every pixel at unit
magnitude, with the phase either free (continuous) or restricted to n equally
spaced angles ``2*pi*k/n``; amplitude schemes hold the pixel real in [0, 1],
either free or restricted to n uniform levels ``k/(n-1)``. Quantisation maps an
arbitrary complex value to the nearest allowed value under complex Euclidean
distance, which for phase schemes reduces to keeping the phase (angle rounding)
and for amplitude schemes to clamping the real part.

Level values are produced by a single table per scheme (see
:func:`phase_levels` / :func:`amplitude_levels`) so quantisation, proposals,
and conformance checks agree bit-for-bit.

:func:`quantise` and :func:`change_map` go through :func:`_split_tiles`:
a large grid is split in the two row blocks of ``field._split_rows``, one
tile at a time, with the same bytes as one call; below the split floor it
is that one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import _block_count, _phasors_into, _split_rows

PHASE = "phase"
AMPLITUDE = "amplitude"

# Elements per tile of a split quantise or change_map (64 KiB of float64): a
# block loops over its tiles, so no temporary outgrows one tile.
_TILE = 8192

# Unit-magnitude tolerance for continuous-phase conformance checks: projection
# onto the circle is exact only to the last bit (see is_allowed).
_UNIT_TOL = 4e-16


@dataclass(frozen=True)
class ModulationScheme:
    """What a device pixel is allowed to be.

    kind is "phase" or "amplitude"; levels is the number of discrete values
    (>= 2), or None for a continuous device.
    """

    kind: str
    levels: int | None = None

    def __post_init__(self):
        if self.kind not in (PHASE, AMPLITUDE):
            raise ValueError(f"kind must be {PHASE!r} or {AMPLITUDE!r}, got {self.kind!r}")
        if self.levels is not None:
            if not isinstance(self.levels, (int, np.integer)) or isinstance(self.levels, bool):
                raise ValueError(f"levels must be an integer or None, got {self.levels!r}")
            if self.levels < 2:
                raise ValueError(f"levels must be >= 2, got {self.levels}")
            object.__setattr__(self, "levels", int(self.levels))

    @property
    def name(self) -> str:
        """Canonical command-line name for this scheme."""
        if self.levels == 2:
            return f"binary-{self.kind}"
        if self.levels is None:
            return f"{self.kind}:cont"
        return f"{self.kind}:{self.levels}"

    @property
    def is_real(self) -> bool:
        """True when every allowed value is real: binary phase (+1, -1) and
        every amplitude scheme. The replay of a real aperture is Hermitian."""
        return self.kind == AMPLITUDE or self.levels == 2

    @classmethod
    def from_name(cls, text: str) -> "ModulationScheme":
        """Parse a scheme name.

        Accepted forms: ``binary-phase``, ``binary-amplitude``, ``phase:<n>``,
        ``amplitude:<n>`` (n >= 2), ``phase:cont``, ``amplitude:cont``.
        """
        s = text.strip().lower()
        if s == "binary-phase":
            return cls(PHASE, 2)
        if s == "binary-amplitude":
            return cls(AMPLITUDE, 2)
        kind, sep, arg = s.partition(":")
        if sep and kind in (PHASE, AMPLITUDE):
            if arg == "cont":
                return cls(kind, None)
            try:
                n = int(arg)
            except ValueError:
                n = None
            if n is not None and n >= 2:
                return cls(kind, n)
        raise ValueError(
            f"unrecognized modulation scheme {text!r}; expected binary-phase, "
            f"binary-amplitude, phase:<n>, amplitude:<n>, phase:cont, or amplitude:cont"
        )

    def allowed_values(self) -> np.ndarray:
        """The discrete level table (raises for continuous schemes)."""
        if self.levels is None:
            raise ValueError(f"{self.name} has no finite level table")
        if self.kind == PHASE:
            return phase_levels(self.levels)
        return amplitude_levels(self.levels)


@lru_cache(maxsize=None)
def phase_levels(n: int) -> np.ndarray:
    """Unit-circle level table exp(2j*pi*k/n) for k = 0..n-1.

    Cardinal points (angles 0, pi/2, pi, 3pi/2) are snapped to exact
    1, 1j, -1, -1j so that e.g. the binary table is exactly [1, -1].
    Returned array is shared and read-only.
    """
    k = np.arange(n)
    lv = np.exp(2j * np.pi * k / n)
    cardinal = (4 * k) % n == 0
    lv[cardinal] = np.array([1.0, 1.0j, -1.0, -1.0j])[(4 * k[cardinal]) // n]
    lv.setflags(write=False)
    return lv


@lru_cache(maxsize=None)
def amplitude_levels(n: int) -> np.ndarray:
    """Real level table k/(n-1) for k = 0..n-1. Shared and read-only."""
    lv = np.arange(n) / (n - 1) + 0j
    lv.setflags(write=False)
    return lv


def _split_tiles(fn, *arrays: np.ndarray, dtype) -> np.ndarray:
    """``fn(*arrays)``, for ``fn`` elementwise over same-shape arrays:
    below the split floor the one call; on a split, a new ``dtype`` array
    filled with ``fn``'s result for each flat tile of at most ``_TILE``
    elements, in the blocks of ``field._split_rows``. Tiles cost peak RSS
    (1-2 MiB in a 512^2 A/B run), so a grid under the floor is not tiled."""
    size = arrays[0].size
    if _block_count(size, size) == 1:
        return fn(*arrays)
    out = np.empty(arrays[0].shape, dtype=dtype)
    dst, flats = out.reshape(-1), [a.reshape(-1) for a in arrays]

    def block(rows: slice) -> None:
        for start in range(rows.start, rows.stop, _TILE):
            tile = slice(start, min(start + _TILE, rows.stop))
            dst[tile] = fn(*(a[tile] for a in flats))

    _split_rows(size, size, block)
    return out


def _phase_index(values: np.ndarray, n: int) -> np.ndarray:
    """Nearest phase-level index for each value, exact ties to the lower index.

    Nearest allowed angle means rounding t = angle*n/(2*pi) to an integer; on
    an exact half-integer t the two neighbors are complex-equidistant, and the
    lower (mod n) index wins. Rounding half down, ceil(t - 1/2), gives every
    tie its lower index except the tie of levels n-1 and 0 at t = -1/2, where
    it gives -1; so a -1 from t >= -1/2 becomes 0, which also covers a t just
    above -1/2 whose t - 1/2 rounds to -1. A float value can tie exactly only
    at a multiple of pi/4 (or at zero); for those angles angle/pi is exact, so
    t is formed as angle/pi * (n/2) to land exactly on the half-integer. The
    angle is taken with the real part plus 0.0, which makes a -0.0 real part
    +0.0, so a zero of either sign has angle 0 and goes to level 0.
    """
    flat = values.reshape(-1)
    t = flat.real + 0.0
    np.arctan2(flat.imag, t, out=t)
    t /= np.pi
    t *= n / 2
    k = t - 0.5
    np.ceil(k, out=k)
    k[(k == -1) & (t >= -0.5)] = 0
    k = k.astype(np.intp)
    k %= n
    return k.reshape(np.shape(values))


def _amplitude_index(values: np.ndarray, n: int) -> np.ndarray:
    """Nearest amplitude-level index for clamped real values, ties to lower index."""
    x = np.clip(values.real, 0.0, 1.0).ravel()
    # levels are k/(n-1); half-way points snap down via ceil(t - 1/2)
    k = np.ceil(x * (n - 1) - 0.5)
    return np.clip(k, 0, n - 1).astype(np.intp).reshape(np.shape(values))


def quantise(f, scheme: ModulationScheme) -> np.ndarray:
    """Map every pixel to the nearest allowed value of ``scheme``.

    Nearest is measured by complex Euclidean distance; exact ties between two
    discrete levels go to the lower level index. Amplitude schemes first take
    the real part and clamp it to [0, 1] (the nearest point of the allowed
    segment). The zero pixel has no defined phase and maps to level 0 (+1).

    Returns a new complex128 array of the input's shape; accepts any
    array_like, scalars included (returned as numpy complex128 scalars).
    """
    arr = np.asarray(f, dtype=np.complex128)
    return _split_tiles(lambda x: _nearest(x, scheme), arr, dtype=np.complex128)


def _nearest(arr: np.ndarray, scheme: ModulationScheme) -> np.ndarray:
    """:func:`quantise` of a complex128 array, as one call on this thread."""
    if scheme.kind == PHASE:
        if scheme.levels is None:
            # arctan2 is np.angle's formula; the real part plus 0.0 gives a
            # zero of either sign angle 0, as in _phase_index.
            theta = np.arctan2(arr.imag, arr.real + 0.0)
            z = np.empty(theta.shape, dtype=np.complex128)
            _phasors_into(theta, z)
            return z if z.ndim else z[()]
        return phase_levels(scheme.levels)[_phase_index(arr, scheme.levels)]
    if scheme.levels is None:
        return np.clip(arr.real, 0.0, 1.0) + 0j
    return amplitude_levels(scheme.levels)[_amplitude_index(arr, scheme.levels)]


def change_map(original, quantised) -> np.ndarray:
    """Per-pixel quantisation-change magnitudes |quantised - original|.

    Both arguments must have the same shape. The result is float64 and
    non-negative; it is the sort key for sorted pixel selection.
    """
    a = np.asarray(original, dtype=np.complex128)
    b = np.asarray(quantised, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return _split_tiles(lambda x, y: np.abs(y - x), a, b, dtype=np.float64)


@lru_cache(maxsize=None)
def _other_levels(scheme: ModulationScheme) -> dict[complex, tuple[complex, ...]]:
    """For each level of a discrete scheme, ``table[table != level]``: the
    other entries in table order, as Python complex numbers."""
    table = scheme.allowed_values()
    return {complex(v): tuple(complex(u) for u in table[table != v]) for v in table}


def propose_value(current: complex, scheme: ModulationScheme, rng: np.random.Generator) -> complex:
    """Draw a replacement value for a pixel currently holding an allowed value.

    Discrete schemes return one of the other n-1 table entries uniformly, in
    table order, with exactly one integer draw; a binary scheme needs no
    randomness at all and consumes none. The other entries of each level
    are cached per scheme. Continuous phase draws a uniform angle in
    [0, 2*pi); continuous amplitude draws uniformly in [0, 1); both redraw
    in the measure-zero event of landing within 1e-12 of the current value,
    so the proposal never equals what is already there.
    """
    if scheme.levels is not None:
        others = _other_levels(scheme).get(current)
        if others is None:  # not a level, so every entry is another
            others = tuple(complex(v) for v in scheme.allowed_values())
        if scheme.levels == 2:
            return others[0]
        return others[rng.integers(scheme.levels - 1)]
    if scheme.kind == PHASE:
        while True:
            t = rng.uniform(0.0, 2.0 * np.pi)
            v = complex(math.cos(t), math.sin(t))
            if abs(v - current) > 1e-12:
                return v
    while True:
        v = complex(rng.uniform(0.0, 1.0))
        if abs(v - current) > 1e-12:
            return v


def is_allowed(values, scheme: ModulationScheme) -> bool:
    """True if every value is one the scheme can produce.

    Discrete levels must match the table bit-for-bit. Continuous phase admits
    any value within one last-bit of unit magnitude; continuous amplitude
    admits reals in [0, 1].
    """
    arr = np.asarray(values, dtype=np.complex128)
    if scheme.levels is not None:
        return bool(np.isin(arr, scheme.allowed_values()).all())
    if scheme.kind == PHASE:
        return bool(np.all(np.abs(np.abs(arr) - 1.0) <= _UNIT_TOL))
    return bool(np.all((arr.imag == 0) & (arr.real >= 0.0) & (arr.real <= 1.0)))
