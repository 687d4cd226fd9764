"""Binary PGM (P5) image reading and writing.

Only the binary greyscale flavor is handled: magic ``P5``, ASCII header with
``#`` comments, maxval up to 65535, then raw samples (one byte per pixel, or
two big-endian bytes when maxval > 255). Loads scale samples to magnitudes in
[0, 1]; saves emit 8-bit files with a stated normalization. Parse failures
raise :class:`PgmError` naming the byte offset at fault, so a truncated or
mangled file points at itself.
"""

from __future__ import annotations

import numpy as np

from .targets import TargetImage


class PgmError(ValueError):
    """Malformed PGM input; offset is the byte position of the problem."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"byte {offset}: {message}")
        self.offset = offset


_WHITESPACE = b" \t\n\r\x0b\x0c"


def _skip_separators(data: bytes, pos: int) -> int:
    """Advance past whitespace and # comments (header context only)."""
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            eol = data.find(b"\n", pos)
            if eol < 0:
                return n
            pos = eol + 1
        elif c in _WHITESPACE:
            pos += 1
        else:
            break
    return pos


def _read_token(data: bytes, pos: int, what: str) -> tuple[bytes, int, int]:
    """Return (token, token_start, position_after)."""
    pos = _skip_separators(data, pos)
    if pos >= len(data):
        raise PgmError(len(data), f"unexpected end of header while reading {what}")
    start = pos
    while pos < len(data) and data[pos:pos + 1] not in _WHITESPACE and data[pos] != 0x23:
        pos += 1
    return data[start:pos], start, pos


def _read_int(data: bytes, pos: int, what: str) -> tuple[int, int, int]:
    """Return (value, token_start, position_after)."""
    token, start, after = _read_token(data, pos, what)
    if not token.isdigit():
        raise PgmError(start, f"expected unsigned decimal {what}, got {token[:20]!r}")
    return int(token), start, after


def load_pgm(path) -> TargetImage:
    """Read a binary (P5) PGM file as a magnitude image scaled to [0, 1].

    Raises PgmError, with the byte offset, for: wrong magic (including the
    ASCII ``P2`` flavor), non-numeric or out-of-range header fields
    (maxval must be 1..65535), missing separator after maxval, truncated
    payload, a sample above maxval, or trailing junk beyond the payload.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        got = data[:2].decode("latin-1", "replace")
        raise PgmError(0, f"not a binary PGM: magic {got!r} (only P5 is supported)")
    if len(data) > 2 and data[2:3] not in _WHITESPACE and data[2] != 0x23:
        raise PgmError(2, "magic P5 not followed by whitespace")
    width, width_at, pos = _read_int(data, 2, "width")
    height, height_at, pos = _read_int(data, pos, "height")
    maxval, maxval_at, pos = _read_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PgmError(width_at if width < 1 else height_at,
                       f"image dimensions must be positive, got {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise PgmError(maxval_at, f"maxval must be in 1..65535, got {maxval}")
    if pos >= len(data):
        raise PgmError(len(data), "unexpected end of file after maxval")
    if data[pos:pos + 1] not in _WHITESPACE:
        raise PgmError(pos, "maxval must be followed by a single whitespace byte")
    pos += 1  # exactly one separator, then raw samples

    bytes_per = 2 if maxval > 255 else 1
    need = width * height * bytes_per
    have = len(data) - pos
    if have < need:
        raise PgmError(len(data), f"payload truncated: need {need} sample bytes from byte {pos}, have {have}")
    if have > need:
        raise PgmError(pos + need, f"{have - need} trailing bytes after payload")
    raw = data[pos:pos + need]
    dtype = ">u2" if bytes_per == 2 else np.uint8
    samples = np.frombuffer(raw, dtype=dtype).reshape(height, width)
    over = np.flatnonzero(samples > maxval)
    if over.size:
        first = int(over[0])
        raise PgmError(pos + first * bytes_per, f"sample {samples.flat[first]} exceeds maxval {maxval}")
    return TargetImage(samples.astype(np.float64) / maxval)


LINEAR_MAX = "linear-max"
CLAMP_UNIT = "clamp-unit"


def save_pgm(image, path, normalization: str = LINEAR_MAX) -> None:
    """Write a non-empty 2D array as an 8-bit binary PGM file.

    ``image`` may be a TargetImage, a real array, or a complex field (its
    magnitudes are taken). Normalization maps values onto [0, 1] first:
    ``linear-max`` divides by the grid maximum (an all-zero grid stays all
    zero) and rejects negative values, ``clamp-unit`` clips to [0, 1].
    Values then quantize to 0..255 by round-half-to-even. Output is
    deterministic: header ``P5\\n{w} {h}\\n255\\n`` then raw rows.
    """
    if isinstance(image, TargetImage):
        arr = image.mag
    else:
        arr = np.asarray(image)
        if np.iscomplexobj(arr):
            arr = np.abs(arr)
        arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 2:
        raise ValueError(f"image must be 2D, got {arr.ndim}D")
    height, width = arr.shape
    if not (height and width):
        raise ValueError(f"image dimensions must be positive, got {width}x{height}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("image contains non-finite values")
    if normalization == LINEAR_MAX:
        if arr.min() < 0:
            raise ValueError(f"{LINEAR_MAX} needs non-negative values, got minimum {arr.min()}")
        peak = arr.max()
        unit = arr / peak if peak > 0 else np.zeros_like(arr)
    elif normalization == CLAMP_UNIT:
        unit = np.clip(arr, 0.0, 1.0)
    else:
        raise ValueError(f"unknown normalization {normalization!r}; use {LINEAR_MAX!r} or {CLAMP_UNIT!r}")
    levels = np.rint(unit * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(levels.tobytes())
