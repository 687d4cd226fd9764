"""Byte-level tests of the binary PGM reader and writer."""

import numpy as np
import pytest

from holosearch.pgm import LINEAR_MAX, CLAMP_UNIT, PgmError, load_pgm, save_pgm
from holosearch.targets import TargetImage


def write_bytes(tmp_path, data, name="img.pgm"):
    p = tmp_path / name
    p.write_bytes(data)
    return p


# ---------------------------------------------------------------------- load


def test_load_basic_2x2(tmp_path):
    p = write_bytes(tmp_path, b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    img = load_pgm(p)
    assert img.shape == (2, 2)
    expect = np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
    assert np.array_equal(img.mag, expect)


def test_load_16bit_big_endian(tmp_path):
    payload = (65535).to_bytes(2, "big") + (0).to_bytes(2, "big") \
        + (256).to_bytes(2, "big") + (1).to_bytes(2, "big")
    p = write_bytes(tmp_path, b"P5\n2 2\n65535\n" + payload)
    img = load_pgm(p)
    assert img.mag[0, 0] == 1.0
    assert img.mag[0, 1] == 0.0
    assert img.mag[1, 0] == 256 / 65535
    assert img.mag[1, 1] == 1 / 65535


def test_load_header_comments_and_whitespace(tmp_path):
    data = b"P5 # magic\n# a comment line\n  2\t2 # dims\n# more\n255\n" \
        + bytes([10, 20, 30, 40])
    img = load_pgm(write_bytes(tmp_path, data))
    assert img.shape == (2, 2)
    assert img.mag[0, 1] == 20 / 255


def test_load_wrong_magic_offset_zero(tmp_path):
    p = write_bytes(tmp_path, b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(PgmError) as ei:
        load_pgm(p)
    assert ei.value.offset == 0
    assert "P2" in str(ei.value) or "magic" in str(ei.value).lower()


def test_load_non_numeric_dimension(tmp_path):
    p = write_bytes(tmp_path, b"P5\nxx 2\n255\n" + bytes(4))
    with pytest.raises(PgmError) as ei:
        load_pgm(p)
    assert ei.value.offset == 3


@pytest.mark.parametrize("maxval", [b"0", b"70000"])
def test_load_maxval_out_of_range(tmp_path, maxval):
    p = write_bytes(tmp_path, b"P5\n2 2\n" + maxval + b"\n" + bytes(8))
    with pytest.raises(PgmError) as ei:
        load_pgm(p)
    assert ei.value.offset == 7  # maxval token starts after "P5\n2 2\n"


def test_load_truncated_payload(tmp_path):
    data = b"P5\n2 2\n255\n" + bytes([1, 2, 3])  # one sample short
    p = write_bytes(tmp_path, data)
    with pytest.raises(PgmError) as ei:
        load_pgm(p)
    assert ei.value.offset == len(data)


def test_load_trailing_bytes(tmp_path):
    data = b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4, 5])
    p = write_bytes(tmp_path, data)
    with pytest.raises(PgmError) as ei:
        load_pgm(p)
    assert ei.value.offset == len(data) - 1


def test_load_empty_file(tmp_path):
    with pytest.raises(PgmError) as ei:
        load_pgm(write_bytes(tmp_path, b""))
    assert ei.value.offset == 0


@pytest.mark.parametrize("data, offset, message", [
    (b"P5x2 2\n255\n" + bytes(4), 2, "magic P5 not followed by whitespace"),
    (b"P5\n0 2\n255\n", 3, "image dimensions must be positive, got 0x2"),
    (b"P5\n2 0\n255\n", 5, "image dimensions must be positive, got 2x0"),
    (b"P5 2", 4, "unexpected end of header while reading height"),
    (b"P5 # no newline", 15, "unexpected end of header while reading width"),
    (b"P5 2 2 255", 10, "unexpected end of file after maxval"),
    # with the '#' taken as the separator the payload would be exactly 4 bytes
    (b"P5 2 2 255#c" + bytes(3), 10, "maxval must be followed by a single whitespace byte"),
], ids=["magic-then-x", "zero-width", "zero-height", "ends-in-header", "comment-to-eof",
        "ends-after-maxval", "comment-after-maxval"])
def test_load_header_faults_name_their_byte(tmp_path, data, offset, message):
    with pytest.raises(PgmError) as ei:
        load_pgm(write_bytes(tmp_path, data))
    assert ei.value.offset == offset
    assert str(ei.value) == f"byte {offset}: {message}"


@pytest.mark.parametrize("data, offset, message", [
    (b"P5\n2 2\n100\n" + bytes([0x00, 0x32, 0x64, 0xC8]), 14, "sample 200 exceeds maxval 100"),
    (b"P5\n2 2\n300\n" + bytes([0x00, 0x05, 0x01, 0x2D, 0x01, 0x2C, 0xFF, 0xFF]), 13,
     "sample 301 exceeds maxval 300"),
], ids=["one-byte", "two-byte"])
def test_load_sample_above_maxval_names_its_byte(tmp_path, data, offset, message):
    """Samples above maxval would load as magnitudes above 1."""
    with pytest.raises(PgmError) as ei:
        load_pgm(write_bytes(tmp_path, data))
    assert ei.value.offset == offset
    assert str(ei.value) == f"byte {offset}: {message}"


def test_load_samples_at_maxval_are_one(tmp_path):
    img = load_pgm(write_bytes(tmp_path, b"P5\n2 2\n300\n" + bytes([0x01, 0x2C, 0x00, 0x00] * 2)))
    assert img.mag.tolist() == [[1.0, 0.0], [1.0, 0.0]]


def test_pgm_error_is_value_error():
    assert issubclass(PgmError, ValueError)


# ---------------------------------------------------------------------- save


def test_save_zero_grid_linear_max(tmp_path):
    p = tmp_path / "zero.pgm"
    save_pgm(np.zeros((3, 3)), p, LINEAR_MAX)
    img = load_pgm(p)
    assert np.array_equal(img.mag, np.zeros((3, 3)))


def test_save_header_bytes_exact(tmp_path):
    p = tmp_path / "h.pgm"
    save_pgm(np.zeros((2, 3)), p, CLAMP_UNIT)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n3 2\n255\n")
    assert len(raw) == len(b"P5\n3 2\n255\n") + 6


def test_save_clamp_unit_round_trip(tmp_path):
    rng = np.random.default_rng(401)
    img = rng.random((8, 8))
    p = tmp_path / "rt.pgm"
    save_pgm(img, p, CLAMP_UNIT)
    back = load_pgm(p)
    assert np.max(np.abs(back.mag - img)) <= 1.0 / 255 + 1e-12


def test_save_clamp_unit_clamps(tmp_path):
    p = tmp_path / "c.pgm"
    save_pgm(np.array([[-0.5, 2.0], [0.0, 1.0]]), p, CLAMP_UNIT)
    back = load_pgm(p)
    assert np.array_equal(back.mag, np.array([[0.0, 1.0], [0.0, 1.0]]))


def test_save_linear_max_rejects_negative_values(tmp_path):
    """A negative value has no linear-max grey: it used to wrap round to a
    bright byte (-0.25 wrote 0xc0, brighter than 0.5)."""
    p = tmp_path / "neg.pgm"
    with pytest.raises(ValueError, match="linear-max needs non-negative values, got minimum -1.0"):
        save_pgm(np.array([[-1.0, 1.0], [0.5, -0.25]]), p, LINEAR_MAX)
    assert not p.exists()
    save_pgm(np.array([[-0.0, 1.0]]), p, LINEAR_MAX)  # a signed zero is not negative
    assert p.read_bytes().endswith(bytes([0, 255]))


@pytest.mark.parametrize("image, message", [
    (np.zeros((2, 2, 2)), "image must be 2D, got 3D"),
    (np.array([[0.5, np.nan]]), "image contains non-finite values"),
    (np.zeros((0, 3)), "image dimensions must be positive, got 3x0"),
    (np.zeros((2, 0)), "image dimensions must be positive, got 0x2"),
], ids=["3d", "nan", "no-rows", "no-columns"])
def test_save_rejects_unwritable_input(tmp_path, image, message):
    p = tmp_path / "bad.pgm"
    with pytest.raises(ValueError, match=f"^{message}$"):
        save_pgm(image, p)
    assert not p.exists()


def test_save_linear_max_scales_peak_to_full(tmp_path):
    p = tmp_path / "lm.pgm"
    save_pgm(np.array([[1.0, 4.0], [2.0, 0.0]]), p, LINEAR_MAX)
    raw = p.read_bytes()
    pixels = raw[len(b"P5\n2 2\n255\n"):]
    assert list(pixels) == [64, 255, 128, 0]


def test_save_complex_field_uses_magnitude(tmp_path):
    p = tmp_path / "cf.pgm"
    save_pgm(np.array([[3.0 + 4.0j, 0.0], [0.0, 0.0]]), p, LINEAR_MAX)
    back = load_pgm(p)
    assert back.mag[0, 0] == 1.0
    assert back.mag[0, 1] == 0.0


def test_save_accepts_target_image(tmp_path):
    t = TargetImage(np.array([[0.0, 1.0], [1.0, 0.0]]))
    p = tmp_path / "t.pgm"
    save_pgm(t, p, CLAMP_UNIT)
    assert np.array_equal(load_pgm(p).mag, t.mag)


def test_save_bad_normalization(tmp_path):
    with pytest.raises(ValueError):
        save_pgm(np.zeros((2, 2)), tmp_path / "x.pgm", "stretch")


def test_save_byte_deterministic(tmp_path):
    rng = np.random.default_rng(402)
    img = rng.random((6, 6))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    save_pgm(img, p1, LINEAR_MAX)
    save_pgm(img, p2, LINEAR_MAX)
    assert p1.read_bytes() == p2.read_bytes()
