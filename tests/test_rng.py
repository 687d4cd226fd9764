"""Tests for the seeded sub-streams every random draw comes from."""

import pytest

from holosearch.rng import substream


def test_substream_rejects_a_non_integer_seed():
    with pytest.raises(TypeError, match="^master_seed must be an integer, got float$"):
        substream(1.5, 0)


def test_substream_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="^master_seed must be non-negative$"):
        substream(-1, 0)


def test_substream_rejects_a_bool_seed():
    """A bool is an int to Python, but True is no seed: it would run as 1."""
    with pytest.raises(TypeError, match="^master_seed must be an integer, got bool$"):
        substream(True, 0)
