"""Helpers shared by the test modules."""

import struct
import tracemalloc

import numpy as np
import pytest


def _write_tvid(video, path):
    """Write a ToyVideo in the layout `synth.read_video` reads: the TVID
    magic, F/H/W as u32-LE, then float32-LE pixels in (frame, row,
    column) order."""
    with open(path, "wb") as fh:
        fh.write(b"TVID" + struct.pack("<III", *video.frames.shape))
        fh.write(np.ascontiguousarray(video.frames, dtype="<f4"))


@pytest.fixture
def write_tvid():
    """The test-local toy-video writer; the package only reads the format."""
    return _write_tvid


def _traced_peak(fn) -> int:
    """Bytes that fn allocates at its peak, above what it found allocated."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The peak-allocation meter the memory tests share."""
    return _traced_peak
