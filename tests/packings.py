"""The two packings of the series product kernel, for tests that run on both."""

import contextlib
from types import SimpleNamespace

import pytest

from hexrep import series

#: "array": operands whose ints fit 64 bits packed from, and slots read back as, signed 64-bit
#: arrays (a little-endian host); "bytes": every slot through bytes, one coefficient at a time
SLOT_PATHS = ("array", "bytes")


@contextlib.contextmanager
def packing(path: str):
    """The kernel on the packing path: a host reporting big-endian takes the bytes path."""
    with pytest.MonkeyPatch.context() as patched:
        if path == "bytes":
            patched.setattr(series, "sys", SimpleNamespace(byteorder="big"))
        yield path
