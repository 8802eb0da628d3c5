"""A cold import loads only what hexrep runs.

hexrep's records are namedtuples and its lock comes from ``_thread``, so a
fresh interpreter that imports the package must not pull in the stdlib
modules it never calls.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hexrep

UNUSED = ("dataclasses", "inspect", "typing", "threading")
SOURCES = Path(hexrep.__file__).resolve().parents[1]


@pytest.mark.parametrize("module", ["hexrep.cli", "hexrep"])
def test_cold_import_leaves_unused_modules_out(module):
    code = f"import sys, {module}; print(sorted(set({UNUSED!r}) & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SOURCES)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"
