"""A cold import, and a cold command, load only what hexrep runs.

hexrep's records are namedtuples, its lock comes from ``_thread``, a
command line with every flag spelled in full is read by its own fast lane
(argparse is imported only for help, usage errors and other spellings)
and its JSON is formatted by hand, so a fresh interpreter
that imports the package or answers a command must not pull in the stdlib
modules it never calls.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hexrep

UNUSED = ("dataclasses", "inspect", "typing", "threading")
PARSER_MODULES = ("argparse", "gettext", "shutil", "locale")
SOURCES = Path(hexrep.__file__).resolve().parents[1]


def loaded_after(code, modules):
    """The modules of ``modules`` that a fresh ``python -S`` has loaded after running ``code``."""
    check = f"import sys; print(sorted(set({modules!r}) & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", f"{code}\n{check}"],
        env={**os.environ, "PYTHONPATH": str(SOURCES)},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.splitlines()[-1]


@pytest.mark.parametrize("module", ["hexrep.cli", "hexrep"])
def test_cold_import_leaves_unused_modules_out(module):
    assert loaded_after(f"import {module}", UNUSED) == "[]"


@pytest.mark.parametrize("line", [
    "verify --all --nmax 30 --format json",
    "s2k --k 9 --n 37..60 --method decomposition --format csv",
    "tau --n 5..9 --method paper-formula --format table",
    "lsum Lcal_4 --n 12..20 --precision 40",
])
def test_cold_command_loads_no_argument_parser(line):
    code = f"import hexrep.cli; hexrep.cli.main({line.split()!r})"
    assert loaded_after(code, UNUSED + PARSER_MODULES) == "[]"


@pytest.mark.parametrize("fmt", [None, "table", "csv", "json"])
def test_cold_verify_loads_no_json_module(fmt):
    # the JSON writer formats the reports itself; json loads only for a string that needs escapes
    code = "import hexrep.cli"
    if fmt:
        code += f'; hexrep.cli.main(["verify", "--all", "--nmax", "30", "--format", "{fmt}"])'
    assert loaded_after(code, ("json",)) == "[]"
