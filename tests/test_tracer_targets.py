"""The benchmark's traced run patches hexrep by name; those names must keep resolving.

``perfbench/tracer.py`` is read, not changed: its ``WRAPPED`` table names
the (module, attribute) pairs it wraps, and it wraps every
``IDENTITY_BUILDERS`` entry under the identity's name.
"""

import importlib
import importlib.util
from pathlib import Path

from hexrep.identities import IDENTITY_NAMES

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_attributes_resolve():
    for mod_name, attr, _ in _load_tracer().WRAPPED:
        module = importlib.import_module(f"hexrep.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), (mod_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (mod_name, attr)


def test_identity_names_keep_their_order():
    assert IDENTITY_NAMES == (
        "f7-decomposition",
        "f9-decomposition",
        "f11-decomposition",
        "f12-decomposition",
        "f14-decomposition",
        "s14-theorem",
        "s18-theorem",
        "s22-theorem",
        "rho-star-6",
        "rho-star-8",
        "rho-star-10",
        "s24-formula",
        "s28-formula",
        "lomadze-s24",
        "lomadze-s28",
        "tau-eq",
        "newform-w6",
        "newform-w7",
        "newform-w8",
        "newform-w9",
        "newform-w10",
        "newform-w11",
        "ramanujan-convolution",
        "e2-delta-convolution",
        "s28-convolution",
    )
