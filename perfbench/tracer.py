"""Span tracing of hexrep from the outside, for the benchmark's traced run.

``install()`` wraps the public functions of each hexrep module and every
``IDENTITY_BUILDERS`` entry, and patches each wrapper in wherever a hexrep
module holds a reference to the original (``identities`` imports
``sigma`` by name, so ``identities.sigma`` is patched as well as
``arith.sigma``).  Each call records a span (name, start, end, parent) in
memory; ``totals()`` sums calls and self time (the span's time minus its
child spans) per name, and ``write_spans()`` writes the spans out.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

#: (module, attribute, span name).  ``Class.method`` patches a class attribute.
WRAPPED = (
    ("series", "QSeries.__mul__", "series.mul"),
    ("series", "QSeries.__rmul__", "series.mul"),
    ("series", "QSeries.__pow__", "series.pow"),
    ("series", "QSeries.invert", "series.invert"),
    ("arith", "sigma", "arith.sigma"),
    ("arith", "sigma_twisted", "arith.sigma_twisted"),
    ("arith", "sigma_star", "arith.sigma_star"),
    ("arith", "rho_star", "arith.rho_star"),
    ("forms", "eta_quotient", "forms.eta_quotient"),
    ("forms", "eisenstein_classical", "forms.eisenstein"),
    ("forms", "eisenstein_twisted", "forms.eisenstein"),
    ("forms", "named_form", "forms.named_form"),
    ("lattice", "enumerate_f1", "lattice.enumerate_f1"),
    ("lattice", "theta_series", "lattice.theta_series"),
    ("lattice", "moment_table", "lattice.moment_table"),
    ("lattice", "lomadze_values", "lattice.lomadze_values"),
    ("lattice", "lomadze_sum", "lattice.lomadze_sum"),
    ("identities", "decomposition", "identities.decomposition"),
    ("identities", "s2k_from_divisor_sums", "identities.value_formula"),
    ("identities", "tau_from_lattice_sums", "identities.value_formula"),
    ("identities", "newform_coeff_identities", "identities.newform_coeff_identities"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.coeffs_built = 0
        self._stack: list[list] = []  # [span index, time spent in child spans]

    def wrap(self, name: str, fn):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        name_id = self.name_ids[name]
        clock = time.perf_counter
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            span = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            span_end.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                span_end[span] = end
                stack.pop()
                elapsed = end - start
                calls[name_id] += 1
                self_s[name_id] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def totals(self) -> dict:
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        out["series.coeffs_built"] = self.coeffs_built
        return out

    def write_spans(self, path: str) -> None:
        """Gzipped CSV, one span a row: index, name, start, end (seconds), parent index (-1: none)."""
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,start,end,parent\n")
            for i, (name_id, start, end, parent) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            ):
                fh.write(f"{i},{self.names[name_id]},{start:.9f},{end:.9f},{parent}\n")


def _patch(original, wrapper) -> None:
    """Replace every reference a hexrep module holds to ``original``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "hexrep" or mod_name.startswith("hexrep."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install() -> Tracer:
    import hexrep.cli  # noqa: F401  (loads every module whose references get patched)
    from hexrep import identities, series

    tracer = Tracer()
    for mod_name, attr, span in WRAPPED:
        module = sys.modules[f"hexrep.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(span, vars(cls)[meth]))
        else:
            original = getattr(module, attr)
            _patch(original, tracer.wrap(span, original))
    for name, builder in list(identities.IDENTITY_BUILDERS.items()):
        identities.IDENTITY_BUILDERS[name] = tracer.wrap(f"identities.{name}", builder)

    init = series.QSeries.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.coeffs_built += len(self._coeffs)

    series.QSeries.__init__ = counting_init
    return tracer
