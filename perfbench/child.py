"""Answer a stream of hexrep commands in one fresh interpreter.

Run as ``python3 -S perfbench/child.py`` with a JSON object on stdin:
``{"queries": [[argv...], ...], "trace": bool, "spans": path or null,
"kernel_every": int}``.  It times ``import hexrep.cli``, then answers the
queries one after the other through ``hexrep.cli.main`` (one in flight,
closed loop).  It runs the reference kernel (``reference.py``) before the
first query, after every ``kernel_every`` queries and after the last, so
that each stretch of queries is bracketed by two kernel runs.  It prints
one JSON object: the import time, each kernel run (queries answered
before it, start and end time), each query's exit code (-1 when it
raised), latency and printed text, the process's peak RSS and, when
traced, the per-layer totals.  A cold operation is a stream of one query;
the warm stream is many queries in the same process.
"""

import os
import sys
import time

request_text = sys.stdin.read()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

started = time.perf_counter()
import hexrep.cli  # noqa: E402

import_s = time.perf_counter() - started

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import reference  # noqa: E402

CRASHED = -1  # exit code recorded for a query that raised; hexrep's own codes are 0, 1 and 2


def peak_rss_kb() -> int:
    """This process's own high-water RSS.

    ru_maxrss is not used on Linux: it carries over the parent's peak
    through fork and exec, so it would count the benchmark's own data.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


request = json.loads(request_text)
spans = None
if request["trace"]:
    import tracer

    spans = tracer.install()

clock = time.perf_counter
queries = request["queries"]
kernel_every = request["kernel_every"]
kernels = []


def run_kernel(position: int) -> None:
    started = clock()
    reference.kernel()
    kernels.append([position, started, clock()])


results = []
run_kernel(0)
for index, argv in enumerate(queries):
    if index and index % kernel_every == 0:
        run_kernel(index)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        try:
            rc = hexrep.cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument list
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this query; the rest of the stream still runs
            rc = CRASHED
            traceback.print_exc()
        latency = clock() - t0
    results.append([rc, latency, out.getvalue(), err.getvalue()])
maxrss_kb = peak_rss_kb()  # before the last kernel run, which would only add its own memory
if queries:
    run_kernel(len(queries))

reply = {"import_s": import_s, "kernels": kernels, "maxrss_kb": maxrss_kb, "results": results}
if spans is not None:
    reply["layers"] = spans.totals()
    if request["spans"]:
        spans.write_spans(request["spans"])
json.dump(reply, sys.stdout)
