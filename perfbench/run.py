"""Benchmark of the hexrep command line: cold verify, cold value commands, warm stream.

Run from the repository root:

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 40 --trace 0

Workloads (the load is one closed-loop client, one operation in flight):

* ``verify-cold``: ``hexrep verify --all --nmax 200`` in table, JSON and CSV
  format, each operation in a fresh interpreter.
* ``values-cold``: the value commands that build long q-expansions (the
  five decompositions, brute-force s_28, tau from eta^24, every catalog
  sum), over n ranges ending at 400, each in a fresh interpreter.
* ``serve-warm``: a seeded stream of value queries answered one after the
  other by ``hexrep.cli.main`` in one long-lived process.

Cold workloads run in rounds; each round runs every command once, in a
seeded order, so a slow spell of the host falls on all commands alike.
The warm workload runs the whole stream once per pass, each pass in a
fresh process.  Every printed value is checked against ``oracle.py``.

Every time reported is normalised by the reference kernel of
``reference.py``, run in the same interpreter before and after each
stretch of hexrep work: it is the time on a host on which the kernel
takes ``reference.NOMINAL_S``, so slow spells of the host cancel out.

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` every operation is run once untraced and once traced,
and the last line holds the per-layer metrics of the traced runs.  The
metric names and units are those of ``BENCHMARK.json``.  When an output
check fails, an operation fails or a metric has no sample, the last line
holds no metrics and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Checker
from oracle import LATTICE_SUMS, Oracle
from reference import NOMINAL_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
CHILD = [sys.executable, "-S", str(BENCH_DIR / "child.py")]
CHILD_TIMEOUT_S = 120

WORKLOADS = ("verify-cold", "values-cold", "serve-warm")
FORMULA_KS = (7, 9, 11, 12, 14)
CATALOG = tuple(LATTICE_SUMS)
VERIFY_NMAX = 200
VALUE_TOP = 400  # largest n of the value workloads
TAIL_BANDS = 6  # tail queries: every kind once in each band of n in 201..400
TAIL_WINDOW = 5  # width of each tail query's window of n inside its band
DEFAULT_PRECISION = 200
FORMATS = ("table", "json", "csv")
# How many n a query asks for: the --n of the seven value examples in the
# repository README (four single n, 1..10 twice, 1..20).
README_N_COUNTS = (1, 1, 1, 1, 10, 10, 20)
PER_KIND = 27 * len(README_N_COUNTS)  # warm queries of each kind below the tail
CRASHED = -1  # child.py's exit code for a query that raised
KERNEL_EVERY = 100  # warm queries between two runs of the reference kernel


# -- workloads -----------------------------------------------------------------


def verify_commands(rng: random.Random) -> list[list[str]]:
    """The project's unit of work, once per output format; nothing is drawn."""
    return [["verify", "--all", "--nmax", str(VERIFY_NMAX), "--format", fmt]
            for fmt in ("table", "json", "csv")]


def value_commands(rng: random.Random) -> list[list[str]]:
    """Long q-expansions: the seed draws where each n range starts."""
    def n_range() -> str:
        return f"{rng.randint(1, 100)}..{VALUE_TOP}"

    commands = [["s2k", "--k", str(k), "--n", n_range(), "--method", "decomposition"]
                for k in FORMULA_KS]
    commands.append(["s2k", "--k", "14", "--n", n_range()])
    commands.append(["tau", "--n", n_range(), "--method", "eta"])
    commands += [["lsum", name, "--n", n_range()] for name in CATALOG]
    return commands


KINDS = (
    ("s2k", "bruteforce"), ("s2k", "formula"), ("s2k", "decomposition"),
    ("tau", "eta"), ("tau", "paper-formula"), ("lsum", None),
)


def _query(kind, param, n_spec: str, fmt: str) -> list[str]:
    command, method = kind
    if command == "s2k":
        argv = ["s2k", "--k", str(param), "--n", n_spec, "--method", method]
    elif command == "tau":
        argv = ["tau", "--n", n_spec, "--method", method]
    else:
        argv = ["lsum", param, "--n", n_spec]
    return argv + ["--format", fmt]


def _params(kind) -> tuple:
    if kind == ("s2k", "bruteforce"):
        return tuple(range(1, 15))
    if kind[0] == "s2k":
        return FORMULA_KS
    if kind[0] == "lsum":
        return CATALOG
    return (None,)


def _spread(rng: random.Random, values: tuple) -> list:
    """PER_KIND draws from values in a seeded order, each value as often as the others, give or take one."""
    order = list(values)
    rng.shuffle(order)
    picks = (order * (PER_KIND // len(order) + 1))[:PER_KIND]
    rng.shuffle(picks)
    return picks


def serve_stream(rng: random.Random) -> list[list[str]]:
    """Value queries, mostly n <= 200 with a tail above the default precision.

    The stream opens with one query for each kind and parameter, in a fixed
    order, so the caches at the default precision fill at the same points
    for every seed.  The tail is a chosen parameter, 36 queries (3%): every
    kind once in each of six bands of n, with fixed parameters and each kind
    in its own window of five n inside the band, so it costs about the same
    for every seed.  The other queries, PER_KIND of each kind, use each
    parameter, each format and each of the README examples' counts of n
    equally often (give or take one), in a seeded order, so the make-up of
    the stream, and with it its cost, barely depends on the seed.
    """
    opening = [_query(kind, param, str(rng.randint(1, DEFAULT_PRECISION)), rng.choice(FORMATS))
               for kind in KINDS for param in _params(kind)]
    band = (VALUE_TOP - DEFAULT_PRECISION) // TAIL_BANDS
    tail = []
    for b in range(TAIL_BANDS):
        for j, kind in enumerate(KINDS):
            params = _params(kind)
            n = DEFAULT_PRECISION + 1 + b * band + TAIL_WINDOW * j + rng.randrange(TAIL_WINDOW)
            tail.append(_query(kind, params[(2 * b + j) % len(params)], str(n), rng.choice(FORMATS)))
    rest = []
    for kind in KINDS:
        draws = zip(_spread(rng, _params(kind)), _spread(rng, FORMATS), _spread(rng, README_N_COUNTS))
        for param, fmt, count in draws:
            lo = rng.randint(1, DEFAULT_PRECISION - count + 1)
            n_spec = str(lo) if count == 1 else f"{lo}..{lo + count - 1}"
            rest.append(_query(kind, param, n_spec, fmt))
    rest += tail
    rng.shuffle(rest)
    return opening + rest


# -- running hexrep ------------------------------------------------------------


def run_child(queries: list, trace: bool, spans: Path | None = None) -> dict:
    """Answer ``queries`` in one fresh interpreter; returns its reply plus the process wall time."""
    request = json.dumps({"queries": queries, "trace": trace, "spans": str(spans) if spans else None,
                          "kernel_every": KERNEL_EVERY})
    started = time.perf_counter()
    try:
        proc = subprocess.run(CHILD, input=request, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    process_s = time.perf_counter() - started
    if proc.returncode != 0:
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    try:
        reply = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        return {"error": f"unreadable reply: {exc}"}
    reply["process_s"] = process_s
    return reply


def normalise(reply: dict) -> dict:
    """The reply's times on a host on which the reference kernel takes ``NOMINAL_S``.

    Each stretch of queries between two kernel runs is scaled by NOMINAL_S
    over the mean of those two runs.  The import, and a whole cold process
    (``process_s``, less its kernel runs), are scaled by the process's
    overall factor; an import-only process has one kernel run, right after
    the import.
    """
    kernels = reply["kernels"]
    took = [end - start for _, start, end in kernels]
    latency, wall_s, raw_wall_s = [], 0.0, 0.0
    for k in range(len(kernels) - 1):
        factor = 2 * NOMINAL_S / (took[k] + took[k + 1])
        wall = kernels[k + 1][1] - kernels[k][2]
        wall_s += factor * wall
        raw_wall_s += wall
        latency += [factor * result[1] for result in reply["results"][kernels[k][0]:kernels[k + 1][0]]]
    factor = wall_s / raw_wall_s if raw_wall_s else NOMINAL_S / took[0]
    return {
        "factor": factor,
        "kernel_s": took,
        "import_s": factor * reply["import_s"],
        "latency": latency,
        "wall_s": wall_s,
        "process_s": factor * (reply["process_s"] - sum(took)),
    }


def _scaled_layers(layers: dict, factor: float) -> dict:
    return {name: value * factor if name.endswith("_s") else value for name, value in layers.items()}


class Run:
    """Samples, failures and check results of one benchmark run."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.checked: set = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def operations(self, queries: list, reply: dict) -> bool:
        """Count and check the operations of one child reply; True when none failed."""
        self.attempted += len(queries)
        if "error" in reply:
            self.failed += len(queries)
            self.problems.append(reply["error"])
            return False
        failed = 0
        for argv, (rc, _, out, err) in zip(queries, reply["results"]):
            if rc in (2, CRASHED):  # hexrep rejected the input, or the query raised
                failed += 1
                last_line = err.strip().rpartition("\n")[2]
                self.problems.append(f"{' '.join(argv)}: {last_line}")
                continue
            key = (tuple(argv), rc, out)
            if key not in self.checked:
                found = self.checker.check(argv, rc, out)
                if found:
                    self.problems += [f"{' '.join(argv)}: {p}" for p in found[:5]]
                    raise WrongOutput(self.problems)
                self.checked.add(key)
        self.failed += failed
        return failed == 0


class WrongOutput(Exception):
    pass


def _quantile(values: list, q: int) -> float:
    """The q-th percentile (inclusive method; the value itself for one sample)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cold_workload(commands, rng, run: Run, seconds: float, trace: bool, tag: str) -> dict:
    """Rounds over the commands, each operation in a fresh interpreter."""
    latency = [[] for _ in commands]
    traced_latency = [[] for _ in commands]
    process_s = [[] for _ in commands]
    rss_mb = [[] for _ in commands]
    imports, kernel_s, layer_rounds = [], [], []
    started = time.perf_counter()
    rounds = 0
    while True:
        round_started = time.perf_counter()
        order = list(range(len(commands)))
        rng.shuffle(order)
        layers: dict = {}
        traced_ok = 0
        for i in order:
            for traced in _modes(trace, rounds):
                spans = RESULTS / f"spans-{tag}-{i}.csv.gz" if traced and rounds == 0 else None
                reply = run_child([commands[i]], traced, spans)
                if not run.operations([commands[i]], reply):
                    continue
                scaled = normalise(reply)
                imports.append(scaled["import_s"])
                kernel_s += scaled["kernel_s"]
                if traced:
                    traced_ok += 1
                    traced_latency[i] += scaled["latency"]
                    for name, value in _scaled_layers(reply["layers"], scaled["factor"]).items():
                        layers[name] = layers.get(name, 0) + value
                else:
                    latency[i] += scaled["latency"]
                    process_s[i].append(scaled["process_s"])
                    rss_mb[i].append(reply["maxrss_kb"] / 1024)
        if traced_ok == len(commands):
            layer_rounds.append(layers)
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed + (time.perf_counter() - round_started) > seconds:
            break
    if any(not v for v in latency):
        return {"rounds": rounds}
    median_process = [statistics.median(v) for v in process_s]
    result = {
        "rounds": rounds,
        "samples": {" ".join(commands[i]): v for i, v in enumerate(latency)},
        "kernel_s": kernel_s,
        "imports": imports,
        "setup_s": statistics.median(imports),
        "pass_s": sum(statistics.median(v) for v in latency),
        "query_p50_ms": 1000 * _quantile(median_process, 50),
        "query_p99_ms": 1000 * _quantile(median_process, 99),
        "peak_rss_mb": max(statistics.median(v) for v in rss_mb),
    }
    if layer_rounds:
        result["traced_pass_s"] = sum(statistics.median(v) for v in traced_latency)
        result["layers"] = _median_layers(layer_rounds)
    return result


def warm_workload(stream, run: Run, seconds: float, trace: bool, tag: str) -> dict:
    """Passes over the stream, each in one fresh long-lived process."""
    walls, traced_walls, rss_mb, imports, kernel_s, layer_passes = [], [], [], [], [], []
    per_query = [[] for _ in stream]
    started = time.perf_counter()
    passes = 0
    while True:
        pass_started = time.perf_counter()
        for _ in range(4):  # import-only probes, so set-up has several samples per pass
            probe = run_child([], False)
            if "error" not in probe:
                imports.append(normalise(probe)["import_s"])
        for traced in _modes(trace, passes):
            spans = RESULTS / f"spans-{tag}.csv.gz" if traced and passes == 0 else None
            reply = run_child(stream, traced, spans)
            if not run.operations(stream, reply):
                continue
            scaled = normalise(reply)
            imports.append(scaled["import_s"])
            kernel_s += scaled["kernel_s"]
            if traced:
                traced_walls.append(scaled["wall_s"])
                layer_passes.append(_scaled_layers(reply["layers"], scaled["factor"]))
            else:
                walls.append(scaled["wall_s"])
                for samples, value in zip(per_query, scaled["latency"]):
                    samples.append(value)
                rss_mb.append(reply["maxrss_kb"] / 1024)
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed + (time.perf_counter() - pass_started) > seconds:
            break
    if not walls:
        return {"rounds": passes}
    query = [statistics.median(v) for v in per_query]
    result = {
        "rounds": passes,
        "samples": {"pass": walls, "median_query": query},
        "kernel_s": kernel_s,
        "imports": imports,
        "setup_s": statistics.median(imports),
        "pass_s": statistics.median(walls),
        "query_p50_ms": 1000 * _quantile(query, 50),
        "query_p99_ms": 1000 * _quantile(query, 99),
        "peak_rss_mb": statistics.median(rss_mb),
    }
    if layer_passes:
        result["traced_pass_s"] = statistics.median(traced_walls)
        result["layers"] = _median_layers(layer_passes)
    return result


def _modes(trace: bool, index: int) -> tuple:
    """Untraced only; or untraced and traced, alternating which goes first."""
    if not trace:
        return (False,)
    return (False, True) if index % 2 == 0 else (True, False)


def _median_layers(samples: list[dict]) -> dict:
    """Each layer metric's median over rounds (counts repeat exactly in every round)."""
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hexrep" / "cli.py").is_file():
        print(f"error: no hexrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    trace = bool(args.trace)

    oracle_started = time.perf_counter()
    size = VERIFY_NMAX if args.workload == "verify-cold" else VALUE_TOP
    checker = Checker(Oracle(size))
    oracle_s = time.perf_counter() - oracle_started
    run = Run(checker)
    try:
        if args.workload == "serve-warm":
            result = warm_workload(serve_stream(rng), run, args.seconds, trace, args.workload)
        else:
            make = verify_commands if args.workload == "verify-cold" else value_commands
            result = cold_workload(make(rng), rng, run, args.seconds, trace, args.workload)
        correct = True
    except WrongOutput:
        result, correct = {}, False

    # The metric names and units come from BENCHMARK.json, so they are kept in one
    # place.  A metric is printed only when every operation succeeded and it was
    # measured: a missing sample must not read as a value, least of all as 0.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    measured = result.get("layers", {}) if trace else result
    missing = [name for name in wanted if name not in measured]
    if correct and missing:
        run.problems.append(f"not measured: {', '.join(missing)}")
    complete = correct and not missing and run.failed == 0
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in wanted.items()} if complete else {}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": trace,
              "oracle_s": oracle_s, "result": result, "problems": run.problems}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    print(f"{args.workload} seed {args.seed}: {result.get('rounds', 0)} rounds, "
          f"oracle {oracle_s:.2f} s")
    if "traced_pass_s" in result:
        overhead = result["traced_pass_s"] / result["pass_s"] - 1
        print(f"tracing overhead: traced pass_s {result['traced_pass_s']:.4f} s against "
              f"untraced {result['pass_s']:.4f} s ({100 * overhead:+.1f}%)")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
