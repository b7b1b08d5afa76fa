"""Seeded benchmark of contextprob: the CLI and every layer, timed from outside.

    python3 perfbench/run.py --workload small-models --seed 1 --seconds 10 --trace 0

runs one workload for about ``--seconds`` seconds from the root of a
checkout, checks every output against the independent oracle in
``oracle.py``, and prints as its last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, taken from spans around the calls into each module.  The line
before it records the machine.  The package is imported from ``src/`` and
BLAS is pinned to one thread.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import hashlib
import io
import json
import math
import platform
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import cases
import checks
import inputs
import oracle
import speed
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXAMPLES = ROOT / "example_models"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

SETUP_REPEATS = 7
PROBE_EVERY = 0.2
PROBE_REPEATS = 5
SUBPROCESS_TIMEOUT = 60
MB = 1e6
COVER_DRAWS = 100_000

WORKLOADS = ("cli-examples", "small-models", "large-dense", "large-kernel-free", "sampling")

# Every workload prints all of these with --trace 0.  An operation is the
# workload's unit of work: one CLI process (cli-examples), one analysis
# (small-models, large-dense, large-kernel-free) or one sample_frequencies
# call (sampling).
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "op_peak_mb")

# per-layer metric -> (unit, span names, statistic)
SPAN_METRICS = {
    "cli.main_ms_p50": ("ms", ("cli.main",), "p50"),
    "model_io.json_loads_ms_p50": ("ms", ("model_io.json_loads",), "p50"),
    "model_io.load_model_ms_p50": ("ms", ("model_io.load_model",), "p50"),
    "model_io.load_model_s_total": ("s", ("model_io.load_model",), "total"),
    "model_io.load_model_calls": ("count", ("model_io.load_model",), "calls"),
    "model_io.effective_kernel_ms_p50": ("ms", ("model_io.effective_kernel",), "p50"),
    "model_io.ingest_contingency_table_ms_p50": ("ms", ("model_io.ingest_contingency_table",), "p50"),
    "model_io.ingest_contingency_table_calls": ("count", ("model_io.ingest_contingency_table",), "calls"),
    "dynamics.contextual_statistics_ms_p50": ("ms", ("dynamics.contextual_statistics",), "p50"),
    "dynamics.transition_probabilities_ms_p50": ("ms", ("dynamics.transition_probabilities",), "p50"),
    "dynamics.apply_kernel_ms_p50": ("ms", ("dynamics.apply_kernel",), "p50"),
    "prespace.variable_distribution_ms_p50": ("ms", ("prespace.variable_distribution",), "p50"),
    "prespace.filter_context_ms_p50": ("ms", ("prespace.filter_context",), "p50"),
    "prespace.conditional_distribution_ms_p50": ("ms", ("prespace.conditional_distribution",), "p50"),
    "prespace.pushforward_ms_p50": ("ms", ("prespace.pushforward",), "p50"),
    "interference.analyze_interference_ms_p50": ("ms", ("interference.analyze_interference",), "p50"),
    "amplitudes.amplitude_ms_p50": (
        "ms", ("amplitudes.trigonometric_amplitude", "amplitudes.hyperbolic_amplitude"), "p50"),
    "amplitudes.born_residual_ms_p50": ("ms", ("amplitudes.born_residual",), "p50"),
    "reporting.analyze_statistics_ms_p50": ("ms", ("reporting.analyze_statistics",), "p50"),
    "reporting.emit_report_ms_p50": ("ms", ("reporting.emit_report",), "p50"),
    "dynamics.measurement_distribution_ms_p50": ("ms", ("dynamics.measurement_distribution",), "p50"),
    "dynamics.sample_frequencies_s_total": ("s", ("dynamics.sample_frequencies",), "total"),
}

# Every workload prints all of these with --trace 1.
PER_LAYER = (
    "cli.interpreter_ms",
    "cli.import_ms",
    *SPAN_METRICS,
    "model_io.effective_kernel_peak_mb",
    "reporting.emit_report_bytes",
    "dynamics.sample_frequencies_draws_per_s",
    "trace.overhead_ratio",
)


def percentile(values, share: float) -> float:
    """Nearest-rank percentile: always one of the measured values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


class Run:
    """Counts, problems and metrics of one benchmark run."""

    def __init__(self, cp, args):
        self.cp = cp
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.slowdown: float | None = None

    def note_speed(self, loop: "Loop") -> None:
        """Keep how much slower than the reference the machine ran, for the record."""
        self.slowdown = loop.slowdown

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def problem(self, text: str) -> None:
        self.problems.append(text)

    def setup(self, build, fingerprint):
        """Build the workload state SETUP_REPEATS times; report the median time.

        One set-up makes the inputs and their oracle answers from the seed and
        starts a fresh interpreter that imports the package, so work moved into
        import time shows here.
        """
        times, prints, state = [], set(), None
        probe = speed.COMPUTE
        before = probe()
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            state = build()
            run_process(["-c", "import contextprob"], check=True)
            wall = perf_counter() - start
            after = probe()
            times.append(wall * probe.factor(before, after))
            before = after
            prints.add(fingerprint(state))
        if len(prints) != 1:
            self.problem("set-up is not a function of the seed")
        if not self.trace:
            self.metric("setup_s", statistics.median(times), "s")
        return state

    def result(self) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def run_process(argv, check=False) -> subprocess.CompletedProcess:
    completed = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=ENV, capture_output=True,
        timeout=SUBPROCESS_TIMEOUT,
    )
    if check and completed.returncode != 0:
        raise RuntimeError(f"{argv} exited {completed.returncode}: {completed.stderr[-500:]!r}")
    return completed


@dataclass
class Loop:
    """Timings of a closed loop, scaled to the reference machine speed (``speed.py``)."""

    latencies: list  # scaled seconds of each operation that did not fail
    busy: float  # scaled seconds spent in operations
    raw_busy: float  # the same, as measured
    operations: int

    @property
    def rate(self) -> float:
        """Operations per scaled second."""
        return self.operations / self.busy

    @property
    def slowdown(self) -> float:
        """Measured over scaled time: above 1 when the machine ran slower than the reference."""
        return self.raw_busy / self.busy


def closed_loop(seconds: float, items, operate, probe: speed.Probe) -> Loop:
    """Run whole rounds over ``items`` until ``seconds`` have passed.

    ``operate(item)`` returns the operation's latency, or None if it failed.
    Operations are grouped into stretches of at least PROBE_EVERY seconds
    with a speed probe before and after each; every latency is scaled by the
    factor of its stretch.
    """
    loop = Loop([], 0.0, 0.0, 0)
    stretch: list = []
    before = probe()
    stretch_start = start = perf_counter()

    def close_stretch():
        nonlocal before, stretch_start
        wall = perf_counter() - stretch_start
        after = probe()
        scale = probe.factor(before, after)
        loop.latencies.extend(x * scale for x in stretch if x is not None)
        loop.busy += wall * scale
        loop.raw_busy += wall
        loop.operations += len(stretch)
        stretch.clear()
        before = after
        stretch_start = perf_counter()

    while True:
        for item in items:
            stretch.append(operate(item))
            if perf_counter() - stretch_start >= PROBE_EVERY:
                close_stretch()
        if perf_counter() - start >= seconds:
            if stretch:
                close_stretch()
            return loop


# ---------------------------------------------------------------- measuring


@dataclass
class Plan:
    """One workload: a round of operations and the ways to run one of them.

    ``timed`` and ``staged`` run one operation, check its output and return
    its latency, or None if an analysis raised.  ``timed`` is the operation the
    end-to-end metrics time; ``staged`` is the same operation in this process
    and built from public calls, for the traced loop.  ``once`` runs one
    unchecked operation in this process for the ``tracemalloc`` pass.
    ``models`` are the model documents whose ``effective_kernel()`` peak is
    taken; when empty, the shipped examples are used.  ``probe`` is the speed
    probe that slows down with the same work as the operations (``speed.py``).
    """

    items: list
    timed: Callable
    staged: Callable
    once: Callable
    models: list = field(default_factory=list)
    probe: speed.Probe = speed.COMPUTE


def measure(run: Run, plan: Plan) -> None:
    """Print every end-to-end metric (untraced) or every per-layer metric (traced)."""
    if not run.trace:
        loop = closed_loop(run.seconds, plan.items, plan.timed, plan.probe)
        run.note_speed(loop)
        run.metric("ops_per_s", loop.rate, "ops/s")
        run.metric("op_p50_ms", percentile(loop.latencies, 0.5) * 1e3, "ms")
        run.metric("op_p90_ms", percentile(loop.latencies, 0.9) * 1e3, "ms")
        run.metric("op_peak_mb", max(peak_bytes(plan.once, item) for item in plan.items) / MB, "MB")
        return
    cp = run.cp
    untraced = closed_loop(run.seconds / 2, plan.items, plan.staged, plan.probe)
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(run.seconds / 2, plan.items, tracer.wrap("bench.operation", plan.staged),
                             plan.probe)
    finally:
        tracer.uninstall()
    run.note_speed(traced)
    run.metric("trace.overhead_ratio", traced.rate / untraced.rate, "ratio")

    # Layers the workload's own operations do not reach take their figures
    # from one pass of cli.main over the shipped examples.
    cover = Tracer()
    cover.install()
    try:
        for argv in example_argvs():
            code, _, err = call_main(cp, argv)
            if code != 0:
                run.problem(f"cover pass {argv}: exit {code}: {err[-300:]!r}")
    finally:
        cover.uninstall()

    for name, (unit, spans, stat) in SPAN_METRICS.items():
        durations = tracer.durations(*spans) or cover.durations(*spans)
        if stat == "p50":
            run.metric(name, percentile(durations, 0.5) * 1e3, unit)
        elif stat == "total":
            run.metric(name, sum(durations), unit)
        else:
            run.metric(name, len(durations), unit)
    sizes = tracer.notes["reporting.emit_report"] or cover.notes["reporting.emit_report"]
    run.metric("reporting.emit_report_bytes", percentile(sizes, 0.5), "bytes")
    source = tracer if tracer.notes["dynamics.sample_frequencies"] else cover
    run.metric("dynamics.sample_frequencies_draws_per_s",
               sum(source.notes["dynamics.sample_frequencies"])
               / sum(source.durations("dynamics.sample_frequencies")), "draws/s")

    peaks = []
    for raw in plan.models or [path.read_bytes() for path in sorted(EXAMPLES.glob("*.json"))]:
        model = cp.load_model(raw)
        peaks.append(peak_bytes(lambda model: model.effective_kernel(), model))
    run.metric("model_io.effective_kernel_peak_mb", max(peaks) / MB, "MB")
    for name, argv in (("cli.interpreter_ms", ["-c", "pass"]),
                       ("cli.import_ms", ["-c", "import contextprob"])):
        times = []
        for _ in range(PROBE_REPEATS):
            start = perf_counter()
            run_process(argv, check=True)
            times.append(perf_counter() - start)
        run.metric(name, statistics.median(times) * 1e3, "ms")


def example_argvs() -> list[list[str]]:
    """``analyze`` and ``validate`` on every shipped example, and one ``sample``."""
    argvs = []
    for path in sorted(EXAMPLES.glob("*.json")):
        model = f"example_models/{path.name}"
        argvs += [["analyze", "--model", model], ["validate", "--model", model]]
    for path in sorted(EXAMPLES.glob("*.csv")):
        argvs.append(["analyze", "--table", f"example_models/{path.name}"])
    argvs.append(["sample", "--model", "example_models/classical.json", "--variable", "screen",
                  "--n", str(COVER_DRAWS), "--seed", "1"])
    return argvs


def peak_bytes(fn, *args) -> int:
    """Highest memory traced by tracemalloc during one call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------- analyses


def analyze(cp, item: inputs.Input) -> bytes:
    """One analysis as the CLI runs it: load or ingest, analyze, emit."""
    if item.kind == "model":
        return cp.emit_report(cp.analyze_model(cp.load_model(item.raw), input_digest=digest(item.raw)))
    return cp.emit_report(
        cp.analyze_statistics(cp.ingest_contingency_table(item.raw), input_digest=digest(item.raw))
    )


def analyze_staged(cp, item: inputs.Input) -> bytes:
    """The same analysis rebuilt from public calls, one per pipeline stage."""
    if item.kind == "model":
        model = cp.load_model(item.raw)
        kernel = model.effective_kernel()
        stats = cp.contextual_statistics(
            model.prespace, model.context, model.selector, model.outcome, kernel
        )
        report = cp.analyze_statistics(
            stats, options=model.options, input_digest=digest(item.raw), seed=model.options.seed
        )
    else:
        stats = cp.ingest_contingency_table(item.raw)
        report = cp.analyze_statistics(stats, input_digest=digest(item.raw))
    return cp.emit_report(report)


def analysis_plan(run: Run, build, probe: speed.Probe) -> Plan:
    """Set up, then check one analysis of every input against the oracle."""
    cp = run.cp
    items = run.setup(
        lambda: build(run.seed),
        lambda items: hashlib.sha256(b"".join(digest(i.raw).encode() for i in items)).hexdigest(),
    )
    for item in items:
        run.attempted += 1
        try:
            item.reference = analyze(cp, item)
        except Exception as exc:  # any error is a failed operation
            run.failed += 1
            run.problem(f"{item.name}: {exc!r}")
            continue
        for text in checks.check_report(cp, item.reference, item.expected, digest(item.raw)):
            run.problem(f"{item.name}: {text}")
    items = [item for item in items if item.reference is not None]
    if not items:
        raise RuntimeError("no input could be analysed")

    def operate(pipeline):
        def once(item):
            run.attempted += 1
            start = perf_counter()
            try:
                out = pipeline(cp, item)
            except Exception as exc:
                run.failed += 1
                run.problem(f"{item.name}: {exc!r}")
                return None
            latency = perf_counter() - start
            if out != item.reference:
                run.problem(f"{item.name}: output differs from its checked first analysis")
            return latency
        return once

    return Plan(items, operate(analyze), operate(analyze_staged), lambda item: analyze(cp, item),
                [item.raw for item in items if item.kind == "model"], probe)


# ---------------------------------------------------------------- sampling


def sampling_plan(run: Run) -> Plan:
    cp = run.cp

    def build():
        setup = inputs.sampling(run.seed)
        space = cp.Prespace.from_weights(setup.weights)
        variables = {name: cp.RandomVariable(name, values) for name, values in setup.values.items()}
        return setup, space, variables, cp.Context(setup.context), cp.PerturbationKernel(setup.kernel)

    setup, space, variables, context, kernel = run.setup(
        build, lambda state: repr([(d.seed, d.n, d.exact) for d in state[0].draws])
    )

    def draw(d: inputs.Draw) -> dict:
        extra = {} if d.selector_value is None else {
            "kernel": kernel, "selector": variables["gate"], "selector_value": d.selector_value
        }
        table = cp.sample_frequencies(space, context, variables[d.variable], d.n, d.seed, **extra)
        return dict(zip(table.support, table.counts.tolist()))

    for d in setup.draws:
        run.attempted += 1
        d.reference = draw(d)
        for text in checks.binomial_problems(d.reference, d.n, d.exact):
            run.problem(f"{d.name}: {text}")

    def timed(d):
        run.attempted += 1
        start = perf_counter()
        counts = draw(d)
        latency = perf_counter() - start
        if counts != d.reference:
            run.problem(f"{d.name}: counts differ for the same (seed, n)")
        return latency

    return Plan(setup.draws, timed, timed, draw)


# ---------------------------------------------------------------- CLI


@dataclass
class Op:
    """One ``python -m contextprob`` invocation and what it must produce."""

    name: str
    argv: list
    expected_exit: int
    kind: str  # "report", "validate", "sample" or "error"
    expected: object = None  # oracle answer: Expected, point count or exact distribution
    digest: str | None = None
    seed: int | None = None
    known_fault: str | None = None
    reference: bytes | None = None


def cli_ops(seed: int) -> list[Op]:
    stale = cases.stale_files()
    if stale:
        raise RuntimeError(f"stored CLI cases are stale ({stale}); run python3 perfbench/cases.py")
    answers = oracle.self_check(EXAMPLES)
    rng = np.random.default_rng([seed, 5])
    ops = []
    for path in sorted(EXAMPLES.glob("*.json")) + sorted(EXAMPLES.glob("*.csv")):
        flag = "--table" if path.suffix == ".csv" else "--model"
        echo = int(rng.integers(0, 10_000))
        ops.append(Op(f"analyze {path.name}", ["analyze", flag, f"example_models/{path.name}",
                                                "--seed", str(echo)], 0, "report",
                      answers[path.name], digest(path.read_bytes()), echo))
        if path.suffix == ".json":
            points = len(json.loads(path.read_text())["weights"])
            ops.append(Op(f"validate {path.name}", ["validate", "--model", f"example_models/{path.name}"],
                          0, "validate", points))
    classical = json.loads((EXAMPLES / "classical.json").read_text())
    # at least two sampling chunks, so the sample's memory peak is the same for every seed
    n, draw_seed = int(rng.integers(140_000, 200_000)), int(rng.integers(0, 2**31))
    exact = oracle.measurement_distribution(
        classical["weights"], classical["variables"]["screen"], classical["context"]
    )
    ops.append(Op("sample classical.json", ["sample", "--model", "example_models/classical.json",
                                            "--variable", "screen", "--n", str(n), "--seed", str(draw_seed)],
                  0, "sample", (n, exact), seed=draw_seed))
    stored = json.loads((cases.CASES_DIR / cases.EXPECTED_FILE).read_text())
    for case in stored["cases"]:
        argv = [a.replace("{file}", f"perfbench/cases/{case['file']}") for a in case["argv"]]
        op = Op(case["name"], argv, case["expected_exit"], "error", known_fault=case["known_fault"])
        if case["expected_exit"] == 0:
            raw = (cases.CASES_DIR / case["file"]).read_bytes()
            op.kind, op.expected, op.digest = "report", oracle.document_expectation(json.loads(raw)), digest(raw)
        ops.append(op)
    return [ops[i] for i in rng.permutation(len(ops))]


def judge(run: Run, op: Op, code: int, out: bytes, err: str) -> None:
    """Count a failed operation, or record a problem with its output."""
    if code != op.expected_exit:
        run.failed += 1
        if op.known_fault is None:
            tail = err.strip().splitlines()[-1:] or [""]
            run.problem(f"{op.name}: exit {code}, expected {op.expected_exit}: {tail[0]}")
        return
    if op.kind == "error":
        lines = err.strip().splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: ") or "Traceback" in err:
            run.problem(f"{op.name}: stderr is not one 'error:' line: {err[-300:]!r}")
        return
    if op.kind == "report":
        for text in checks.check_report(run.cp, out, op.expected, op.digest, op.seed):
            run.problem(f"{op.name}: {text}")
    elif op.kind == "validate":
        if not out.startswith(f"model ok: {op.expected} points;".encode()):
            run.problem(f"{op.name}: unexpected output {out[:200]!r}")
    else:
        n, exact = op.expected
        doc = json.loads(out)
        counts = dict(zip(doc["support"], doc["counts"]))
        problems = checks.binomial_problems(counts, n, exact)
        if doc["total"] != n or doc["seed"] != op.seed:
            problems.append(f"total {doc['total']} / seed {doc['seed']} echo wrong")
        for text in problems:
            run.problem(f"{op.name}: {text}")
    if op.reference is None:
        op.reference = out
    elif out != op.reference and op.kind == "sample":
        run.problem(f"{op.name}: counts differ for the same (seed, n)")


def call_main(cp, argv) -> tuple[int, bytes, str]:
    """``cli.main`` in this process, with stdout and stderr captured."""
    out, err = io.BytesIO(), io.BytesIO()
    saved = sys.stdout, sys.stderr
    # the wrappers close their buffers when collected, so keep them until return
    stdout = sys.stdout = io.TextIOWrapper(out, encoding="utf-8")
    stderr = sys.stderr = io.TextIOWrapper(err, encoding="utf-8")
    try:
        code = cp.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the CLI process would print the traceback and exit 1
        traceback.print_exc()
        code = 1
    finally:
        stdout.flush()
        stderr.flush()
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue().decode("utf-8", "replace")


def cli_plan(run: Run) -> Plan:
    """Each operation is a fresh CLI process; traced, ``cli.main`` in this process."""
    cp = run.cp
    ops = run.setup(lambda: cli_ops(run.seed), lambda ops: repr([(o.name, o.argv) for o in ops]))

    def in_process(op):
        run.attempted += 1
        start = perf_counter()
        judge(run, op, *call_main(cp, op.argv))
        return perf_counter() - start

    def subprocess_op(op):
        run.attempted += 1
        start = perf_counter()
        completed = run_process(["-m", "contextprob", *op.argv])
        latency = perf_counter() - start
        judge(run, op, completed.returncode, completed.stdout, completed.stderr.decode("utf-8", "replace"))
        return latency

    models = [path.read_bytes() for path in sorted(EXAMPLES.glob("*.json"))]
    return Plan(ops, subprocess_op, in_process, lambda op: call_main(cp, op.argv), models)


# ---------------------------------------------------------------- main


def machine(run: Run, workload: str, plan: Plan) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "attempted": run.attempted,
        "failed": run.failed,
        "slowdown": run.slowdown,
        "probe_reference_s": plan.probe.reference,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "contextprob" / "__init__.py").is_file() or not EXAMPLES.is_dir():
        print(f"error: no contextprob sources under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import contextprob
    import contextprob.cli  # noqa: F401  (spans wrap cli.main)

    run = Run(contextprob, args)
    if args.workload == "cli-examples":
        plan = cli_plan(run)
    elif args.workload == "sampling":
        plan = sampling_plan(run)
    elif args.workload == "large-kernel-free":
        # building and reading np.eye(n) is page faults and memory bandwidth
        plan = analysis_plan(run, inputs.large_kernel_free, speed.MEMORY)
    else:
        build = {"small-models": inputs.small_models, "large-dense": inputs.large_dense}[args.workload]
        plan = analysis_plan(run, build, speed.COMPUTE)
    measure(run, plan)
    expected = PER_LAYER if run.trace else END_TO_END
    if sorted(run.metrics) != sorted(expected):
        raise RuntimeError(f"metrics {sorted(run.metrics)} are not the manifest's {sorted(expected)}")
    for text in run.problems[:20]:
        print(f"problem: {text}", file=sys.stderr)
    print(json.dumps({"machine": machine(run, args.workload, plan)}))
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
