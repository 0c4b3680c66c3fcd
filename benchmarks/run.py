"""Benchmark of invsub: seeded workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload analyze-finite --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 50

Run it from anywhere; it finds the package in ``src`` next to this
directory and refuses to run without it.  One client sends requests in a
closed loop: each request starts after the previous one returned.  A run
repeats whole cycles of its workload's requests until ``--seconds`` have
passed, so every run sees the same mix.  Every answer is checked against
one known from how the input was built (see ``inputs.py``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
every time among them is scaled by the machine's speed during the run,
measured with a fixed piece of pure-Python work (``reference_work``), and
the report shows the unscaled wall-clock figures beside them.
``--trace 1`` measures the same workload untraced and then traced for
half the time each and reports the per-layer metrics.  Lines before the
last are a report for people (environment stamp, error rate, which
percentile the tail latency is); the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402

ANALYZE_N = 16
SPECTRUM_NS = range(24, 33)
PROBE_NS = (8, 12, 16, 20)
POOL_CYCLES = 64  # distinct inputs per run before the pool repeats
SAMPLES = 11  # fresh interpreters per start-up figure of the traced run
REFERENCE_SECONDS = 0.03  # the time of reference_work() that times are scaled to

# per-layer metric -> the end-to-end metric (and workloads) it should move
LAYER_TARGETS = {
    "exactalg.min_poly_s": "throughput_ops_s on analyze-finite, analyze-derogatory",
    "exactalg.min_poly_calls": "throughput_ops_s on analyze-finite, analyze-derogatory",
    "exactalg.char_poly_s": "throughput_ops_s on analyze-finite only",
    "exactalg.char_poly_calls": "throughput_ops_s on analyze-finite only (0 on analyze-derogatory)",
    "exactalg.squarefree_decompose_s": "latency_tail_s on analyze-finite",
    "exactalg.count_real_roots_s": "latency_tail_s on analyze-finite",
    "exactalg.count_real_roots_calls": "latency_tail_s on analyze-finite",
    "exactalg.char_poly_coeff_bits_max": "latency_tail_s on analyze-finite",
    "exactalg.min_poly_exponent": "throughput_ops_s on analyze-finite once the asymptotics change",
    "exactalg.char_poly_exponent": "throughput_ops_s on analyze-finite once the asymptotics change",
    "analyzer.count_invariant_subspaces_s": "throughput_ops_s on both analyze workloads",
    "analyzer.self_s": "throughput_ops_s on both analyze workloads",
    "analyzer.finite_decisions": "throughput_ops_s on both analyze workloads",
    "analyzer.infinite_decisions": "throughput_ops_s on both analyze workloads",
    "spectrum.dimension_profile_s": "throughput_ops_s on both analyze workloads",
    "spectrum.attainable_counts_s": "throughput_ops_s on spectrum-sweep, not cli-mix",
    "spectrum.self_s": "throughput_ops_s on spectrum-sweep, not cli-mix",
    "spectrum.enumerate_configs_s": "throughput_ops_s on spectrum-sweep, not cli-mix",
    "spectrum.configs_enumerated": "throughput_ops_s on spectrum-sweep, not cli-mix",
    "spectrum.count_for_config_s": "throughput_ops_s on spectrum-sweep, not cli-mix",
    "spectrum.values_per_config": "throughput_ops_s on spectrum-sweep, not cli-mix",
    "combinatorics.partitions_of_s": "throughput_ops_s on spectrum-sweep, not cli-mix",
    "combinatorics.partitions_yielded": "throughput_ops_s on spectrum-sweep, not cli-mix",
    "cli.interpreter_s": "latency_p50_s on cli-mix",
    "cli.import_s": "latency_p50_s on cli-mix, and setup_s everywhere",
    "cli.parse_matrix_document_s": "latency_p50_s on cli-mix",
    "cli.report_self_s": "latency_p50_s on cli-mix",
    "cli.output_bytes": "latency_p50_s on cli-mix",
    "trace.overhead_ratio": "none: untraced over traced throughput_ops_s, each scaled by reference_work",
}

SETUP_CODE = (
    "import time; t = time.perf_counter(); import invsub, invsub.cli; "
    "print(time.perf_counter() - t)"
)
CHILD_CODE = (
    f"import sys; sys.path.insert(0, {str(BENCH)!r}); import tracing; "
    "sys.exit(tracing.cli_child(sys.argv[1:]))"
)


class RequestError(Exception):
    """A request the program did not complete (nonzero exit)."""


@dataclass(frozen=True)
class Request:
    label: str
    call: Callable[[], object]  # runs the request and returns its output
    check: Callable[[object], bool]  # is that output the known answer?


@dataclass
class Sample:
    latencies: list
    failed: int

    @property
    def throughput(self) -> float:
        return len(self.latencies) / sum(self.latencies)


class Session:
    """Work directory and child processes of one benchmark run."""

    def __init__(self, work: Path):
        self.work = work
        self.tracer = None
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def python(self, *args) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=self.env,
            capture_output=True, text=True, timeout=120,
        )

    def wall(self, *args) -> float:
        start = time.perf_counter()
        done = self.python(*args)
        elapsed = time.perf_counter() - start
        if done.returncode:
            raise RequestError(f"python {' '.join(args)}: {done.stderr.strip()}")
        return elapsed

    def cli(self, argv) -> str:
        if self.tracer is None:
            done = self.python("-m", "invsub.cli", *argv)
        else:
            done = self.python("-c", CHILD_CODE, *argv)
            self.tracer.merge(json.loads(done.stderr.splitlines()[-1]))
        if done.returncode:
            raise RequestError(f"exit {done.returncode}: {done.stderr.strip()[-300:]}")
        return done.stdout


# ---- checks ---------------------------------------------------------------


def check_analyze_json(expected, n, output) -> bool:
    result = json.loads(output)["result"]
    if result["n"] != n or result["finite"] != (expected.count is not None):
        return False
    return expected.count is None or (
        int(result["count"]) == expected.count
        and tuple(result["real_root_multiplicities"]) == expected.real_multiplicities
        and tuple(result["complex_pair_multiplicities"]) == expected.complex_pair_multiplicities
        and tuple(int(c) for c in result["dimension_profile"]) == expected.profile
    )


def check_analyze_text(expected, n, output) -> bool:
    fields = dict(line.split(": ", 1) for line in output.splitlines() if ": " in line)
    if fields.get("matrix") != f"{n} x {n}":
        return False
    if expected.count is None:
        return fields.get("invariant subspaces") == "infinite"
    return (
        fields.get("invariant subspaces") == str(expected.count)
        and fields.get("real root multiplicities") == str(list(expected.real_multiplicities))
        and fields.get("complex pair multiplicities")
        == str(list(expected.complex_pair_multiplicities))
        and fields.get("dimension profile") == str(list(expected.profile))
    )


def check_values(expected, result) -> bool:
    return list(result) == expected


def check_spectrum_text(expected, n, output) -> bool:
    return output.strip() == f"M_{n} = {{{', '.join(map(str, expected))}}}"


def check_spectrum_json(expected, output) -> bool:
    return [int(v) for v in json.loads(output)["result"]["values"]] == expected


def check_table_text(expected, n, output) -> bool:
    lines = output.splitlines()
    groups = {}
    for line in lines[1:]:
        if line.startswith("r = "):
            r, s = (int(field.split(" = ")[1]) for field in line.rstrip(":").split(", "))
            rows = groups[(r, s)] = []
        else:
            shown, count = line.strip().split(" -> ")
            rows.append((tuple(int(p) for p in shown.strip("()").split(", ")), int(count)))
    return lines[0] == f"n = {n}" and {k: sorted(v) for k, v in groups.items()} == expected


def check_table_json(expected, output) -> bool:
    groups = {
        (g["r"], g["s"]): sorted((tuple(row["composition"]), int(row["count"])) for row in g["rows"])
        for g in json.loads(output)["result"]["groups"]
    }
    return groups == expected


# ---- workloads --------------------------------------------------------------


def analyze_in_process(path):
    from invsub import cli

    return cli.cmd_analyze(path, "json")


def attainable_counts(n):
    from invsub import spectrum

    return spectrum.attainable_counts(n)


def matrix_document(rng, blocks, fmt) -> str:
    matrix = inputs.conjugate(inputs.jordan_form(blocks), rng)
    return inputs.to_text(matrix) if fmt == "text" else json.dumps(matrix)


def build_analyze(rng, session, derogatory):
    make_blocks = inputs.derogatory_blocks if derogatory else inputs.finite_blocks
    pool = []
    for c in range(POOL_CYCLES):
        cycle = []
        for simple in (True, False):
            blocks = make_blocks(rng, ANALYZE_N, simple)
            path = session.write(f"m{c}-{int(simple)}.txt", matrix_document(rng, blocks, "text"))
            expected = inputs.expected_for(blocks)
            cycle.append(Request(
                f"analyze {path}", partial(analyze_in_process, path),
                partial(check_analyze_json, expected, ANALYZE_N),
            ))
        pool.append(cycle)
    return pool


def build_spectrum_sweep(rng, session):
    reference = inputs.spectrum_reference(max(SPECTRUM_NS))
    pool = []
    for _ in range(POOL_CYCLES // 4):
        ns = list(SPECTRUM_NS)
        rng.shuffle(ns)
        pool.append([
            Request(f"attainable_counts({n})", partial(attainable_counts, n),
                    partial(check_values, sorted(reference[n])))
            for n in ns
        ])
    return pool


# (document format, report format, derogatory) of the analyze requests in a cli-mix cycle
CLI_ANALYZE_KINDS = [("text", "text", False), ("json", "json", False),
                     ("text", "json", True), ("json", "text", True)]


def build_cli_mix(rng, session):
    reference = inputs.spectrum_reference(12)
    checks = {"text": check_analyze_text, "json": check_analyze_json}
    pool = []
    for c in range(POOL_CYCLES // 2):
        cycle = []
        for i, (doc_format, out_format, derogatory) in enumerate(CLI_ANALYZE_KINDS):
            n = rng.randint(3, 6)
            make_blocks = inputs.derogatory_blocks if derogatory else inputs.finite_blocks
            blocks = make_blocks(rng, n, rng.random() < 0.5)
            path = session.write(f"c{c}-{i}.{doc_format}", matrix_document(rng, blocks, doc_format))
            cycle.append(Request(
                f"analyze {path} --format {out_format}",
                partial(session.cli, ["analyze", path, "--format", out_format]),
                partial(checks[out_format], inputs.expected_for(blocks), n),
            ))
        n = rng.randint(1, 12)
        values = sorted(reference[n])
        cycle.append(Request(f"spectrum {n}", partial(session.cli, ["spectrum", str(n)]),
                             partial(check_spectrum_text, values, n)))
        cycle.append(Request(f"spectrum {n} --format json",
                             partial(session.cli, ["spectrum", str(n), "--format", "json"]),
                             partial(check_spectrum_json, values)))
        n = rng.randint(1, 14)
        rows = inputs.table_reference(n)
        cycle.append(Request(f"table {n}", partial(session.cli, ["table", str(n)]),
                             partial(check_table_text, rows, n)))
        cycle.append(Request(f"table {n} --format json",
                             partial(session.cli, ["table", str(n), "--format", "json"]),
                             partial(check_table_json, rows)))
        rng.shuffle(cycle)
        pool.append(cycle)
    return pool


# workload -> input builder.  BENCHMARK.json declares analyze-finite and
# spectrum-sweep and says why.  The other two run on request only: on a
# shared two-core machine, 25 s runs of four workloads spread by up to 30%
# between runs, while 50 s runs of two fit the same time budget.
#   analyze-derogatory: as analyze-finite, but one root owns two blocks, so
#     only min_poly runs; a char_poly or certificate change must not move
#     it, and a slower min_poly fallback shows here.
#   cli-mix: fresh `python -m invsub.cli` processes on small analyze,
#     spectrum and table requests; start-up, imports and formatting dominate.
BUILDERS = {
    "analyze-finite": partial(build_analyze, derogatory=False),
    "analyze-derogatory": partial(build_analyze, derogatory=True),
    "spectrum-sweep": build_spectrum_sweep,
    "cli-mix": build_cli_mix,
}


# ---- measuring ----------------------------------------------------------------


def measure(pool, seconds, tracer=None, after_request=None) -> Sample:
    """Run whole cycles of ``pool`` until ``seconds`` have passed,
    calling ``after_request()`` (if given) after each request.

    Latency covers the call only; checking the answer is not timed.
    """
    latencies, failed = [], 0
    start = time.perf_counter()
    for cycle in itertools.cycle(pool):
        for request in cycle:
            if tracer is not None:
                tracer.request += 1
            begin = time.perf_counter()
            try:
                output, error = request.call(), None
            except Exception as exc:  # a crash is a failed request, not a crashed benchmark
                output, error = None, exc
            latencies.append(time.perf_counter() - begin)
            if after_request is not None:
                after_request()
            if error is not None:
                print(f"request {request.label} raised {error!r}", file=sys.stderr)
                failed += 1
                continue
            if tracer is not None and isinstance(output, str):
                tracer.counts["cli.output_bytes"] += len(output.encode())
            if not answered(request, output):
                print(f"request {request.label}: wrong answer", file=sys.stderr)
                failed += 1
        if time.perf_counter() - start >= seconds:
            return Sample(latencies, failed)


def answered(request, output) -> bool:
    try:
        return request.check(output)
    except Exception:  # output too malformed to read is a wrong answer
        return False


def tail_latency(latencies):
    """(value, percentile, samples beyond): the highest nearest-rank
    percentile with at least ten samples above it, or the minimum when
    there are too few samples for that."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - 10, 1)
    return ordered[rank - 1], 100 * rank / len(ordered), len(ordered) - rank


def reference_work():
    """Fixed pure-Python work that calls no invsub code: exact Fraction
    elimination on a fixed 20 x 20 integer matrix, as exactalg does, and
    tuple generators, as spectrum does."""
    rng = random.Random(0)
    rows = [[Fraction(rng.randint(-9, 9)) for _ in range(20)] for _ in range(20)]
    for k in range(20):
        pivot = next((i for i in range(k, 20) if rows[i][k]), None)
        if pivot is None:
            continue
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, 20):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return sum(1 for _ in inputs.partitions(26))


def reference_seconds() -> float:
    """Seconds one reference_work() takes now, with the collector off so
    that the program's heap does not enter the time."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def setup_seconds(session) -> float:
    """Import time of invsub and invsub.cli in one fresh interpreter."""
    return float(session.python("-c", SETUP_CODE).stdout)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def scaling_probe(seed):
    """Seconds of char_poly and min_poly on one all-simple-root input per
    n in PROBE_NS, and their log-log exponents; the answers are checked."""
    from invsub import exactalg

    rng = random.Random(f"probe:{seed}")
    seconds = {"char_poly": [], "min_poly": []}
    ok = True
    for n in PROBE_NS:
        blocks = inputs.finite_blocks(rng, n, simple=True)
        matrix = exactalg.RationalMatrix(inputs.conjugate(inputs.jordan_form(blocks), rng))
        for name, times in seconds.items():
            start = time.perf_counter()
            poly = getattr(exactalg, name)(matrix)
            times.append(time.perf_counter() - start)
            ok &= poly.degree == n
    return seconds, {name: slope(PROBE_NS, times) for name, times in seconds.items()}, ok


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=30,
        )
        sha = done.stdout.strip() if done.returncode == 0 else "unknown"
    except OSError:
        sha = "unknown"
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "git_sha": sha, "seed": seed}


def end_to_end(args, pool, session):
    # The shared machine this runs on changes speed by a third within
    # minutes, for any Python code.  So after every request the run takes
    # one set-up sample and times reference_work(), and reports every time
    # scaled to a machine on which reference_work() takes REFERENCE_SECONDS.
    # A change to invsub moves the scaled times as much as the wall clock.
    # The mean, not the median, of the reference times: the speed flips
    # within a second, and the mean follows the share of time spent slow.
    session.wall("-c", "import invsub.cli")  # fill the bytecode cache first
    setups, references = [], []

    def after_request():
        setups.append(setup_seconds(session))
        references.append(reference_seconds())

    sample = measure(pool, args.seconds, after_request=after_request)
    slowdown = statistics.fmean(references) / REFERENCE_SECONDS
    tail, percentile, beyond = tail_latency(sample.latencies)
    setup, p50 = statistics.median(setups), statistics.median(sample.latencies)
    metrics = {
        "setup_s": setup / slowdown,
        "throughput_ops_s": sample.throughput * slowdown,
        "latency_p50_s": p50 / slowdown,
        "latency_tail_s": tail / slowdown,
        "peak_rss_mb": peak_rss_mb(children=args.workload == "cli-mix"),
    }
    notes = [
        f"latency_tail_s is p{percentile:.1f}: {beyond} of {len(sample.latencies)} samples beyond it",
        f"setup_s is the median of {len(setups)} fresh interpreters, one after each request",
        f"reference_work took {slowdown * REFERENCE_SECONDS:.4g} s (mean of {len(references)}),"
        f" {slowdown:.4g} x {REFERENCE_SECONDS} s; the times above are scaled by that factor",
        f"unscaled: setup_s {setup:.6g}, throughput_ops_s {sample.throughput:.6g},"
        f" latency_p50_s {p50:.6g}, latency_tail_s {tail:.6g}",
    ]
    return metrics, [sample], notes, True


def per_layer(args, pool, session):
    from invsub import combinatorics, spectrum

    # reference_work() after every request, to take the machine's change
    # of speed between the two halves out of the tracing overhead
    references = {"untraced": [], "traced": []}
    untraced = measure(pool, args.seconds / 2,
                       after_request=lambda: references["untraced"].append(reference_seconds()))
    tracer = Tracer()
    session.tracer = tracer
    tracer.install()
    try:
        traced = measure(pool, args.seconds / 2, tracer,
                         after_request=lambda: references["traced"].append(reference_seconds()))
    finally:
        tracer.uninstall()
        session.tracer = None
    probe_seconds, exponents, probe_ok = scaling_probe(args.seed)
    interpreter = statistics.median(session.wall("-c", "pass") for _ in range(SAMPLES))
    imported = statistics.median(session.wall("-c", "import invsub.cli") for _ in range(SAMPLES))

    per = 1 / len(traced.latencies)
    total, own, calls, counts = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    enumerate_s = tracer.exhaust_seconds("spectrum.enumerate_configs", spectrum.enumerate_configs)
    partitions_s = tracer.exhaust_seconds("combinatorics.partitions_of", combinatorics.partitions_of)
    configs = counts["spectrum.enumerate_configs.yielded"]
    metrics = {
        "exactalg.min_poly_s": total["exactalg.min_poly"] * per,
        "exactalg.min_poly_calls": calls["exactalg.min_poly"] * per,
        "exactalg.char_poly_s": total["exactalg.char_poly"] * per,
        "exactalg.char_poly_calls": calls["exactalg.char_poly"] * per,
        "exactalg.squarefree_decompose_s": total["exactalg.squarefree_decompose"] * per,
        "exactalg.count_real_roots_s": total["exactalg.count_real_roots"] * per,
        "exactalg.count_real_roots_calls": calls["exactalg.count_real_roots"] * per,
        "exactalg.char_poly_coeff_bits_max": tracer.char_poly_bits_max,
        "exactalg.min_poly_exponent": exponents["min_poly"],
        "exactalg.char_poly_exponent": exponents["char_poly"],
        "analyzer.count_invariant_subspaces_s": total["analyzer.count_invariant_subspaces"] * per,
        "analyzer.self_s": own["analyzer.count_invariant_subspaces"] * per,
        "analyzer.finite_decisions": counts["analyzer.finite_decisions"] * per,
        "analyzer.infinite_decisions": counts["analyzer.infinite_decisions"] * per,
        "spectrum.dimension_profile_s": total["spectrum.dimension_profile"] * per,
        "spectrum.attainable_counts_s": total["spectrum.attainable_counts"] * per,
        "spectrum.self_s": tracer.dedupe_seconds(spectrum) * per,
        "spectrum.enumerate_configs_s": enumerate_s * per,
        "spectrum.configs_enumerated": configs * per,
        "spectrum.count_for_config_s": total["spectrum.count_for_config"] * per,
        "spectrum.values_per_config": counts["spectrum.values"] / configs if configs else 0.0,
        "combinatorics.partitions_of_s": partitions_s * per,
        "combinatorics.partitions_yielded": counts["combinatorics.partitions_of.yielded"] * per,
        "cli.interpreter_s": interpreter,
        "cli.import_s": imported - interpreter,
        "cli.parse_matrix_document_s": total["cli.parse_matrix_document"] * per,
        "cli.report_self_s": sum(own[f"cli.cmd_{c}"] for c in ("analyze", "spectrum", "table")) * per,
        "cli.output_bytes": counts["cli.output_bytes"] * per,
        "trace.overhead_ratio": (untraced.throughput * statistics.fmean(references["untraced"]))
        / (traced.throughput * statistics.fmean(references["traced"])),
    }
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"env": environment(args.seed), "spans": tracer.spans}))
    notes = [
        f"throughput_ops_s untraced {untraced.throughput:.6g}, traced {traced.throughput:.6g}; reference_work"
        f" {statistics.fmean(references['untraced']):.4g} s and {statistics.fmean(references['traced']):.4g} s"
    ]
    notes += [
        f"probe n={n}: char_poly {c:.4f} s, min_poly {m:.4f} s"
        for n, c, m in zip(PROBE_NS, probe_seconds["char_poly"], probe_seconds["min_poly"])
    ]
    notes += [f"{name} -> {LAYER_TARGETS[name]}" for name in metrics]
    notes.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return metrics, [untraced, traced], notes, probe_ok


# ---- entry point -----------------------------------------------------------------


def declared_metrics(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    if not (SRC / "invsub" / "__init__.py").is_file():
        print(f"error: no invsub package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import invsub

    if SRC not in Path(invsub.__file__).resolve().parents:
        print(f"error: imported invsub from {invsub.__file__}, not {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        session = Session(work)
        pool = BUILDERS[args.workload](random.Random(args.seed), session)
        run = per_layer if args.trace else end_to_end
        metrics, samples, notes, ok = run(args, pool, session)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, declared {sorted(units)}", file=sys.stderr)
        return 2
    attempted = sum(len(s.latencies) for s in samples)
    failed = sum(s.failed for s in samples)
    print("env " + json.dumps(environment(args.seed) | {"workload": args.workload}))
    print(f"{args.workload}: {attempted} requests, {failed} failed, error_rate {failed / attempted:.6g}")
    for name, value in metrics.items():
        print(f"  {name:38} {value:.6g} {units[name]}")
    for note in notes:
        print("  " + note)
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of the results."""
    results = {}
    for name in BUILDERS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode:
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':38}" + "".join(f"{w:>20}" for w in results))
    print(f"{'error_rate':38}" + "".join(
        f"{r['failed'] / r['attempted']:>20.6g}" for r in results.values()))
    for metric in names:
        print(f"{metric:38}" + "".join(
            f"{r['metrics'][metric]['value']:>20.6g}" for r in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
