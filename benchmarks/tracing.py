"""In-memory spans for the traced benchmark run.

The program is not instrumented.  Instead the traced run replaces public
functions of ``invsub`` at the place where the calling module binds them
(``invsub.analyzer.min_poly`` rather than ``invsub.exactalg.min_poly``),
so spans nest exactly as the program calls them.  Spans stay in memory
and the benchmark writes them out once, when the run ends.

Generators do their work while the caller iterates, after the call has
returned, so ``partitions_of`` and ``enumerate_configs`` get no span:
their wrappers only count calls and yielded items, and
:meth:`Tracer.exhaust_seconds` times each recorded call afterwards by
exhausting it on its own.
"""

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from functools import partial

# (module, attribute, span name).  Each attribute is wrapped where the
# calling module looks it up; a binding a later version drops is skipped.
SPANS = [
    ("invsub.cli", "cmd_analyze", "cli.cmd_analyze"),
    ("invsub.cli", "cmd_spectrum", "cli.cmd_spectrum"),
    ("invsub.cli", "cmd_table", "cli.cmd_table"),
    ("invsub.cli", "parse_matrix_document", "cli.parse_matrix_document"),
    ("invsub.cli", "count_invariant_subspaces", "analyzer.count_invariant_subspaces"),
    ("invsub.cli", "attainable_counts", "spectrum.attainable_counts"),
    ("invsub.cli", "count_for_config", "spectrum.count_for_config"),
    ("invsub.spectrum", "attainable_counts", "spectrum.attainable_counts"),
    ("invsub.spectrum", "count_for_config", "spectrum.count_for_config"),
    ("invsub.analyzer", "min_poly", "exactalg.min_poly"),
    ("invsub.analyzer", "char_poly", "exactalg.char_poly"),
    ("invsub.analyzer", "squarefree_decompose", "exactalg.squarefree_decompose"),
    ("invsub.analyzer", "count_real_roots", "exactalg.count_real_roots"),
    ("invsub.analyzer", "dimension_profile", "spectrum.dimension_profile"),
]
GENERATORS = [
    ("invsub.cli", "enumerate_configs", "spectrum.enumerate_configs"),
    ("invsub.cli", "partitions_of", "combinatorics.partitions_of"),
    ("invsub.spectrum", "enumerate_configs", "spectrum.enumerate_configs"),
    ("invsub.spectrum", "partitions_of", "combinatorics.partitions_of"),
]
# Called once per block configuration: summed, not stored one by one.
AGGREGATED = {"spectrum.count_for_config"}


def _observe_char_poly(tracer, poly):
    bits = (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coefficients)
    tracer.char_poly_bits_max = max(tracer.char_poly_bits_max, *bits)


def _observe_decision(tracer, outcome):
    tracer.counts["analyzer.finite_decisions" if outcome.is_finite else "analyzer.infinite_decisions"] += 1


def _observe_spectrum(tracer, values):
    tracer.counts["spectrum.values"] += len(values)
    tracer.spectrum_dims[values.n] += 1


OBSERVERS = {
    "exactalg.char_poly": _observe_char_poly,
    "analyzer.count_invariant_subspaces": _observe_decision,
    "spectrum.attainable_counts": _observe_spectrum,
}


class Tracer:
    """Spans, per-name totals and counters of one traced run."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end, request)
        self.total = Counter()  # name -> seconds inside its spans
        self.self_time = Counter()  # name -> seconds not covered by child spans
        self.calls = Counter()
        self.counts = Counter()
        self.char_poly_bits_max = 0  # largest numerator or denominator of a char_poly coefficient
        self.generator_calls = defaultdict(Counter)  # name -> Counter of argument tuples
        self.spectrum_dims = Counter()  # n -> attainable_counts calls
        self.request = 0
        self._stack = []
        self._next_id = 0
        self._undo = []

    def span(self, name, fn):
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            frame = [self._next_id, time.perf_counter(), 0.0]
            self._next_id += 1
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span_id, start, covered = frame
                duration = end - start
                self.total[name] += duration
                self.self_time[name] += duration - covered
                self.calls[name] += 1
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[2] += duration
                if name not in AGGREGATED:
                    parent_id = parent[0] if parent else None
                    self.spans.append((span_id, parent_id, name, start, end, self.request))
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def generator(self, name, fn):
        def wrapper(*args):
            self.generator_calls[name][args] += 1
            for item in fn(*args):
                self.counts[name + ".yielded"] += 1
                yield item

        return wrapper

    def install(self):
        for table, wrap in ((SPANS, self.span), (GENERATORS, self.generator)):
            for module_name, attribute, name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute, None)
                if original is None:
                    continue
                setattr(module, attribute, wrap(name, original))
                self._undo.append((module, attribute, original))

    def uninstall(self):
        while self._undo:
            module, attribute, original = self._undo.pop()
            setattr(module, attribute, original)

    def exhaust_seconds(self, name, fn) -> float:
        """Seconds the recorded calls of generator ``name`` take when each
        is exhausted on its own; ``fn`` must be the unwrapped generator."""

        def exhaust(args):
            for _ in fn(*args):
                pass

        return sum(calls * _seconds_per_call(partial(exhaust, args))
                   for args, calls in self.generator_calls[name].items())

    def dedupe_seconds(self, spectrum) -> float:
        """Seconds the recorded ``attainable_counts`` calls spend on their
        own work: deduplicating and sorting the per-configuration counts
        into a ``SpectrumSet``.  Replayed per recorded n on counts computed
        beforehand with the unwrapped ``spectrum`` functions, so neither the
        enumeration, the counting nor the tracer is in the time."""
        total = 0.0
        for n, calls in self.spectrum_dims.items():
            counts = [spectrum.count_for_config(c) for c in spectrum.enumerate_configs(n)]
            total += calls * _seconds_per_call(
                lambda: spectrum.SpectrumSet(n, tuple(sorted(set(counts)))))
        return total

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "total": self.total,
            "self_time": self.self_time,
            "calls": self.calls,
            "counts": self.counts,
            "char_poly_bits_max": self.char_poly_bits_max,
            "spectrum_dims": list(self.spectrum_dims.items()),
            "generator_calls": {
                name: [[list(args), n] for args, n in calls.items()]
                for name, calls in self.generator_calls.items()
            },
        }

    def merge(self, dump: dict):
        """Add a child process's :meth:`dump`, its spans under the current request."""
        offset = self._next_id
        for span_id, parent_id, name, start, end, _ in dump["spans"]:
            parent = None if parent_id is None else parent_id + offset
            self.spans.append((span_id + offset, parent, name, start, end, self.request))
            self._next_id = max(self._next_id, span_id + offset + 1)
        for field in ("total", "self_time", "calls", "counts"):
            getattr(self, field).update(dump[field])
        self.char_poly_bits_max = max(self.char_poly_bits_max, dump["char_poly_bits_max"])
        self.spectrum_dims.update(dict(dump["spectrum_dims"]))
        for name, calls in dump["generator_calls"].items():
            for args, n in calls:
                self.generator_calls[name][tuple(args)] += n


def _seconds_per_call(call) -> float:
    """Seconds one ``call()`` takes, repeating tiny calls to rise above
    timer resolution."""
    reps = 0
    start = time.perf_counter()
    while True:
        call()
        reps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= 0.002:
            return elapsed / reps


def cli_child(argv) -> int:
    """Run ``invsub.cli.main(argv)`` traced, then print the dump to stderr.

    Started as ``python -c`` by the traced cli-mix run, so the spans come
    from the same kind of fresh process the untraced run measures.
    """
    from invsub import cli

    tracer = Tracer()
    tracer.install()
    try:
        status = tracer.span("cli.main", cli.main)(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    print(json.dumps(tracer.dump()), file=sys.stderr)
    return status
