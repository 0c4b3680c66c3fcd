"""Self-tests of the benchmark harness: python3 -m pytest -q benchmarks/test_harness.py"""

import random
import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

from invsub import cli, spectrum  # noqa: E402
from invsub.analyzer import count_invariant_subspaces  # noqa: E402
from invsub.exactalg import RationalMatrix  # noqa: E402


def test_expected_profile_matches_brute_force():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 10)
        blocks = inputs.finite_blocks(rng, n, simple=n == 1 or rng.random() < 0.5)
        expected = inputs.expected_for(blocks)
        assert expected.profile == inputs.brute_force_profile(blocks)
        assert expected.count == sum(expected.profile)
        assert sum(expected.real_multiplicities) + 2 * sum(expected.complex_pair_multiplicities) == n


def test_generated_matrices_have_the_constructed_answer():
    rng = random.Random(8)
    for i in range(24):
        n = rng.randint(2, 6)
        simple = i % 2 == 0
        if i % 3 == 0:
            blocks = inputs.derogatory_blocks(rng, n, simple)
        else:
            blocks = inputs.finite_blocks(rng, n, simple)
        outcome = count_invariant_subspaces(
            RationalMatrix(inputs.conjugate(inputs.jordan_form(blocks), rng))
        )
        expected = inputs.expected_for(blocks)
        assert outcome.count == expected.count
        if expected.count is not None:
            assert outcome.signature.real_multiplicities == expected.real_multiplicities
            assert outcome.signature.complex_pair_multiplicities == expected.complex_pair_multiplicities
            assert outcome.profile == expected.profile


def test_probe_sizes_have_distinct_roots():
    rng = random.Random(13)
    for _ in range(200):
        for n in run.PROBE_NS:
            blocks = inputs.finite_blocks(rng, n, simple=True)
            roots = [eigenvalue for _, _, eigenvalue in blocks]
            assert inputs.dimension(blocks) == n and len(set(roots)) == len(roots)


def test_derogatory_blocks_repeat_a_root():
    rng = random.Random(9)
    for _ in range(20):
        blocks = inputs.derogatory_blocks(rng, 16, simple=rng.random() < 0.5)
        assert inputs.expected_for(blocks).count is None
        assert inputs.dimension(blocks) == 16


def test_spectrum_and_table_references_match_the_program():
    reference = inputs.spectrum_reference(14)
    for n in range(1, 15):
        assert sorted(reference[n]) == list(spectrum.attainable_counts_bruteforce(n))
    for n in range(1, 9):
        rows = inputs.table_reference(n)
        assert run.check_table_text(rows, n, cli.cmd_table(n, "text"))
        assert run.check_table_json(rows, cli.cmd_table(n, "json"))


def test_tail_percentile_rule():
    assert run.tail_latency(range(1, 101)) == (90, 90.0, 10)
    assert run.tail_latency(range(1000, 0, -1)) == (990, 99.0, 10)
    assert run.tail_latency(range(20)) == (9, 50.0, 10)
    # too few samples for ten beyond: the minimum, with fewer beyond it
    assert run.tail_latency([3, 1, 2, 5, 4]) == (1, 20.0, 4)


def _analyze_request(tmp_path, rng, blocks, expected):
    path = tmp_path / f"m{rng.random()}.txt"
    matrix = inputs.conjugate(inputs.jordan_form(blocks), rng)
    path.write_text(inputs.to_text(matrix))
    n = len(matrix)
    return run.Request(
        "analyze", partial(run.analyze_in_process, str(path)),
        partial(run.check_analyze_json, expected, n),
    )


def test_wrong_expectation_and_crash_count_as_failures(tmp_path):
    rng = random.Random(10)
    blocks = inputs.finite_blocks(rng, 5, simple=False)
    right = inputs.expected_for(blocks)
    wrong = inputs.Expected(right.count + 1, right.real_multiplicities,
                            right.complex_pair_multiplicities, right.profile)

    def crash():
        raise RuntimeError("boom")

    pool = [[
        _analyze_request(tmp_path, rng, blocks, right),
        _analyze_request(tmp_path, rng, blocks, wrong),
        run.Request("crash", crash, lambda output: True),
    ]]
    after = []
    sample = run.measure(pool, seconds=0, after_request=lambda: after.append(1))
    assert len(sample.latencies) == len(after) == 3
    assert sample.failed == 2


def test_cli_mix_cycle_is_answered_correctly(tmp_path):
    session = run.Session(tmp_path)
    pool = run.build_cli_mix(random.Random(11), session)
    sample = run.measure(pool[:1], seconds=0)
    assert len(sample.latencies) == 8 and sample.failed == 0


def test_traced_spans_nest_as_the_program_calls(tmp_path):
    rng = random.Random(12)
    blocks = inputs.finite_blocks(rng, 6, simple=True)
    request = _analyze_request(tmp_path, rng, blocks, inputs.expected_for(blocks))
    original = cli.count_invariant_subspaces
    tracer = Tracer()
    tracer.install()
    try:
        sample = run.measure([[request]], seconds=0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert cli.count_invariant_subspaces is original
    assert sample.failed == 0
    names = {span_id: name for span_id, _, name, *_ in tracer.spans}
    parents = {name: names.get(parent) for _, parent, name, *_ in tracer.spans}
    assert parents["cli.cmd_analyze"] is None
    assert parents["cli.parse_matrix_document"] == "cli.cmd_analyze"
    assert parents["analyzer.count_invariant_subspaces"] == "cli.cmd_analyze"
    for layer in ("exactalg.min_poly", "exactalg.char_poly", "spectrum.dimension_profile"):
        assert parents[layer] == "analyzer.count_invariant_subspaces"
    assert tracer.counts["analyzer.finite_decisions"] == 1
    for name, total in tracer.total.items():
        assert 0 <= tracer.self_time[name] <= total


def test_generators_are_counted_and_timed_separately():
    tracer = Tracer()
    tracer.install()
    try:
        values = spectrum.attainable_counts(8)
    finally:
        tracer.uninstall()
    configs = tracer.counts["spectrum.enumerate_configs.yielded"]
    assert configs == sum(1 for _ in spectrum.enumerate_configs(8))
    assert tracer.calls["spectrum.count_for_config"] == configs
    assert tracer.counts["spectrum.values"] == len(values)
    assert tracer.exhaust_seconds("spectrum.enumerate_configs", spectrum.enumerate_configs) > 0
    assert tracer.spectrum_dims == {8: 1}
    assert 0 < tracer.dedupe_seconds(spectrum) < tracer.total["spectrum.attainable_counts"]
