"""Tests for the benchmark itself (not the library):

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import inputs
import references
import run
import spans

sys.path.insert(0, str(run.SRC))


def test_seeded_inputs_are_deterministic():
    for make in (inputs.warm_points, inputs.crosscheck_inputs, inputs.cold_commands):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_warm_points_keep_every_anchor_and_fill_every_cost_quota():
    points = inputs.warm_points(3)
    assert [(s, tol) for s, tol, origin in points if origin == "anchor"] == inputs.ANCHORS
    levels = [inputs.dirichlet_terms(s.real, tol).bit_length() - 1
              for s, tol, origin in points if origin == "seeded"]
    assert {lv: levels.count(lv) for lv in set(levels)} == inputs.WARM_QUOTA
    for s, tol, origin in points:
        if origin == "seeded":
            assert 1.5 <= s.real <= 3.5 and abs(s.imag) <= 1e3 and 1e-10 <= tol <= 1e-5


def test_cli_literals_round_trip():
    from zetasum.cli import parse_complex_literal

    for argv, s in inputs.cold_commands(5):
        if s is not None:
            assert parse_complex_literal(argv[argv.index("--s") + 1]) == s


def test_self_time_subtracts_child_spans_and_leaf_time(monkeypatch):
    ticks = iter(range(0, 1000, 10))  # every clock read advances 10 ns
    monkeypatch.setattr(spans.time, "perf_counter_ns", lambda: next(ticks))
    tracer = spans.Tracer()
    with tracer.span("root"):                                  # 0 .. 70
        with tracer.span("a"):                                 # 10 .. 40
            tracer._leaf_call("leaf", lambda: None, (), {})    # 20 .. 30
        with tracer.span("b"):                                 # 50 .. 60
            pass
    by_id = {record[1]: record for record in tracer.spans}
    assert [by_id[n][6] for n in ("root", "a", "b")] == [70 - 30 - 10, 30 - 10, 10]
    assert by_id["a"][4] == by_id["b"][4] == by_id["root"][0]
    assert spans.self_time_by_name(tracer.spans)["root"] == [30 / 1e9, 1]


def test_tracer_leaf_time_is_charged_to_parent_once():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        tracer._leaf_call("leaf", lambda: tracer._leaf_call("inner", lambda: 1, (), {}), (), {})
    (record,) = tracer.spans
    assert tracer.calls == {}  # only wrappers count calls
    assert tracer.leaf_ns["leaf"] >= tracer.leaf_ns["inner"]
    assert record[6] == record[3] - record[2] - tracer.leaf_ns["leaf"]


def test_patch_counts_direct_imports_and_restores_the_library():
    from zetasum import kernel, methods, oracle, primes

    originals = (kernel.power_term, oracle.power_term, methods.euler_factor, methods.zeta_eval)
    tracer = spans.Tracer()
    with tracer.patch():
        oracle.smooth_sum_oracle(3, 2.0, 100)
        methods.induction_step_check(5, 2.0)
        result = methods.zeta_eval(3.0, "reformulated", 1e-4)
    assert (kernel.power_term, oracle.power_term, methods.euler_factor,
            methods.zeta_eval) == originals
    assert tracer.calls["kernel.power_term"] >= len(primes.smooth_numbers(3, 100))
    assert tracer.calls["kernel.euler_factor"] == 1
    assert tracer.counters["methods.terms_used"] == result.terms_used
    assert tracer.counters["methods.terms_evaluated"] > result.terms_used
    assert {s[1] for s in tracer.spans} >= {"methods.eval_reformulated",
                                             "methods.reform_partial",
                                             "oracle.smooth_sum_oracle"}
    # Inside zeta_eval the truncation trace is the eval's own work; called
    # directly (as the CLI's converge does) it is a span of its own.
    assert "methods.convergence_trace" not in {s[1] for s in tracer.spans}
    with tracer.patch():
        steps = methods.convergence_trace(3.0, "reformulated", 1e-4)
    (trace_span,) = [s for s in tracer.spans if s[1] == "methods.convergence_trace"]
    assert trace_span[4] is None and tracer.counters["methods.trace_steps"] == 2 * len(steps)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert run.tail(range(1, 101)) == (90, 90.0)
    assert run.tail(reversed(range(11))) == (0, 100.0 / 11)
    with pytest.raises(ValueError):
        run.tail(range(10))


def test_failure_accounting():
    op = run.Op(0.0)
    op.check_certificate(1.0 + 2e-6j, 1e-6, 1.0)
    assert op.failure and op.certified == [(pytest.approx(2e-6), 1e-6)]
    op = run.Op(0.0)
    op.check_residual(1e-13, 0.5, 1000)
    assert op.failure is None and op.residuals == [1e-13]
    op, result = run.timed_call(lambda: (_ for _ in ()).throw(RuntimeError("refused")))
    assert result is None and op.failure == "raised RuntimeError"


def test_reference_table_matches_mpmath_on_cheap_entries():
    pytest.importorskip("mpmath")
    table = json.loads(references.TABLE.read_text())
    assert [complex(*e["s"]) for e in table["entries"]] == [s for s, _ in inputs.ANCHORS]
    cheap = [e for e in table["entries"] if abs(e["s"][1]) <= 1e8]
    assert len(cheap) == 4
    for entry in cheap:
        assert list(references.zeta_reference(*entry["s"], dps=table["dps"])) == entry["zeta"]


def test_benchmark_json_names_this_command_and_its_workloads():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
