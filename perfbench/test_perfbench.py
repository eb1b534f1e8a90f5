"""Tests of the benchmark itself: spans, wrappers, inputs and answer checks.

Run with ``python -m pytest -q perfbench``.
"""

import json
import os
import signal
import sys

import pytest

import inputs
import run
import spans
import worker

ev = worker.import_evolalg()


def test_self_time_subtracts_covered_child_time():
    # root 0-10 with children 1-4 and 5-6; the first child has a child 2-3
    rows = [[0, 0.0, 10.0, -1, 1], [1, 1.0, 4.0, 0, 1],
            [1, 5.0, 6.0, 0, 1], [2, 2.0, 3.0, 1, 1]]
    assert spans.self_times(rows) == [6.0, 2.0, 1.0, 1.0]


def test_overlapping_children_are_covered_once():
    rows = [[0, 0.0, 10.0, -1, 1], [1, 1.0, 5.0, 0, 1], [1, 3.0, 7.0, 0, 1]]
    assert spans.self_times(rows)[0] == 4.0


def test_total_time_counts_outermost_span_of_a_name():
    tracer = spans.Tracer()
    f = tracer.name_id("m.f")
    g = tracer.name_id("m.g")
    tracer.spans = [[f, 0.0, 10.0, -1, 1], [g, 1.0, 9.0, 0, 1], [f, 2.0, 4.0, 1, 1]]
    m = spans.layer_metrics(tracer)
    assert m["m.f.calls"] == 2 and m["m.g.calls"] == 1
    assert m["m.f.total_s"] == 10.0
    assert m["m.f.self_s"] == 2.0 + 2.0
    assert m["m.g.self_s"] == 6.0


def _bindings():
    mods = spans._evolalg_modules()
    fields = sys.modules["evolalg.fields"]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for cls in (fields.RationalField, fields.PrimeField):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


def test_install_wraps_every_binding_and_restore_puts_all_back():
    before = _bindings()
    tracer = spans.Tracer()
    patched = spans.install(tracer)
    try:
        orig = before[("evolalg.classify", "classify")]
        for mod in ("evolalg", "evolalg.classify", "evolalg.cli"):
            assert vars(sys.modules[mod])["classify"] is not orig
        assert vars(sys.modules["evolalg.checks"])["multiply"] is not \
            before[("evolalg.core", "multiply")]
        Q = ev.make_field("Q")
        A = ev.new_evolution_algebra(Q, [[0, 0, 1], [0, 0, 2], [0, 0, 0]])
        res = tracer.op_span(ev.classify)(A)
        assert res.label.name().startswith("N_{3,3}")
        assert ev.monomial_isomorphism(A, A) is not None
    finally:
        spans.restore(patched)
    assert _bindings() == before
    m = spans.layer_metrics(tracer)
    assert m["classify.classify.calls"] == 1 and m["op.calls"] == 1
    assert m["core.multiply.calls"] > 0 and m["fields.mul.calls"] > 0
    assert m["monomial.monomial_solutions.calls"] >= 1
    assert m["monomial.monomial_solutions.yielded"] >= 1
    assert tracer.stack == []
    assert {s[4] for s in tracer.spans} == {1}


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(name):
    def texts(seed):
        wl = inputs.make_workload(name, seed, ev.families_of_dim)
        return [i.text for i in wl.warmup], [i.text for i in wl.timed_pass(0)]

    assert texts(3) == texts(3)
    assert texts(3) != texts(4)


def test_fresh_passes_use_other_parameters_than_warmup():
    wl = inputs.make_workload("classify_fresh_fp", 1, ev.families_of_dim)
    warm = [i.text for i in wl.warmup]
    assert len(warm) == 46
    assert not set(warm) & {i.text for i in wl.timed_pass(0)}


def test_check_rejects_a_wrong_isomorphism_and_a_wrong_label():
    wl = inputs.make_workload("classify_fresh_fp", 2, ev.families_of_dim)
    runner = worker.Runner(ev, wl)
    item = wl.warmup[-1]
    res = runner.op(item)
    assert runner.check(item, res)[0]
    bad_iso = tuple(tuple(2 * v for v in row) for row in res.iso)
    assert not runner.check(item, res.__class__(
        res.label, bad_iso, res.invariants_record, res.s, res.radical_label,
        res.flags))[0]
    other = wl.warmup[0]
    assert not runner.check(other, res)[0]


def test_an_op_over_the_cap_counts_as_failed(monkeypatch):
    monkeypatch.setattr(worker, "OP_CAP_S", 0.01)
    wl = inputs.make_workload("classify_fresh_fp", 3, ev.families_of_dim)
    item = next(i for i in wl.warmup if (i.fam.dim, i.fam.index) == (6, 18))
    runner = worker.Runner(ev, wl)
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        dt, record = runner.run_item(item)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert dt is None and record == "timeout" and len(runner.failures) == 1


@pytest.mark.parametrize("name", ["identity_sweep", "classify_fresh_fp"])
def test_traced_run_gives_the_untraced_outputs(name):
    plain = worker.run(name, 7, 0.01, 0)
    traced = worker.run(name, 7, 0.01, 1)
    assert plain["failed"] == traced["failed"] == 0
    assert plain["inputs_digest"] == traced["inputs_digest"]
    assert plain["outputs_digest"] == traced["outputs_digest"]
    assert traced["layers"]["cli.parse_algebra_file.calls"] > 0


def test_tail_is_the_median_of_per_pass_tails():
    passes = [[k / 1e3 for k in range(1, 51)], [k / 1e3 for k in range(101, 151)]]
    s = worker.latency_summary(passes, replay=False)
    assert s["tail_pct"] == 80.0
    assert abs(s["op_tail_ms"] - 90.0) < 1e-9
    assert s["timed_ops"] == 100 and s["passes"] == 2 and s["pass_ops"] == 50


def test_replayed_tail_is_taken_over_per_input_medians():
    # one contended pass slows every op tenfold; the per-input medians ignore it
    base = [k / 1e3 for k in range(1, 51)]
    passes = [base, [10 * x for x in base], list(base)]
    passes[2][0] = None   # a failed op leaves its input's other samples
    s = worker.latency_summary(passes, replay=True)
    assert s["tail_pct"] == 80.0
    assert abs(s["op_tail_ms"] - 40.0) < 1e-9
    assert s["timed_ops"] == 149 and s["passes"] == 3


def test_benchmark_json_names_the_metrics_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
    res = {"ops_per_s": 1.0, "op_p50_ms": 1.0, "op_tail_ms": 1.0, "peak_rss_mb": 1.0,
           "layers": dict.fromkeys(run.LAYER_METRICS, 1)}
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        printed = {k: m["unit"] for k, m in run.metrics_of(res, 1.0, trace).items()}
        assert printed == {m["name"]: m["unit"] for m in bench[key]}
