"""Tests of the benchmark's own machinery: the tracer, the metric names
and the correctness gate.  Run with `python -m pytest bench/tests`."""

import contextlib
import json
import re
from pathlib import Path

import pytest

import refclock
import run
import tracing
import workloads as wl
from polaris import field, polar, verify
from polaris.verify import CheckReport

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK_JSON = Path(run.ROOT) / "BENCHMARK.json"


def test_self_time_subtracts_union_of_children():
    # 0: [0, 10] root; 1: [1, 4] and 2: [3, 6] overlap under it; 3: [5, 12]
    # runs past its parent's end; 4: [2, 3] is a grandchild under 1.
    start = [0.0, 1.0, 3.0, 5.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    # root's children cover [1, 6] and [5, 10] clipped: [1, 10] = 9
    assert tracing.self_times(start, end, parent) == pytest.approx([1.0, 2.0, 3.0, 7.0, 1.0])


def test_self_time_of_sequential_children():
    start = [0.0, 1.0, 2.0, 4.0]
    end = [5.0, 2.0, 3.5, 4.5]
    parent = [-1, 0, 0, 0]
    assert tracing.self_times(start, end, parent) == pytest.approx([2.0, 1.0, 1.5, 0.5])


def _one_call(tracer=None):
    """The first call of maximal-growth, corollary2 on Q6_2, traced when a
    tracer is given; the set-up before it is not traced."""
    workload = wl.WORKLOADS["maximal-growth"]
    setup = wl.build_setup(["Q6_2"])
    with tracer or contextlib.nullcontext():
        return wl.run_phase(workload, setup, wl.CallSeeds(7), {}, 0, 0, max_calls=1,
                            tracer=tracer)


def test_tracer_counts_closures_called_by_name_from_verify(monkeypatch):
    # Patching polaris.polar alone sees only the calls polar makes itself.
    naive = []
    original = polar.closure

    def counting(*args, **kwargs):
        naive.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(polar, "closure", counting)
    _one_call()
    monkeypatch.undo()

    tracer = tracing.Tracer()
    phase = _one_call(tracer)
    assert phase.outcomes[0].error is None
    names = [tracer.names[k] for k in tracer.name_of]
    closures = [i for i, n in enumerate(names) if n == "polar.closure"]
    from_verify = [i for i in closures if names[tracer.parent[i]].startswith("verify.")]
    assert from_verify
    assert len(closures) == len(naive) + len(from_verify)
    assert set(tracer.call) == {0}


def test_tracer_restores_every_binding():
    before_closure = verify.closure
    before_add = field.Field.__dict__["add"]
    before_rng = verify.SamplePlan.__dict__["rng_for"]
    gf2 = field.Field(2, 1)
    tracer = tracing.Tracer()
    with tracer:
        assert verify.closure is not before_closure
        assert polar.closure is verify.closure
        gf2.add(1, 1)
    assert verify.closure is before_closure is polar.closure
    assert field.Field.__dict__["add"] is before_add
    assert verify.SamplePlan.__dict__["rng_for"] is before_rng
    assert tracer.field_counts()["add"] == 1


def test_layer_metrics_cover_the_spec():
    setup_tracer, tracer = tracing.Tracer(), tracing.Tracer()
    with setup_tracer:
        wl.build_setup(["Q6_2"])
    phase = _one_call(tracer)
    metrics = tracing.layer_metrics(setup_tracer, 0.1, tracer, phase.outcomes, 1.5)
    assert list(metrics) == [name for name, _, _ in tracing.per_layer_spec()]
    assert metrics["polar.closure.calls"] > 0
    assert metrics["setup.polar.build_polar_space.self_s"] > 0


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads(BENCHMARK_JSON.read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == tracing.per_layer_spec()
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert end_to_end == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    for name, _ in end_to_end + [(n, u) for n, u, _ in per_layer]:
        assert NAME.fullmatch(name) and len(name) <= 64


def test_oracle_counts_match_pinned_subspace_counts():
    workload = wl.WORKLOADS["exhaustive-small"]
    setup = wl.build_setup(workload.presets())
    assert wl.expected_counts(workload, setup) == {"Q4_2": 278, "W3_2": 278, "Qp3_2": 50}


def test_gate_flags_each_breach():
    call = wl.Call("corollary2", "Qp3_2", 0)
    good = CheckReport("corollary2", "Qp3_2", "exhaustive", 0, 0,
                       sampled=50, applicable=9, passed=9, skipped={"improper": 41})
    assert wl.gate(call, good, {"Qp3_2": 50}) is None
    assert wl.gate(call, good, {"Qp3_2": 49}).startswith("exhaustive sampled")
    good.passed, good.failed = 8, 1
    assert wl.gate(call, good, {"Qp3_2": 50}) == "1 failures reported"
    good.sampled = 51
    assert wl.gate(call, good, {"Qp3_2": 51}) == "inconsistent report counts"


def test_reference_clock_scales_by_local_kernel_median():
    ref = refclock.REF_KERNEL_S
    kern = [ref, 2 * ref, 3 * ref]
    assert refclock.to_ref([2.0, 4.0, 6.0], kern, range(3), window=0) == \
        pytest.approx([2.0, 2.0, 2.0])
    assert refclock.to_ref([2.0, 4.0, 6.0], kern, range(3), window=1) == \
        pytest.approx([2.0 / 1.5, 2.0, 6.0 / 2.5])
    assert refclock.to_ref([3.0], kern, [2], window=0) == pytest.approx([1.0])
    assert refclock.time_kernel() > 0
