"""Tests of the benchmark harness itself: span arithmetic, wrapper hygiene,
agreement with the package's own diagnostics, output checks, and a smoke
size of every workload."""

import json
import os
import sys
import types

import numpy as np
import pytest

from perfbench import run

bench = run.load_harness()  # puts the checkout's src/ on the path

import rosdos  # noqa: E402
from perfbench import layers, trace, workloads  # noqa: E402
from rosdos import numerics, pipeline, synth  # noqa: E402

SMOKE_N = {"paper-roseland": 300, "cli-shrink-only": 300, "experiment-grid": 250}


def _bindings():
    """Every function or class attribute a rosdos module holds, by identity."""
    out = {}
    for name, module in sys.modules.items():
        if name == "rosdos" or name.startswith("rosdos."):
            for key, value in vars(module).items():
                if callable(value):
                    out[(name, key)] = value
    out[("GlobalMetric", "neighborhoods")] = vars(pipeline.GlobalMetric)["neighborhoods"]
    return out


def _small_dataset():
    return synth.make_dataset(
        synth.ManifoldSpec(kind="m1", p=200, n=300, seed=3),
        synth.NoiseSpec(kind="gaussian", alpha=0.5, seed=4),
    )


def test_self_time_on_synthetic_tree():
    S = trace.Span
    spans = [
        S(0, None, "root", 0.0, 10.0),
        S(1, 0, "a", 1.0, 4.0),
        S(2, 1, "a1", 1.5, 2.0),
        S(3, 1, "a2", 3.0, 3.5),
        S(4, 0, "b", 5.0, 9.0),
        S(5, 4, "b1", 5.0, 6.0),
        S(6, 4, "b2", 5.5, 7.0),   # overlaps b1: the overlap counts once
        S(7, 4, "b3", 8.5, 9.5),   # runs past its parent: only 8.5-9 counts
    ]
    own = trace.self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 0.5, 3: 0.5, 4: 1.5,
                                 5: 1.0, 6: 1.5, 7: 1.0})
    assert trace.root_names(spans) == {i: "root" for i in range(8)}


def test_wrappers_restored_when_the_traced_call_raises():
    before = _bindings()
    tracer = trace.Tracer()
    with pytest.raises(ValueError):
        with tracer.installed(layers.TARGETS):
            assert rosdos.shrinkage.svd is not before[("rosdos.numerics", "svd")]
            rosdos.svd(np.full((3, 3), np.nan))
    assert _bindings() == before
    assert [(s.name, s.error) for s in tracer.spans] == [("numerics.svd", "ValueError")]


def test_spans_agree_with_diagnostics():
    ds = _small_dataset()
    tracer = trace.Tracer()
    with tracer.span("cycle"), tracer.installed(layers.TARGETS):
        _, diag = rosdos.rosdos(ds.noisy, rosdos.PipelineConfig())
    by_name = {s.name: s for s in tracer.spans}
    for layer in ("global_metric", "neighborhoods"):
        span = by_name[f"pipeline.{layer}"]
        assert span.duration == pytest.approx(diag.timings[layer], rel=0.1, abs=2e-3)

    rosdos_spans = [s for s in tracer.spans if s.name == "pipeline.rosdos"]
    from_diag = layers.local_diagnostics(rosdos_spans)
    assert from_diag["ranks"] == {r: diag.local_ranks.count(r) for r in set(diag.local_ranks)}
    assert from_diag["fallbacks"] == diag.fallbacks
    assert layers.traced_local_ranks(tracer.spans) == from_diag["ranks"]

    values = layers.layer_metrics(tracer.spans, 1, 1, 0.0, 0.0)
    assert values["shrinkage.eoptshrink.local.calls"] == ds.noisy.shape[1]
    assert values["shrinkage.eoptshrink.global.calls"] == 0
    accounted = sum(values[k] for k in (
        "pipeline.global_metric.s", "pipeline.neighborhoods.s",
        "shrinkage.eoptshrink.local.s", "pipeline.recover_point.s",
        "pipeline.rosdos.self_s"))
    assert accounted == pytest.approx(values["pipeline.rosdos.s"], rel=1e-9)


def test_failed_output_checks_are_counted():
    ds = _small_dataset()
    wl = workloads.PaperRoseland(0, "unused", n=ds.noisy.shape[1])
    wl.clean, wl.noisy = ds.clean, ds.noisy
    wl.raw_nrmse = workloads.nrmse_median(ds.clean, ds.noisy)
    bad = ds.clean.copy()
    bad[0, 0] = np.nan
    assert wl.check((bad, None)).failed == 1
    assert wl.check((bad[:, 1:], None)).failed == 1
    assert wl.check((ds.noisy * 2.0, None)).failed == 1
    assert wl.check((ds.clean, None)).failed == 0

    def raising_cycle():
        raise RuntimeError("boom")

    fake = types.SimpleNamespace(ops=3, reset=lambda: None, cycle=raising_cycle)
    _, _, checks = bench.run_cycles(fake, 0)
    assert [(c.attempted, c.failed) for c in checks] == [(3, 3)]


def test_benchmark_json_names_match_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOAD_NAMES
    assert list(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_workload(name, tmp_path):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    before = _bindings()
    report, result = bench.run_workload(name, 1, 0, True, n=SMOKE_N[name], work_root=tmp_path)

    # the traced run put every wrapped binding back
    assert _bindings() == before
    assert rosdos.shrinkage.svd is numerics.svd
    assert rosdos.evaluation.svd is numerics.svd
    assert rosdos.pipeline.entrywise_median is numerics.entrywise_median
    assert rosdos.synth.random_orthogonal is numerics.random_orthogonal
    assert rosdos.cli.rosdos is pipeline.rosdos
    assert rosdos.make_dataset is synth.make_dataset

    assert result["correct"], report["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(layers.metric_units())
    assert {k: v["unit"] for k, v in report["end_to_end"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in report["end_to_end"].values())
    assert report["trace_matches_diagnostics"]
    assert os.path.exists(tmp_path / name / "spans.json")
