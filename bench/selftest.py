"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run  # first: it fixes the BLAS threads and puts src/ on the path
import pipeline  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def tiny(name: str) -> pipeline.Workload:
    return dataclasses.replace(
        pipeline.WORKLOADS[name], dim=8, n_classes=12, instances_per_class=6
    )


def originals() -> dict:
    return {(o, a): o.__dict__[a] for o, a, _ in spans.SPAN_TARGETS + spans.COUNT_TARGETS}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(pipeline.WORKLOADS)
    names = [name for name, *_ in spans.LAYER_METRICS]
    names += ["model.step_s", "trace.pipeline_s", "trace.overhead_s"]
    assert sorted(names) == sorted(PER_LAYER)


@pytest.mark.parametrize("name", list(pipeline.WORKLOADS))
def test_untraced_run_is_correct_and_reports_every_end_to_end_metric(name):
    result = run.measure(tiny(name), seed=3, seconds=0.0, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(pipeline.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first = run.measure(tiny(name), seed=5, seconds=0.0, trace=True)
    second = run.measure(tiny(name), seed=5, seconds=0.0, trace=True)
    assert first["correct"] and second["correct"]
    assert {k: m["unit"] for k, m in first["metrics"].items()} == PER_LAYER
    counts = [k for k, unit in PER_LAYER.items() if unit != "s"]
    assert {k: first["metrics"][k] for k in counts} == {
        k: second["metrics"][k] for k in counts
    }
    assert first["details"]["counts_repeat"]


def test_traced_counts_match_the_workload():
    metrics = run.measure(tiny("gcp-64"), seed=1, seconds=0.0, trace=True)["metrics"]
    value = {k: m["value"] for k, m in metrics.items()}
    assert value["synthetic.records"] == 12 * 6 + 12 * 2
    assert value["model.train_steps"] == 1  # 12 classes fit one batch of 16
    assert value["autodiff.tensors_train"] > 0 < value["autodiff.tensors_generate"]
    # one generation per class for the base set, one per camera-filter group
    groups = value["harness.camfilter_groups"]
    assert value["model.generate_calls"] == 12 + groups
    assert value["retrieval.pset_groups"] == groups
    assert value["selectors.calls"] == 0


def _corrupting(monkeypatch, corrupt):
    """Make every second pipeline iteration pass through ``corrupt``."""
    real = pipeline.run_iteration
    calls = []

    def run_iteration(*args):
        it = real(*args)
        calls.append(1)
        if len(calls) % 2 == 0:
            corrupt(it)
        return it

    monkeypatch.setattr(pipeline, "run_iteration", run_iteration)


def _corrupt_report(it):
    it.report.per_query_ap[0][1] += 1e-3


def _corrupt_prototype_row(it):
    c = it.base.class_ids[0]
    it.base.per_class[c][0] += 1.0


@pytest.mark.parametrize("corrupt", [_corrupt_report, _corrupt_prototype_row])
def test_gate_counts_a_corrupted_iteration_as_failed(monkeypatch, corrupt):
    _corrupting(monkeypatch, corrupt)
    result = run.measure(tiny("eval-5k"), seed=2, seconds=0.3, trace=False)
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"] // 2
    assert not result["correct"]


def test_gate_checks_the_reference():
    w = tiny("camfilter-5k")
    cfg = w.config(0)
    gallery, queries = run.harness.resolve_data(cfg)
    it = pipeline.run_iteration(cfg, gallery, queries, None)
    ref = pipeline.fingerprint(it, queries)
    assert pipeline.check_iteration(it, queries, ref, ref)[0] == []
    drifted = dict(ref, checksum=ref["checksum"] * (1 + pipeline.CHECKSUM_RTOL / 2))
    assert pipeline.check_iteration(it, queries, None, drifted)[0] == []
    for wrong in (dict(ref, map=np.nextafter(ref["map"], 1.0)),
                  dict(ref, checksum=ref["checksum"] * (1 + 1e-6))):
        assert pipeline.check_iteration(it, queries, None, wrong)[0]


def test_committed_reference_covers_every_workload():
    data = json.loads(pipeline.REFERENCE_PATH.read_text(encoding="utf-8"))
    assert data["seed"] == pipeline.REFERENCE_SEED
    assert sorted(data["workloads"]) == sorted(pipeline.WORKLOADS)


def test_untraced_run_installs_no_wrapper(monkeypatch):
    before = originals()
    real = pipeline.run_iteration
    seen = []

    def run_iteration(*args):
        seen.append(originals() == before)
        return real(*args)

    monkeypatch.setattr(pipeline, "run_iteration", run_iteration)
    run.measure(tiny("gcp-64"), seed=4, seconds=0.0, trace=False)
    assert seen == [True]
    after = originals()
    assert all(after[k] is v for k, v in before.items())


def test_traced_run_restores_every_attribute():
    before = originals()
    run.measure(tiny("camfilter-5k"), seed=4, seconds=0.0, trace=True)
    after = originals()
    assert all(after[k] is v for k, v in before.items())


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:],
         "--workload", "eval-5k", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
