"""Tests of the benchmark harness's own code, run at smoke sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in DEFINITION["workloads"]]


class FakeClock:
    def __init__(self, *times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_duration_minus_children():
    # a[0, 20] holds b[1, 9] (which holds c[2, 5]) and d[12, 15]
    tracer = spans.Tracer(clock=FakeClock(0, 1, 2, 5, 9, 12, 15, 20))
    a = tracer.begin("trainer.a")
    b = tracer.begin("energy_net.b")
    c = tracer.begin("mog.c")
    tracer.end(c)
    tracer.end(b)
    d = tracer.begin("mog.d")
    tracer.end(d)
    tracer.end(a)
    assert tracer.self_times() == [20 - 8 - 3, 8 - 3, 3, 3]
    totals = spans.layer_totals(tracer)
    assert totals["mog.c"] == {"calls": 1, "busy_s": 3, "self_s": 3}

    parts = spans.breakdown(tracer, "trainer.a")
    assert parts["span_s"] == parts["accounted_s"] == 20
    assert parts["module_shares"] == {"energy_net": 5 / 20, "mog": 6 / 20, "trainer": 9 / 20}


def test_spans_close_in_order():
    tracer = spans.Tracer(clock=FakeClock(0, 1, 2))
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_traced_wrapper_counts_and_closes_on_error():
    tracer = spans.Tracer()
    double = spans.traced(tracer, "x.double", lambda v: 2 * v, lambda a, k, out: {"rows": out})
    assert double(21) == 42
    assert tracer.spans[0].counts == {"rows": 42}

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        spans.traced(tracer, "x.boom", boom)()
    assert tracer.spans[1].end >= tracer.spans[1].start
    tracer.begin("x.next")
    assert tracer.spans[2].parent is None  # the failed call left nothing open


def test_originals_restored_after_tracing():
    targets = workloads.trace_targets()
    originals = [getattr(module, attr) for module, attr, _ in targets]
    with pytest.raises(KeyError):
        with spans.instrument(spans.Tracer(), targets):
            assert all(getattr(m, a) is not o for (m, a, _), o in zip(targets, originals))
            raise KeyError("leave the block early")
    assert all(getattr(m, a) is o for (m, a, _), o in zip(targets, originals))


@pytest.mark.parametrize("name", NAMES)
def test_inputs_repeat_per_seed(name):
    spec = workloads.SMOKE[name]
    first, again, other = (workloads.make_inputs(spec, s) for s in (3, 3, 4))
    for field in ("train", "labels", "heldout", "ood"):
        assert getattr(first, field).tobytes() == getattr(again, field).tobytes()
    assert first.train.tobytes() != other.train.tobytes()


@pytest.mark.parametrize("name", NAMES)
def test_reported_metrics_match_definition(name, tmp_path):
    plain = workloads.run_workload(name, 1, 0.2, False, True, tmp_path)
    chosen = run.select(plain.metrics, DEFINITION["end_to_end"])
    assert list(chosen) == [m["name"] for m in DEFINITION["end_to_end"]]
    assert all(m["value"] > 0 for m in chosen.values())
    assert plain.checks.failed == []

    traced = workloads.run_workload(name, 1, 0.2, True, True, tmp_path)
    chosen = run.select(traced.metrics, DEFINITION["per_layer"])
    assert list(chosen) == [m["name"] for m in DEFINITION["per_layer"]]
    assert traced.checks.failed == []
    assert traced.metrics["auroc"] == plain.metrics["auroc"]
    parts = traced.detail["train_breakdown"]
    assert parts["accounted_s"] == pytest.approx(parts["span_s"], rel=1e-9)
    assert traced.metrics["toy.energy_grid.pointwise_fallback_calls"] == 0


def test_workload_names_match_definition():
    assert NAMES == list(workloads.WORKLOADS) == list(workloads.SMOKE)


def test_command_prints_result_last():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", NAMES[0], "--seed", "2",
         "--seconds", "0.2", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
