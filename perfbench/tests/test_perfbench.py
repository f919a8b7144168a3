"""The benchmark's own tests: toy-size workload runs, failure accounting,
span arithmetic and the metric names BENCHMARK.json declares.

    python3 -m pytest perfbench/tests -q
"""

import json
import os

import pytest

from perfbench import run
from perfbench.harness import END_TO_END, PER_LAYER, execute
from perfbench.tracing import ROOT, Span, job_profiles, self_times
from perfbench.workloads import WORKLOADS, DenseRespond

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_at_toy_size(name, trace, tmp_path):
    workload = WORKLOADS[name]().toy()
    result, record = execute(workload, seed=3, seconds=0.0, trace=trace, workdir=str(tmp_path))
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] == (2 if trace else 1)
    assert list(result["metrics"]) == list(PER_LAYER if trace else END_TO_END)
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] > 0.5


def test_toy_counts_repeat_exactly(tmp_path):
    workload = WORKLOADS["small_variants"]().toy()
    counts = ("scf.ground_state_sweeps", "mixedprec.mult_count")
    runs = [execute(workload, 5, 0.0, 1, str(tmp_path / str(i)))[0]["metrics"] for i in range(2)]
    assert [runs[0][c] for c in counts] == [runs[1][c] for c in counts]
    assert runs[0]["mixedprec.mult_count"]["value"] > 0


class _CorruptedA1(DenseRespond):
    def job(self, inp, tr):
        out = super().job(inp, tr)
        out["a1_direct"] *= 1.0 + 1e-6
        return out


def test_corrupted_a1_counts_as_failed(tmp_path):
    workload = _CorruptedA1(n=48, pool_size=1)
    result, record = execute(workload, seed=3, seconds=0.0, trace=0, workdir=str(tmp_path))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert any("a1_direct vs reference" in p for p in record["problems"])


def test_self_times_are_exact_on_a_synthetic_tree():
    spans = [
        Span(0, ROOT, 0.0, 8.0, None, 7),
        Span(1, "a", 1.0, 4.0, 0, 7),
        Span(2, "a.inner", 2.0, 3.0, 1, 7),
        Span(3, "b", 4.0, 6.0, 0, 7),
        Span(4, "c", 5.0, 7.0, 0, 7),  # overlaps b: the root's children cover [1, 7]
    ]
    assert self_times(spans) == {0: 2.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 2.0}
    profile = job_profiles(spans)[7]
    assert profile.uncovered_s == 2.0
    assert profile.coverage == 0.75
    assert profile.duration_s["a"] == 3.0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
