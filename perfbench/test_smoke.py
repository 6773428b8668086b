"""Smoke test of the benchmark itself on a tiny config, kept out of the tier-1 suite.

Run from the repository root: ``python3 -m pytest -q perfbench/test_smoke.py``
(about half a minute on two cores).
"""

import json

import pytest

import run

ITERATIONS = 40
TINY = {"total_iterations": ITERATIONS, "n_per_class": 100, "n_train": 200, "noise_batches": 4}
PGD_STEPS = 8  # default attack steps; a radius-0 attack takes none


def test_benchmark_json_lists_the_metrics_run_py_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = run.measure(name, 3, 0, False, base=TINY, use_reference=False)["result"]
    assert result["correct"] and result["failed"] == 0, result
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name, grad_inputs", [
    # adversarial_accuracy attacks at the run's radius and at the largest one
    ("erm-run", PGD_STEPS),
    ("adv-run", ITERATIONS * PGD_STEPS + 2 * PGD_STEPS),
    # 2 radius-0 runs and 4 attacked runs, averaged over the 6 jobs
    ("sweep-3x2", (2 * PGD_STEPS + 4 * (ITERATIONS * PGD_STEPS + 2 * PGD_STEPS)) / 6),
])
def test_traced_run_counts_calls_per_run(name, grad_inputs):
    result = run.measure(name, 3, 0, True, base=TINY, use_reference=False)["result"]
    assert result["correct"], result
    calls = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(calls) == set(run.PER_LAYER)
    assert calls["nn.grad_params.calls"] == 2 * ITERATIONS
    assert calls["data.BatchSchedule.indices.calls"] == 2 * ITERATIONS
    assert calls["nn.grad_inputs.calls"] == pytest.approx(grad_inputs)
    assert calls["cli.run_experiment.calls"] == 1
