"""Checks on the benchmark itself.

    python3 -m pytest -q perfbench/test_bench.py

The counts that later changes may cite as counts must repeat exactly for
one seed, and tracing must not change what the program computes.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_package()

EXACT_COUNTS = ("tensor.tape_nodes", "attention.attend_calls",
                "model.encode_calls", "sift.inner_backward_calls",
                "equivalence.cases")
# Small runs: training keeps two timed steps after warmup, so sift-joint
# times one causal and one masked step; kernel-audit times one body.
SMALL_OPS = {"mlm-train": 5, "sift-joint": 5, "eval-long": 4,
             "kernel-audit": 3}


def _traced_counts(workload, tmp_path):
    out = run.run_workload(workload, seed=3, n_ops=SMALL_OPS[workload],
                           trace=True, tmp=str(tmp_path))
    layer = run.layer_metrics(out["traced"], run.KIND[workload],
                              out["warmup"], out["cache_hits"])
    return {k: layer[k][0] for k in EXACT_COUNTS}, out["checks"]


@pytest.mark.parametrize("workload", sorted(SMALL_OPS))
def test_exact_counts_repeat_and_tracing_changes_nothing(workload, tmp_path):
    first, checks = _traced_counts(workload, tmp_path)
    second, _ = _traced_counts(workload, tmp_path)
    assert first == second
    assert checks["tracing_changes_no_output"]
    if run.KIND[workload] == "train":
        assert checks["batch_digest_matches_fresh_stream"]
        assert first["tensor.tape_nodes"] > 0
    if workload == "kernel-audit":
        assert checks["swap_delta_fault_caught"]
        assert checks["equivalence_passed"]
        assert first["equivalence.cases"] > 0


@pytest.mark.parametrize("workload", ["mlm-train", "kernel-audit"])
def test_setup_repeats_during_the_pass_change_no_output(workload, tmp_path):
    n_ops = SMALL_OPS[workload]
    untraced = run.run_workload(workload, seed=3, n_ops=n_ops, trace=False,
                                tmp=str(tmp_path))
    traced = run.run_workload(workload, seed=3, n_ops=n_ops, trace=True,
                              tmp=str(tmp_path))
    assert len(untraced["setup_repeats_s"]) == 1 + len(
        run.setup_schedule(n_ops, untraced["warmup"]))
    assert len(traced["setup_repeats_s"]) == 1
    assert untraced["plain"].outputs == traced["plain"].outputs
    assert all(untraced["checks"].values())


def test_mlm_train_counts_match_the_baseline(tmp_path):
    counts, _ = _traced_counts("mlm-train", tmp_path)
    assert counts["tensor.tape_nodes"] == 6752
    assert counts["attention.attend_calls"] == 64
    assert counts["model.encode_calls"] == 16
    assert counts["sift.inner_backward_calls"] == 0


def test_metric_names_match_benchmark_json(tmp_path):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = run.run_workload("eval-long", seed=3, n_ops=13, trace=True,
                           tmp=str(tmp_path))
    end_to_end = set(run.timing_metrics(out["plain"], out["warmup"]))
    layer = set(run.layer_metrics(out["traced"], "eval", out["warmup"],
                                  out["cache_hits"]))
    assert end_to_end | {"setup_s", "peak_rss_mb"} == \
        {m["name"] for m in spec["end_to_end"]}
    assert layer | {"trace.overhead_pct"} == \
        {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.KIND)


def test_tail_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 31)]
    p, value = run.tail(values)
    assert (p, value) == (66, 20.0)
    assert sum(v > value for v in values) == 10
    with pytest.raises(ValueError):
        run.tail(values[:10])
