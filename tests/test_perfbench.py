"""The benchmark harness against the package.

perfbench/ patches the package by name (Model.mlm_row, arlm_row,
encode and decode, desklm.model.attend, trainer.sift_loss, Tape,
AdamW, clip_gradients, sift.Tape, symmetric_kl) and calls
Tape.backward(loss, targets) positionally.  A short traced pass of
every workload runs each patch point, so a refactor that breaks one
fails here rather than only when the benchmark is next run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = {"mlm-train", "sift-joint", "eval-long", "kernel-audit"}


def test_traced_benchmark_pass_checks_every_workload():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "all", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    checks = [line.split() for line in proc.stdout.splitlines()
              if line.split()[1:2] == ["check"]]
    assert {c[0] for c in checks} == WORKLOADS
    failed = [" ".join(c) for c in checks if c[-1] != "ok"]
    assert not failed, failed
    # batches come cut to their longest row, so the traced padding share
    # is what the model computes on (a seq_len-wide batch reads about 0.48)
    pad = {line.split()[0]: float(line.split()[2]) for line in proc.stdout.splitlines()
           if line.split()[1:2] == ["data.pad_fraction"]}
    for workload in ("mlm-train", "sift-joint"):
        assert pad[workload] < 0.25, pad
