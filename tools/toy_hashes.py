#!/usr/bin/env python3
"""Print the sha256 of the outputs of four short toy pretraining runs
and of the kernel equivalence report.

A change that should leave every computed number alone must leave these
hashes alone.  Each variant runs

    desklm pretrain --config toy --seed 1 --set trainer.steps=N
        --set trainer.warmup_steps=1 [variant settings]

in-process, in its own temporary directory, and prints one line: the
variant name, then the sha256 of metrics.jsonl and of
checkpoint_final.ckpt.  A fifth line, "equivalence <sha256>", hashes the
stdout of `desklm equivalence --sweep-seeds 10`; the config echo on
stderr is left out.

Usage: python3 tools/toy_hashes.py [--steps N]   (N defaults to 12)
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from desklm.cli import main  # noqa: E402

VARIANTS = {
    "as-given": [],
    "joint-sift": ["model.mode=joint", "sift.enabled=true"],
    "no-position-terms": ["model.ablations.c2p=false", "model.ablations.p2c=false"],
    "no-p2c-shared": ["model.ablations.p2c=false", "model.share_projection=true"],
}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_variant(settings: list[str], steps: int) -> tuple[str, str]:
    with tempfile.TemporaryDirectory() as out:
        argv = ["pretrain", "--config", "toy", "--seed", "1", "--out", out,
                "--set", f"trainer.steps={steps}", "--set", "trainer.warmup_steps=1"]
        for s in settings:
            argv += ["--set", s]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        if rc != 0:
            raise SystemExit(f"pretrain {' '.join(settings)} exited {rc}")
        return (_sha256(os.path.join(out, "metrics.jsonl")),
                _sha256(os.path.join(out, "checkpoint_final.ckpt")))


def equivalence_hash() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(["equivalence", "--sweep-seeds", "10"])
    if rc != 0:
        raise SystemExit(f"equivalence exited {rc}")
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def main_cli() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=12)
    args = parser.parse_args()
    for name, settings in VARIANTS.items():
        metrics, ckpt = run_variant(settings, args.steps)
        print(f"{name} {metrics} {ckpt}")
    print(f"equivalence {equivalence_hash()}")
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
