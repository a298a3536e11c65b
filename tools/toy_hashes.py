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
stderr is left out.  A sixth, "eval <sha256>", hashes the float64 bytes
of the causal NLL sum (`Model.arlm_row` under no_grad) of each of 8
rows of 256 tokens, packed in order from the bundled corpus, on a
seed-1 toy model with model.max_len=256: the eval path, which no
training run takes.

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

import numpy as np  # noqa: E402

from desklm import tensor as T  # noqa: E402
from desklm.cli import main  # noqa: E402
from desklm.data import build_vocab, encode_corpus, load_corpus, pack  # noqa: E402
from desklm.model import Model  # noqa: E402
from desklm.runconfig import bundled_corpus_path, load_run_config  # noqa: E402

EVAL_ROWS, EVAL_LEN = 8, 256

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


def eval_hash() -> str:
    run_cfg = load_run_config("toy", [f"model.max_len={EVAL_LEN}"], 1)
    lines = load_corpus(bundled_corpus_path())
    vocab = build_vocab(lines, cap=run_cfg.data.vocab_cap)
    model = Model(run_cfg.build_model_config(len(vocab)), seed=1)
    ids = [t for seq in encode_corpus(lines, vocab) for t in seq]
    body = EVAL_LEN - 2
    digest = hashlib.sha256()
    with T.no_grad():
        for r in range(EVAL_ROWS):
            row = pack(ids[r * body:(r + 1) * body], EVAL_LEN)[0]
            nll, _, _ = model.arlm_row(row)
            digest.update(np.float64(nll.item()).tobytes())
    return digest.hexdigest()


def main_cli() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=12)
    args = parser.parse_args()
    for name, settings in VARIANTS.items():
        metrics, ckpt = run_variant(settings, args.steps)
        print(f"{name} {metrics} {ckpt}")
    print(f"equivalence {equivalence_hash()}")
    print(f"eval {eval_hash()}")
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
