#!/usr/bin/env python3
"""Print the tracemalloc memory of one toy training step of each kind.

The training counterpart of tools/eval_memory.py.  This builds the
seed-1 toy model and batch stream that `desklm pretrain --config toy
--seed 1` builds and takes the stream's first batch (16 rows, 20 slots
wide).  For each step kind it runs the trainer's step 1 on that batch,
`sift_loss` on a Tape and then `tape.backward`, without the optimizer
update:

    masked       the masked objective
    causal       the causal objective
    causal+sift  the causal objective with SiFT on (the toy preset's
                 sift settings, lambda 1)

After one warm-up step of each kind it prints one line per kind: the
kind, the memory that Python and numpy allocated during the forward and
still hold when it returns (the graph the tape recorded, and under SiFT
the task gradient already on .grad), then the peak of that memory from
the start of the forward through the backward, both in MiB (2**20
bytes).  The model's parameters and the batch are not counted;
resident memory also counts the interpreter and the model.

Usage: python3 tools/step_memory.py
"""

import os
import sys
import tracemalloc
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from desklm.data import BatchStream, build_vocab, encode_corpus, load_corpus  # noqa: E402
from desklm.model import Model  # noqa: E402
from desklm.runconfig import bundled_corpus_path, load_run_config  # noqa: E402
from desklm.sift import sift_loss  # noqa: E402
from desklm.tensor import Tape  # noqa: E402

SEED = 1
STEP = 1


def main() -> int:
    run_cfg = load_run_config("toy", None, SEED)
    tcfg = run_cfg.trainer
    lines = load_corpus(bundled_corpus_path())
    vocab = build_vocab(lines, cap=run_cfg.data.vocab_cap)
    cfg = run_cfg.build_model_config(len(vocab))
    stream = BatchStream(encode_corpus(lines, vocab), n=tcfg.seq_len,
                         batch_size=tcfg.batch_size, vocab_size=cfg.vocab_size,
                         seed=tcfg.seed, mask_rate=tcfg.mask_rate,
                         span_max=tcfg.span_max)
    batch = stream.next_batch()
    model = Model(cfg, seed=tcfg.seed)
    step_seed = tcfg.seed * 1_000_003 + STEP
    kinds = (("masked", "mlm", run_cfg.sift),
             ("causal", "arlm", run_cfg.sift),
             ("causal+sift", "arlm", replace(run_cfg.sift, enabled=True)))

    def step(mode, scfg):
        with Tape() as tape:
            loss = sift_loss(batch, model, scfg, mode=mode, seed=step_seed)
        held = tracemalloc.get_traced_memory()[0]
        tape.backward(loss)
        return held

    for name, mode, scfg in kinds:
        step(mode, scfg)
        model.zero_grad()
        tracemalloc.start()
        try:
            held = step(mode, scfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        model.zero_grad()
        print(f"{name} {held / 2**20:.2f} {peak / 2**20:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
