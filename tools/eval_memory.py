#!/usr/bin/env python3
"""Print the tracemalloc peak of one causal eval row at three lengths.

For n = 256, 512 and 1024 this builds a seed-1 toy model with
model.max_len=1024, packs the first n tokens of the bundled corpus into
one row (CLS, n - 2 tokens, SEP) and scores it once with
`Model.arlm_row` under no_grad, as `desklm eval` does.  After one
warm-up call it prints one line per length: n, then the peak of the
memory that Python and numpy allocate during a second call, in MiB
(2**20 bytes).  That peak is what the attention path holds at once;
resident memory also counts the interpreter and the model.

Usage: python3 tools/eval_memory.py
"""

import os
import sys
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from desklm import tensor as T  # noqa: E402
from desklm.data import build_vocab, encode_corpus, load_corpus, pack  # noqa: E402
from desklm.model import Model  # noqa: E402
from desklm.runconfig import bundled_corpus_path, load_run_config  # noqa: E402

LENGTHS = (256, 512, 1024)


def main() -> int:
    run_cfg = load_run_config("toy", [f"model.max_len={max(LENGTHS)}"], 1)
    lines = load_corpus(bundled_corpus_path())
    vocab = build_vocab(lines, cap=run_cfg.data.vocab_cap)
    model = Model(run_cfg.build_model_config(len(vocab)), seed=1)
    ids = [t for seq in encode_corpus(lines, vocab) for t in seq]
    for n in LENGTHS:
        row = pack(ids, n)[0]
        with T.no_grad():
            model.arlm_row(row)
            tracemalloc.start()
            try:
                model.arlm_row(row)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        print(f"{n} {peak / 2**20:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
