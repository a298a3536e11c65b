"""The four workloads: seeded inputs, one pass over them, output checks.

Every workload is a closed loop with a single caller: the next step, row
or case starts only when the previous one has finished.  The benchmark
starts no thread or process; the trainer's own producer thread and the
BLAS pool are the only ones besides the main thread.

A workload is used in three stages:

* ``setup(seed, n_ops, tmp)`` builds everything a pass needs from the seed:
  config, corpus, vocabulary, model, batch stream or eval rows, or the
  equivalence seeds.  It is what ``setup_s`` times.
* ``run(ctx, tracer, between)`` makes one pass and returns a
  ``PassResult``.  With ``tracer=None`` only the op clock is installed.
  ``between(op)``, if given, runs before op ``op`` starts and is kept
  out of the op times (``run.py`` repeats the timed set-up there).
* ``check(ctx, res)`` verifies the outputs of a finished pass.

``n_ops`` is the number of steps, rows or equivalence bodies; the first
``WARMUP`` ops fill caches and are left out of the timings.  An op is a
training step, an eval row or an equivalence body
(``SWEEP_SEEDS`` draws, then the allocation audit).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import desklm.equivalence as equivalence_mod
import desklm.model as model_mod
import desklm.sift as sift_mod
import desklm.trainer as trainer_mod
from desklm.data import CLS, SEP, BatchStream, build_vocab, encode_corpus, \
    load_corpus
from desklm.model import Model, load_model, save_checkpoint
from desklm.runconfig import bundled_corpus_path, load_run_config

from tracing import OpClock, Tracer, patched, traced_tape

WARMUP = 2
# Rows of eval-long: [CLS] + 254 corpus tokens + [SEP], 255 predictions.
EVAL_LEN = 256
# Second-pass check of eval-long covers this many leading rows.
EVAL_RECHECK_ROWS = 8
# Randomized draws per equivalence body, as in `desklm equivalence
# --sweep-seeds 10`.  A body (88 cases and the audit, about 0.3 s) is one
# op: a single 2 ms case is too short to time on a shared host, and the
# median case depends on the seed's mix of shapes.
SWEEP_SEEDS = 10
# Draws of the swap-delta sweep that must be caught.
FAULT_SWEEP_SEEDS = 2


@dataclass
class PassResult:
    op_s: list[float]           # wall time of each timed-or-warmup op, in order
    items: list[int]            # tokens (training, eval) or cases per op
    attempted: int
    failed: int
    outputs: dict               # deterministic results; equal across passes
    error: str | None = None
    spans: list = field(default_factory=list)
    producer: list = field(default_factory=list)  # (op, real, cells) per batch


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def _clocked(clock: OpClock, tracer: Tracer | None, name: str, fn,
             before=None):
    """fn wrapped so that each call starts a new op (and a span)."""
    def clocked(*args, **kwargs):
        op = clock.tick()
        if before is not None:
            before(*args)
        if tracer is None:
            return fn(*args, **kwargs)
        tracer.op = op
        return tracer.call(name, fn, args, kwargs)
    return clocked


def _model_spans(tracer: Tracer, model) -> list:
    return [(model_mod, "attend", tracer.wrap("attention.attend", model_mod.attend)),
            (model, "encode", tracer.wrap("model.encode", model.encode)),
            (model, "decode", tracer.wrap("model.decode", model.decode))]


# ---------------------------------------------------------------------
# Training: mlm-train and sift-joint.
# ---------------------------------------------------------------------


class Training:
    """`desklm pretrain --config toy` for a short run, through trainer.train.

    The run has n_ops steps and keeps the preset's schedule shape:
    linear warmup over 1/20 of the steps, then linear decay.
    """

    def __init__(self, name: str, sets: list[str]) -> None:
        self.name = name
        self.sets = sets

    def setup(self, seed: int, n_ops: int, tmp: str) -> dict:
        sets = self.sets + [f"trainer.steps={n_ops}",
                            f"trainer.warmup_steps={max(1, n_ops // 20)}"]
        run_cfg = load_run_config("toy", sets, seed)
        lines = load_corpus(run_cfg.data.corpus or bundled_corpus_path())
        vocab = build_vocab(lines, cap=run_cfg.data.vocab_cap)
        seqs = encode_corpus(lines, vocab)
        tcfg = run_cfg.trainer
        model = Model(run_cfg.build_model_config(len(vocab)), seed=tcfg.seed)
        return {"run_cfg": run_cfg, "seqs": seqs, "vocab": vocab,
                "model": model, "stream": self._stream(seqs, len(vocab), tcfg),
                "out_dir": tempfile.mkdtemp(prefix=self.name, dir=tmp)}

    @staticmethod
    def _stream(seqs, vocab_size: int, tcfg) -> BatchStream:
        return BatchStream(seqs, n=tcfg.seq_len, batch_size=tcfg.batch_size,
                           vocab_size=vocab_size, seed=tcfg.seed,
                           mask_rate=tcfg.mask_rate, span_max=tcfg.span_max)

    def run(self, ctx: dict, tracer: Tracer | None,
            between=None) -> PassResult:
        model, stream = ctx["model"], ctx["stream"]
        run_cfg = ctx["run_cfg"]
        steps = run_cfg.trainer.steps
        clock = OpClock(between)
        tokens: list[int] = []
        producer: list = []

        def count_tokens(batch, *_):
            # MLM steps get the padded batch, ARLM steps the stripped rows.
            tokens.append(int(batch.real.sum()) if hasattr(batch, "real")
                          else sum(len(r) for r in batch))

        patches = [(trainer_mod, "sift_loss",
                    _clocked(clock, tracer, "sift.loss", sift_mod.sift_loss,
                             count_tokens))]
        if tracer is not None:
            next_batch = stream.next_batch

            def traced_next_batch():
                op = len(producer) + 1
                batch = tracer.call("data.next_batch", next_batch, (), {}, op=op)
                producer.append((op, int(batch.real.sum()), batch.real.size))
                return batch

            class AdamW(trainer_mod.AdamW):
                def step(self, lr):
                    return tracer.call("trainer.adamw", super().step, (lr,), {})

            patches += _model_spans(tracer, model) + [
                (model, "mlm_row", tracer.wrap("model.row", model.mlm_row)),
                (model, "arlm_row", tracer.wrap("model.row", model.arlm_row)),
                (stream, "next_batch", traced_next_batch),
                (trainer_mod, "Tape",
                 traced_tape(tracer, trainer_mod.Tape, "trainer.backward")),
                (sift_mod, "Tape",
                 traced_tape(tracer, sift_mod.Tape, "sift.inner_backward")),
                (sift_mod, "symmetric_kl",
                 tracer.wrap("sift.symmetric_kl", sift_mod.symmetric_kl)),
                (trainer_mod, "clip_gradients",
                 tracer.wrap("trainer.clip", trainer_mod.clip_gradients)),
                (trainer_mod, "AdamW", AdamW),
            ]
        result, error = None, None
        with patched(*patches):
            try:
                result = trainer_mod.train(model, stream, run_cfg.trainer,
                                           run_cfg.sift, out_dir=ctx["out_dir"])
            except Exception as e:  # counted as failed steps below
                error = f"{type(e).__name__}: {e}"

        metrics_path = os.path.join(ctx["out_dir"], "metrics.jsonl")
        with open(metrics_path, "rb") as fh:
            metrics_bytes = fh.read()
        done = sum(1 for line in metrics_bytes.splitlines()
                   if _finite(json.loads(line)["loss"]))
        outputs = {"metrics_sha256": hashlib.sha256(metrics_bytes).hexdigest()}
        if result is not None:
            with open(result.checkpoint_path, "rb") as fh:
                outputs["checkpoint_sha256"] = hashlib.sha256(fh.read()).hexdigest()
            outputs.update(
                batch_digest=result.batch_digest,
                loss_end=result.final_loss_avg,
                first_loss=result.metrics[0]["loss"],
                losses_finite=all(_finite(m["loss"]) for m in result.metrics)
                and len(result.metrics) == steps)
        # The last step's end is not observed (train() goes on to write
        # the final checkpoint), so it has no time.
        op_s = clock.durations()
        return PassResult(
            op_s=op_s, items=tokens[:len(op_s)],
            attempted=steps, failed=steps - done, outputs=outputs,
            error=error,
            spans=tracer.spans + tracer.background if tracer else [],
            producer=producer)

    def check(self, ctx: dict, res: PassResult) -> dict[str, bool]:
        out = res.outputs
        if "batch_digest" not in out:
            return {"train_completed": False}
        run_cfg = ctx["run_cfg"]
        fresh = self._stream(ctx["seqs"], len(ctx["vocab"]), run_cfg.trainer)
        for _ in range(run_cfg.trainer.steps):
            fresh.next_batch()
        # The first step runs at initialisation, where every objective
        # sits near ln(vocab); any learning brings the window mean below.
        first = out["first_loss"]
        return {
            "train_completed": True,
            "losses_finite": out["losses_finite"],
            "batch_digest_matches_fresh_stream":
                fresh.digest() == out["batch_digest"],
            "loss_end_below_first_loss":
                _finite(first) and out["loss_end"] < first,
        }


# ---------------------------------------------------------------------
# eval-long.
# ---------------------------------------------------------------------


class EvalLong:
    """Causal perplexity under no-grad on 256-token rows (`desklm eval`)."""

    name = "eval-long"

    def setup(self, seed: int, n_ops: int, tmp: str) -> dict:
        run_cfg = load_run_config("toy", [f"model.max_len={EVAL_LEN}"], seed)
        lines = load_corpus(run_cfg.data.corpus or bundled_corpus_path())
        vocab = build_vocab(lines, cap=run_cfg.data.vocab_cap)
        cfg = run_cfg.build_model_config(len(vocab))
        path = os.path.join(tempfile.mkdtemp(prefix=self.name, dir=tmp),
                            "model.ckpt")
        save_checkpoint(path, Model(cfg, seed=seed).params,
                        {"config": cfg.to_dict(), "seed": seed,
                         "vocab": vocab.tokens})
        model, _ = load_model(path)
        return {"model": model, "rows": self._rows(lines, vocab, seed, n_ops)}

    @staticmethod
    def _rows(lines, vocab, seed: int, n_rows: int) -> list[np.ndarray]:
        """Corpus lines in seeded order, packed into full-length rows."""
        rng = np.random.default_rng(seed)
        body = EVAL_LEN - 2
        rows: list[np.ndarray] = []
        pending: list[int] = []
        while len(rows) < n_rows:
            for i in rng.permutation(len(lines)):
                pending.extend(encode_corpus([lines[i]], vocab)[0])
                if len(pending) >= body:
                    rows.append(np.array([CLS] + pending[:body] + [SEP],
                                         dtype=np.int64))
                    pending = pending[body:]
                    if len(rows) == n_rows:
                        break
        return rows

    def run(self, ctx: dict, tracer: Tracer | None,
            between=None) -> PassResult:
        model, rows = ctx["model"], ctx["rows"]
        clock = OpClock(between)
        nll: list[float] = []
        counts: list[int] = []
        arlm_row = _clocked(clock, tracer, "model.row", model.arlm_row)

        def scored_row(*args, **kwargs):
            out = arlm_row(*args, **kwargs)
            nll.append(out[0].item())
            counts.append(out[1])
            return out

        patches = [(model, "arlm_row", scored_row)]
        if tracer is not None:
            patches += _model_spans(tracer, model)
        ppl, error = None, None
        with patched(*patches):
            try:
                ppl = trainer_mod.evaluate_ppl(model, rows)
            except Exception as e:
                error = f"{type(e).__name__}: {e}"
            end = perf_counter()
        done = sum(1 for v in nll if _finite(v))
        return PassResult(
            op_s=clock.durations(end),
            items=counts, attempted=len(rows), failed=len(rows) - done,
            outputs={"ppl": ppl, "nll": nll}, error=error,
            spans=tracer.spans if tracer else [])

    def check(self, ctx: dict, res: PassResult) -> dict[str, bool]:
        ppl, nll = res.outputs["ppl"], res.outputs["nll"]
        k = min(EVAL_RECHECK_ROWS, len(nll))
        # Same summation order as evaluate_ppl, over the first k rows.
        total = 0.0
        for v in nll[:k]:
            total += v
        first_rows = math.exp(total / (k * (EVAL_LEN - 1))) if k else None
        again = trainer_mod.evaluate_ppl(ctx["model"], ctx["rows"][:k])
        return {"ppl_finite": _finite(ppl),
                "ppl_identical_on_second_pass": again == first_rows}


# ---------------------------------------------------------------------
# kernel-audit.
# ---------------------------------------------------------------------


class KernelAudit:
    """The body of `desklm equivalence --sweep-seeds 10`, repeated with
    seeded body seeds: run_equivalence_suite with SWEEP_SEEDS randomized
    draws, then run_allocation_audit."""

    name = "kernel-audit"

    def setup(self, seed: int, n_ops: int, tmp: str) -> dict:
        load_run_config("toy", [], seed)  # as `desklm equivalence` does
        rng = np.random.default_rng(seed)
        return {"seed": seed,
                "body_seeds": [int(s) for s in rng.integers(1, 2**31, n_ops)]}

    def run(self, ctx: dict, tracer: Tracer | None,
            between=None) -> PassResult:
        clock = OpClock(between)
        audit = equivalence_mod.run_allocation_audit
        patches = []
        if tracer is not None:
            patches = [
                (equivalence_mod, "scores_naive",
                 tracer.wrap("equivalence.naive", equivalence_mod.scores_naive)),
                (equivalence_mod, "scores_efficient",
                 tracer.wrap("equivalence.efficient",
                             equivalence_mod.scores_efficient)),
                (equivalence_mod, "Tape",
                 traced_tape(tracer, equivalence_mod.Tape,
                             "equivalence.backward")),
            ]
        per_body = len(equivalence_mod._EDGE_SHAPES) * 8 + 4 * SWEEP_SEEDS
        attempted = failed = 0
        outputs = {"case_diffs": [], "audit": []}
        errors = []
        with patched(*patches):
            for body_seed in ctx["body_seeds"]:
                op = clock.tick()
                attempted += per_body
                report, rows = None, []
                try:
                    if tracer is not None:
                        tracer.op = op
                    report = equivalence_mod.run_equivalence_suite(
                        seed=body_seed, n_seeds=SWEEP_SEEDS)
                    if tracer is None:
                        rows = audit(seed=body_seed)
                    else:
                        # The audit's kernel calls are not cases: their
                        # spans get op 0, the audit span the body's op.
                        tracer.op = 0
                        rows = tracer.call("equivalence.audit", audit, (),
                                           {"seed": body_seed}, op=op)
                except Exception as e:
                    errors.append(f"{type(e).__name__}: {e}")
                if report is None or len(report.cases) != per_body:
                    failed += per_body
                    continue
                failed += len(report.failures)
                outputs["case_diffs"] += [(c.max_score_diff, c.max_grad_diff)
                                          for c in report.cases]
                outputs["audit"] += [(r.n, r.efficient_peak, r.budget,
                                      r.within_budget) for r in rows]
            end = perf_counter()
        op_s = clock.durations(end)
        return PassResult(
            op_s=op_s, items=[per_body] * len(op_s), attempted=attempted,
            failed=failed, outputs=outputs,
            error="; ".join(errors) or None,
            spans=tracer.spans if tracer else [])

    def check(self, ctx: dict, res: PassResult) -> dict[str, bool]:
        audit = res.outputs["audit"]
        faulty = equivalence_mod.run_equivalence_suite(
            seed=ctx["seed"], fault="swap-delta", n_seeds=FAULT_SWEEP_SEEDS)
        return {
            "equivalence_passed": res.failed == 0 and res.error is None,
            "audit_within_budget": len(audit) == 3 * len(ctx["body_seeds"])
            and all(row[3] for row in audit),
            "swap_delta_fault_caught": not faulty.passed,
        }


WORKLOADS = {
    "mlm-train": Training("mlm-train", []),
    "sift-joint": Training("sift-joint",
                           ["model.mode=joint", "sift.enabled=true"]),
    "eval-long": EvalLong(),
    "kernel-audit": KernelAudit(),
}
