"""Training loop: AdamW, linear warmup/decay, metrics, ablation suite.

Determinism is the organising principle.  Given (corpus, seed, config)
every run produces bit-identical batches, losses, metrics files and
checkpoints.  Nothing here reads clocks, hostnames or global RNG state;
metric rows are canonical JSON without timestamps.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import deque
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import tensor as T
from .data import BatchStream, corrupt
from .errors import ConfigError, DivergenceError, IngestionError, check_field_types
from .model import OBJECTIVES, Model, ModelConfig, save_checkpoint
from .seeding import rng_for
from .sift import SiftConfig, sift_loss
from .tensor import Tape

METRICS_WINDOW = 100


@dataclass
class TrainConfig:
    steps: int = 200
    batch_size: int = 8
    seq_len: int = 48
    peak_lr: float = 1e-3
    warmup_steps: int = 20
    weight_decay: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-6
    grad_clip: float = 1.0
    seed: int = 0
    checkpoint_interval: int = 0  # 0: only the final checkpoint
    mask_rate: float = 0.15
    span_max: int = 3

    def __post_init__(self):
        check_field_types(self)
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.seq_len < 3:
            raise ConfigError("seq_len must be >= 3")
        if self.peak_lr <= 0:
            raise ConfigError("peak_lr must be > 0")
        if not 0 <= self.warmup_steps <= self.steps:
            raise ConfigError("warmup_steps must lie in [0, steps]")
        if not 0.0 <= self.weight_decay:
            raise ConfigError("weight_decay must be >= 0")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ConfigError("adam_eps must be > 0")
        if self.grad_clip <= 0:
            raise ConfigError("grad_clip must be > 0")
        if self.checkpoint_interval < 0:
            raise ConfigError("checkpoint_interval must be >= 0")
        if not 0.0 < self.mask_rate < 1.0:
            raise ConfigError(f"mask_rate {self.mask_rate} outside (0, 1)")
        if self.span_max < 1:
            raise ConfigError(f"span_max {self.span_max} must be >= 1")


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to peak_lr, then linear decay to zero.

    Endpoints: lr(0) = 0, lr(warmup_steps) = peak_lr, lr(steps) = 0.
    """
    if step <= 0:
        return 0.0
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.peak_lr * step / cfg.warmup_steps
    if step >= cfg.steps:
        return 0.0
    span = cfg.steps - cfg.warmup_steps
    return cfg.peak_lr * (cfg.steps - step) / span


def clip_gradients(params: dict, max_norm: float) -> float:
    """Global-norm clipping in place; returns the pre-clip norm."""
    grads = [p.grad for p in params.values() if p.grad is not None]
    total = 0.0
    for g in grads:
        total += float((g * g).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


class AdamW:
    """Adam with decoupled weight decay.  Applies to every parameter
    uniformly; there is no exclusion list for gains or biases."""

    def __init__(self, params: dict, cfg: TrainConfig) -> None:
        self.params = params
        self.cfg = cfg
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}

    def step(self, lr: float) -> None:
        c = self.cfg
        self.t += 1
        b1t = 1.0 - c.adam_beta1 ** self.t
        b2t = 1.0 - c.adam_beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= c.adam_beta1
            m += (1.0 - c.adam_beta1) * g
            v *= c.adam_beta2
            v += (1.0 - c.adam_beta2) * (g * g)
            update = (m / b1t) / (np.sqrt(v / b2t) + c.adam_eps)
            p.data -= lr * (update + c.weight_decay * p.data)


@dataclass
class TrainResult:
    """A finished run.  The last metrics row is the one source of its
    final losses: final_loss_avg is that row's window average of the
    mode's first objective, None when no step trained it (a 1-step
    joint run)."""
    metrics: list[dict]
    final_loss_avg: float | None
    batch_digest: str
    checkpoint_path: str | None


def _metrics_row(step, loss, objective, windows, grad_norm, lr) -> dict:
    """One step's row: an `<objective>_loss` window average for every
    objective, None for one not yet trained."""
    avg = {name: sum(window) / len(window) if window else None
           for name, window in windows.items()}
    return {
        "step": step,
        "objective": objective,
        "loss": loss,
        **{f"{name}_loss": value for name, value in avg.items()},
        "perplexity": None if avg[objective] is None else perplexity(avg[objective]),
        "grad_norm": grad_norm,
        "lr": lr,
    }


def make_out_dir(path: str) -> None:
    """Make a run's output directory, or raise ConfigError naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"--out {path}: cannot create directory: {e.strerror}") from e


def train(model: Model, stream: BatchStream, tcfg: TrainConfig,
          scfg: SiftConfig | None = None, out_dir: str | None = None,
          meta_extra: dict | None = None) -> TrainResult:
    """Run the loop.  Step s (counting from 1) trains objectives[s %
    len(objectives)], objectives being OBJECTIVES[model.cfg.mode]: joint
    mode's even steps take the masked objective, its odd steps the
    causal one.  Each metrics row carries every objective's window
    average, and the result reports the last row's (see TrainResult).

    On a non-finite loss, or a non-finite gradient norm under a finite
    loss, the loop stops before the update, keeps whatever periodic
    checkpoints exist, writes metrics so far, and raises
    DivergenceError.  The final checkpoint is only written by healthy
    runs.
    """
    scfg = scfg or SiftConfig()
    opt = AdamW(model.params, tcfg)
    windows = {name: deque(maxlen=METRICS_WINDOW)
               for objs in OBJECTIVES.values() for name in objs}
    metrics: list[dict] = []
    objectives = OBJECTIVES[model.cfg.mode]
    metrics_fh = None
    if out_dir:
        make_out_dir(out_dir)
        metrics_fh = open(os.path.join(out_dir, "metrics.jsonl"), "w",
                          encoding="utf-8")

    meta = {"config": model.cfg.to_dict(), "seed": model.seed,
            "train": asdict(tcfg), "sift": asdict(scfg)}
    meta.update(meta_extra or {})

    def emit(row: dict) -> None:
        metrics.append(row)
        if metrics_fh is not None:
            metrics_fh.write(json.dumps(row, sort_keys=True,
                                        separators=(",", ":")) + "\n")
            metrics_fh.flush()

    def save(tag: str, step: int) -> str:
        path = os.path.join(out_dir, f"checkpoint_{tag}.ckpt")
        save_checkpoint(path, model.params, {**meta, "step": step})
        return path

    final_path = None
    try:
        for step in range(1, tcfg.steps + 1):
            batch = stream.next_batch()
            objective = objectives[step % len(objectives)]
            step_seed = tcfg.seed * 1_000_003 + step

            with Tape() as tape:
                loss = sift_loss(batch, model, scfg, mode=objective,
                                 seed=step_seed)
            val = loss.item()
            lr = lr_at(step, tcfg)
            if not math.isfinite(val):
                emit(_metrics_row(step, val, objective, windows, None, lr))
                raise DivergenceError(f"non-finite loss {val!r} at step {step}")

            tape.backward(loss)
            grad_norm = clip_gradients(model.params, tcfg.grad_clip)
            if not math.isfinite(grad_norm):
                emit(_metrics_row(step, val, objective, windows, grad_norm, lr))
                raise DivergenceError(
                    f"non-finite gradient norm {grad_norm!r} at step {step}")
            opt.step(lr)
            model.zero_grad()
            # backward already freed every array the graph saved; drop
            # its emptied nodes now, not when the next step rebinds the
            # names after building its own graph.
            del loss, tape

            windows[objective].append(val)
            emit(_metrics_row(step, val, objective, windows, grad_norm, lr))
            if out_dir and tcfg.checkpoint_interval and \
                    step % tcfg.checkpoint_interval == 0 and step < tcfg.steps:
                save(f"step{step}", step)
    finally:
        if metrics_fh is not None:
            metrics_fh.close()

    if out_dir:
        final_path = save("final", tcfg.steps)

    return TrainResult(
        metrics=metrics,
        final_loss_avg=metrics[-1][f"{objectives[0]}_loss"],
        batch_digest=stream.digest(),
        checkpoint_path=final_path,
    )


def train_fresh(cfg: ModelConfig, sequences: list, tcfg: TrainConfig,
                scfg: SiftConfig | None = None, out_dir: str | None = None,
                meta_extra: dict | None = None) -> TrainResult:
    """Train a new model of cfg on a new batch stream over sequences,
    both seeded with tcfg.seed: the one recipe behind `pretrain` and
    every ablation variant."""
    stream = BatchStream(sequences, n=tcfg.seq_len, batch_size=tcfg.batch_size,
                         vocab_size=cfg.vocab_size, seed=tcfg.seed,
                         mask_rate=tcfg.mask_rate, span_max=tcfg.span_max)
    return train(Model(cfg, seed=tcfg.seed), stream, tcfg, scfg, out_dir, meta_extra)


def evaluate_ppl(model: Model, rows: list[np.ndarray]) -> float:
    """Causal perplexity: exp of the mean next-token NLL over all rows
    of two or more tokens, or inf when that is past the float range."""
    return perplexity(_mean_nll(model.arlm_row(row) for row in map(np.asarray, rows)
                                if row.size >= 2))


def evaluate_mlm(model: Model, rows: list[np.ndarray], tcfg: TrainConfig) -> float:
    """Masked NLL: the NLL summed over every row's masked slots, over
    their count.  Each row is corrupted once, as training corrupts it,
    at tcfg's mask_rate and span_max, every row's draws coming from the
    one stream rng_for(tcfg.seed, "eval/corrupt")."""
    rng = rng_for(tcfg.seed, "eval/corrupt")

    def scored(row):
        x_tilde, positions = corrupt(row, rng, model.cfg.vocab_size,
                                     tcfg.mask_rate, tcfg.span_max)
        predict = np.zeros(row.shape, dtype=bool)
        predict[positions] = True
        return model.mlm_row(row, x_tilde, predict, None)

    return _mean_nll(scored(row) for row in rows)


def _mean_nll(pieces) -> float:
    """Sum the (nll, count, logits) pieces, in order and without a
    tape, into one mean NLL."""
    total = 0.0
    count = 0
    with T.no_grad():
        for nll, c, _ in pieces:
            total += nll.item()
            count += c
    if count == 0:
        raise IngestionError("evaluation rows contained no predictable tokens")
    return total / count


def perplexity(nll: float) -> float:
    """exp(nll), or inf when that is past the float range."""
    try:
        return math.exp(nll)
    except OverflowError:
        return math.inf


ABLATION_VARIANTS: tuple = (
    ("full", {}),
    ("-EMD", {"emd": False}),
    ("-C2P", {"c2p": False}),
    ("-P2C", {"p2c": False}),
    ("-(EMD+C2P)", {"emd": False, "c2p": False}),
    ("-(EMD+P2C)", {"emd": False, "p2c": False}),
)


def run_ablation_suite(base_cfg: ModelConfig, sequences: list, tcfg: TrainConfig,
                       scfg: SiftConfig | None = None,
                       out_dir: str | None = None,
                       meta_extra: dict | None = None) -> list[dict]:
    """Train six component-ablated variants on identical batch streams.

    Every variant reuses the same data seed; the streams' digests are
    compared afterwards so "the data was the same" is a checked fact,
    not an assumption.  Results land in ablation.csv with one row per
    variant, read from the variant's last metrics row: a
    final_<objective>_loss column per objective of the mode, empty for
    one that never ran, and final_ppl, that row's perplexity, which
    belongs to the last step's objective.  meta_extra goes into every
    variant's checkpoints, as in train.
    """
    results = []
    digests = set()
    for name, toggles in ABLATION_VARIANTS:
        cfg = replace(base_cfg, ablations=replace(base_cfg.ablations, **toggles))
        sub_dir = os.path.join(out_dir, name) if out_dir else None
        res = train_fresh(cfg, sequences, tcfg, scfg, sub_dir, meta_extra)
        digests.add(res.batch_digest)
        last = res.metrics[-1]
        results.append({
            "variant": name,
            **{f"final_{o}_loss": last[f"{o}_loss"] for o in OBJECTIVES[cfg.mode]},
            "final_ppl": last["perplexity"],
            "steps": tcfg.steps,
            "seed": tcfg.seed,
        })
    if len(digests) != 1:
        raise ConfigError(
            f"ablation variants consumed different data: {sorted(digests)}"
        )
    if out_dir:
        path = os.path.join(out_dir, "ablation.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(results[0]))
            writer.writeheader()
            writer.writerows(results)
    return results
