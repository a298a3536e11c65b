"""Perturbation-consistency regularisation on normalised embeddings.

Word-embedding norms vary wildly between frequent and rare tokens, so a
fixed-radius perturbation means different things at different tokens.
The fix: perturb after the embedding layer norm, where every token row
has unit variance, and ask the model to produce the same predictive
distribution with and without the perturbation.

The regulariser is the symmetric KL between the clean and perturbed
output distributions at the predicted positions.  The perturbation is
found by a few steps of projected gradient ascent on that same
divergence, run on a short-lived inner tape on which the model
parameters count as constants: its backward computes the
perturbation's gradient and nothing else, and the tape is freed before
the next forward.
Both the clean-versus-perturbed pairing and the ascent reuse identical
dropout draws, so the divergence measures the perturbation and not the
noise.  A batch is perturbed as one (b, n, d) tensor, n being the
batch's own width, so no noise is drawn for a column nobody computes
(make_batch cuts a batch to its longest row); the ascent's
normalisation, early exit and epsilon-ball projection stay per row.

A step holds one forward graph at a time.  When a tape records the
call, the clean pass runs on its own nested tape, whose backward puts
the task loss's gradient on the parameters' .grad at once; that graph
is freed before the first ascent forward.  The returned loss records
only the perturbed pass, with the task loss added as a constant, so the
caller's one backward of it completes the same gradient.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, check_field_types
from .seeding import rng_for
# symmetric_kl is the consistency divergence, one recorded op; the
# ascent and sift_loss look it up in this module, so a spy can replace it
from .tensor import Tape, Tensor, symmetric_kl

# Standardisation guard.  Small enough that rescaling the input by any
# sane factor moves the output by less than 1e-9.
_NORM_EPS = 1e-12


@dataclass
class SiftConfig:
    enabled: bool = False
    epsilon: float = 1e-2
    ascent_steps: int = 1
    ascent_lr: float = 1e-3
    lam: float = 1.0  # weight of the consistency term ("lambda" in configs)

    def __post_init__(self):
        check_field_types(self)
        if self.epsilon < 0:
            raise ConfigError("epsilon must be >= 0")
        if self.ascent_steps < 0:
            raise ConfigError("ascent_steps must be >= 0")
        if self.ascent_lr < 0:
            raise ConfigError("ascent_lr must be >= 0")
        if self.lam < 0:
            raise ConfigError("lambda must be >= 0")


def normalize_embeddings(e: Tensor) -> Tensor:
    """Per-row standardisation: mean 0, variance 1 across the width.

    Applied twice: one additive-eps pass is not scale-invariant under
    strong down-scaling (eps/s^2 swamps a shrunken row variance), but
    its output is exactly collinear with the unscaled result, so a
    second pass cancels the leftover length difference while keeping
    bounded gradients and the constant-row -> zero-vector behaviour.
    """
    d = e.shape[-1]
    gain, bias = Tensor(np.ones(d)), Tensor(np.zeros(d))
    once = T.layer_norm(e, gain, bias, eps=_NORM_EPS)
    return T.layer_norm(once, gain, bias, eps=_NORM_EPS)


def _project_rows(delta: np.ndarray, epsilon: float, active: np.ndarray) -> None:
    """Clip each token row of the active sequences into the epsilon ball,
    in place."""
    norms = np.sqrt((delta * delta).sum(axis=-1, keepdims=True))
    over = (norms > epsilon) & active
    if over.any():
        scale = np.where(over, epsilon / np.maximum(norms, 1e-300), 1.0)
        delta *= scale


def _ascent_grad(forward, rng, clean: Tensor, delta: Tensor, params) -> np.ndarray:
    """The gradient of symmetric_kl(clean, perturbed logits) in delta,
    for one ascent step.

    forward(delta, rng) runs on a fresh tape on which params count as
    constants, so the backward computes no weight gradient.  The tape
    and everything it recorded are freed when this returns; only
    delta's gradient survives.
    """
    params = list(params)
    flags = [p.requires_grad for p in params]
    try:
        for p in params:
            p.requires_grad = False
        with Tape() as inner:
            _, _, pert_logits = forward(delta, rng)
            divergence = symmetric_kl(clean, pert_logits)
        inner.backward(divergence, targets=[delta])
    finally:
        for p, flag in zip(params, flags):
            p.requires_grad = flag
    g, delta.grad = delta.grad, None
    return g


def sift_loss(batch, model, cfg: SiftConfig, mode: str = "mlm",
              seed: int = 0, return_parts: bool = False):
    """Task loss plus lambda times the adversarial consistency term.

    batch is a MaskedBatch.  mode="mlm" predicts its masked slots;
    mode="arlm" predicts next tokens of its original rows x, which are
    left-packed, under a causal plus padding mask.  The whole batch goes
    through one forward per pass (clean, each ascent step, perturbed);
    the perturbation search stays per sequence: each row's ascent step
    is normalised by its own gradient norm, a row whose gradient
    vanishes stops moving, and every token row is clipped into its own
    epsilon ball.  seed pins the perturbation draws and the paired
    dropout stream.  Disabled (or lambda = 0), the clean pass is the
    whole call: it records on the caller's tape, if any, and its task
    loss is returned as is, so both cases are the plain task loss.

    Enabled, under a recording tape, the clean pass records on a
    nested tape whose backward accumulates the task loss's gradient
    into the parameters' .grad before this returns, and the returned
    loss records only the perturbed pass: the task loss enters it as a
    constant.  One backward of the returned loss on the caller's tape
    then leaves .grad holding the gradient of the whole loss.  Without
    a recording tape no .grad is touched.  With return_parts the result
    is (loss, task, r_adv); enabled, task is that constant.
    """
    if mode == "mlm":
        def forward(perturb, rng):
            return model.mlm_row(batch.x, batch.x_tilde, batch.predict,
                                 batch.real, rng=rng, perturb=perturb)
    elif mode == "arlm":
        def forward(perturb, rng):
            return model.arlm_row(batch.x, real=batch.real, rng=rng,
                                  perturb=perturb)
    else:
        raise ConfigError(f"sift mode {mode!r} not one of ('mlm', 'arlm')")

    def drop_rng():
        # fresh generator per use: clean, ascent and perturbed forwards
        # all see the same dropout masks
        return rng_for(seed, "sift/dropout")

    on = cfg.enabled and cfg.lam != 0.0
    # Enabled, the clean pass gets its own tape, backed out at once, so
    # its graph is gone before the ascent builds the next one.
    nested = on and T.recording()
    with (Tape() if nested else contextlib.nullcontext()) as clean_tape:
        nll, count, clean_logits = forward(None, drop_rng())
        task = T.mul(nll, 1.0 / count)
    if not on:
        return (task, task, None) if return_parts else task
    if nested and len(clean_tape):
        clean_tape.backward(task)
    # From here the task loss is a constant, and a frozen copy of the
    # clean distribution drives both the ascent and the outer
    # divergence; gradients only ever flow through the perturbed branch.
    task = Tensor(task.data)
    clean_const = Tensor(clean_logits.data)
    del nll, clean_logits, clean_tape

    delta0 = rng_for(seed, "sift/init").normal(
        0.0, 1.0, batch.x.shape + (model.cfg.d,))
    init_norms = np.sqrt((delta0 * delta0).sum(axis=-1, keepdims=True))
    delta0 *= (cfg.epsilon / 10.0) / np.maximum(init_norms, 1e-300)
    delta = Tensor(delta0, requires_grad=True)

    active = np.ones(batch.x.shape[:-1] + (1, 1), dtype=bool)  # per sequence
    for _step in range(cfg.ascent_steps):
        g = _ascent_grad(forward, drop_rng(), clean_const, delta, model.params.values())
        gnorm = np.sqrt((g * g).sum(axis=(-2, -1), keepdims=True))
        active &= gnorm >= 1e-30
        if not active.any():
            break
        delta.data += np.where(active, cfg.ascent_lr * g / np.maximum(gnorm, 1e-300),
                               0.0)
        _project_rows(delta.data, cfg.epsilon, active)

    frozen = Tensor(delta.data)
    _, _, pert_logits = forward(frozen, drop_rng())
    r_adv = T.mul(symmetric_kl(clean_const, pert_logits), 1.0 / count)
    loss = T.add(task, T.mul(r_adv, cfg.lam))
    if return_parts:
        return loss, task, r_adv
    return loss
