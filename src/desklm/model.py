"""Transformer encoder with disentangled attention plus a mask decoder.

Layout decisions, fixed across the package:

  * No absolute positions at the encoder input.  Token embeddings go
    through a layer norm and dropout, then L post-norm blocks.  The
    encoder's only notion of position is the shared relative table.
    (A config flag can re-enable input-side absolute embeddings for
    comparison runs; it is off by default.)
  * The decode head is a stack of n_emd transformer blocks whose query
    stream starts as H + absolute-position rows while keys and values
    stay pinned to the encoder output H.  Absolute positions therefore
    enter exactly once, next to the output, where word order ties like
    identical local contexts must be broken.  With the head ablated the
    same block runs once with query = H and no position rows, which is
    the ordinary single-block decode.
  * Logits tie the token embedding: logits = X E^T + b.
  * Every forward pass takes one row of ids (n,) or a batch (b, n); a
    batch is one pass through the same code, with no loop over rows.
    Padded batches are left-packed and carry a real mask that keeps PAD
    out of every attention row; the causal objective adds the causal
    mask on top, so a padded batch scores exactly the real next tokens
    of each row.

Parameters live in a flat name -> Tensor dict.  Shapes come from one
registry function so init, counting, checkpoint validation and the
audit can never disagree.  Initialisation is per-name seeded, so adding
or removing one parameter (say, the decoder's position table) never
shifts the draws of any other.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import tensor as T
from .attention import AttentionParams, attend, causal_mask
from .errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    ContractError,
    check_field_types,
)
from .seeding import rng_for, truncated_normal
from .tensor import Tensor

# The objectives each mode trains, in the order training takes them:
# step s trains objectives[s % len(objectives)].  A run reports each
# one's window average from its last metrics row, and
# TrainResult.final_loss_avg is the first's.
OBJECTIVES = {"mlm": ("mlm",), "arlm": ("arlm",), "joint": ("mlm", "arlm")}


@dataclass
class AblationFlags:
    """Component switches.  True means the component is active."""

    emd: bool = True
    c2p: bool = True
    p2c: bool = True

    def __post_init__(self):
        check_field_types(self)


@dataclass
class ModelConfig:
    vocab_size: int
    max_len: int = 64
    L: int = 2
    d: int = 32
    heads: int = 2
    ffn: int = 64
    k: int = 8
    n_emd: int = 2
    emd_shared: bool = True
    share_projection: bool = False
    dropout: float = 0.1
    mode: str = "mlm"
    abs_pos_at_input: bool = False
    ablations: AblationFlags = field(default_factory=AblationFlags)

    def __post_init__(self):
        if isinstance(self.ablations, dict):
            self.ablations = AblationFlags(**self.ablations)
        check_field_types(self)
        if self.vocab_size < 2:
            # The data pipeline needs room past its reserved ids and
            # checks that itself; the model only needs a distribution.
            raise ConfigError(f"vocab_size {self.vocab_size} too small")
        if self.max_len < 3:
            raise ConfigError(f"max_len {self.max_len} cannot hold CLS + token + SEP")
        if self.L < 0:
            raise ConfigError("L must be >= 0")
        if self.d < 1 or self.heads < 1 or self.d % self.heads != 0:
            raise ConfigError(f"width {self.d} not divisible into {self.heads} heads")
        if self.ffn < 1:
            raise ConfigError("ffn width must be >= 1")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.n_emd < 1:
            raise ConfigError("n_emd must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} outside [0, 1)")
        if self.mode not in OBJECTIVES:
            raise ConfigError(f"mode {self.mode!r} not one of {tuple(OBJECTIVES)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def uses_position_terms(self) -> bool:
        return self.ablations.c2p or self.ablations.p2c

    @property
    def decoder_sets(self) -> int:
        if not self.ablations.emd or self.emd_shared:
            return 1
        return self.n_emd

    @property
    def decode_runs(self) -> int:
        """How many decode blocks run: len(decode_blocks)."""
        return self.n_emd if self.ablations.emd else 1

    @property
    def decode_blocks(self) -> list[str]:
        """Parameter prefixes of the decode blocks that run, in order."""
        return [f"dec{j % self.decoder_sets}" for j in range(self.decode_runs)]


def _block_shapes(prefix: str, cfg: ModelConfig) -> dict[str, tuple]:
    d, f = cfg.d, cfg.ffn
    shapes = {
        f"{prefix}_att_wqc": (d, d),
        f"{prefix}_att_wkc": (d, d),
        f"{prefix}_att_wvc": (d, d),
        f"{prefix}_att_wo": (d, d),
    }
    # Each position projection exists only for the term that reads it.
    if cfg.ablations.p2c and not cfg.share_projection:
        shapes[f"{prefix}_att_wqr"] = (d, d)
    if cfg.ablations.c2p and not cfg.share_projection:
        shapes[f"{prefix}_att_wkr"] = (d, d)
    shapes.update({
        f"{prefix}_ln1_g": (d,),
        f"{prefix}_ln1_b": (d,),
        f"{prefix}_ffn_w1": (d, f),
        f"{prefix}_ffn_b1": (f,),
        f"{prefix}_ffn_w2": (f, d),
        f"{prefix}_ffn_b2": (d,),
        f"{prefix}_ln2_g": (d,),
        f"{prefix}_ln2_b": (d,),
    })
    return shapes


def param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    """Single source of truth for the parameter set and its shapes."""
    shapes: dict[str, tuple] = {
        "tok_emb": (cfg.vocab_size, cfg.d),
        "emb_ln_g": (cfg.d,),
        "emb_ln_b": (cfg.d,),
    }
    if cfg.abs_pos_at_input:
        shapes["abs_in"] = (cfg.max_len, cfg.d)
    if cfg.uses_position_terms:
        shapes["pos_table"] = (2 * cfg.k, cfg.d)
    for i in range(cfg.L):
        shapes.update(_block_shapes(f"enc{i}", cfg))
    if cfg.ablations.emd:
        shapes["dec_abs"] = (cfg.max_len, cfg.d)
    for j in range(cfg.decoder_sets):
        shapes.update(_block_shapes(f"dec{j}", cfg))
    shapes["out_bias"] = (cfg.vocab_size,)
    return shapes


def _size(shapes: dict[str, tuple]) -> int:
    return sum(math.prod(s) for s in shapes.values())


def count_params(cfg: ModelConfig) -> int:
    """Exact at any size, in time independent of L and n_emd: the set
    with no encoder block and one decoder set, plus one block's size for
    each block it leaves out."""
    outside = param_shapes(replace(cfg, L=0, n_emd=1))
    block = _size(_block_shapes("", cfg))
    return _size(outside) + (cfg.L + cfg.decoder_sets - 1) * block


def init_params(cfg: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Truncated-normal weights, unit gains, zero biases; per-name rngs."""
    params = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith("_g"):
            data = np.ones(shape)
        elif name.endswith("_b") or name.endswith("_b1") or name.endswith("_b2") \
                or name == "out_bias":
            data = np.zeros(shape)
        else:
            data = truncated_normal(rng_for(seed, f"init/{name}"), shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def build_mask(n: int, real: np.ndarray | None, causal: bool) -> np.ndarray | None:
    """Bool mask, True at blocked pairs, one per row of real, or None
    when nothing is blocked: (..., n, n) when causal, else (..., 1, n),
    one row that serves every query.

    Padding blocks columns only: a PAD position may still attend out,
    so its own softmax row stays well defined, but nothing real ever
    attends into PAD.  An unpadded causal mask is causal_mask(n), shared
    and read-only.
    """
    if real is None and not causal:
        return None
    blocked = causal_mask(n) if causal else np.zeros((1, n), dtype=bool)
    if real is not None:
        real = np.asarray(real, dtype=bool)
        if real.shape[-1:] != (n,):
            raise ContractError(f"real mask shape {real.shape} does not end in ({n},)")
        blocked = blocked | ~real[..., None, :]
    return blocked


class Model:
    """Parameter container plus the forward passes."""

    def __init__(self, cfg: ModelConfig, seed: int = 0,
                 params: dict[str, Tensor] | None = None) -> None:
        self.cfg = cfg
        self.seed = seed
        self.params = init_params(cfg, seed) if params is None else params
        expected = param_shapes(cfg)
        got = {k: v.shape for k, v in self.params.items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            wrong = sorted(k for k in set(got) & set(expected)
                           if got[k] != expected[k])
            raise CheckpointShapeError(
                f"parameter set mismatch: missing={missing} extra={extra} "
                f"wrong_shape={wrong}"
            )
        # param_shapes order whatever the source: the gradient norm sums in it
        self.params = {name: self.params[name] for name in expected}

    # -- plumbing -------------------------------------------------------

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def _attn_params(self, prefix: str) -> AttentionParams:
        cfg, on = self.cfg, self.cfg.ablations
        w = lambda name: self.params.get(f"{prefix}_att_{name}")
        return AttentionParams.wired(
            cfg.heads, w("wqc"), w("wkc"), w("wvc"), w("wo"), c2p=on.c2p, p2c=on.p2c,
            share=cfg.share_projection, w_qr=w("wqr"), w_kr=w("wkr"))

    def _block(self, prefix: str, query: Tensor, content: Tensor, mask, rng,
               collect: list | None = None, positions=None) -> Tensor:
        p, drop = self.params, self.cfg.dropout
        # No pos_table when both position terms are ablated; attend
        # then never reads it.
        a = attend(content, self._attn_params(prefix), p.get("pos_table"),
                   mask=mask, query=query, dropout_p=drop, rng=rng,
                   collect=collect, positions=positions)
        a = T.dropout(a, drop, rng)
        x = T.layer_norm(T.add(query, a), p[f"{prefix}_ln1_g"], p[f"{prefix}_ln1_b"])
        hidden = T.gelu(T.add(T.matmul(x, p[f"{prefix}_ffn_w1"]), p[f"{prefix}_ffn_b1"]))
        f = T.add(T.matmul(hidden, p[f"{prefix}_ffn_w2"]), p[f"{prefix}_ffn_b2"])
        f = T.dropout(f, drop, rng)
        return T.layer_norm(T.add(x, f), p[f"{prefix}_ln2_g"], p[f"{prefix}_ln2_b"])

    # -- forward passes ---------------------------------------------------

    def encode(self, ids: np.ndarray, real: np.ndarray | None = None,
               causal: bool = False, rng=None, perturb: Tensor | None = None,
               collect: list | None = None) -> Tensor:
        """Token ids (..., n) to hidden states (..., n, d).

        Dropout runs exactly when rng is given, drawing its masks from it.
        real, when given, has the shape of ids and is False at PAD; the
        attention mask is build_mask(n, real, causal).
        perturb, when given, is added to the normalised embeddings and
        has the shape of the output.  collect, when given, receives one
        (..., heads, n, n) array of attention probabilities per encoder
        layer, in order.
        """
        ids = np.asarray(ids)
        if ids.ndim < 1 or ids.shape[-1] < 1:
            raise ContractError(f"encode wants rows of token ids, got shape {ids.shape}")
        n = ids.shape[-1]
        if n > self.cfg.max_len:
            raise ContractError(f"sequence length {n} exceeds max_len {self.cfg.max_len}")
        ids = T.check_indices("token id", ids, self.cfg.vocab_size)
        p = self.params
        e = T.gather_rows(p["tok_emb"], ids)
        if self.cfg.abs_pos_at_input:
            e = T.add(e, T.gather_rows(p["abs_in"], np.arange(n)))
        h = T.layer_norm(e, p["emb_ln_g"], p["emb_ln_b"])
        if perturb is not None:
            if perturb.shape != h.shape:
                raise ContractError(
                    f"perturbation shape {perturb.shape} != {h.shape}"
                )
            h = T.add(h, perturb)
        h = T.dropout(h, self.cfg.dropout, rng)
        mask = build_mask(n, real, causal)
        for i in range(self.cfg.L):
            h = self._block(f"enc{i}", h, h, mask, rng, collect=collect)
        return h

    def decode(self, h: Tensor, real: np.ndarray | None = None,
               causal: bool = False, rng=None,
               predict: np.ndarray | None = None) -> Tensor:
        """Hidden states (..., n, d) to logits (..., n, vocab).

        real, causal and rng mean what they do for encode, and the
        head's mask is the same build_mask(n, real, causal).  predict,
        when given, is a bool array (..., n): only the logits at its
        True slots are returned, as (count, vocab) rows in row-major
        order.
        The head's keys and values stay h, so a query row depends only
        on its own slot and h; without causal, the head then runs at the
        predicted slots alone.
        """
        cfg = self.cfg
        *lead, n, d = h.shape
        mask = build_mask(n, real, causal)
        x, rows, picks = h, None, None
        if predict is not None:
            predict = np.asarray(predict, dtype=bool)
            if predict.shape != h.shape[:-1]:
                raise ContractError(f"predict shape {predict.shape} does not match "
                                    f"the rows of {h.shape}")
            picks = np.flatnonzero(predict)
            if not causal:
                # Each row's predicted slots, left-packed to the longest
                # count; the tail of a shorter row repeats some valid slot
                # and is dropped before the projection.
                counts = predict.sum(axis=-1)
                rows = np.argsort(~predict, axis=-1, kind="stable")[..., :int(counts.max())]
                picks = np.flatnonzero(np.arange(rows.shape[-1]) < counts[..., None])
                first = np.arange(0, h.size // d, n).reshape(lead)  # flat slot 0 of each row
                x = T.gather_rows(T.reshape(h, (h.size // d, d)), first[..., None] + rows)
        if cfg.ablations.emd:
            x = T.add(x, T.gather_rows(self.params["dec_abs"],
                                       np.arange(n) if rows is None else rows))
        for prefix in cfg.decode_blocks:
            x = self._block(prefix, x, h, mask, rng, positions=rows)
        if picks is not None:
            x = T.gather_rows(T.reshape(x, (x.size // d, d)), picks)
        logits = T.matmul(x, T.transpose(self.params["tok_emb"]))
        return T.add(logits, self.params["out_bias"])

    def _nll(self, ids: np.ndarray, targets: np.ndarray, predict: np.ndarray,
             real: np.ndarray | None, causal: bool, rng, perturb: Tensor | None,
             score: bool):
        """The loss core of both objectives: encode and decode ids, then,
        with score, score targets (shaped like ids) at the True slots of
        predict.  Returns what mlm_row documents.

        Every column given is computed: make_batch already cuts a batch
        to its longest row, and a trailing PAD column, which nothing
        real attends into, leaves the loss as it is."""
        predict = np.asarray(predict, dtype=bool)
        if not predict.any():
            raise ContractError("no slot to predict: the predict mask is all False")
        h = self.encode(ids, real, causal, rng, perturb)
        picked = self.decode(h, real, causal, rng, predict)
        if not score:
            return None, int(predict.sum()), picked
        vocab = picked.shape[-1]
        wanted = T.check_indices(
            "target id", np.asarray(targets).reshape(-1)[np.flatnonzero(predict)], vocab)
        # row r's target is at flat offset r * vocab + wanted[r]
        offsets = np.arange(wanted.size, dtype=np.int64) * vocab + wanted
        chosen = T.gather_flat(T.log_softmax_rows(picked), offsets[:, None])
        return T.mul(T.sum_all(chosen), -1.0), wanted.size, picked

    def mlm_row(self, x: np.ndarray, x_tilde: np.ndarray, predict: np.ndarray,
                real: np.ndarray, rng=None, perturb: Tensor | None = None,
                score: bool = True):
        """Masked-prediction pieces for one row (n,) or a batch (b, n).

        predict is True at the slots to predict.  perturb, when given,
        has the shape of x plus the model width d.  Returns (nll_sum,
        count, picked_logits) where picked_logits is the (count, vocab)
        logit rows at the predicted slots in row-major order; the
        consistency regulariser needs them as tensors.  Without score,
        nll_sum is None: no log-softmax, gather or sum is computed.
        """
        return self._nll(x_tilde, x, predict, real, False, rng, perturb, score)

    def forward_mlm(self, batch, rng=None, perturb: Tensor | None = None) -> Tensor:
        """Mean masked-token negative log likelihood over the batch."""
        nll, count, _ = self.mlm_row(batch.x, batch.x_tilde, batch.predict,
                                     batch.real, rng=rng, perturb=perturb)
        return T.mul(nll, 1.0 / count)

    def arlm_row(self, tokens: np.ndarray, real: np.ndarray | None = None,
                 rng=None, perturb: Tensor | None = None, score: bool = True):
        """Causal next-token pieces: (nll_sum, count, next_token_logits).

        tokens is one row (n,) or a batch (b, n).  Padded rows must be
        left-packed with real False at PAD; only real targets count.
        score means what it does for mlm_row.
        """
        ids = np.asarray(tokens)
        if ids.ndim < 1 or ids.shape[-1] < 2:
            raise ContractError("causal prediction needs at least two tokens")
        # Slot i predicts token i + 1 if real; the rolled last column is never
        # picked.  A wrong-shaped real mask reaches build_mask, which rejects it.
        predict = np.roll(np.ones(ids.shape, dtype=bool) if real is None
                          else np.asarray(real, dtype=bool), -1, axis=-1)
        predict[..., -1] = False
        return self._nll(ids, np.roll(ids, -1, axis=-1), predict, real, True,
                         rng, perturb, score)


# ---------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------

_MAGIC = b"DAL1"


def save_checkpoint(path, params: dict[str, Tensor], meta: dict) -> None:
    """Binary format: magic, canonical JSON metadata, named raw tensors.

    Tensors are written sorted by name with explicit rank and extents,
    little-endian float64.  Everything is deterministic, so saving the
    same state twice yields byte-identical files.  The bytes go to a
    temporary file beside path that then replaces path, so a failed
    write leaves any previous checkpoint at path intact.
    """
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", len(meta_bytes)))
            fh.write(meta_bytes)
            fh.write(struct.pack("<I", len(params)))
            for name in sorted(params):
                t = params[name]
                nb = name.encode("utf-8")
                fh.write(struct.pack("<I", len(nb)))
                fh.write(nb)
                fh.write(struct.pack("<I", t.ndim))
                for extent in t.shape:
                    fh.write(struct.pack("<Q", extent))
                fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Returns (arrays by name, metadata).  Strict about every byte."""
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint: {e}") from e
    with fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if len(magic) < 4:
            raise CheckpointTruncatedError("file shorter than the magic")
        if magic != _MAGIC:
            if magic[:3] == _MAGIC[:3]:
                raise CheckpointVersionError(
                    f"unsupported checkpoint version {magic!r}"
                )
            raise CheckpointFormatError(f"bad magic {magic!r}")

        def read(n: int) -> bytes:
            # a length field is never trusted beyond what the file holds
            left = size - fh.tell()
            if n > left:
                raise CheckpointTruncatedError(
                    f"expected {n} more bytes, file ends after {left}"
                )
            return fh.read(n)

        def read_int(fmt: str) -> int:
            return struct.unpack(fmt, read(struct.calcsize(fmt)))[0]

        meta_len = read_int("<Q")
        try:
            meta = json.loads(read(meta_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise CheckpointFormatError(f"metadata is not valid JSON: {e}") from e
        if not isinstance(meta, dict):
            raise CheckpointFormatError("metadata is not a JSON object")
        count = read_int("<I")
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            try:
                name = read(read_int("<I")).decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointFormatError(f"tensor name is not UTF-8: {e}") from e
            rank = read_int("<I")
            extents = read(8 * rank)
            shape = struct.unpack(f"<{rank}Q", extents)
            raw = read(8 * math.prod(shape))
            try:
                arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            except ValueError as e:
                raise CheckpointShapeError(f"tensor {name} has extents {shape}: {e}") from e
        trailing = fh.read(1)
        if trailing:
            raise CheckpointFormatError("trailing bytes after the last tensor")
    return arrays, meta


def load_model(path) -> tuple[Model, dict]:
    """Rebuild a Model from a checkpoint written by save_checkpoint."""
    arrays, meta = load_checkpoint(path)
    if not isinstance(meta.get("config"), dict):
        raise CheckpointFormatError("metadata lacks a config object")
    try:
        cfg = ModelConfig(**meta["config"])
    except TypeError as e:
        raise CheckpointFormatError(f"malformed checkpoint metadata: {e}") from e
    seed = meta.get("seed", 0)
    if type(seed) is not int:
        # a bool is an int to Python, never a seed
        raise CheckpointFormatError(
            f"checkpoint seed must be an integer, got {type(seed).__name__}")
    params = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
    return Model(cfg, seed=seed, params=params), meta
