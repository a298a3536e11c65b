"""Corpus ingestion, vocabulary, masking corruption, batching.

The tokenizer is a lowercasing word/punctuation splitter; no subwords.
Five ids are reserved ahead of the learned vocabulary:

    0 PAD   1 UNK   2 CLS   3 SEP   4 MASK

Sequences are packed as [CLS] tokens... [SEP] then padded with PAD to
the width of the batch's longest row, at most the model length.
Masking corruption picks contiguous spans of one to span_max tokens
until roughly mask_rate of the maskable positions are covered, then
rewrites each chosen position as MASK (80%), a random real token (10%)
or itself (10%).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, IngestionError
from .seeding import rng_for

PAD, UNK, CLS, SEP, MASK = 0, 1, 2, 3, 4
NUM_RESERVED = 5
# Batches a BatchStream draws at once and sorts by row length.
_POOL = 8
_RESERVED_NAMES = ["<pad>", "<unk>", "<cls>", "<sep>", "<mask>"]

_TOKEN_RE = re.compile(r"[a-z0-9']+|[^\sa-z0-9']")


def tokenize(text: str) -> list[str]:
    """Lowercase, then split into word runs and single punctuation marks."""
    return _TOKEN_RE.findall(text.lower())


class Vocab:
    """Frequency-ranked token table behind the five reserved ids."""

    def __init__(self, tokens: list[str]) -> None:
        if len(set(tokens)) != len(tokens):
            raise ConfigError("vocabulary contains duplicate tokens")
        for t in tokens:
            if t in _RESERVED_NAMES:
                raise ConfigError(f"token {t!r} collides with a reserved name")
        self.tokens = list(tokens)
        self._to_id = {t: NUM_RESERVED + i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return NUM_RESERVED + len(self.tokens)

    def token_to_id(self, token: str) -> int:
        return self._to_id.get(token, UNK)

    def id_to_token(self, idx: int) -> str:
        if idx < 0 or idx >= len(self):
            raise ConfigError(f"id {idx} outside vocabulary of size {len(self)}")
        if idx < NUM_RESERVED:
            return _RESERVED_NAMES[idx]
        return self.tokens[idx - NUM_RESERVED]

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.token_to_id(t) for t in tokens]

    def decode(self, ids: list[int]) -> list[str]:
        return [self.id_to_token(i) for i in ids]


def build_vocab(lines, cap: int) -> Vocab:
    """Count tokens over an iterable of text lines; keep the cap-5 most
    frequent.  Ties break lexicographically so the ranking is total."""
    if cap <= NUM_RESERVED:
        raise ConfigError(f"vocab cap {cap} leaves no room past the reserved ids")
    counts: dict[str, int] = {}
    for line in lines:
        for tok in tokenize(line):
            counts[tok] = counts.get(tok, 0) + 1
    if not counts:
        raise IngestionError("corpus produced no tokens")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocab([t for t, _ in ranked[: cap - NUM_RESERVED]])


def load_corpus(path) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except OSError as e:
        raise IngestionError(f"cannot read corpus {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise IngestionError(f"corpus {path} is not UTF-8 text: {e}") from e
    lines = [ln for ln in lines if ln]
    if not lines:
        raise IngestionError(f"corpus {path} is empty")
    return lines


# ---------------------------------------------------------------------
# Masking corruption.
# ---------------------------------------------------------------------


def corrupt(ids: np.ndarray, rng: np.random.Generator, vocab_size: int,
            mask_rate: float = 0.15, span_max: int = 3) -> tuple[np.ndarray, list[int]]:
    """Span corruption for one packed row.  Returns (corrupted, positions).

    Selects whole spans of 1..span_max consecutive maskable positions,
    never letting two spans touch, until the target count
    max(1, round(mask_rate * maskable)) is reached.  Each draw takes a
    start among the maskable positions and a length; a start that an
    earlier span blocks (it or a neighbour is chosen) is drawn again,
    until no legal start is left.  A span is the interval from its
    start to whichever comes first: the drawn length, the target's
    remainder, the first blocked slot or the row end, so the last span
    lands exactly on the target.  A dense target can stop short, with
    every maskable slot chosen or next to a chosen one: spans that never
    touch cover at most span_max of every span_max + 1 slots, and
    random ones usually fewer.  Each selected position is then
    independently rewritten: 80% MASK, 10% a random real token
    different from the original, 10% left as is.  PAD/CLS/SEP are never
    selected.  The returned position list is sorted.
    """
    if not 0.0 < mask_rate < 1.0:
        raise ConfigError(f"mask_rate {mask_rate} outside (0, 1)")
    if span_max < 1:
        raise ConfigError(f"span_max {span_max} must be >= 1")
    if vocab_size <= NUM_RESERVED + 1:
        raise ConfigError("vocabulary too small for replacement sampling")
    ids = np.asarray(ids)
    maskable = (ids != PAD) & (ids != CLS) & (ids != SEP)
    n_maskable = int(maskable.sum())
    if n_maskable == 0:
        raise ContractError("row has no maskable positions")
    target = max(1, round(mask_rate * n_maskable))

    chosen = np.zeros(ids.shape[0], dtype=bool)
    blocked = ~maskable  # grows as spans claim their neighbourhoods
    picked = 0
    candidates = np.flatnonzero(maskable)
    while picked < target:
        start = int(candidates[rng.integers(0, candidates.size)])
        length = int(rng.integers(1, span_max + 1))
        if blocked[start]:
            if blocked[candidates].all():
                break  # a dense target: no legal start is left
            continue
        # start is not blocked, so argmax is 0 exactly when no slot of
        # run is blocked
        run = blocked[start:start + min(length, target - picked)]
        stop = start + (int(run.argmax()) or run.size)
        chosen[start:stop] = True
        picked += stop - start
        blocked[max(0, start - 1):stop + 1] = True

    out = ids.copy()
    positions = np.flatnonzero(chosen)
    for pos in positions:
        u = rng.random()
        if u < 0.8:
            out[pos] = MASK
        elif u < 0.9:
            repl = int(rng.integers(NUM_RESERVED, vocab_size))
            while repl == ids[pos]:
                repl = int(rng.integers(NUM_RESERVED, vocab_size))
            out[pos] = repl
        # else: keep the original token; it still counts as predicted
    return out, [int(p) for p in positions]


# ---------------------------------------------------------------------
# Packing and batching.
# ---------------------------------------------------------------------


def pack(token_ids: list[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """[CLS] ids [SEP] padded to length n; returns (row, real_mask)."""
    if n < 3:
        raise ConfigError(f"sequence length {n} cannot hold CLS + token + SEP")
    body = token_ids[: n - 2]
    row = np.full(n, PAD, dtype=np.int64)
    row[0] = CLS
    row[1 : 1 + len(body)] = body
    row[1 + len(body)] = SEP
    real = np.zeros(n, dtype=bool)
    real[: len(body) + 2] = True
    return row, real


@dataclass
class MaskedBatch:
    """One training batch: original rows, corrupted rows, masked slots."""

    x: np.ndarray                       # (b, n) int64, original ids
    x_tilde: np.ndarray                 # (b, n) int64, corrupted ids
    positions: InitVar[list[list[int]]]  # per row, sorted; kept as predict
    real: np.ndarray                    # (b, n) bool, True at non-PAD
    predict: np.ndarray = field(init=False, repr=False)  # (b, n) bool, at positions

    def __post_init__(self, positions):
        if self.x.shape != self.x_tilde.shape or self.x.shape != self.real.shape:
            raise ConfigError("batch arrays disagree on shape")
        if len(positions) != self.x.shape[0]:
            raise ConfigError("positions list does not match batch size")
        self.predict = np.zeros(self.x.shape, dtype=bool)
        for r, pos in enumerate(positions):
            self.predict[r, pos] = True

    def digest_update(self, h) -> None:
        h.update(self.x.tobytes())
        h.update(self.x_tilde.tobytes())
        h.update(self.real.tobytes())
        # each row's sorted positions in turn, as int64
        h.update(np.nonzero(self.predict)[1].astype(np.int64).tobytes())


def make_batch(rows: list[list[int]], n: int, rng: np.random.Generator,
               vocab_size: int, mask_rate: float = 0.15,
               span_max: int = 3) -> MaskedBatch:
    """Pack and corrupt rows into one batch as wide as its longest packed
    row: min(n, 2 + longest row) slots, so no column is PAD in every row.
    This is the one place that decides a batch's width."""
    if not rows:
        raise ContractError("batch needs at least one sequence")
    # at least one body slot, so an all-empty batch reaches corrupt's check
    width = min(n, 2 + max(1, max(len(ids) for ids in rows)))
    xs, xts, poss, reals = [], [], [], []
    for ids in rows:
        row, real = pack(ids, width)
        xt, pos = corrupt(row, rng, vocab_size, mask_rate=mask_rate,
                          span_max=span_max)
        xs.append(row)
        xts.append(xt)
        poss.append(pos)
        reals.append(real)
    return MaskedBatch(x=np.stack(xs), x_tilde=np.stack(xts),
                       positions=poss, real=np.stack(reals))


@dataclass
class BatchStream:
    """Deterministic infinite batch iterator over encoded sequences.

    Each pass over the corpus reshuffles the order and redraws the
    corruption, both from the stream's own rng, so (sequences, seed,
    shape) fully determines every batch ever produced.  A sha256 digest
    of everything handed out supports cross-run comparisons.

    Rows are bucketed by length: the stream draws _POOL batches' worth of
    rows from its order at once, sorts them stably by length, cuts them
    into batches and hands those out in an order drawn from its rng.
    make_batch packs each batch only as wide as its longest row, so rows
    of like length in one batch leave little padding to compute on.
    """

    sequences: list[list[int]]
    n: int
    batch_size: int
    vocab_size: int
    seed: int
    mask_rate: float = 0.15
    span_max: int = 3
    _rng: np.random.Generator = field(init=False, repr=False)
    _order: np.ndarray = field(init=False, repr=False)
    _lengths: np.ndarray = field(init=False, repr=False)
    _cursor: int = field(init=False, default=0, repr=False)
    _queue: list[np.ndarray] = field(init=False, default_factory=list, repr=False)
    _hash: "hashlib._Hash" = field(init=False, repr=False)

    def __post_init__(self):
        if not self.sequences:
            raise IngestionError("no sequences to batch")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        self._rng = rng_for(self.seed, "data/batches")
        self._order = np.empty(0, dtype=np.int64)
        self._lengths = np.array([len(s) for s in self.sequences], dtype=np.int64)
        self._hash = hashlib.sha256()

    def _draw(self, count: int) -> np.ndarray:
        """The next count indices of the order, cut into one array by
        slices; a new permutation is drawn exactly when the cursor
        reaches the end of the current one."""
        pool = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            if self._cursor >= self._order.size:
                self._order = self._rng.permutation(len(self.sequences))
                self._cursor = 0
            part = self._order[self._cursor:self._cursor + count - filled]
            pool[filled:filled + part.size] = part
            filled += part.size
            self._cursor += part.size
        return pool

    def next_batch(self) -> MaskedBatch:
        if not self._queue:
            pool = self._draw(_POOL * self.batch_size)
            pool = pool[np.argsort(self._lengths[pool], kind="stable")]
            size = self.batch_size
            self._queue = [pool[b * size:(b + 1) * size]
                           for b in self._rng.permutation(_POOL)]
        rows = [self.sequences[i] for i in self._queue.pop()]
        batch = make_batch(rows, self.n, self._rng, self.vocab_size,
                           mask_rate=self.mask_rate, span_max=self.span_max)
        batch.digest_update(self._hash)
        return batch

    def digest(self) -> str:
        return self._hash.hexdigest()


def encode_corpus(lines: list[str], vocab: Vocab) -> list[list[int]]:
    """Tokenize and encode lines, dropping those too short to train on."""
    out = []
    for line in lines:
        ids = vocab.encode(tokenize(line))
        if len(ids) >= 1:
            out.append(ids)
    if not out:
        raise IngestionError("no usable sequences after tokenization")
    return out
