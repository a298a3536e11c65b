"""Disentangled content/position attention: an efficient kernel and its oracle.

Each token is represented by a content vector; relative positions get a
separate shared embedding table P with 2k rows.  The pre-softmax score
between query position i and key position j is the sum of three terms:

    content-to-content    Q_c[i] . K_c[j]
    content-to-position   Q_c[i] . K_r[delta(i, j)]
    position-to-content   K_c[j] . Q_r[delta(j, i)]

where K_r = P W_kr and Q_r = P W_qr are the position keys and queries.
Position-to-position carries no signal for relative encodings and is
omitted.  The orientation of the third term matters: it uses the
distance from j to i, not i to j.  Swapping the two is a plausible and
quietly wrong implementation, which is exactly what the fault-injection
hook in the equivalence suite simulates.

A position term is on exactly when its projection is passed: c2p when
W_kr is, p2c when W_qr is.  The section 5 ablations (-C2P, -P2C) remove
a term by removing its projection (AttentionParams.wired).  delta
depends only on the key count n and the table's 2k rows, so the kernels
build it, cached, when a position term is on, and only then.

Scores are scaled by 1 / sqrt(tau * head_size) where tau counts the
terms that are on (3 when both position terms are), then masked and
row-softmaxed; attend hands the scale and the mask to softmax_rows,
which does all three in one op: masked entries are -inf before the exp
and come out exactly 0.

Inputs are (..., n, d): one row or a batch of rows.  Heads are never
looped over: the width splits into (heads, head_size) by reshape and
transpose, and every score tensor is (..., heads, n, n).  The efficient
kernel can also score m query rows at given slots against all n keys,
as (..., heads, m, n): the mask decoder's queries at predicted slots.

Two kernels produce the same scores; attend always runs the efficient one:

  * scores_naive materialises, for every query/key pair, the gathered
    relative embedding rows: an (n*n, d) intermediate per term, split
    into heads only after the pairwise products.  It is the
    transcription of the definition above and exists as the oracle and
    allocation baseline.
  * scores_efficient never builds an (n*n, d) object.  For the c2p term
    it computes Q_c K_r^T once for every head, an (..., heads, n, 2k)
    tensor, and gathers element [i, delta[i, j]].  For p2c it computes
    Q_r K_c^T from the keys' transposed head layout that the c2c
    product already reads, an (..., heads, 2k, n) tensor, and gathers
    element [delta[j, i], j] straight into place (i, j).  Both gathers
    read flat offsets into each product block, derived from delta on
    every scores_efficient call, and add_gathered adds each one
    straight into the score sum, so neither term is kept as an array of
    its own.  Peak extra storage is O(k d) for the projected tables
    plus one (heads, n, 2k) or (heads, 2k, n) product at a time, freed
    once it is added.

attend runs every call as one loop over query blocks.  A call that no
tape records (evaluation, under no_grad) is cut into blocks of
_QUERY_BLOCK = 32 query rows when its (..., n, n) mask can shorten
them.  Block [r0, r1) is scored only against keys [0, e), e one past
the last key its mask leaves open to any of its rows, so a causal row
never builds, gathers, exponentiates or mixes the masked upper
triangle: at n = 256 the blocks cover 56% of the square.  Every other
call (every training step, and one with dropout, collected
probabilities or query slots) is the one block (0, m, n).  The
projections and the c2p and p2c products are made once per call and
shared by the blocks.  Each block is scored (its c2c product, then its
c2p and p2c terms), softmaxed and mixed with V[:e], and dropped before
the next block is scored; the mixed rows of several blocks are
concatenated.  Keys [0, s), s = r0 - k + 1, are at least k behind
every row of a block, so delta clips there: c2p reads column 2k - 1
of rows [r0, r1) and p2c reads row 0, and both are broadcast onto
the block.  Only the band of keys [s, e), at most 32 + k - 1 wide, is
gathered, through add_gathered with its index check, from its c2c
scores set aside beforehand, and written back over the broadcast
sums there.  At n = 256
and k = 16 a causal row's four attend calls gather 369,664 position
entries instead of 1,179,648, 69% fewer.  Each score still gets c2c +
c2p, then + p2c, the two summands the whole gather gives it, so no
byte moves, and a whole-square call (r0 = 0, so s = 0) runs exactly
the ops it ran before.  The band offsets of each block are built once
per (n, k, block), read-only, and kept on the cached DeltaMatrix:
O(n (32 + k)) int64 entries per length, about 180 KB at n = 256 and
760 KB at n = 1024 for k = 16.  Full-width offsets are never cached:
every block's together are O(n^2), 8.6 MB at n = 1024.  An unpadded
causal row's mask (causal_mask) and its block plan are likewise built
once per n.  Such a call holds both position products, 2 * heads * n
* 2k floats, plus one block of at most heads * 32 * n, so its memory
grows with n, not n^2.  The score assembly is one generator
(_block_scores) and the whole square is its one-block case, as every
scores_efficient call is.  V is made after
the first softmax: h feeds the Q, K and V projections, and the tape
sums their gradients into h in reverse op order, so a V made before
the scores would move every trained byte.  The one block is thus the
whole-square computation, op for op, and no trained byte depends on
the blocking.  A shorter row can sum in a different order (numpy's
pairwise row sums, BLAS blocking over e keys instead of n), so blocked
outputs may differ from the whole-square ones in the last bit; the
tests hold them to 1e-12 relative.  Probability dropout runs inside
the value mix, one dropout_matmul op with the draws and bits of dropout
then matmul, so a recorded block keeps its softmax output and a
one-byte keep mask, not also a dropped float copy of its probabilities.

Both kernels take an optional meter that tracks position-path
allocations so the asymptotic claim is auditable rather than folklore.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .relpos import DeltaMatrix, build_delta_matrix
from .tensor import Tensor

# Query rows per block when attend scores a call block by block.
_QUERY_BLOCK = 32


@dataclass
class AttentionParams:
    """Projection weights for one disentangled attention layer.

    w_kr is the position-key projection and w_qr the position-query
    projection; each term is on exactly when its projection is given
    (c2p with w_kr, p2c with w_qr).  Passing w_qc and w_kc themselves
    shares the projections (same Tensor objects, one gradient
    accumulator each), trading a little accuracy for 2 L d^2 fewer
    parameters.  wired builds the set from the term and sharing switches.
    """

    heads: int
    w_qc: Tensor
    w_kc: Tensor
    w_vc: Tensor
    w_o: Tensor
    w_qr: Tensor | None = None
    w_kr: Tensor | None = None

    def __post_init__(self):
        d = self.w_qc.shape[0]
        for name in ("w_qc", "w_kc", "w_vc", "w_o", "w_qr", "w_kr"):
            w = getattr(self, name)
            if w is not None and w.shape != (d, d):
                raise ShapeError(f"{name} must be ({d}, {d}), got {w.shape}")
        if self.heads < 1 or d % self.heads != 0:
            raise ConfigError(f"width {d} not divisible into {self.heads} heads")

    @classmethod
    def wired(cls, heads: int, w_qc: Tensor, w_kc: Tensor, w_vc: Tensor, w_o: Tensor,
              c2p: bool, p2c: bool, share: bool, w_qr: Tensor | None = None,
              w_kr: Tensor | None = None) -> AttentionParams:
        """A term that is off gets no projection; a shared one gets the
        content one (w_kc for c2p, w_qc for p2c), and w_qr, w_kr go unread."""
        if share:
            w_qr, w_kr = w_qc, w_kc
        if (c2p and w_kr is None) or (p2c and w_qr is None):
            raise ContractError("an unshared c2p term needs w_kr, and p2c w_qr")
        return cls(heads, w_qc, w_kc, w_vc, w_o,
                   w_qr=w_qr if p2c else None, w_kr=w_kr if c2p else None)

    @property
    def d(self) -> int:
        return self.w_qc.shape[0]

    @property
    def head_size(self) -> int:
        return self.d // self.heads

    @property
    def scale(self) -> float:
        tau = 1 + (self.w_kr is not None) + (self.w_qr is not None)
        return 1.0 / np.sqrt(tau * self.head_size)


def _heads_t(m: Tensor, heads: int) -> Tensor:
    """(..., n, d) -> (..., heads, head_size, n): each head's rows, transposed."""
    *lead, n, d = m.shape
    return T.reshape(T.transpose(m), (*lead, heads, d // heads, n))


def _heads(m: Tensor, heads: int) -> Tensor:
    """(..., n, d) -> (..., heads, n, head_size): a view, then one copy."""
    *lead, n, d = m.shape
    return T.transpose(T.reshape(m, (*lead, n, heads, d // heads)), axis=-3)


def _merge_heads(m: Tensor) -> Tensor:
    """(..., heads, n, head_size) -> (..., n, heads * head_size): one
    copy, then a view."""
    *lead, heads, n, hs = m.shape
    return T.reshape(T.transpose(m, axis=-3), (*lead, n, heads * hs))


def _meter_alloc(meter, t: Tensor) -> None:
    if meter is not None:
        meter.alloc(t.size)


def _meter_release(meter, t: Tensor) -> None:
    if meter is not None:
        meter.release(t.size)


def _check_inputs(h: Tensor, params: AttentionParams, table, query: Tensor | None,
                  positions=None) -> tuple[Tensor, DeltaMatrix | None]:
    """The query input, and delta for n keys and 2k table rows (or None)."""
    q_in = h if query is None else query
    if h.ndim < 2 or h.shape[-1] != params.d:
        raise ShapeError(f"content input must be (..., n, {params.d}), got {h.shape}")
    if positions is None:
        if q_in.shape != h.shape:
            raise ShapeError(f"query input must match the content shape {h.shape}, "
                             f"got {q_in.shape}")
    elif np.shape(positions) != q_in.shape[:-1] or \
            q_in.shape[:-2] + q_in.shape[-1:] != h.shape[:-2] + h.shape[-1:]:
        raise ShapeError(f"query {q_in.shape} at positions {np.shape(positions)} "
                         f"does not pair with content {h.shape}")
    else:
        T.check_indices("query position", positions, h.shape[-2])
    if params.w_kr is None and params.w_qr is None:
        return q_in, None
    if table is None or table.shape[1:] != (params.d,) or not table.shape[0] \
            or table.shape[0] % 2:
        raise ShapeError(f"position table must be (2k, {params.d}) with k >= 1, "
                         f"got {None if table is None else table.shape}")
    return q_in, build_delta_matrix(h.shape[-2], table.shape[0] // 2)


def _c2p_offsets(dm: DeltaMatrix, positions=None, rows: slice = slice(None),
                 keys: slice = slice(None)) -> np.ndarray:
    """Flat offsets of c2p into each (..., m, 2k) product block: row
    i's column delta(i, j) at (i, j), with i the query's slot.  With
    positions, one (..., 1, m, n) table per block of rows, shared by
    the heads.  rows and keys cut the table to a block of queries and
    keys; the offsets still index the whole product."""
    vals = dm.values if positions is None else dm.values[positions][..., None, :, :]
    first = np.arange(vals.shape[-2], dtype=np.int64)[rows, None] * (2 * dm.k)
    return vals[..., rows, keys] + first


def _p2c_offsets(dm: DeltaMatrix, positions=None, fault: str | None = None,
                 rows: slice = slice(None), keys: slice = slice(None)) -> np.ndarray:
    """Flat offsets of p2c into each (..., 2k, n) product block: column
    j's row delta(j, i) at (i, j), so the gather lands in (i, j) layout.
    With positions, the rows of that table at the query slots.  rows
    and keys cut it as for c2p.  The swap-delta fault reads row
    delta(i, j) instead."""
    vals = dm.values.T if fault is None else dm.values
    if positions is not None:
        vals = vals[positions][..., None, :, :]
    return vals[..., rows, keys] * dm.n + np.arange(dm.n, dtype=np.int64)[keys]


def scores_naive(h: Tensor, params: AttentionParams, table: Tensor | None,
                 query: Tensor | None = None, meter=None) -> Tensor:
    """Reference kernel: per-pair gathered embeddings, O(n^2 d) space.

    Returns the unscaled (..., heads, n, n) sum of the terms that are on.

    Kept deliberately close to the defining equations.  The (n*n, d)
    gathers are the cost being audited; do not "optimise" them away
    here, that is what scores_efficient is for.  Heads are split only
    after the per-pair products, by viewing the width as (heads,
    head_size) and summing each head's slice.
    """
    q_in, dm = _check_inputs(h, params, table, query)
    n, heads = h.shape[-2], params.heads
    lead = h.shape[:-2]

    qc = T.matmul(q_in, params.w_qc)
    kc = T.matmul(h, params.w_kc)
    total = T.matmul(_heads(qc, heads), _heads_t(kc, heads))

    def per_head(prod: Tensor) -> Tensor:
        # (..., n*n, d) pair products -> (..., heads, n, n) dot products
        split = T.reshape(prod, (*lead, n * n, heads, params.head_size))
        return T.reshape(T.transpose(T.row_sum(split)), (*lead, heads, n, n))

    if params.w_kr is not None:
        kr = T.matmul(table, params.w_kr)
        _meter_alloc(meter, kr)
        # Row for pair (i, j) holds K_r[delta(i, j)]: an (n*n, d) object.
        kr_pairs = T.gather_rows(kr, dm.values.reshape(-1))
        _meter_alloc(meter, kr_pairs)
        # query i for each (i, j) pair, in row-major (i, j) order
        c2p = per_head(T.mul(T.gather_rows(qc, np.repeat(np.arange(n), n)), kr_pairs))
        _meter_release(meter, kr_pairs)
        del kr_pairs
        total = T.add(total, c2p)

    if params.w_qr is not None:
        qr = T.matmul(table, params.w_qr)
        _meter_alloc(meter, qr)
        # Row for pair (i, j) holds Q_r[delta(j, i)]: orientation flipped.
        qr_pairs = T.gather_rows(qr, dm.values.T.reshape(-1))
        _meter_alloc(meter, qr_pairs)
        # key j for each (i, j) pair
        p2c = per_head(T.mul(T.gather_rows(kc, np.tile(np.arange(n), n)), qr_pairs))
        _meter_release(meter, qr_pairs)
        del qr_pairs
        total = T.add(total, p2c)

    if params.w_kr is not None:
        _meter_release(meter, kr)
    if params.w_qr is not None:
        _meter_release(meter, qr)
    return total


def _cut(t: Tensor, rows: slice, cols: slice) -> Tensor:
    """t[..., rows, cols] as a view.  A cut that keeps all of t is t
    itself; a smaller one records no op, so only calls that no tape
    records take one (see attend)."""
    part = t.data[..., rows, cols]
    return t if part.shape == t.shape else Tensor._from_data(part)


def _band_offsets(dm: DeltaMatrix, r0: int, r1: int, e: int):
    """(s, c2p offsets, p2c offsets) of query block (r0, r1, e): keys
    [0, s) are at least k behind every row of the block, and the
    offsets, read-only, cover only the band of keys [s, e)."""
    s = min(max(0, r0 - dm.k + 1), e)
    rows, keys = slice(r0, r1), slice(s, e)
    band = (_c2p_offsets(dm, rows=rows, keys=keys), _p2c_offsets(dm, rows=rows, keys=keys))
    for offsets in band:
        offsets.setflags(write=False)
    return (s, *band)


def _band(dm: DeltaMatrix, block: tuple[int, int, int]):
    """_band_offsets of block, built once per (n, k, block) and kept on
    the cached delta matrix."""
    band = dm.bands.get(block)
    if band is None:
        band = dm.bands[block] = _band_offsets(dm, *block)
    return band


def _block_scores(q_in: Tensor, h: Tensor, dm: DeltaMatrix | None, params: AttentionParams,
                  table: Tensor | None, blocks: list[tuple[int, int, int]], meter=None,
                  fault: str | None = None, positions=None):
    """Yield the unscaled score sum of each query block (r0, r1, e) in
    turn: query rows [r0, r1) against keys [0, e), as
    (..., heads, r1 - r0, e).

    The projections are made once, and the c2p and p2c products once,
    while the first block is scored, so one block (0, m, n) makes the
    ops of the whole score sum in their order.  Each block adds its
    c2p and p2c terms at the offsets cut to its rows and keys, and a
    product is released once the last block has added it.  Of several
    blocks, each gathers only its band of keys [s, e) (see
    _band_offsets), at offsets cached on dm; keys [0, s) read one
    product column (c2p) and row (p2c), broadcast onto the block in
    place, which is safe because several blocks come only from a call
    that no tape records.  Every score kept still gets c2c + c2p, then
    + p2c.  No name here holds a block once it is handed over: a
    suspended generator keeps whatever its names hold, so the consumer
    alone decides when a block dies.
    """
    heads, every, last = params.heads, slice(None), len(blocks) - 1
    qc_h = _heads(T.matmul(q_in, params.w_qc), heads)      # (..., h, m, hs)
    kc_t = _heads_t(T.matmul(h, params.w_kc), heads)       # (..., h, hs, n)
    for i, (r0, r1, e) in enumerate(blocks):
        rows, keys = slice(r0, r1), slice(0, e)
        block = [T.matmul(_cut(qc_h, rows, every), _cut(kc_t, every, keys))]
        # The one block of a call, which may have positions or a fault,
        # derives its offsets on every call: they are O(n^2) and never
        # cached.
        s, c2p_at, p2c_at = (0, None, None) if dm is None or not last else \
            _band(dm, (r0, r1, e))
        # With s, the band's c2c scores are set aside, each term's one
        # column or row is added to the whole block in one contiguous
        # pass (adding it to the strided keys [0, s) alone costs about
        # twice as much), and the band's own sum is written back over it.
        sums = block[0].data
        band = Tensor._from_data(sums[..., s:].copy()) if s else block[0]

        if params.w_kr is not None:
            if i == 0:
                # All m * 2k query/position-key products of every head;
                # each block adds column delta(i, j) of row i at (i, j).
                kr = T.matmul(table, params.w_kr)
                _meter_alloc(meter, kr)
                c2p = T.matmul(qc_h, _heads_t(kr, heads))
                _meter_alloc(meter, c2p)
            if s:  # delta(i, j) = 2k - 1 at keys [0, s)
                np.add(sums, c2p.data[..., rows, -1:], out=sums)
            band = T.add_gathered(band, c2p, _c2p_offsets(dm, positions, rows, keys)
                                  if c2p_at is None else c2p_at)
            if i == last:
                _meter_release(meter, c2p)
                del c2p

        if params.w_qr is not None:
            if i == 0:
                # Column j of the product holds Q_r[*] . K_c[j], from the
                # keys' (hs, n) layout as it is; the offsets place
                # Q_r[delta(j, i)] . K_c[j] straight at (i, j).
                qr = T.matmul(table, params.w_qr)
                _meter_alloc(meter, qr)
                p2c = T.matmul(_heads(qr, heads), kc_t)
                _meter_alloc(meter, p2c)
            if s:  # delta(j, i) = 0 at keys [0, s)
                np.add(sums, p2c.data[..., :1, :e], out=sums)
            band = T.add_gathered(band, p2c, _p2c_offsets(dm, positions, fault, rows, keys)
                                  if p2c_at is None else p2c_at)
            if i == last:
                _meter_release(meter, p2c)
                del p2c

        if i == last:
            if params.w_kr is not None:
                _meter_release(meter, kr)
            if params.w_qr is not None:
                _meter_release(meter, qr)
        if s:
            sums[..., s:] = band.data
        else:
            block[0] = band
        del band, sums
        yield block.pop()  # the slot empties, so nothing here keeps the block


def scores_efficient(h: Tensor, params: AttentionParams, table: Tensor | None,
                     query: Tensor | None = None, meter=None,
                     fault: str | None = None, positions=None) -> Tensor:
    """Gather-based kernel: O(k d) extra space, no (n^2, d) intermediate.

    Returns the unscaled score sum, as scores_naive does.  All heads
    are scored in one (..., heads, n, .) pass.  positions, when given,
    is the (..., m) integer array of the slots of h that the m rows of
    query stand at; the scores are then (..., heads, m, n).
    fault="swap-delta" deliberately gathers the p2c term with the
    forward-oriented distances.  It exists so the equivalence suite can
    prove it would catch the classic orientation bug; never set it in
    real use.
    """
    if fault not in (None, "swap-delta"):
        raise ConfigError(f"unknown fault {fault!r}")
    q_in, dm = _check_inputs(h, params, table, query, positions)
    whole = [(0, q_in.shape[-2], h.shape[-2])]
    return next(_block_scores(q_in, h, dm, params, table, whole, meter, fault, positions))


@lru_cache(maxsize=64)
def causal_mask(n: int) -> np.ndarray:
    """The (n, n) bool mask of a causal row, True where key j comes
    after query i.  Cached per n and read-only, so that an unpadded row
    builds it, and attend plans its blocks, once per length."""
    slots = np.arange(n)
    mask = slots[:, None] < slots
    mask.setflags(write=False)
    return mask


def _query_blocks(mask: np.ndarray | None, n: int) -> list[tuple[int, int, int]]:
    """(r0, r1, e) for each run of _QUERY_BLOCK query rows, with e one
    past the last key that the (..., n, n) mask leaves open to any row
    of the run in any row of the batch: keys [e, n) are blocked for the
    whole run.  One block (0, n, n) when the mask cannot shorten a run
    (no mask, a one-row mask, n <= _QUERY_BLOCK) or is not a bool
    (n, n) one, and when a row is fully masked, so that softmax_rows
    names that row as the whole-row call does."""
    if n <= _QUERY_BLOCK or mask is None or mask.dtype != bool or mask.shape[-2:] != (n, n):
        return [(0, n, n)]
    if mask is causal_mask(n):
        return list(_causal_blocks(n))
    return _plan_blocks(mask, n)


@lru_cache(maxsize=64)
def _causal_blocks(n: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(_plan_blocks(causal_mask(n), n))


def _plan_blocks(mask: np.ndarray, n: int) -> list[tuple[int, int, int]]:
    blocked = mask.reshape(-1, n, n)
    if blocked.all(axis=-1).any():
        return [(0, n, n)]
    # per row, one past its last open key; then the widest over the batch
    ends = (n - np.argmin(blocked[..., ::-1], axis=-1)).max(axis=0)
    return [(r0, min(r0 + _QUERY_BLOCK, n), int(ends[r0:r0 + _QUERY_BLOCK].max()))
            for r0 in range(0, n, _QUERY_BLOCK)]


def attend(h: Tensor, params: AttentionParams, table: Tensor | None,
           mask: np.ndarray | None = None, query: Tensor | None = None,
           dropout_p: float = 0.0, rng: np.random.Generator | None = None,
           collect: list | None = None, positions=None) -> Tensor:
    """Full multi-head attention: efficient scores, mask, softmax, value mix.

    h is (..., n, d).  table is read only when a position term is on,
    so it may be None when params has no position projection.  query,
    when given, replaces h as the query stream; with positions (see
    scores_efficient) it may hold only m of the n rows, and the output
    is then (..., m, d).  mask, when given, is a (..., n, n) bool
    array, True at blocked pairs, or (..., 1, n) when it blocks whole
    columns; every head and, for a one-row mask, every query gets the
    same mask.  collect, when given, receives one (..., heads, m, n)
    numpy array of post-softmax probabilities.  Dropout on the
    probabilities runs only when rng is given, inside the value mix.
    Returns the output projection of the mixed values, (..., m, d).
    """
    q_in, dm = _check_inputs(h, params, table, query, positions)
    n, m = h.shape[-2], q_in.shape[-2]
    if mask is not None and mask.shape[-2:] not in ((1, n), (m, n)):
        raise ShapeError(f"mask must end in (1, {n}) or ({m}, {n}), got {mask.shape}")
    whole = T.recording() or rng is not None or collect is not None or positions is not None
    blocks = [(0, m, n)] if whole else _query_blocks(mask, n)
    # every head reads the same mask: a head axis as a view, not a copy
    head_mask = None if mask is None else mask[..., None, :, :]
    scores = _block_scores(q_in, h, dm, params, table, blocks, positions=positions)
    v, mixed = None, []
    for r0, r1, e in blocks:
        # No name holds a block's scores, so they die in its softmax.
        probs = T.softmax_rows(next(scores), params.scale,
                               None if head_mask is None else head_mask[..., r0:r1, :e])
        if collect is not None:
            collect.append(probs.data.copy())
        if v is None:  # after the first softmax, or trained bytes move
            v = _heads(T.matmul(h, params.w_vc), params.heads)
        mixed.append(T.dropout_matmul(probs, _cut(v, slice(0, e), slice(None)),
                                      dropout_p, rng))
        del probs  # unrecorded, a block's probabilities die with its mix
    out = mixed[0] if len(mixed) == 1 else Tensor._from_data(
        np.concatenate([part.data for part in mixed], axis=-2))
    return T.matmul(_merge_heads(out), params.w_o)


def extra_param_count(config) -> int:
    """Parameters the position pathway adds to the L encoder layers, from
    config dimensions; the mask decoder's blocks are not counted.

    Needs config.L (layers), config.d (width), config.k (window
    half-width) and config.share_projection.  config.ablations, when
    present, says which position terms are on; without it both are.
    With either term on, the position table contributes 2 k d and each
    enabled term's unshared projection d^2 per layer.  With both off
    there is no table and no projection.
    """
    L, d, k = int(config.L), int(config.d), int(config.k)
    if min(L, d, k) < 1:
        raise ConfigError("extra_param_count needs positive L, d, k")
    ablations = getattr(config, "ablations", None)
    terms = 2 if ablations is None else int(ablations.c2p) + int(ablations.p2c)
    if terms == 0:
        return 0
    table = 2 * k * d
    if getattr(config, "share_projection", False):
        return table
    return terms * L * d * d + table
