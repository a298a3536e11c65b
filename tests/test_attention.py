"""Attention kernels against a from-the-definition loop-nest oracle."""

import itertools
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from desklm import attention
from desklm import tensor as T
from desklm.attention import (
    AttentionParams,
    _c2p_offsets,
    _cut,
    _heads,
    _heads_t,
    _merge_heads,
    _p2c_offsets,
    _query_blocks,
    attend,
    extra_param_count,
    scores_efficient,
    scores_naive,
)
from desklm.equivalence import (
    AllocationMeter,
    efficient_peak_budget,
    run_allocation_audit,
    run_equivalence_suite,
)
from desklm.errors import ConfigError, ContractError, DegenerateRowError, ShapeError
from desklm.model import Model, ModelConfig, param_shapes
from desklm.relpos import build_delta_matrix
from desklm.runconfig import load_run_config
from desklm.tensor import Tape, Tensor

from helpers import assert_close, numeric_grad


def oracle_delta(i, j, k):
    if i - j <= -k:
        return 0
    if i - j >= k:
        return 2 * k - 1
    return i - j + k


def oracle_scores(h, w_qc, w_kc, w_qr, w_kr, table, k, heads, use_c2p, use_p2c):
    """Triple loop straight from the term definitions.  Slow on purpose."""
    n, d = h.shape
    hs = d // heads
    qc, kc = h @ w_qc, h @ w_kc
    kr = table @ w_kr if use_c2p else None
    qr = table @ w_qr if use_p2c else None
    out = np.zeros((heads, n, n))
    for hd in range(heads):
        sl = slice(hd * hs, (hd + 1) * hs)
        for i in range(n):
            for j in range(n):
                s = float(qc[i, sl] @ kc[j, sl])
                if use_c2p:
                    s += float(qc[i, sl] @ kr[oracle_delta(i, j, k), sl])
                if use_p2c:
                    s += float(kc[j, sl] @ qr[oracle_delta(j, i, k), sl])
                out[hd, i, j] = s
    return out


def _make(n, k, d, heads, seed, share=False, use_c2p=True, use_p2c=True):
    rng = np.random.default_rng(seed)
    w = lambda: Tensor(rng.normal(0, 0.3, (d, d)), requires_grad=True)
    w_qc, w_kc, w_vc, w_o = w(), w(), w(), w()
    w_qr = w_kr = None
    if not share and (use_c2p or use_p2c):
        w_qr, w_kr = w(), w()
    params = AttentionParams.wired(heads, w_qc, w_kc, w_vc, w_o, c2p=use_c2p, p2c=use_p2c,
                                   share=share, w_qr=w_qr, w_kr=w_kr)
    table = Tensor(rng.normal(0, 0.3, (2 * k, d)), requires_grad=True)
    h = Tensor(rng.normal(0, 1, (n, d)))
    return params, table, h


def _data(w):
    """A weight's array, or None for an absent projection."""
    return None if w is None else w.data


@pytest.mark.parametrize("n,k,d,heads", [(5, 2, 4, 1), (8, 3, 6, 2), (12, 8, 8, 4)])
@pytest.mark.parametrize("use_c2p,use_p2c", list(itertools.product([True, False], repeat=2)))
def test_kernels_match_loop_oracle(n, k, d, heads, use_c2p, use_p2c):
    params, table, h = _make(n, k, d, heads, seed=n * 100 + k, use_c2p=use_c2p,
                                 use_p2c=use_p2c)
    expect = oracle_scores(h.data, params.w_qc.data, params.w_kc.data,
                           _data(params.w_qr), _data(params.w_kr), table.data,
                           k, heads, use_c2p, use_p2c)
    for fn in (scores_naive, scores_efficient):
        got = fn(h, params, table)
        assert_close(got.data, expect, atol=1e-10, rtol=0,
                     label=fn.__name__)


def test_share_projection_is_an_alias():
    params, table, h = _make(6, 2, 4, 2, seed=3, share=True)
    assert params.w_qr is params.w_qc
    assert params.w_kr is params.w_kc
    expect = oracle_scores(h.data, params.w_qc.data, params.w_kc.data,
                           params.w_qc.data, params.w_kc.data, table.data,
                           2, 2, True, True)
    got = scores_efficient(h, params, table)
    assert_close(got.data, expect, atol=1e-10, rtol=0)
    # one accumulator: grads flow from both roles into the same tensor
    with Tape() as tape:
        s = scores_efficient(h, params, table)
        loss = T.sum_all(s)
    tape.backward(loss)
    assert params.w_qc.grad is not None


def _old_score_chain(h, params, table, query=None, positions=None):
    """The efficient kernel as a chain of separate ops: each position
    term gathered into its own tensor, then added with T.add."""
    heads = params.heads
    dm = build_delta_matrix(h.shape[-2], table.shape[0] // 2)
    q_in = h if query is None else query
    qc_h = _heads(T.matmul(q_in, params.w_qc), heads)
    kc_t = _heads_t(T.matmul(h, params.w_kc), heads)
    total = T.matmul(qc_h, kc_t)
    if params.w_kr is not None:
        prod = T.matmul(qc_h, _heads_t(T.matmul(table, params.w_kr), heads))
        total = T.add(total, T.gather_flat(prod, _c2p_offsets(dm, positions)))
    if params.w_qr is not None:
        prod = T.matmul(_heads(T.matmul(table, params.w_qr), heads), kc_t)
        total = T.add(total, T.gather_flat(prod, _p2c_offsets(dm, positions)))
    return total


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("at_slots", [False, True])
@pytest.mark.parametrize("use_c2p,use_p2c", list(itertools.product([True, False], repeat=2)))
def test_efficient_scores_are_the_separate_term_chain_bitwise(lead, at_slots,
                                                                use_c2p, use_p2c):
    # Adding each gathered term straight into the sum changes no bit of
    # the scores or of any gradient; a term that is off adds nothing.
    n, k, d, heads, m = 9, 3, 8, 2, 5
    params, table, _ = _make(n, k, d, heads, seed=22, use_c2p=use_c2p,
                                 use_p2c=use_p2c)
    rng = np.random.default_rng(23)
    h = Tensor(rng.normal(0, 1, lead + (n, d)), requires_grad=True)
    query = positions = None
    if at_slots:
        query = Tensor(rng.normal(0, 1, lead + (m, d)), requires_grad=True)
        positions = rng.integers(0, n, lead + (m,))
    leaves = [t for t in (h, query, table, params.w_qc, params.w_kc,
                          params.w_qr, params.w_kr) if t is not None]
    probe = Tensor(rng.normal(0, 1, lead + (heads, n if query is None else m, n)))

    def scored(kernel):
        with Tape() as tape:
            s = kernel(h, params, table, query=query, positions=positions)
            loss = T.sum_all(T.mul(s, probe))
        tape.backward(loss)
        grads = [t.grad for t in leaves]
        for t in leaves:
            t.grad = None
        return s.data, grads

    got, got_g = scored(scores_efficient)
    want, want_g = scored(_old_score_chain)
    assert np.array_equal(got, want)
    for g, w in zip(got_g, want_g):
        assert (g is None) == (w is None)
        assert g is None or np.array_equal(g, w)
    if not (use_c2p or use_p2c):
        assert table.grad is None and got_g[leaves.index(table)] is None


def test_scale_counts_enabled_terms():
    base = dict(n=6, k=2, d=8, heads=2, seed=7)
    p3, *_ = _make(**base)
    assert p3.scale == pytest.approx(1.0 / np.sqrt(3 * 4))
    p2, *_ = _make(**base, use_p2c=False)
    assert p2.scale == pytest.approx(1.0 / np.sqrt(2 * 4))
    p1, *_ = _make(**base, use_c2p=False, use_p2c=False)
    assert p1.scale == pytest.approx(1.0 / np.sqrt(1 * 4))


def test_swapped_delta_differs_only_in_p2c():
    params, table, h = _make(10, 3, 6, 1, seed=8)
    clean = scores_efficient(h, params, table).data
    hurt = scores_efficient(h, params, table, fault="swap-delta").data
    assert np.max(np.abs(hurt - clean)) > 1e-3
    # the whole difference is the p2c term's: the oracle with the
    # orientation flipped minus the true p2c
    kc = h.data @ params.w_kc.data
    qr = table.data @ params.w_qr.data
    p2c_shift = np.zeros((10, 10))
    for i in range(10):
        for j in range(10):
            p2c_shift[i, j] = (kc[j] @ qr[oracle_delta(i, j, 3)]
                               - kc[j] @ qr[oracle_delta(j, i, 3)])
    assert_close(hurt[0] - clean[0], p2c_shift, atol=1e-10, rtol=0)


def test_attend_shapes_and_mask():
    params, table, h = _make(8, 3, 6, 2, seed=9)
    out = attend(h, params, table)
    assert out.shape == (8, 6)
    assert np.isfinite(out.data).all()

    mask = np.zeros((8, 8), dtype=bool)
    mask[:, 5] = True
    probs = []
    attend(h, params, table, mask=mask, collect=probs)
    assert len(probs) == 1 and probs[0].shape == (2, 8, 8)
    for p in probs[0]:
        npt.assert_array_equal(p[:, 5], np.zeros(8))
        npt.assert_allclose(p.sum(axis=1), np.ones(8), atol=1e-12)


@pytest.mark.parametrize("n,k", [(12, 4), (5, 8), (1, 2)])
def test_flat_offsets_match_delta_gathers(n, k):
    rng = np.random.default_rng(n)
    dm = build_delta_matrix(n, k)
    c2p = rng.normal(0, 1, (2, 3, n, 2 * k))   # query rows times position keys
    p2c = rng.normal(0, 1, (2, 3, 2 * k, n))   # position queries times key columns
    gather = lambda prod, off: T.gather_flat(Tensor(prod), off).data
    every = lambda idx: np.broadcast_to(idx, (2, 3, n, n))
    npt.assert_array_equal(gather(c2p, _c2p_offsets(dm)),
                           np.take_along_axis(c2p, every(dm.values), axis=-1))
    # p2c reads row delta(j, i) of column j at (i, j); the swap-delta
    # fault reads row delta(i, j)
    for fault, rows in ((None, dm.values.T), ("swap-delta", dm.values)):
        npt.assert_array_equal(gather(p2c, _p2c_offsets(dm, fault=fault)),
                               np.take_along_axis(p2c, every(rows), axis=-2))
    # query rows at positions: c2p reads the delta rows there, p2c reads
    # delta(j, positions) for every key j
    pos = rng.integers(0, n, (2, 4))
    at_pos = rng.normal(0, 1, (2, 3, 4, 2 * k))
    npt.assert_array_equal(gather(at_pos, _c2p_offsets(dm, pos)),
                           np.take_along_axis(at_pos, dm.values[pos][:, None], axis=-1))
    for fault, rows in ((None, dm.values.T), ("swap-delta", dm.values)):
        npt.assert_array_equal(gather(p2c, _p2c_offsets(dm, pos, fault)),
                               np.take_along_axis(p2c, rows[pos][:, None], axis=-2))


def test_flat_offset_gathers_pass_gradcheck():
    dm = build_delta_matrix(7, 2)
    pos = np.array([[6, 0, 3], [2, 2, 5]])
    probe = np.random.default_rng(3).normal(0, 1, (2, 2, 7, 7))
    # p2c reads a (2k, n) product block, c2p an (m, 2k) one
    for off, shape in ((_p2c_offsets(dm), (2, 2, 4, 7)),
                       (_c2p_offsets(dm, pos), (2, 2, 3, 4)),
                       (_p2c_offsets(dm, pos), (2, 2, 4, 7))):
        x0 = np.random.default_rng(4).normal(0, 1, shape)
        pr = Tensor(probe[..., :off.shape[-2], :])
        x = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.mul(T.gather_flat(x, off), pr))
        tape.backward(loss)
        want = numeric_grad(
            lambda: T.sum_all(T.mul(T.gather_flat(Tensor(x0), off), pr)).item(), x0)
        assert_close(x.grad, want, atol=1e-6, rtol=1e-4)


def test_attend_probs_match_unfused_chain():
    # scale and mask inside the softmax: the same bits as the numpy
    # formula on the scaled scores, blocked entries set to -inf
    params, table, _ = _make(6, 2, 8, 2, seed=14)
    h = Tensor(np.random.default_rng(15).normal(0, 1, (3, 6, 8)))
    real = np.ones((3, 6), dtype=bool)
    real[1, 4:] = False
    for mask in (np.triu(np.ones((6, 6), dtype=bool), k=1), ~real[:, None, :]):
        mask = np.broadcast_to(mask, (3,) + mask.shape[-2:])
        probs = []
        attend(h, params, table, mask=mask, collect=probs)
        logits = scores_efficient(h, params, table).data * params.scale
        logits = np.where(mask[:, None], -np.inf, logits)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        assert np.array_equal(probs[0], e / e.sum(axis=-1, keepdims=True))


def test_attend_fully_masked_row_raises():
    params, table, h = _make(4, 2, 4, 1, seed=10)
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, :] = True
    with pytest.raises(DegenerateRowError) as err:
        attend(h, params, table, mask=mask)
    assert "0, 1" in str(err.value)  # head 0, query 1


def _causal(n):
    return np.triu(np.ones((n, n), dtype=bool), k=1)


def test_query_blocks_end_at_the_last_open_key():
    assert _query_blocks(_causal(101), 101) == [(0, 32, 32), (32, 64, 64),
                                                (64, 96, 96), (96, 101, 101)]
    # a left-packed batch: a block reaches the widest key any row sees
    real = np.arange(70) < np.array([[50], [20]])
    padded = _causal(70) | ~real[:, None, :]
    assert _query_blocks(padded, 70) == [(0, 32, 32), (32, 64, 50), (64, 70, 50)]
    open_rows = np.zeros((70, 70), dtype=bool)
    dead = _causal(70)
    dead[40] = True
    for mask, n in ((None, 70), (_causal(32), 32), (np.zeros((2, 1, 70), dtype=bool), 70),
                    (_causal(70).astype(np.int8), 70), (_causal(71), 70), (dead, 70)):
        assert _query_blocks(mask, n) == [(0, n, n)]
    assert _query_blocks(open_rows, 70) == [(0, 32, 70), (32, 64, 70), (64, 70, 70)]


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("share", [False, True])
@pytest.mark.parametrize("use_c2p,use_p2c", list(itertools.product([True, False], repeat=2)))
def test_unrecorded_causal_attend_matches_the_recorded_call(monkeypatch, lead, share,
                                                            use_c2p, use_p2c):
    # The causal decode head: a query stream beside h.  With no tape the
    # softmax sees each block of 32 query rows against the keys it can
    # see; under a tape it sees the whole (heads, n, n) square.
    n, d, heads = 101, 8, 2
    params, table, _ = _make(n, 4, d, heads, seed=40, share=share,
                             use_c2p=use_c2p, use_p2c=use_p2c)
    rng = np.random.default_rng(41)
    h = Tensor(rng.normal(0, 1, lead + (n, d)))
    q = Tensor(rng.normal(0, 1, lead + (n, d)))
    mask = _causal(n)
    if lead:
        real = np.arange(n) < np.array([[60], [45], [20]])
        mask = mask | ~real[:, None, :]
    seen = []
    softmax = T.softmax_rows
    monkeypatch.setattr(T, "softmax_rows",
                        lambda a, *args: seen.append(a.shape[-2:]) or softmax(a, *args))
    with T.no_grad():
        blocked = attend(h, params, table, mask=mask, query=q)
    ends = [32, 64, 96, 101] if not lead else [32, 60, 60, 60]
    assert seen == [(min(32, n - r0), e) for r0, e in zip(range(0, n, 32), ends)]
    with Tape():
        whole = attend(h, params, table, mask=mask, query=q)
    assert seen[-1] == (n, n)
    assert_close(blocked.data, whole.data, atol=1e-12, rtol=1e-12)


@pytest.mark.parametrize("given", ["collect", "rng"])
def test_collect_and_dropout_keep_the_whole_row_call(given):
    n = 70
    params, table, h = _make(n, 4, 8, 2, seed=42)
    outs, probs = [], []
    for context in (T.no_grad, Tape):
        collected = []
        with context():
            out = attend(h, params, table, mask=_causal(n), dropout_p=0.2,
                         rng=np.random.default_rng(43) if given == "rng" else None,
                         collect=collected if given == "collect" else None)
        outs.append(out.data)
        probs.append(collected)
    assert np.array_equal(outs[0], outs[1])
    if given == "collect":
        assert probs[0][0].shape == (2, n, n)
        assert np.array_equal(probs[0][0], probs[1][0])


def test_fully_masked_row_in_a_later_block_is_named_by_its_row():
    n = 101
    params, table, h = _make(n, 4, 8, 2, seed=44)
    mask = _causal(n)
    mask[70] = True
    messages = []
    for context in (T.no_grad, Tape):
        with context(), pytest.raises(DegenerateRowError) as err:
            attend(h, params, table, mask=mask)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "0, 70" in messages[0]  # head 0, query 70


def _peak_bytes(fn):
    """tracemalloc's peak while fn runs, after one warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_unrecorded_causal_attend_memory_grows_linearly():
    # Each block is scored, softmaxed and mixed before the next is
    # scored, so a call holds the two position products and one block:
    # O(n k) and O(32 n), not the O(n^2) of every block's scores at once
    # (35.6 MiB at n = 1024, 3.6 times the n = 512 peak).
    params, table, _ = _make(1, 16, 64, 4, seed=45)
    rng = np.random.default_rng(46)
    peaks = {}
    for n in (512, 1024):
        h, mask = Tensor(rng.normal(0, 1, (n, 64))), _causal(n)
        with T.no_grad():
            peaks[n] = _peak_bytes(lambda: attend(h, params, table, mask=mask))
    assert peaks[1024] <= 2.5 * peaks[512]
    assert peaks[1024] < 16 * 2**20


def _attend_all_blocks_then_concatenate(h, params, table, mask, query=None):
    """The unrecorded blocked attend as a plain chain: every block
    scored, with each position term that is on gathered at offsets cut
    to all of the block's rows and keys [0, e), then every block
    softmaxed and mixed with V[:e], then the rows concatenated."""
    n, heads, every = h.shape[-2], params.heads, slice(None)
    dm = build_delta_matrix(n, table.shape[0] // 2)
    blocks = _query_blocks(mask, n)
    assert len(blocks) > 1
    qc_h = _heads(T.matmul(h if query is None else query, params.w_qc), heads)
    kc_t = _heads_t(T.matmul(h, params.w_kc), heads)
    c2p = p2c = None
    if params.w_kr is not None:
        c2p = T.matmul(qc_h, _heads_t(T.matmul(table, params.w_kr), heads))
    if params.w_qr is not None:
        p2c = T.matmul(_heads(T.matmul(table, params.w_qr), heads), kc_t)
    scores = []
    for r0, r1, e in blocks:
        rows, keys = slice(r0, r1), slice(0, e)
        s = T.matmul(_cut(qc_h, rows, every), _cut(kc_t, every, keys))
        if c2p is not None:
            s = T.add_gathered(s, c2p, _c2p_offsets(dm, None, rows, keys))
        if p2c is not None:
            s = T.add_gathered(s, p2c, _p2c_offsets(dm, None, None, rows, keys))
        scores.append(s)
    probs = [T.softmax_rows(s, params.scale, mask[..., None, r0:r1, :e])
             for s, (r0, r1, e) in zip(scores, blocks)]
    v = _heads(T.matmul(h, params.w_vc), heads)
    mixed = np.concatenate([T.matmul(p, _cut(v, slice(0, e), every)).data
                            for p, (_, _, e) in zip(probs, blocks)], axis=-2)
    return T.matmul(_merge_heads(Tensor(mixed)), params.w_o)


@pytest.mark.parametrize("n", [33, 100, 256])
@pytest.mark.parametrize("lead", [(), (2,)])
@pytest.mark.parametrize("causal", [True, False])
def test_streamed_blocks_equal_all_blocks_then_concatenate(n, lead, causal):
    params, table, _ = _make(n, 4, 8, 2, seed=n)
    h = Tensor(np.random.default_rng(n + 1).normal(0, 1, lead + (n, 8)))
    real = np.arange(n) < (np.array([[n], [n // 2]]) if lead else n - 5)
    mask = np.broadcast_to(~real[..., None, :], lead + (n, n))
    if causal:
        mask = mask | _causal(n)
    with T.no_grad():
        streamed = attend(h, params, table, mask=mask)
        reference = _attend_all_blocks_then_concatenate(h, params, table, mask)
    assert np.array_equal(streamed.data, reference.data)


@pytest.mark.parametrize("n", [33, 100, 256])
@pytest.mark.parametrize("k", [1, 4, 16, 40])
@pytest.mark.parametrize("lead", [(), (2,)])
@pytest.mark.parametrize("pad", [False, True])
def test_banded_blocks_equal_every_block_gathered_whole(n, k, lead, pad):
    # Keys at least k behind a whole block read one c2p column and one
    # p2c row, broadcast; only the band beside the diagonal is gathered.
    # Every score still sums the same two terms in the same order, so
    # the output keeps its bits, whatever the terms, the sharing, k
    # (k = 40 is wider than a block) and the padding (an unbatched
    # padded row ends some blocks before their band begins).
    rng = np.random.default_rng(n + k)
    h = Tensor(rng.normal(0, 1, lead + (n, 8)))
    q = Tensor(rng.normal(0, 1, lead + (n, 8)))
    mask = _causal(n)
    if pad:
        real = np.arange(n) < (np.array([[n], [n // 3]]) if lead else n - 5)
        mask = mask | ~real[..., None, :]
    for (use_c2p, use_p2c), share in itertools.product(
            itertools.product([True, False], repeat=2), [False, True]):
        params, table, _ = _make(n, k, 8, 2, seed=n * k, share=share,
                                 use_c2p=use_c2p, use_p2c=use_p2c)
        with T.no_grad():
            banded = attend(h, params, table, mask=mask, query=q)
            whole = _attend_all_blocks_then_concatenate(h, params, table, mask, q)
        assert np.array_equal(banded.data, whole.data), (use_c2p, use_p2c, share)


def test_a_causal_row_gathers_only_the_band_and_builds_it_once_per_length(monkeypatch):
    # A 256-token toy row (k = 16, 4 heads): 4 attend calls of 8 blocks.
    # Block 0 gathers keys [0, 32); each later block 32 + 15 band keys,
    # for 32 rows, 4 heads and 2 terms.  Gathering every key of every
    # block took 1,179,648 entries.
    run_cfg = load_run_config("toy", ["model.max_len=256"], 1)
    model = Model(run_cfg.build_model_config(40), seed=1)
    rows = np.random.default_rng(7).integers(0, 40, (2, 256))
    gathered, builds = [], []
    add_gathered, band_offsets = T.add_gathered, attention._band_offsets

    def counted(base, a, offsets):
        out = add_gathered(base, a, offsets)
        gathered.append(out.size)  # one entry per head of each offset
        return out

    monkeypatch.setattr(T, "add_gathered", counted)
    monkeypatch.setattr(attention, "_band_offsets",
                        lambda *args: builds.append(args[1:]) or band_offsets(*args))
    build_delta_matrix.cache_clear()
    counts = []
    with T.no_grad():
        for row in rows:
            gathered.clear()
            builds.clear()
            model.arlm_row(row)
            counts.append((sum(gathered), len(builds)))
    assert counts == [(369_664, 8), (369_664, 0)]
    assert 369_664 == (32 + 7 * 47) * 32 * 4 * 2 * 4
    dm = build_delta_matrix(256, 16)
    assert not any(a.flags.writeable for band in dm.bands.values() for a in band[1:])


@pytest.mark.parametrize("n", [33, 64, 129])
@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("use_c2p,use_p2c", list(itertools.product([True, False], repeat=2)))
def test_unrecorded_causal_attend_matches_the_naive_oracle(n, k, use_c2p, use_p2c):
    # The block path against the definition: naive scores, then the
    # masked softmax, the value mix and the output projection.
    params, table, h = _make(n, k, 8, 2, seed=n + 3 * k, use_c2p=use_c2p, use_p2c=use_p2c)
    mask = _causal(n)
    with T.no_grad():
        got = attend(h, params, table, mask=mask)
        probs = T.softmax_rows(scores_naive(h, params, table), params.scale, mask)
        v = _heads(T.matmul(h, params.w_vc), params.heads)
        want = T.matmul(_merge_heads(T.matmul(probs, v)), params.w_o)
    assert_close(got.data, want.data, atol=1e-10 * np.abs(want.data).max(), rtol=1e-10)


def test_score_blocks_die_in_their_softmax(monkeypatch):
    # A block's scores are freed when its softmax returns, checked as its
    # probabilities are mixed with V; an unrecorded block's
    # probabilities are freed once its rows of the output are written,
    # checked as the next softmax begins.
    n = 70
    params, table, h = _make(n, 4, 8, 2, seed=47)
    refs, live = [], []
    softmax, matmul = T.softmax_rows, T.matmul

    def watched_softmax(a, *args):
        live.append(any(r() is not None for r in refs))
        refs.append(weakref.ref(a))
        probs = softmax(a, *args)
        refs.append(weakref.ref(probs))
        return probs

    def watched_matmul(a, b):
        if refs and refs[-1]() is a:  # the mix of the block just softmaxed
            live.append(refs[-2]() is not None)
        return matmul(a, b)

    monkeypatch.setattr(T, "softmax_rows", watched_softmax)
    monkeypatch.setattr(T, "matmul", watched_matmul)
    with T.no_grad():
        attend(h, params, table, mask=_causal(n))
    assert live == [False] * 6  # three blocks of rows
    live.clear()
    with Tape():
        attend(h, params, table, mask=_causal(n))
    assert live == [False, False]


def test_attend_single_token():
    params, table, h = _make(1, 4, 8, 2, seed=11)
    out = attend(h, params, table)
    assert out.shape == (1, 8)
    assert np.isfinite(out.data).all()
    assert build_delta_matrix(1, 4).values[0, 0] == 4  # the diagonal bin


def test_attend_repeated_token_rows_equal():
    # identical content rows plus zeroed position table: every query sees
    # the same world, so every output row must match
    params, table, h = _make(6, 2, 4, 2, seed=12)
    table0 = Tensor(np.zeros((4, 4)))
    row = np.random.default_rng(13).normal(0, 1, 4)
    h_same = Tensor(np.tile(row, (6, 1)))
    out = attend(h_same, params, table0)
    for i in range(1, 6):
        npt.assert_allclose(out.data[i], out.data[0], atol=1e-12)


def test_separate_query_input():
    params, table, h = _make(5, 2, 6, 1, seed=14)
    q = Tensor(np.random.default_rng(15).normal(0, 1, (5, 6)))
    out_self = attend(h, params, table)
    out_cross = attend(h, params, table, query=q)
    assert out_cross.shape == (5, 6)
    assert np.max(np.abs(out_cross.data - out_self.data)) > 1e-6


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("share", [False, True])
@pytest.mark.parametrize("use_c2p,use_p2c", list(itertools.product([True, False], repeat=2)))
def test_query_stream_and_query_slots_match_the_naive_kernel(lead, share, use_c2p, use_p2c):
    # The mask decoder's two paths: a query stream q beside the content h,
    # and only the query rows at some slots, scored as (..., heads, m, n).
    n, k, d, heads, m = 9, 3, 8, 2, 5
    params, table, _ = _make(n, k, d, heads, seed=20, share=share,
                                 use_c2p=use_c2p, use_p2c=use_p2c)
    rng = np.random.default_rng(21)
    h = Tensor(rng.normal(0, 1, lead + (n, d)), requires_grad=True)
    q = Tensor(rng.normal(0, 1, lead + (n, d)), requires_grad=True)
    rows = rng.integers(0, n, lead + (m,))          # repeated slots included
    probe = rng.normal(0, 1, lead + (heads, n, n))
    probe_rows = rng.normal(0, 1, lead + (heads, m, n))
    # probe_rows added back at the slots it reads: the same functional of
    # the full scores as probe_rows is of the scores at rows
    spread = np.zeros(probe.shape)
    for idx in np.ndindex(lead):
        for i, r in enumerate(rows[idx]):
            spread[idx][:, r] += probe_rows[idx][:, i]
    leaves = [h, q, table, params.w_qc, params.w_kc]
    leaves += [w for w in (params.w_qr, params.w_kr) if w is not None and not share]

    def scored(scores, weights):
        """The scores and the gradient of sum(scores * weights) in every leaf."""
        with Tape() as tape:
            s = scores()
            loss = T.sum_all(T.mul(s, Tensor(weights)))
        tape.backward(loss)
        grads = [t.grad for t in leaves]
        for t in leaves:
            t.grad = None
        return s.data, grads

    def at_rows():
        first = np.arange(0, q.size // d, n).reshape(lead)  # flat slot 0 of each row
        q_at = T.gather_rows(T.reshape(q, (q.size // d, d)), first[..., None] + rows)
        return scores_efficient(h, params, table, query=q_at, positions=rows)

    naive = lambda: scores_naive(h, params, table, query=q)
    efficient = lambda: scores_efficient(h, params, table, query=q)
    want, want_g = scored(naive, probe)
    want_rows = np.take_along_axis(want, rows[..., None, :, None], axis=-2)
    _, want_rows_g = scored(naive, spread)
    for (got, got_g), expect, expect_g in (
            (scored(efficient, probe), want, want_g),
            (scored(at_rows, probe_rows), want_rows, want_rows_g)):
        assert got.shape == expect.shape
        assert np.max(np.abs(got - expect)) <= 1e-10
        for t, g, e in zip(leaves, got_g, expect_g):
            # the table takes no gradient when both position terms are off
            assert (g is None) == (e is None) == (t is table and not (use_c2p or use_p2c))
            if g is not None:
                assert np.max(np.abs(g - e)) <= 1e-8


def test_attend_refuses_a_mask_that_does_not_fit_its_queries():
    # A mask serves every query with one row, or has one row per query.
    # Each block takes its rows [r0, r1) and keys [0, e) of it, so a
    # mask with more rows or keys than that would be cut, not refused.
    n, m = 9, 4
    params, table, h = _make(n, 3, 8, 2, seed=22)
    rows = np.arange(m)
    q = T.gather_rows(h, rows)
    column = np.zeros((1, n), dtype=bool)
    assert attend(h, params, table, mask=column, query=q, positions=rows).shape == (m, 8)
    for bad in (_causal(n), np.zeros((1, n + 1), dtype=bool), np.zeros(n, dtype=bool)):
        with pytest.raises(ShapeError):
            attend(h, params, table, mask=bad, query=q, positions=rows)
    with pytest.raises(ShapeError):
        attend(h, params, table, mask=_causal(n + 1))


def test_validation_errors():
    params, table, h = _make(6, 2, 4, 1, seed=16)
    with pytest.raises(ShapeError):
        scores_efficient(Tensor(np.zeros((6, 5))), params, table)
    with pytest.raises(ShapeError):
        scores_efficient(h, params, Tensor(np.zeros((3, 4))))
    with pytest.raises(ConfigError):
        scores_efficient(h, params, table, fault="nonsense")
    # no rng, no dropout
    assert np.array_equal(attend(h, params, table, dropout_p=0.5).data,
                          attend(h, params, table).data)
    with pytest.raises(ConfigError):
        AttentionParams(heads=3, w_qc=params.w_qc, w_kc=params.w_kc,
                        w_vc=params.w_vc, w_o=params.w_o)  # 4 % 3 != 0


def test_position_table_and_wiring_errors():
    # delta is built from the table's 2k rows: a table that is missing,
    # has no or an odd number of rows, or the wrong width is refused
    params, table, h = _make(6, 2, 4, 1, seed=17)
    for bad in (None, np.zeros((0, 4)), np.zeros((3, 4)), np.zeros((4, 3)), np.zeros(4)):
        for kernel in (scores_naive, scores_efficient):
            with pytest.raises(ShapeError):
                kernel(h, params, None if bad is None else Tensor(bad))
    # with both position terms off no table is read
    off, _, _ = _make(6, 2, 4, 1, seed=17, use_c2p=False, use_p2c=False)
    assert attend(h, off, None).shape == (6, 4)
    # an unshared term that is on needs its own projection
    w = (params.w_qc, params.w_kc, params.w_vc, params.w_o)
    for c2p, p2c in ((True, False), (False, True)):
        with pytest.raises(ContractError):
            AttentionParams.wired(1, *w, c2p=c2p, p2c=p2c, share=False)
    both_off = AttentionParams.wired(1, *w, c2p=False, p2c=False, share=True)
    assert both_off.w_qr is None and both_off.w_kr is None


def test_extra_param_count_frozen_values():
    class Cfg:
        def __init__(self, L, d, k, share):
            self.L, self.d, self.k, self.share_projection = L, d, k, share

    assert extra_param_count(Cfg(24, 1024, 512, False)) == 51_380_224
    assert extra_param_count(Cfg(12, 768, 512, False)) == 14_942_208
    assert extra_param_count(Cfg(24, 1024, 512, True)) == 1_048_576
    assert extra_param_count(Cfg(12, 768, 512, True)) == 786_432
    assert extra_param_count(Cfg(2, 8, 4, False)) == 2 * 2 * 64 + 64


@pytest.mark.parametrize("c2p, p2c, share", list(itertools.product(
    (True, False), (True, False), (True, False))))
def test_extra_param_count_matches_the_encoder_parameters(c2p, p2c, share):
    # pos_table plus the encoder layers' position projections, as built
    cfg = ModelConfig(vocab_size=10, L=3, d=8, heads=2, k=4, share_projection=share,
                      ablations={"c2p": c2p, "p2c": p2c})
    shapes = param_shapes(cfg)
    want = sum(int(np.prod(shape)) for name, shape in shapes.items()
               if name == "pos_table"
               or (name.startswith("enc") and name.endswith(("_wqr", "_wkr"))))
    assert extra_param_count(cfg) == want


# ---------------------------------------------------------------------
# Equivalence suite and allocation audit.
# ---------------------------------------------------------------------


def test_equivalence_suite_clean():
    report = run_equivalence_suite(seed=0)
    assert report.cases, "suite ran no cases"
    assert report.passed, (
        f"worst score diff {report.worst_score_diff:.3e}, "
        f"worst grad diff {report.worst_grad_diff:.3e}"
    )


def test_equivalence_suite_catches_swapped_delta():
    report = run_equivalence_suite(seed=0, fault="swap-delta")
    assert not report.passed
    bad = [c for c in report.cases if not c.passed]
    assert bad and all(c.enable_p2c for c in bad)
    clean_while_faulted = [c for c in report.cases if not c.enable_p2c]
    assert all(c.passed for c in clean_while_faulted)


def test_allocation_meter_bookkeeping():
    m = AllocationMeter()
    m.alloc(10)
    m.alloc(5)
    m.release(10)
    m.alloc(2)
    assert m.peak == 15
    assert m.current == 7
    with pytest.raises(ConfigError):
        m.release(100)


def test_allocation_audit_budget_and_growth():
    rows = run_allocation_audit(ns=(32, 64, 128), k=8, d=16)
    for row in rows:
        assert row.within_budget, row
        assert row.efficient_peak == efficient_peak_budget(row.n, row.k, row.d)
        # naive holds a full (n^2, d) gather while the tables are live
        assert row.naive_peak >= row.n * row.n * row.d
    r32 = next(r for r in rows if r.n == 32)
    r128 = next(r for r in rows if r.n == 128)
    ratio32 = r32.naive_peak / r32.efficient_peak
    ratio128 = r128.naive_peak / r128.efficient_peak
    assert ratio128 / ratio32 > 4.0


def test_naive_kernel_frees_each_pair_gather_with_its_meter():
    # At the audit's n = 128, while the p2c term is formed, Q_r's pair
    # rows, the gathered key rows and their product are live: three
    # (n^2, d) arrays, as the meter counts.  K_r's pair rows kept past
    # their release made it four.
    n, k, d = 128, 8, 16
    params, table, h = _make(n, k, d, 1, seed=48)
    with T.no_grad():
        peak = _peak_bytes(lambda: scores_naive(h, params, table))
    assert peak <= 3.5 * n * n * d * 8
