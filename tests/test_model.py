"""Model forward passes, decode head behaviour, checkpoint format."""

import itertools
import math
import struct

import numpy as np
import numpy.testing as npt
import pytest

from desklm import model as model_mod
from desklm.attention import attend, scores_efficient
from desklm import tensor as T
from desklm.data import MaskedBatch
from desklm.errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    ContractError,
    IndexBoundsError,
)
from desklm.model import (
    Model,
    ModelConfig,
    build_mask,
    count_params,
    init_params,
    load_checkpoint,
    load_model,
    param_shapes,
    save_checkpoint,
)
from desklm.relpos import delta
from desklm.seeding import rng_for
from desklm.tensor import Tape, Tensor

from helpers import assert_close, numeric_grad


def tiny_cfg(**over):
    base = dict(vocab_size=13, max_len=16, L=2, d=8, heads=2, ffn=16, k=3,
                n_emd=2, emd_shared=True, dropout=0.0)
    base.update(over)
    return ModelConfig(**base)


def zero_model(cfg, seed=0):
    m = Model(cfg, seed=seed)
    for p in m.params.values():
        p.data[...] = 0.0
    return m


def one_row_batch(x, xt, positions, real=None):
    x = np.asarray([x], dtype=np.int64)
    xt = np.asarray([xt], dtype=np.int64)
    if real is None:
        real = np.ones_like(x, dtype=bool)
    else:
        real = np.asarray([real], dtype=bool)
    return MaskedBatch(x=x, x_tilde=xt, positions=[list(positions)], real=real)


# ---------------------------------------------------------------------
# Config and parameter registry.
# ---------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_cfg(d=9)  # not divisible by heads
    with pytest.raises(ConfigError):
        tiny_cfg(k=0)
    with pytest.raises(ConfigError):
        tiny_cfg(mode="cloze")
    with pytest.raises(ConfigError):
        tiny_cfg(dropout=1.0)
    with pytest.raises(ConfigError):
        tiny_cfg(n_emd=0)
    with pytest.raises(ConfigError):
        tiny_cfg(vocab_size=1)
    cfg = tiny_cfg(ablations={"emd": False, "c2p": True, "p2c": False})
    assert cfg.ablations.emd is False and cfg.ablations.p2c is False


def test_config_rejects_non_object_ablations():
    # a checkpoint's config block reaches ModelConfig unchecked
    with pytest.raises(ConfigError):
        tiny_cfg(ablations=5)


def test_config_checks_field_types():
    with pytest.raises(ConfigError):
        tiny_cfg(d=8.0)
    with pytest.raises(ConfigError):
        tiny_cfg(emd_shared=1)
    with pytest.raises(ConfigError):
        tiny_cfg(ablations={"c2p": "no"})
    assert tiny_cfg(dropout=0).dropout == 0  # an int is a float


def test_param_shapes_and_count():
    cfg = tiny_cfg()
    shapes = param_shapes(cfg)
    m = Model(cfg, seed=1)
    assert set(m.params) == set(shapes)
    for name, t in m.params.items():
        assert t.shape == shapes[name], name
    assert count_params(cfg) == sum(t.size for t in m.params.values())
    # shared EMD: one decoder block set; unshared: n_emd sets
    cfg2 = tiny_cfg(emd_shared=False)
    assert any(k.startswith("dec1_") for k in param_shapes(cfg2))
    assert not any(k.startswith("dec1_") for k in shapes)
    # share_projection drops the separate position projections
    cfg3 = tiny_cfg(share_projection=True)
    assert not any(k.endswith("_wqr") for k in param_shapes(cfg3))
    # fully ablated position terms drop the table
    cfg4 = tiny_cfg(ablations={"emd": True, "c2p": False, "p2c": False})
    assert "pos_table" not in param_shapes(cfg4)


def test_count_params_is_the_exact_sum_over_the_shape_registry():
    # the closed form against the registry it shortcuts, on every switch
    # that adds or drops a parameter
    for c2p, p2c, emd, shared, share_proj, abs_in, L, n_emd in itertools.product(
            *[(False, True)] * 6, (0, 1, 3), (1, 3)):
        cfg = tiny_cfg(ablations={"c2p": c2p, "p2c": p2c, "emd": emd},
                       emd_shared=shared, share_projection=share_proj,
                       abs_pos_at_input=abs_in, L=L, n_emd=n_emd)
        want = sum(math.prod(s) for s in param_shapes(cfg).values())
        assert count_params(cfg) == want, cfg


def test_init_is_deterministic_and_per_name():
    cfg = tiny_cfg()
    a = init_params(cfg, seed=7)
    b = init_params(cfg, seed=7)
    for name in a:
        npt.assert_array_equal(a[name].data, b[name].data)
    c = init_params(cfg, seed=8)
    assert any((a[n].data != c[n].data).any() for n in a)
    # dropping one parameter group must not disturb any other draw
    cfg_plain = tiny_cfg(ablations={"emd": False, "c2p": True, "p2c": True})
    d = init_params(cfg_plain, seed=7)
    for name in d:
        npt.assert_array_equal(d[name].data, a[name].data, err_msg=name)
    # truncation bound and gain/bias conventions
    w = a["enc0_att_wqc"].data
    assert np.abs(w).max() <= 0.04
    npt.assert_array_equal(a["emb_ln_g"].data, np.ones(8))
    npt.assert_array_equal(a["out_bias"].data, np.zeros(13))


# ---------------------------------------------------------------------
# Masks.
# ---------------------------------------------------------------------


def test_build_mask():
    assert build_mask(4, None, False) is None
    real = np.array([True, True, False, False])
    pad = build_mask(4, real, False)
    assert pad.dtype == bool
    npt.assert_array_equal(pad, [[False, False, True, True]])
    causal = build_mask(3, None, True)
    assert causal.dtype == bool
    npt.assert_array_equal(causal, [[False, True, True],
                                    [False, False, True],
                                    [False, False, False]])
    both = build_mask(4, real, True)
    assert both.dtype == bool
    npt.assert_array_equal(both, [[False, True, True, True],   # causal
                                  [False, False, True, True],
                                  [False, False, True, True],  # padding
                                  [False, False, True, True]])
    # one mask per row of a batch
    rows = build_mask(2, np.array([[True, True], [True, False]]), False)
    npt.assert_array_equal(rows, [[[False, False]], [[False, True]]])


def test_build_mask_triangle_is_the_strict_upper_one():
    # a bool (n, n) triangle is what lets attend block a causal row
    for n in range(1, 71):
        triu = np.triu(np.ones((n, n), dtype=bool), k=1)
        causal = build_mask(n, None, True)
        assert causal.dtype == bool and causal.shape == (n, n)
        npt.assert_array_equal(causal, triu)
        real = np.arange(n) < np.array([[n], [(n + 1) // 2]])  # one padded row
        both = build_mask(n, real, True)
        assert both.dtype == bool and both.shape == (2, n, n)
        npt.assert_array_equal(both, triu | ~real[:, None, :])


# ---------------------------------------------------------------------
# Encoder behaviour.
# ---------------------------------------------------------------------


def test_encode_shapes_and_single_token():
    m = Model(tiny_cfg(), seed=0)
    h = m.encode(np.array([2, 5, 6, 7, 3]))
    assert h.shape == (5, 8)
    assert np.isfinite(h.data).all()
    h1 = m.encode(np.array([5]))
    assert h1.shape == (1, 8)
    assert np.isfinite(h1.data).all()
    with pytest.raises(ContractError):
        m.encode(np.arange(17))  # beyond max_len
    with pytest.raises(ContractError):
        m.encode(np.array(5))  # a bare id is not a row
    with pytest.raises(ContractError):
        m.encode(np.zeros((2, 0), dtype=np.int64))  # empty rows


def test_encode_l0_is_normalised_embedding():
    cfg = tiny_cfg(L=0)
    m = Model(cfg, seed=3)
    ids = np.array([4, 9, 4])
    h = m.encode(ids)
    e = m.params["tok_emb"].data[ids]
    mu = e.mean(axis=1, keepdims=True)
    var = ((e - mu) ** 2).mean(axis=1, keepdims=True)
    expect = (e - mu) / np.sqrt(var + 1e-5)
    expect = expect * m.params["emb_ln_g"].data + m.params["emb_ln_b"].data
    npt.assert_allclose(h.data, expect, atol=1e-12)


def test_encode_drops_embeddings_exactly_when_given_an_rng():
    # at L = 0 the output is the embedding after its dropout, so inverted
    # dropout shows as exact zeros and a 1 / (1 - p) scale on the rest
    m = Model(tiny_cfg(L=0, d=32, dropout=0.1), seed=4)
    ids = np.random.default_rng(5).integers(5, 13, size=(4, 16))
    plain = m.encode(ids).data
    dropped = m.encode(ids, rng=np.random.default_rng(6)).data
    assert not (plain == 0.0).any()
    zero = dropped == 0.0
    assert 0.05 < zero.mean() < 0.15
    npt.assert_allclose(dropped[~zero], plain[~zero] / 0.9, rtol=1e-14)


def test_encode_token_identity_with_zero_positions():
    # with the position table zeroed and no absolute positions anywhere,
    # hidden rows are a function of the token id alone
    cfg = tiny_cfg()
    m = Model(cfg, seed=4)
    m.params["pos_table"].data[...] = 0.0
    ids = np.array([5, 7, 5, 9, 5, 7])
    h = m.encode(ids).data
    npt.assert_allclose(h[0], h[2], atol=1e-12)
    npt.assert_allclose(h[0], h[4], atol=1e-12)
    npt.assert_allclose(h[1], h[5], atol=1e-12)
    assert np.max(np.abs(h[0] - h[3])) > 1e-6
    # swapping two tokens swaps their rows
    ids_sw = np.array([7, 5, 5, 9, 5, 7])
    h_sw = m.encode(ids_sw).data
    npt.assert_allclose(h_sw[0], h[1], atol=1e-12)
    npt.assert_allclose(h_sw[1], h[0], atol=1e-12)


def test_encode_positions_matter_by_default():
    m = Model(tiny_cfg(), seed=5)
    ids = np.array([5, 7, 5, 9, 5, 7])
    h = m.encode(ids).data
    assert np.max(np.abs(h[0] - h[2])) > 1e-8  # same token, different place


def test_pad_columns_never_receive_attention():
    m = Model(tiny_cfg(), seed=6)
    ids = np.array([2, 5, 6, 3, 0, 0])
    real = np.array([True, True, True, True, False, False])
    collect = []
    m.encode(ids, real=real, collect=collect)
    assert len(collect) == m.cfg.L  # one (heads, n, n) array per encoder layer
    for layer, heads in enumerate(collect):
        assert heads.shape == (m.cfg.heads, 6, 6)
        for p in heads:
            npt.assert_array_equal(p[:, 4:], np.zeros((6, 2)), err_msg=f"layer {layer}")


def test_pad_content_cannot_leak():
    # changing a PAD slot's token id must not move any real position's output
    cfg = tiny_cfg()
    m = Model(cfg, seed=7)
    real = np.array([True, True, True, False, False])
    a = m.encode(np.array([2, 5, 3, 0, 0]), real=real).data
    b = m.encode(np.array([2, 5, 3, 9, 11]), real=real).data
    npt.assert_array_equal(a[:3], b[:3])  # bitwise: masked probs are exact zeros


# ---------------------------------------------------------------------
# Losses.
# ---------------------------------------------------------------------


def test_mlm_loss_uniform_logits():
    # all-zero parameters force equal logits: loss is exactly ln(vocab)
    cfg = tiny_cfg()
    m = zero_model(cfg)
    batch = one_row_batch([2, 7, 8, 3], [2, 4, 8, 3], [1])
    loss = m.forward_mlm(batch)
    npt.assert_allclose(loss.item(), np.log(13), atol=1e-12)


def test_mlm_loss_two_way_tie_is_ln2():
    cfg = tiny_cfg(vocab_size=2, k=2)
    m = zero_model(cfg)
    batch = one_row_batch([0, 1, 0, 1], [0, 1, 1, 1], [2])
    loss = m.forward_mlm(batch)
    npt.assert_allclose(loss.item(), np.log(2), atol=1e-12)


def test_mlm_loss_confident_correct_is_near_zero():
    cfg = tiny_cfg()
    m = zero_model(cfg)
    m.params["out_bias"].data[7] = 40.0  # one-hot-ish via the output bias
    batch = one_row_batch([2, 7, 8, 3], [2, 4, 8, 3], [1])
    loss = m.forward_mlm(batch)
    assert loss.item() < 1e-9


def test_mlm_loss_averages_over_batch_positions():
    cfg = tiny_cfg()
    m = Model(cfg, seed=8)
    b1 = one_row_batch([2, 7, 8, 3], [2, 4, 8, 3], [1])
    b2 = one_row_batch([2, 9, 10, 3], [2, 9, 4, 3], [2])
    both = MaskedBatch(
        x=np.vstack([b1.x, b2.x]), x_tilde=np.vstack([b1.x_tilde, b2.x_tilde]),
        positions=[[1], [2]], real=np.vstack([b1.real, b2.real]),
    )
    l1 = m.forward_mlm(b1).item()
    l2 = m.forward_mlm(b2).item()
    lb = m.forward_mlm(both).item()
    npt.assert_allclose(lb, (l1 + l2) / 2, atol=1e-12)


def test_arlm_causality_bitwise():
    # logits at position t must not move when any token after t changes
    cfg = tiny_cfg(mode="arlm")
    m = Model(cfg, seed=9)
    a = np.array([2, 5, 6, 7, 8, 3])
    b = a.copy()
    b[4] = 11  # change a late token
    _, _, la = m.arlm_row(a)
    _, _, lb = m.arlm_row(b)
    # rows 0..2 predict tokens 1..3 from prefixes untouched by the edit
    npt.assert_array_equal(la.data[:3], lb.data[:3])
    assert (la.data[3] != lb.data[3]).any() or (la.data[4] != lb.data[4]).any()


def test_padded_arlm_batch_equals_unpadded_rows():
    # left-packed rows under a causal plus padding mask score exactly the
    # real next tokens of each row, as the rows would on their own
    m = Model(tiny_cfg(mode="arlm"), seed=19)
    rows = [np.array([2, 5, 6, 7, 8, 3]), np.array([2, 9, 3]),
            np.array([2, 11, 12, 10, 3])]
    n = max(r.size for r in rows)
    ids = np.zeros((len(rows), n), dtype=np.int64)
    real = np.zeros((len(rows), n), dtype=bool)
    for r, row in enumerate(rows):
        ids[r, :row.size] = row
        real[r, :row.size] = True
    nll, count, _ = m.arlm_row(ids, real=real)
    parts = [m.arlm_row(row) for row in rows]
    assert count == sum(c for _, c, _ in parts)
    want = sum(p.item() for p, _, _ in parts) / count
    npt.assert_allclose(nll.item() / count, want, rtol=0, atol=1e-12)


def _row_nlls(m, ids, real=None):
    """Per-row causal NLL sums from the logits arlm_row picks."""
    _, _, picked = m.arlm_row(ids, real=real)
    ids = np.atleast_2d(ids)
    predict = np.roll(np.ones(ids.shape, dtype=bool) if real is None
                      else np.atleast_2d(real), -1, axis=-1)
    predict[:, -1] = False
    rows, cols = np.nonzero(predict)
    z = picked.data
    top = z.max(axis=-1)
    lse = top + np.log(np.exp(z - top[:, None]).sum(axis=-1))
    per = lse - z[np.arange(rows.size), ids[rows, cols + 1]]
    return np.bincount(rows, weights=per, minlength=ids.shape[0])


@pytest.mark.parametrize("over", [
    {}, {"ablations": {"c2p": False}}, {"ablations": {"p2c": False}},
    {"ablations": {"c2p": False, "p2c": False}}, {"share_projection": True},
    {"ablations": {"emd": False}},
], ids=["both", "-c2p", "-p2c", "-c2p-p2c", "shared", "-emd"])
def test_unrecorded_causal_rows_match_the_recorded_call(over):
    # With no tape, attend scores each block of 32 query rows only against
    # the keys it can see; under a tape every call is one block.
    m = Model(tiny_cfg(mode="arlm", vocab_size=40, max_len=256, d=16, k=4, **over),
              seed=31)
    rng = np.random.default_rng(32)
    lengths = [31, 32, 33, 101, 256]
    cases = [(rng.integers(5, 40, n), None) for n in lengths]
    ids = np.zeros((3, 101), dtype=np.int64)
    real = np.arange(101) < np.array([[101], [64], [40]])
    ids[real] = rng.integers(5, 40, real.sum())
    cases.append((ids, real))
    for ids, real in cases:
        with T.no_grad():
            blocked = _row_nlls(m, ids, real)
        with Tape():
            whole = _row_nlls(m, ids, real)
        npt.assert_allclose(blocked, whole, rtol=1e-12, atol=0)


def test_batched_encode_matches_rows():
    m = Model(tiny_cfg(), seed=20)
    ids = np.array([[2, 5, 6, 3, 0], [2, 7, 3, 0, 0]])
    real = ids != 0
    both = m.decode(m.encode(ids, real=real), real=real).data
    for r in range(2):
        one = m.decode(m.encode(ids[r], real=real[r]), real=real[r]).data
        npt.assert_allclose(both[r], one, rtol=0, atol=1e-12)


def test_arlm_loss_value_on_zero_model():
    m = zero_model(tiny_cfg(mode="arlm"))
    nll, count, _ = m.arlm_row(np.array([2, 5, 6, 3]))
    npt.assert_allclose(nll.item() / count, np.log(13), atol=1e-12)
    with pytest.raises(ContractError):
        m.arlm_row(np.array([2]))


def test_nothing_to_predict_is_contract_error():
    # one loss core owns the empty case for both objectives
    m = Model(tiny_cfg(mode="arlm"), seed=24)
    ids = np.array([[2, 0, 0], [2, 0, 0]])
    with pytest.raises(ContractError):
        m.arlm_row(ids, real=ids != 0)  # no real next token in any row
    with pytest.raises(ContractError):
        m.mlm_row(ids, ids, np.zeros(ids.shape, dtype=bool), ids != 0)


def test_target_outside_the_vocabulary_is_index_error():
    # the target pick reads flat offsets into the whole logit block, so
    # an id past the vocabulary would land in the next row unchecked
    m = Model(tiny_cfg(), seed=24)
    ids = np.array([[2, 5, 6, 3], [2, 7, 8, 3]])
    predict = np.zeros(ids.shape, dtype=bool)
    predict[:, 1] = True
    for bad_id in (13, -1):
        targets = ids.copy()
        targets[0, 1] = bad_id
        with pytest.raises(IndexBoundsError):
            m.mlm_row(targets, ids, predict, ids != 0)


def _index_case(entry, bad):
    # one call per entry point, with bad in the index it reads
    m = Model(tiny_cfg(), seed=26)
    ids = np.array([[2, 5, 6, 3], [2, 7, 8, 3]])
    predict = np.zeros(ids.shape, dtype=bool)
    predict[:, 1] = True
    if entry == "encode":
        return lambda: m.encode(bad)
    if entry == "arlm_row":
        return lambda: m.arlm_row(bad)
    if entry == "mlm_row":
        return lambda: m.mlm_row(bad, ids, predict, ids != 0)
    h = Tensor(rng_for(26, "h").normal(size=(4, 8)))
    query = Tensor(rng_for(26, "q").normal(size=(2, 8)))
    kernel = attend if entry == "attend" else scores_efficient
    return lambda: kernel(h, m._attn_params("dec0"), m.params["pos_table"],
                          query=query, positions=bad)


@pytest.mark.parametrize("entry, bad", [
    ("encode", np.array([2.0, 7.9, 3.2])),
    ("encode", np.array(["2", "7"])),
    ("encode", np.array([True, False, True])),
    ("arlm_row", np.array([2.0, 7.5, 3.0])),
    ("arlm_row", np.array(["2", "7", "3"])),
    ("arlm_row", np.array([True, False, True])),
    ("mlm_row", np.array([[2, 5, 6, 3], [2, 7, 8, 3]]) + 0.5),
    ("attend", np.array([0.0, 1.0])),
    ("attend", np.array([True, False])),
    ("scores_efficient", np.array([0.0, 1.0])),
    ("scores_efficient", np.array([True, False])),
])
def test_non_integer_indices_are_contract_errors(entry, bad):
    # a float id was truncated and string ids were accepted; float and
    # bool query slots raised numpy's IndexError
    with pytest.raises(ContractError):
        _index_case(entry, bad)()


@pytest.mark.parametrize("entry, bad, value", [
    ("encode", np.array([2, 13, 3]), "13"),
    ("arlm_row", np.array([2, 5, 17]), "17"),
    ("mlm_row", np.array([[2, 21, 6, 3], [2, 7, 8, 3]]), "21"),
    ("attend", np.array([1, 9]), "9"),
    ("scores_efficient", np.array([-3, 1]), "-3"),
])
def test_out_of_range_indices_name_the_value(entry, bad, value):
    with pytest.raises(IndexBoundsError) as err:
        _index_case(entry, bad)()
    assert value in str(err.value)


def test_shared_projection_is_the_content_projection():
    shared = Model(tiny_cfg(share_projection=True), seed=25)
    assert not any(k.endswith(("_att_wqr", "_att_wkr")) for k in shared.params)
    # an unshared model whose position projections equal the content ones
    cfg = tiny_cfg()
    unshared = Model(cfg, params={
        name: Tensor(shared.params[name.replace("_wqr", "_wqc")
                                   .replace("_wkr", "_wkc")].data.copy(),
                     requires_grad=True)
        for name in param_shapes(cfg)})
    batch = MaskedBatch(
        x=np.array([[2, 7, 8, 9, 3], [2, 10, 11, 3, 0]]),
        x_tilde=np.array([[2, 4, 8, 4, 3], [2, 10, 4, 3, 0]]),
        positions=[[1, 3], [2]],
        real=np.array([[True] * 5, [True] * 4 + [False]]),
    )
    losses = {}
    for name, m in (("shared", shared), ("unshared", unshared)):
        with Tape() as tape:
            losses[name] = m.forward_mlm(batch)
        tape.backward(losses[name])
    npt.assert_array_equal(losses["shared"].data, losses["unshared"].data)
    for prefix in ("enc0", "enc1", "dec0"):
        for c, r in (("wqc", "wqr"), ("wkc", "wkr")):
            u = unshared.params
            npt.assert_allclose(
                shared.params[f"{prefix}_att_{c}"].grad,
                u[f"{prefix}_att_{c}"].grad + u[f"{prefix}_att_{r}"].grad,
                rtol=0, atol=1e-12, err_msg=f"{prefix}_att_{c}")


@pytest.mark.parametrize("off", ["c2p", "p2c"])
def test_one_term_ablation_has_no_dead_projection(off):
    # a projection exists only for the term that reads it, so every
    # parameter gets a gradient from both objectives
    m = Model(tiny_cfg(ablations={off: False}), seed=26)
    dead = "_att_wkr" if off == "c2p" else "_att_wqr"
    assert not any(k.endswith(dead) for k in m.params)
    ids = np.array([[2, 7, 8, 9, 3], [2, 10, 11, 3, 0]])
    real = ids != 0
    predict = np.zeros(ids.shape, dtype=bool)
    predict[0, [1, 3]] = predict[1, 2] = True
    for loss_of in (lambda: m.arlm_row(ids, real=real),
                    lambda: m.mlm_row(ids, np.where(predict, 4, ids), predict, real)):
        m.zero_grad()
        with Tape() as tape:
            nll, _, _ = loss_of()
        tape.backward(nll)
        for name, p in m.params.items():
            assert p.grad is not None, name


def _padded_mlm_batch(seed, rows=4, n=12, pad=0):
    """Left-packed rows of varied length with one to three predicted
    slots each, plus pad extra all-PAD columns."""
    rng = np.random.default_rng(seed)
    x = np.zeros((rows, n + pad), dtype=np.int64)
    predict = np.zeros(x.shape, dtype=bool)
    for r in range(rows):
        length = int(rng.integers(4, n + 1))
        x[r, :length] = np.concatenate(([2], rng.integers(5, 13, length - 2), [3]))
        picked = rng.choice(np.arange(1, length - 1), int(rng.integers(1, 4)),
                            replace=False)
        predict[r, picked] = True
    return x, np.where(predict, 4, x), predict, x != 0


@pytest.mark.parametrize("over", [
    {}, {"ablations": {"emd": False}}, {"emd_shared": False},
    {"ablations": {"c2p": False}}, {"ablations": {"p2c": False}},
    {"share_projection": True},
], ids=["default", "no-emd", "unshared-emd", "no-c2p", "no-p2c", "shared-proj"])
def test_restricted_head_equals_full_head(over):
    # the masked objective runs the head at predicted slots only; the
    # full head's rows at those slots are the same numbers
    m = Model(tiny_cfg(**over), seed=27)
    for seed in range(3):
        x, xt, predict, real = _padded_mlm_batch(seed)
        full = m.decode(m.encode(xt, real=real), real=real).data
        want = full.reshape(-1, full.shape[-1])[np.flatnonzero(predict)]
        _, count, picked = m.mlm_row(x, xt, predict, real)
        assert count == predict.sum()
        npt.assert_allclose(picked.data, want, rtol=0, atol=1e-12)


def _full_width_mlm_nll(m, x, xt, predict, real):
    """The masked loss from a full-width decode, every slot's logits
    computed and the predicted ones picked after the head."""
    logits = m.decode(m.encode(xt, real=real), real=real).data
    picks = np.flatnonzero(predict)
    rows = logits.reshape(-1, logits.shape[-1])[picks]
    shifted = rows - rows.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return -logp[np.arange(picks.size), x.reshape(-1)[picks]].sum()


def test_trailing_pad_columns_do_not_change_the_loss():
    m = Model(tiny_cfg(), seed=28)
    x, xt, predict, real = _padded_mlm_batch(4)
    wx, wxt, wpredict, wreal = _padded_mlm_batch(4, pad=3)
    narrow, _, _ = m.mlm_row(x, xt, predict, real)
    wide, _, _ = m.mlm_row(wx, wxt, wpredict, wreal)
    npt.assert_allclose(wide.item(), narrow.item(), rtol=0, atol=1e-12)
    # the head narrowed to the predicted slots scores what a full-width
    # decode scores there
    npt.assert_allclose(wide.item(), _full_width_mlm_nll(m, wx, wxt, wpredict, wreal),
                        rtol=0, atol=1e-12)
    narrow, _, _ = m.arlm_row(x, real=real)
    wide, _, _ = m.arlm_row(wx, real=wreal)
    npt.assert_allclose(wide.item(), narrow.item(), rtol=0, atol=1e-12)
    # each row scored alone, unpadded, adds up to the padded batch
    alone = sum(m.arlm_row(row[:length])[0].item()
                for row, length in zip(wx, wreal.sum(axis=-1)))
    npt.assert_allclose(wide.item(), alone, rtol=0, atol=1e-12)
    # a perturbation over the padded width gets its gradient at the real
    # columns and none at the trailing PAD ones, which nothing scored reads
    delta = Tensor(np.zeros(wx.shape + (8,)), requires_grad=True)
    with Tape() as tape:
        nll, _, _ = m.mlm_row(wx, wxt, wpredict, wreal, perturb=delta)
    tape.backward(nll, targets=[delta])
    assert delta.grad.shape == delta.shape
    assert np.abs(delta.grad[:, :real.sum(-1).max()]).max() > 0
    npt.assert_array_equal(delta.grad[:, real.sum(-1).max():], 0.0)


# ---------------------------------------------------------------------
# Decode head.
# ---------------------------------------------------------------------


def test_plain_head_equals_single_zeroed_emd_bitwise():
    cfg_emd = tiny_cfg(n_emd=1)
    cfg_plain = tiny_cfg(ablations={"emd": False, "c2p": True, "p2c": True})
    seedling = 10
    m_emd = Model(cfg_emd, seed=seedling)
    m_emd.params["dec_abs"].data[...] = 0.0
    m_plain = Model(cfg_plain, seed=seedling)
    for name, t in m_plain.params.items():
        npt.assert_array_equal(t.data, m_emd.params[name].data, err_msg=name)
    ids = np.array([2, 5, 6, 7, 3])
    for causal in (False, True):
        h_e = m_emd.encode(ids, causal=causal)
        h_p = m_plain.encode(ids, causal=causal)
        npt.assert_array_equal(h_e.data, h_p.data)
        le = m_emd.decode(h_e, causal=causal)
        lp = m_plain.decode(h_p, causal=causal)
        npt.assert_array_equal(le.data, lp.data)


def test_emd_layers_change_output():
    cfg1 = tiny_cfg(n_emd=1)
    cfg2 = tiny_cfg(n_emd=2)
    m1, m2 = Model(cfg1, seed=11), Model(cfg2, seed=11)
    ids = np.array([2, 5, 6, 3])
    l1 = m1.decode(m1.encode(ids))
    l2 = m2.decode(m2.encode(ids))
    assert np.max(np.abs(l1.data - l2.data)) > 1e-9


def test_absolute_positions_break_relative_ties():
    # two masked slots whose worlds are indistinguishable without
    # absolute positions: same token everywhere else, zero position
    # table, so every score row is a function of key tokens only
    cfg = tiny_cfg(k=2)
    m = Model(cfg, seed=12)
    m.params["pos_table"].data[...] = 0.0
    m.params["dec_abs"].data[...] = 0.0
    ids = np.array([7, 9, 4, 9, 7, 9, 4, 9])  # masks at 2 and 6
    h = m.encode(ids)
    logits = m.decode(h).data
    npt.assert_array_equal(logits[2], logits[6])  # provably tied
    # giving the decoder its absolute positions breaks the tie
    m2 = Model(cfg, seed=12)
    m2.params["pos_table"].data[...] = 0.0
    logits2 = m2.decode(m2.encode(ids)).data
    assert np.max(np.abs(logits2[2] - logits2[6])) > 1e-9


def test_abs_pos_at_input_variant():
    cfg = tiny_cfg(abs_pos_at_input=True)
    assert "abs_in" in param_shapes(cfg)
    m = Model(cfg, seed=13)
    ids = np.array([5, 5, 5, 5])
    m.params["pos_table"].data[...] = 0.0
    h = m.encode(ids).data
    # absolute input positions separate identical tokens even with the
    # relative table silenced
    assert np.max(np.abs(h[0] - h[1])) > 1e-9


# ---------------------------------------------------------------------
# A literal whole-model reference: the equations as loops.
# ---------------------------------------------------------------------


def _ref_layer_norm(x, g, b):
    mu = x.mean()
    var = ((x - mu) ** 2).mean()
    return (x - mu) / np.sqrt(var + 1e-5) * g + b


def _ref_block(P, cfg, prefix, xq, hk, blocked, swap_p2c):
    """One post-norm block for one row: query stream xq, keys and
    values from hk, every score term and pair written out."""
    w = lambda name: P[f"{prefix}_{name}"].data
    on, heads, k = cfg.ablations, cfg.heads, cfg.k
    hs = cfg.d // heads
    qc, kc, v = xq @ w("att_wqc"), hk @ w("att_wkc"), hk @ w("att_wvc")
    shared = cfg.share_projection
    if on.c2p:
        kr = P["pos_table"].data @ w("att_wkc" if shared else "att_wkr")
    if on.p2c:
        qr = P["pos_table"].data @ w("att_wqc" if shared else "att_wqr")
    tau = 1 + on.c2p + on.p2c
    mixed = np.zeros((len(xq), cfg.d))
    for a in range(heads):
        c = slice(a * hs, (a + 1) * hs)
        for i in range(len(xq)):
            scores = []
            for j in range(len(hk)):
                s = qc[i, c] @ kc[j, c]
                if on.c2p:
                    s += qc[i, c] @ kr[delta(i, j, k), c]
                if on.p2c:
                    # section 3.1: the key's distance to the query, delta(j, i)
                    s += kc[j, c] @ qr[delta(i, j, k) if swap_p2c else delta(j, i, k), c]
                scores.append(-np.inf if blocked[i][j] else s / np.sqrt(tau * hs))
            top = max(scores)
            e = [np.exp(s - top) for s in scores]
            for j in range(len(hk)):
                mixed[i, c] += e[j] / sum(e) * v[j, c]
    out = []
    for i in range(len(xq)):
        x = _ref_layer_norm(xq[i] + mixed[i] @ w("att_wo"), w("ln1_g"), w("ln1_b"))
        u = x @ w("ffn_w1") + w("ffn_b1")
        hidden = 0.5 * u * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (u + 0.044715 * u ** 3)))
        out.append(_ref_layer_norm(x + hidden @ w("ffn_w2") + w("ffn_b2"),
                                   w("ln2_g"), w("ln2_b")))
    return np.array(out)


def _ref_row(P, cfg, ids, real, causal, predict, targets, swap_p2c=False):
    """(nll sum, logit rows at the predicted slots) for one padded row."""
    n = len(ids)
    blocked = [[(causal and j > i) or not real[j] for j in range(n)] for i in range(n)]
    h = []
    for i in range(n):
        e = P["tok_emb"].data[ids[i]]
        if cfg.abs_pos_at_input:
            e = e + P["abs_in"].data[i]
        h.append(_ref_layer_norm(e, P["emb_ln_g"].data, P["emb_ln_b"].data))
    h = np.array(h)
    for layer in range(cfg.L):
        h = _ref_block(P, cfg, f"enc{layer}", h, h, blocked, swap_p2c)
    # the enhanced mask decoder: H plus absolute rows as the first query
    x = h + P["dec_abs"].data[:n] if cfg.ablations.emd else h
    for prefix in cfg.decode_blocks:
        x = _ref_block(P, cfg, prefix, x, h, blocked, swap_p2c)
    nll, logits = 0.0, []
    for i in range(n):
        if predict[i]:
            z = P["tok_emb"].data @ x[i] + P["out_bias"].data
            top = z.max()
            nll -= z[targets[i]] - top - np.log(np.exp(z - top).sum())
            logits.append(z)
    return nll, np.array(logits)


def _ref_batch(P, cfg, ids, real, causal, predict, targets, swap_p2c=False):
    rows = [_ref_row(P, cfg, i, r, causal, p, t, swap_p2c)
            for i, r, p, t in zip(ids, real, predict, targets)]
    return sum(nll for nll, _ in rows), np.concatenate([z for _, z in rows])


@pytest.mark.parametrize("seed", range(12))
def test_batched_model_equals_the_literal_loop_reference(seed):
    # Each drawn config runs a padded batch of 3 through mlm_row and
    # arlm_row, with weights jittered off their init.  The reference
    # with the p2c orientation swapped must miss the same 1e-12 bound.
    rng = np.random.default_rng(900 + seed)
    draw = lambda: bool(rng.integers(2))
    cfg = tiny_cfg(L=int(rng.integers(3)), heads=int(rng.choice([1, 2, 4])),
                   k=int(rng.integers(1, 5)), n_emd=int(rng.integers(1, 3)),
                   emd_shared=draw(), share_projection=draw(), abs_pos_at_input=draw(),
                   ablations={"emd": draw(), "c2p": draw(), "p2c": draw()})
    m = Model(cfg, seed=seed)
    for p in m.params.values():
        p.data += rng.normal(0, 0.3, p.shape)
    n = int(rng.integers(4, 10))
    real = np.arange(n) < np.array([[n], [rng.integers(2, n)], [rng.integers(2, n)]])
    x = np.where(real, rng.integers(1, cfg.vocab_size, (3, n)), 0)
    predict = real & (rng.random((3, n)) < 0.4)
    predict[:, 1] = True
    x_tilde = np.where(predict & (rng.random((3, n)) < 0.8), 4, x)
    causal_predict = np.roll(real, -1, axis=-1)
    causal_predict[:, -1] = False
    cases = [(m.mlm_row(x, x_tilde, predict, real), (x_tilde, real, False, predict, x)),
             (m.arlm_row(x, real), (x, real, True, causal_predict, np.roll(x, -1, axis=-1)))]
    for (nll, count, picked), args in cases:
        want_nll, want_logits = _ref_batch(m.params, cfg, *args)
        assert count == len(want_logits)
        assert_close(picked.data, want_logits, atol=1e-12, rtol=1e-12)
        assert_close(nll.item(), want_nll, atol=1e-12, rtol=1e-12)
        if cfg.ablations.p2c:
            _, swapped = _ref_batch(m.params, cfg, *args, swap_p2c=True)
            assert np.abs(swapped - picked.data).max() > 1e-9


# ---------------------------------------------------------------------
# End-to-end gradient check (small; the acceptance test runs the big one).
# ---------------------------------------------------------------------


def test_end_to_end_gradients_small():
    cfg = tiny_cfg(L=1, d=4, heads=1, ffn=8, k=2, n_emd=1, vocab_size=9,
                   max_len=8)
    m = Model(cfg, seed=14)
    batch = one_row_batch([2, 7, 8, 3], [2, 4, 8, 3], [1, 2])
    with Tape() as tape:
        loss = m.forward_mlm(batch)
    tape.backward(loss)
    for name, p in sorted(m.params.items()):
        def f(p=p):
            return m.forward_mlm(batch).item()
        num = numeric_grad(f, p.data, h=1e-5)
        grad = np.zeros_like(p.data) if p.grad is None else p.grad
        assert_close(grad, num, atol=1e-6, rtol=1e-4, label=name)


def test_content_only_attention_trains():
    # Both position terms off: no pos_table, attention is c2c alone.
    cfg = tiny_cfg(ablations={"c2p": False, "p2c": False})
    m = Model(cfg, seed=15)
    assert "pos_table" not in m.params
    batch = one_row_batch([2, 7, 8, 9, 3, 0], [2, 4, 8, 4, 3, 0], [1, 3],
                          real=[True] * 5 + [False])
    with Tape() as tape:
        loss = m.forward_mlm(batch)
    tape.backward(loss)
    assert np.isfinite(loss.item())
    for name, p in sorted(m.params.items()):
        assert p.grad is not None, name
        assert np.all(np.isfinite(p.grad)), name


# ---------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = tiny_cfg()
    m = Model(cfg, seed=15)
    meta = {"config": cfg.to_dict(), "seed": 15, "step": 7}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m.params, meta)
    m2, meta2 = load_model(path)
    assert meta2 == meta
    for name, t in m.params.items():
        npt.assert_array_equal(t.data, m2.params[name].data)
    # save -> load -> save is byte identical
    path2 = tmp_path / "again.ckpt"
    save_checkpoint(path2, m2.params, meta2)
    assert path.read_bytes() == path2.read_bytes()


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    cfg = tiny_cfg()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Model(cfg, seed=15).params, {"config": cfg.to_dict()})
    before = path.read_bytes()
    real_open = open

    class HalfWriter:
        """Writes half of what it is given, then fails like a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(model_mod, "open",
                        lambda *a, **k: HalfWriter(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError):
        save_checkpoint(path, Model(cfg, seed=16).params,
                        {"config": cfg.to_dict()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_magic_errors(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(p)
    p.write_bytes(b"DAL2" + b"\x00" * 32)
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(p)
    p.write_bytes(b"DA")
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(p)


def test_checkpoint_truncation(tmp_path):
    cfg = tiny_cfg()
    m = Model(cfg, seed=16)
    path = tmp_path / "full.ckpt"
    save_checkpoint(path, m.params, {"config": cfg.to_dict()})
    blob = path.read_bytes()
    for cut in (6, len(blob) // 3, len(blob) - 5):
        part = tmp_path / f"cut{cut}.ckpt"
        part.write_bytes(blob[:cut])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(part)
    # trailing garbage is also an error
    fat = tmp_path / "fat.ckpt"
    fat.write_bytes(blob + b"!")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(fat)


def _header(meta: bytes) -> bytes:
    return b"DAL1" + struct.pack("<Q", len(meta)) + meta


def test_checkpoint_huge_meta_length_is_truncation(tmp_path):
    p = tmp_path / "meta.ckpt"
    p.write_bytes(b"DAL1" + struct.pack("<Q", 2**40) + b"{}")
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(p)


def test_checkpoint_huge_extents_are_truncation(tmp_path):
    name = b"w"
    body = (struct.pack("<I", 1) + struct.pack("<I", len(name)) + name
            + struct.pack("<I", 2) + struct.pack("<QQ", 2**31, 2**31)
            + b"\x00" * 64)
    p = tmp_path / "extents.ckpt"
    p.write_bytes(_header(b"{}") + body)
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(p)
    # a huge name length is bounded the same way
    p.write_bytes(_header(b"{}") + struct.pack("<I", 1) + struct.pack("<I", 2**31))
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(p)


def test_checkpoint_fuzz_only_raises_checkpoint_errors(tmp_path):
    cfg = tiny_cfg(L=1, d=4, heads=1, ffn=4, k=2, n_emd=1, vocab_size=7)
    m = Model(cfg, seed=21)
    path = tmp_path / "good.ckpt"
    save_checkpoint(path, m.params, {"config": cfg.to_dict(), "seed": 21})
    blob = path.read_bytes()
    rng = np.random.default_rng(22)
    bad = tmp_path / "bad.ckpt"
    for trial in range(300):
        data = bytearray(blob)
        if trial % 3 == 0:
            data = data[: int(rng.integers(0, len(data)))]
        else:
            for at in rng.integers(0, len(data), int(rng.integers(1, 4))):
                data[at] ^= int(rng.integers(1, 256))
        bad.write_bytes(bytes(data))
        try:
            load_checkpoint(bad)
        except CheckpointError:
            pass


def test_checkpoint_shape_mismatch(tmp_path):
    cfg = tiny_cfg()
    m = Model(cfg, seed=17)
    meta = {"config": tiny_cfg(d=16).to_dict(), "seed": 17}
    path = tmp_path / "wrong.ckpt"
    save_checkpoint(path, m.params, meta)  # params for d=8, config says 16
    with pytest.raises(CheckpointShapeError) as err:
        load_model(path)
    assert "tok_emb" in str(err.value) or "shape" in str(err.value)


def test_checkpoint_missing_tensor(tmp_path):
    cfg = tiny_cfg()
    m = Model(cfg, seed=18)
    params = dict(m.params)
    params.pop("out_bias")
    path = tmp_path / "short.ckpt"
    save_checkpoint(path, params, {"config": cfg.to_dict()})
    with pytest.raises(CheckpointShapeError) as err:
        load_model(path)
    assert "out_bias" in str(err.value)


def test_checkpoint_extra_tensor(tmp_path):
    # unshared position projections under a config that shares them
    m = Model(tiny_cfg(), seed=26)
    path = tmp_path / "extra.ckpt"
    save_checkpoint(path, m.params,
                    {"config": tiny_cfg(share_projection=True).to_dict()})
    with pytest.raises(CheckpointShapeError) as err:
        load_model(path)
    assert "enc0_att_wqr" in str(err.value)
