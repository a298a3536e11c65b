"""Perturbation-consistency regulariser: normalisation, R_adv, pathways."""

import gc
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from desklm import sift as sift_mod
from desklm import tensor as T
from desklm.data import NUM_RESERVED, MaskedBatch, make_batch
from desklm.errors import ConfigError
from desklm.model import Model, ModelConfig
from desklm.seeding import rng_for
from desklm.sift import SiftConfig, normalize_embeddings, sift_loss, symmetric_kl
from desklm.tensor import Tape, Tensor

from helpers import assert_close, numeric_grad


def cfg_model(dropout=0.0, seed=20):
    cfg = ModelConfig(vocab_size=13, max_len=12, L=1, d=8, heads=2, ffn=16,
                      k=3, n_emd=1, dropout=dropout)
    return Model(cfg, seed=seed)


def small_batch():
    x = np.array([[2, 7, 8, 9, 3, 0], [2, 10, 11, 3, 0, 0]], dtype=np.int64)
    xt = x.copy()
    xt[0, 2] = 4
    xt[1, 1] = 4
    real = np.array([[1, 1, 1, 1, 1, 0], [1, 1, 1, 1, 0, 0]], dtype=bool)
    return MaskedBatch(x=x, x_tilde=xt, positions=[[2], [1]], real=real)


def test_normalize_embeddings_standardises():
    rng = np.random.default_rng(0)
    e = Tensor(rng.normal(3.0, 7.0, (5, 16)))
    out = normalize_embeddings(e).data
    npt.assert_allclose(out.mean(axis=1), np.zeros(5), atol=1e-9)
    npt.assert_allclose(out.var(axis=1), np.ones(5), atol=1e-9)


def test_normalize_embeddings_scale_invariant():
    rng = np.random.default_rng(1)
    e = rng.normal(0.0, 2.0, (4, 12))
    base = normalize_embeddings(Tensor(e)).data
    for c in (10.0, 0.01, 1e3):
        scaled = normalize_embeddings(Tensor(c * e)).data
        npt.assert_allclose(scaled, base, atol=1e-9)


def test_symmetric_kl_properties():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(0, 1, (6, 9)))
    b = Tensor(rng.normal(0, 1, (6, 9)))
    kl_ab = symmetric_kl(a, b).item()
    kl_ba = symmetric_kl(b, a).item()
    assert kl_ab > 0
    npt.assert_allclose(kl_ab, kl_ba, rtol=1e-12)
    self_kl = symmetric_kl(a, a).item()
    npt.assert_allclose(self_kl, 0.0, atol=1e-15)


def _chained_kl(p_logits, q_logits):
    """The divergence as ten recorded ops, as it was built before it
    became one (a - b spelled a + (-b), which is bitwise the same)."""
    p = T.softmax_rows(p_logits)
    q = T.softmax_rows(q_logits)
    lp = T.log_softmax_rows(p_logits)
    lq = T.log_softmax_rows(q_logits)
    return T.sum_all(T.mul(T.add(p, T.mul(q, -1.0)), T.add(lp, T.mul(lq, -1.0))))


def _kl_and_grads(kl, a0, b0):
    a = Tensor(a0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    with Tape() as tape:
        out = kl(a, b)
    tape.backward(out)
    return out.item(), a.grad, b.grad, len(tape)


def test_symmetric_kl_is_one_op_matching_the_chained_ops():
    rng = np.random.default_rng(30)
    for shape, spread in (((7, 11), 1.0), ((2, 5, 9), 4.0)):
        a0, b0 = rng.normal(0, spread, shape), rng.normal(0, spread, shape)
        got, ga, gb, nodes = _kl_and_grads(symmetric_kl, a0, b0)
        want, wa, wb, chain = _kl_and_grads(_chained_kl, a0, b0)
        assert nodes == 1 and chain == 10
        assert abs(got - want) <= 1e-12
        npt.assert_allclose(ga, wa, rtol=0, atol=1e-12)
        npt.assert_allclose(gb, wb, rtol=0, atol=1e-12)
    # an operand that takes no gradient keeps no array in the node
    with Tape():
        one = symmetric_kl(Tensor(a0), Tensor(b0, requires_grad=True))
    cells = [c.cell_contents for c in one._node.bwd.__closure__]
    assert sum(isinstance(c, np.ndarray) for c in cells) == 1


def test_symmetric_kl_gradcheck():
    rng = np.random.default_rng(31)
    a0, b0 = rng.normal(0, 1.5, (3, 6)), rng.normal(0, 1.5, (3, 6))
    _, ga, gb, _ = _kl_and_grads(symmetric_kl, a0, b0)
    value = lambda: symmetric_kl(Tensor(a0), Tensor(b0)).item()
    assert_close(ga, numeric_grad(value, a0), atol=1e-7, rtol=1e-5)
    assert_close(gb, numeric_grad(value, b0), atol=1e-7, rtol=1e-5)


def test_symmetric_kl_of_equal_logits_has_zero_gradient():
    # what lets the SiFT ascent stop a row whose perturbation is zero
    a0 = np.random.default_rng(32).normal(0, 3, (4, 8))
    value, ga, gb, _ = _kl_and_grads(symmetric_kl, a0, a0.copy())
    assert value == 0.0 and not ga.any() and not gb.any()


def test_disabled_and_lambda_zero_are_bitwise_identical():
    m = cfg_model(dropout=0.1)
    batch = small_batch()
    losses = {}
    for name, cfg in (
        ("off", SiftConfig(enabled=False)),
        ("lam0", SiftConfig(enabled=True, lam=0.0)),
    ):
        with Tape() as tape:
            loss = sift_loss(batch, m, cfg, mode="mlm", seed=3)
        losses[name] = loss.item()
    assert losses["off"] == losses["lam0"]  # bitwise


@pytest.mark.parametrize("cfg", [SiftConfig(enabled=False),
                                 SiftConfig(enabled=True, lam=0.0)],
                         ids=["off", "lam0"])
def test_disabled_sift_loss_records_on_the_callers_tape(cfg):
    # no nested tape: the task loss is a node of the caller's tape, and
    # no gradient lands before the caller's backward
    m = cfg_model()
    with Tape() as tape:
        loss, task, r_adv = sift_loss(small_batch(), m, cfg, mode="mlm", seed=5,
                                      return_parts=True)
    assert loss is task and r_adv is None
    assert len(tape) > 0 and loss._node is not None
    assert all(p.grad is None for p in m.params.values())
    tape.backward(loss)
    assert all(p.grad is not None for p in m.params.values())


def test_plain_path_matches_forward_mlm_when_no_dropout():
    m = cfg_model(dropout=0.0)
    batch = small_batch()
    plain = sift_loss(batch, m, SiftConfig(enabled=False), mode="mlm", seed=4)
    direct = m.forward_mlm(batch)
    assert plain.item() == direct.item()


def test_r_adv_nonnegative_and_tiny_at_tiny_epsilon():
    m = cfg_model()
    batch = small_batch()
    cfg = SiftConfig(enabled=True, epsilon=1e-8, ascent_steps=1, lam=1.0)
    loss, task, r_adv = sift_loss(batch, m, cfg, mode="mlm", seed=5,
                                  return_parts=True)
    assert r_adv.item() >= 0.0
    assert r_adv.item() < 1e-10
    npt.assert_allclose(loss.item(), task.item() + r_adv.item(), rtol=1e-12)


def test_r_adv_grows_with_epsilon():
    m = cfg_model()
    batch = small_batch()
    values = []
    for eps in (1e-4, 1e-2, 1.0):
        cfg = SiftConfig(enabled=True, epsilon=eps, ascent_steps=2,
                         ascent_lr=eps / 2, lam=1.0)
        _, _, r_adv = sift_loss(batch, m, cfg, mode="mlm", seed=6,
                                return_parts=True)
        values.append(r_adv.item())
    assert values[0] >= 0
    assert values[2] > values[0]


def test_gradients_flow_into_params_not_leaked_from_ascent():
    m = cfg_model()
    batch = small_batch()
    cfg = SiftConfig(enabled=True, epsilon=1e-2, ascent_steps=2, lam=0.5)
    with Tape() as tape:
        loss = sift_loss(batch, m, cfg, mode="mlm", seed=7)
    tape.backward(loss)
    grads = {n: p.grad for n, p in m.params.items() if p.grad is not None}
    assert "tok_emb" in grads
    assert any(np.abs(g).max() > 0 for g in grads.values())
    # regulariser changes the gradient relative to a plain run
    m2 = cfg_model()
    with Tape() as tape2:
        plain = sift_loss(batch, m2, SiftConfig(enabled=False), mode="mlm", seed=7)
    tape2.backward(plain)
    diff = np.abs(m.params["tok_emb"].grad - m2.params["tok_emb"].grad).max()
    assert diff > 0


def test_sift_determinism():
    batch = small_batch()
    cfg = SiftConfig(enabled=True, epsilon=1e-2, ascent_steps=2, lam=1.0)
    vals = []
    for _ in range(2):
        m = cfg_model(dropout=0.1, seed=21)
        with Tape():
            vals.append(sift_loss(batch, m, cfg, mode="mlm", seed=8).item())
    assert vals[0] == vals[1]


def test_sift_arlm_mode():
    m = cfg_model()
    batch = small_batch()
    cfg = SiftConfig(enabled=True, epsilon=1e-2, ascent_steps=1, lam=1.0)
    loss, task, r_adv = sift_loss(batch, m, cfg, mode="arlm", seed=9,
                                  return_parts=True)
    assert np.isfinite(loss.item())
    assert r_adv.item() >= 0
    with pytest.raises(ConfigError):
        sift_loss(batch, m, cfg, mode="span", seed=9)


def test_sift_row_with_zero_ascent_gradient_keeps_its_delta(monkeypatch):
    # Row 0's perturbed logits are cut off from the divergence, so its
    # ascent gradient is exactly zero: its perturbation must stay at the
    # initial draw while row 1's moves.
    m = cfg_model()
    batch = small_batch()
    n0 = int(batch.predict[0].sum())
    keep = np.ones((int(batch.predict.sum()), 1))
    keep[:n0] = 0.0
    real_kl = sift_mod.symmetric_kl
    monkeypatch.setattr(sift_mod, "symmetric_kl",
                        lambda p, q: real_kl(p, T.mul(q, Tensor(keep))))
    seen = []
    real_row = m.mlm_row

    def spy(*args, perturb=None, **kwargs):
        seen.append(None if perturb is None else perturb.data.copy())
        return real_row(*args, perturb=perturb, **kwargs)

    monkeypatch.setattr(m, "mlm_row", spy)
    cfg = SiftConfig(enabled=True, epsilon=1e-1, ascent_steps=2, ascent_lr=1e-2,
                     lam=1.0)
    sift_loss(batch, m, cfg, mode="mlm", seed=10)
    clean, first, second, final = seen
    assert clean is None
    npt.assert_array_equal(final[0], first[0])
    npt.assert_array_equal(second[0], first[0])
    assert np.abs(final[1] - first[1]).max() > 1e-6


def test_ascent_graph_is_freed_before_the_next_forward(monkeypatch):
    m = cfg_model()
    batch = small_batch()
    tapes = []  # (weak reference, owner token) of every tape sift opens

    class SpyTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append((weakref.ref(self), self._token))

    monkeypatch.setattr(sift_mod, "Tape", SpyTape)
    live = []  # at each forward: earlier tapes alive, their nodes alive
    clean = []  # at each forward: nodes of the clean tape alive
    outer_nodes = []  # at each forward: nodes on the caller's tape
    real_row = m.mlm_row

    def spy(*args, **kwargs):
        # every forward runs inside its own, still empty, tape but the last
        done = [(ref, tok) for ref, tok in tapes if ref() is not T._active_tape()]
        nodes = [o for o in gc.get_objects() if type(o) is T._Node]
        live.append((sum(ref() is not None for ref, _ in done),
                     sum(any(o.owner is tok for _, tok in done) for o in nodes)))
        clean.append(sum(o.owner is tapes[0][1] for o in nodes))
        outer_nodes.append(len(outer))
        return real_row(*args, **kwargs)

    monkeypatch.setattr(m, "mlm_row", spy)
    cfg = SiftConfig(enabled=True, epsilon=1e-2, ascent_steps=2, lam=1.0)
    with Tape() as outer:
        sift_loss(batch, m, cfg, mode="mlm", seed=11)
    # the clean tape, then one per ascent step; forwards are clean, two
    # ascent steps, perturbed, and nothing of an earlier tape survives
    # into the next forward
    assert len(tapes) == 3 and live == [(0, 0)] * 4
    # the clean graph is gone by the first ascent forward, and the
    # caller's tape records the perturbed pass alone
    assert clean == [0] * 4 and outer_nodes == [0] * 4
    assert len(outer) > 0


@pytest.mark.parametrize("mode", ["mlm", "arlm"])
def test_sift_step_holds_one_forward_graph_at_a_time(mode):
    # a recorded SiFT step's peak allocation stays near a plain step's:
    # the clean graph is backed out before the perturbed one is built
    # (with both on one tape the ratio reads 1.79 for mlm, 1.88 for arlm)
    cfg = ModelConfig(vocab_size=64, max_len=32, L=2, d=64, heads=4, ffn=128,
                      k=16, n_emd=2, dropout=0.1)  # the toy preset's shape
    m = Model(cfg, seed=1)
    rng = np.random.default_rng(5)
    rows = [list(rng.integers(5, 64, size=int(rng.integers(14, 19))))
            for _ in range(16)]
    batch = make_batch(rows, n=32, rng=rng, vocab_size=64)  # 16 x 20

    def peak(cfg):
        def step():
            with Tape() as tape:
                loss = sift_loss(batch, m, cfg, mode=mode, seed=3)
            tape.backward(loss)
            m.zero_grad()

        step()  # warm every cache first
        tracemalloc.start()
        try:
            step()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain = peak(SiftConfig(enabled=False))
    assert peak(SiftConfig(enabled=True)) <= 1.3 * plain


def _one_tape_reference(batch, m, cfg, mode, seed, delta):
    """The SiFT loss with both passes on one tape, the perturbation
    given, backed out by one backward: the graph sift_loss built before
    it backed the task loss out on its own tape."""
    drop = lambda: rng_for(seed, "sift/dropout")
    if mode == "mlm":
        forward = lambda perturb: m.mlm_row(batch.x, batch.x_tilde, batch.predict,
                                            batch.real, rng=drop(), perturb=perturb)
    else:
        forward = lambda perturb: m.arlm_row(batch.x, real=batch.real, rng=drop(),
                                             perturb=perturb)
    with Tape() as tape:
        nll, count, clean = forward(None)
        task = T.mul(nll, 1.0 / count)
        _, _, pert = forward(Tensor(delta))
        r_adv = T.mul(symmetric_kl(Tensor(clean.data), pert), 1.0 / count)
        loss = T.add(task, T.mul(r_adv, cfg.lam))
    tape.backward(loss)
    return loss.item()


@pytest.mark.parametrize("mode,row", [("mlm", "mlm_row"), ("arlm", "arlm_row")])
def test_backed_out_task_gradient_matches_one_tape(monkeypatch, mode, row):
    m = cfg_model(dropout=0.1)
    batch = small_batch()
    seen = []
    real_row = getattr(m, row)

    def spy(*args, perturb=None, **kwargs):
        seen.append(None if perturb is None else perturb.data.copy())
        return real_row(*args, perturb=perturb, **kwargs)

    monkeypatch.setattr(m, row, spy)
    cfg = SiftConfig(enabled=True, epsilon=1e-1, ascent_steps=2, ascent_lr=1e-2,
                     lam=0.7)
    with Tape() as tape:
        loss = sift_loss(batch, m, cfg, mode=mode, seed=14)
    tape.backward(loss)
    got = {n: p.grad for n, p in m.params.items()}
    m.zero_grad()
    monkeypatch.undo()
    want = _one_tape_reference(batch, m, cfg, mode, 14, seen[-1])
    assert loss.item() == want  # bitwise
    for name, p in m.params.items():
        assert got[name] is not None, name
        bound = 1e-12 * np.abs(p.grad).max()
        npt.assert_allclose(got[name], p.grad, rtol=0, atol=bound, err_msg=name)


@pytest.mark.parametrize("mode", ["mlm", "arlm"])
def test_sift_step_scores_its_targets_once(monkeypatch, mode):
    # the ascent and perturbed passes read logits alone: only the clean
    # pass takes a log-softmax of them
    m = cfg_model(dropout=0.1)
    calls = []
    real = T.log_softmax_rows

    def spy(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(T, "log_softmax_rows", spy)
    cfg = SiftConfig(enabled=True, epsilon=1e-2, ascent_steps=1, lam=1.0)
    with Tape() as tape:
        loss = sift_loss(small_batch(), m, cfg, mode=mode, seed=17)
    tape.backward(loss)
    assert len(calls) == 1


def test_sift_loss_without_a_tape_touches_no_grad():
    m = cfg_model()
    cfg = SiftConfig(enabled=True, epsilon=1e-2, ascent_steps=1, lam=1.0)
    for mode in ("mlm", "arlm"):
        loss = sift_loss(small_batch(), m, cfg, mode=mode, seed=15)
        assert loss._node is None
    with Tape() as tape:
        with T.no_grad():
            sift_loss(small_batch(), m, cfg, mode="mlm", seed=15)
    assert len(tape) == 0
    assert all(p.grad is None for p in m.params.values())


def test_sift_loss_with_frozen_params_records_nothing():
    # the clean tape records nothing, so there is nothing to back out
    m = cfg_model()
    cfg = SiftConfig(enabled=True, epsilon=1e-2, ascent_steps=1, lam=1.0)
    want = sift_loss(small_batch(), m, cfg, mode="mlm", seed=16).item()
    for p in m.params.values():
        p.requires_grad = False
    with Tape() as tape:
        loss = sift_loss(small_batch(), m, cfg, mode="mlm", seed=16)
    assert loss.item() == want and len(tape) == 0
    assert all(p.grad is None for p in m.params.values())


def test_ascent_holds_parameters_constant(monkeypatch):
    m = cfg_model()
    batch = small_batch()
    flags = []
    real_row = m.mlm_row

    def spy(*args, **kwargs):
        flags.append({p.requires_grad for p in m.params.values()})
        return real_row(*args, **kwargs)

    monkeypatch.setattr(m, "mlm_row", spy)
    cfg = SiftConfig(enabled=True, epsilon=1e-2, ascent_steps=2, lam=1.0)
    sift_loss(batch, m, cfg, mode="mlm", seed=12)
    assert flags == [{True}, {False}, {False}, {True}]
    assert all(p.grad is None for p in m.params.values())

    def broken(p, q):
        raise FloatingPointError("ascent failed")

    monkeypatch.setattr(sift_mod, "symmetric_kl", broken)
    with pytest.raises(FloatingPointError):
        sift_loss(batch, m, cfg, mode="mlm", seed=12)
    assert all(p.requires_grad for p in m.params.values())


@pytest.mark.parametrize("mode,row", [("mlm", "mlm_row"), ("arlm", "arlm_row")])
def test_sift_perturbs_exactly_the_batch_columns(monkeypatch, mode, row):
    # make_batch cuts the batch to its longest row, so each perturbed
    # forward gets noise of the batch's own shape and no dead column
    m = cfg_model()
    rows = [[5, 6, 7], [8, 9, 10, 11, 12], [6, 7]]
    batch = make_batch(rows, n=12, rng=np.random.default_rng(3), vocab_size=13)
    assert batch.x.shape == (3, 7)
    shapes = []
    real_row = getattr(m, row)

    def spy(*args, perturb=None, **kwargs):
        shapes.append(None if perturb is None else perturb.shape)
        return real_row(*args, perturb=perturb, **kwargs)

    monkeypatch.setattr(m, row, spy)
    cfg = SiftConfig(enabled=True, epsilon=1e-2, ascent_steps=2, lam=1.0)
    sift_loss(batch, m, cfg, mode=mode, seed=13)
    assert shapes == [None] + [batch.x.shape + (m.cfg.d,)] * 3


def test_sift_perturbation_stays_in_the_epsilon_ball(monkeypatch):
    # two full-size ascent steps push rows past epsilon; the projection
    # must bring every token row of the final perturbation back onto
    # the ball
    m = cfg_model()
    rows = [[5, 6, 7], [8, 9, 10, 11, 12], [6, 7]]
    batch = make_batch(rows, n=12, rng=np.random.default_rng(3), vocab_size=13)
    perturbs = []
    real_row = m.mlm_row

    def spy(*args, perturb=None, **kwargs):
        perturbs.append(perturb)
        return real_row(*args, perturb=perturb, **kwargs)

    monkeypatch.setattr(m, "mlm_row", spy)
    eps = 0.01
    cfg = SiftConfig(enabled=True, epsilon=eps, ascent_steps=2, ascent_lr=1.0,
                     lam=1.0)
    sift_loss(batch, m, cfg, seed=13)
    norms = np.sqrt((perturbs[-1].data ** 2).sum(axis=-1))
    assert norms.max() <= eps * (1 + 1e-12)
    assert np.isclose(norms, eps, rtol=1e-12).any()


def test_sift_stops_when_no_row_can_move(monkeypatch):
    # epsilon = 0 keeps the perturbation at zero, so the perturbed logits
    # are the clean ones and every row's ascent gradient is exactly zero:
    # the search stops after one step of three and adds nothing
    cfg = ModelConfig(vocab_size=29, max_len=16, L=1, d=16, heads=2, ffn=32,
                      k=4, n_emd=1, dropout=0.1)
    model = Model(cfg, seed=11)
    rng = rng_for(0, "accept/sift")
    rows = [list(np.concatenate(([2], rng.integers(NUM_RESERVED, 29, size=10), [3])))
            for _ in range(3)]
    batch = make_batch(rows, n=14, rng=rng, vocab_size=29)
    grads = []
    real_grad = sift_mod._ascent_grad

    def spy(*args):
        grads.append(real_grad(*args))
        return grads[-1]

    monkeypatch.setattr(sift_mod, "_ascent_grad", spy)
    loss, task, r_adv = sift_loss(
        batch, model, SiftConfig(enabled=True, epsilon=0.0, ascent_steps=3),
        seed=4, return_parts=True)
    assert len(grads) == 1 and not grads[0].any()
    assert r_adv.item() == 0.0
    assert loss.item() == task.item()


def test_sift_config_validation():
    with pytest.raises(ConfigError):
        SiftConfig(epsilon=-1.0)
    with pytest.raises(ConfigError):
        SiftConfig(ascent_steps=-1)
    with pytest.raises(ConfigError):
        SiftConfig(lam=-0.5)
