"""Optimizer, schedule, training loop, evaluation and ablation suite."""

import json
import math
import os

import numpy as np
import numpy.testing as npt
import pytest

from desklm import trainer as trainer_mod
from desklm.data import BatchStream, build_vocab, encode_corpus, load_corpus
from desklm.errors import ConfigError, DivergenceError, IngestionError
from desklm.model import Model, ModelConfig, load_checkpoint
from desklm.runconfig import bundled_corpus_path, load_run_config
from desklm.sift import SiftConfig, sift_loss
from desklm.tensor import Tape, Tensor
from desklm.trainer import (AdamW, TrainConfig, clip_gradients, evaluate_ppl,
                            lr_at, run_ablation_suite, train)

WORDS = ("drum", "felt", "gale", "hymn", "iris", "jade", "kelp", "lime",
         "moss", "nook", "opal", "pine")


def tiny_corpus(n_lines=24, seed=3):
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n_lines):
        n = int(rng.integers(6, 12))
        lines.append(" ".join(str(rng.choice(WORDS)) for _ in range(n)))
    return lines


def tiny_setup(mode="mlm", steps=6, **overrides):
    lines = tiny_corpus()
    vocab = build_vocab(lines, cap=32)
    seqs = encode_corpus(lines, vocab)
    cfg = ModelConfig(vocab_size=len(vocab), max_len=16, L=1, d=8, heads=2,
                      ffn=16, k=4, n_emd=1, dropout=0.0, mode=mode)
    base = dict(steps=steps, batch_size=4, seq_len=12, warmup_steps=2,
                peak_lr=3e-3, seed=11)
    base.update(overrides)
    tcfg = TrainConfig(**base)
    model = Model(cfg, seed=11)
    stream = BatchStream(seqs, n=tcfg.seq_len, batch_size=tcfg.batch_size,
                         vocab_size=cfg.vocab_size, seed=11)
    return model, stream, tcfg, seqs


# ---------------------------------------------------------------------
# Schedule.
# ---------------------------------------------------------------------

def test_lr_schedule_endpoints():
    cfg = TrainConfig(steps=100, warmup_steps=10, peak_lr=0.5)
    assert lr_at(0, cfg) == 0.0
    assert lr_at(10, cfg) == 0.5
    assert lr_at(100, cfg) == 0.0
    assert lr_at(5, cfg) == pytest.approx(0.25)
    assert lr_at(55, cfg) == pytest.approx(0.25)


def test_lr_schedule_piecewise_linear():
    cfg = TrainConfig(steps=40, warmup_steps=8, peak_lr=1.0)
    for s in range(0, 8):
        assert lr_at(s + 1, cfg) - lr_at(s, cfg) == pytest.approx(1.0 / 8)
    for s in range(8, 40):
        assert lr_at(s + 1, cfg) - lr_at(s, cfg) == pytest.approx(-1.0 / 32)


def test_lr_schedule_without_warmup():
    cfg = TrainConfig(steps=10, warmup_steps=0, peak_lr=1.0)
    assert lr_at(0, cfg) == 0.0
    assert lr_at(1, cfg) == pytest.approx(0.9)
    assert lr_at(10, cfg) == 0.0


@pytest.mark.parametrize("bad", [
    dict(steps=0),
    dict(batch_size=0),
    dict(seq_len=2),
    dict(peak_lr=0.0),
    dict(warmup_steps=-1),
    dict(steps=5, warmup_steps=6),
    dict(weight_decay=-0.1),
    dict(adam_beta1=1.0),
    dict(adam_beta2=-0.2),
    dict(adam_eps=0.0),
    dict(grad_clip=0.0),
    dict(checkpoint_interval=-1),
    dict(mask_rate=1.5),
    dict(mask_rate=0.0),
    dict(span_max=0),
])
def test_train_config_rejects_bad_values(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**bad)


# ---------------------------------------------------------------------
# Optimizer.
# ---------------------------------------------------------------------

def test_adamw_first_step_frozen_value():
    tc = TrainConfig(steps=1, warmup_steps=0, weight_decay=0.0)
    p = Tensor(np.array([[1.0]]), requires_grad=True)
    p.grad = np.array([[0.5]])
    opt = AdamW({"w": p}, tc)
    opt.step(0.1)
    # m=0.05, v=2.5e-4; bias correction gives mhat=0.5, vhat=0.25
    assert p.data[0, 0] == pytest.approx(1.0 - 0.1 * (0.5 / (0.5 + 1e-6)),
                                         abs=1e-15)


def test_adamw_matches_scalar_reference():
    rng = np.random.default_rng(7)
    grads = rng.normal(size=12)
    tc = TrainConfig(steps=12, warmup_steps=0, weight_decay=0.04)
    p = Tensor(np.array([[0.7]]), requires_grad=True)
    opt = AdamW({"w": p}, tc)
    m = v = 0.0
    ref = 0.7
    lr = 0.01
    for t, g in enumerate(grads, start=1):
        p.grad = np.array([[g]])
        opt.step(lr)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1.0 - 0.9 ** t)
        vh = v / (1.0 - 0.999 ** t)
        ref -= lr * (mh / (math.sqrt(vh) + 1e-6) + 0.04 * ref)
        assert p.data[0, 0] == pytest.approx(ref, abs=1e-12)


def test_adamw_decay_is_decoupled():
    # zero gradient: Adam's moment update contributes nothing, so one
    # step must shrink the weight by exactly lr * wd * w
    tc = TrainConfig(steps=1, warmup_steps=0, weight_decay=0.1)
    p = Tensor(np.array([[2.0]]), requires_grad=True)
    p.grad = np.zeros((1, 1))
    AdamW({"w": p}, tc).step(0.5)
    assert p.data[0, 0] == pytest.approx(2.0 - 0.5 * 0.1 * 2.0, abs=1e-15)


def test_adamw_skips_params_without_grads():
    tc = TrainConfig(steps=1, warmup_steps=0)
    p = Tensor(np.array([[3.0]]), requires_grad=True)
    AdamW({"w": p}, tc).step(0.1)
    assert p.data[0, 0] == 3.0


# ---------------------------------------------------------------------
# Clipping.
# ---------------------------------------------------------------------

def test_clip_reports_norm_and_rescales():
    a = Tensor(np.zeros((2, 2)), requires_grad=True)
    b = Tensor(np.zeros((2, 2)), requires_grad=True)
    a.grad = np.array([[3.0, 0.0], [0.0, 0.0]])
    b.grad = np.array([[4.0, 0.0], [0.0, 0.0]])
    norm = clip_gradients({"a": a, "b": b}, 1.0)
    assert norm == pytest.approx(5.0)
    after = math.sqrt(float((a.grad ** 2).sum() + (b.grad ** 2).sum()))
    assert after == pytest.approx(1.0)
    assert a.grad[0, 0] == pytest.approx(0.6)


def test_clip_leaves_small_gradients_alone():
    a = Tensor(np.zeros(3), requires_grad=True)
    a.grad = np.array([0.1, 0.2, 0.2])
    norm = clip_gradients({"a": a}, 1.0)
    assert norm == pytest.approx(0.3)
    npt.assert_array_equal(a.grad, [0.1, 0.2, 0.2])


def test_clip_ignores_missing_grads():
    a = Tensor(np.zeros(3), requires_grad=True)
    assert clip_gradients({"a": a}, 1.0) == 0.0


# ---------------------------------------------------------------------
# The loop.
# ---------------------------------------------------------------------

def test_train_metrics_rows_and_rerun_determinism(tmp_path):
    model, stream, tcfg, _ = tiny_setup(steps=6)
    res = train(model, stream, tcfg, out_dir=str(tmp_path / "a"))
    assert len(res.metrics) == 6
    for i, row in enumerate(res.metrics, start=1):
        assert row["step"] == i
        assert set(row) == {"step", "objective", "loss", "mlm_loss",
                            "arlm_loss", "perplexity", "grad_norm", "lr"}
        assert row["objective"] == "mlm"
        assert math.isfinite(row["loss"])
        assert row["grad_norm"] >= 0.0
    model2, stream2, _, _ = tiny_setup(steps=6)
    res2 = train(model2, stream2, tcfg, out_dir=str(tmp_path / "b"))
    assert res.metrics == res2.metrics
    assert res.batch_digest == res2.batch_digest
    assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == \
        (tmp_path / "b" / "metrics.jsonl").read_bytes()
    assert (tmp_path / "a" / "checkpoint_final.ckpt").read_bytes() == \
        (tmp_path / "b" / "checkpoint_final.ckpt").read_bytes()


def test_metrics_file_is_canonical_json(tmp_path):
    model, stream, tcfg, _ = tiny_setup(steps=4)
    train(model, stream, tcfg, out_dir=str(tmp_path))
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        row = json.loads(line)
        assert json.dumps(row, sort_keys=True, separators=(",", ":")) == line
        assert "time" not in line and "date" not in line


def test_moving_average_tracks_window():
    model, stream, tcfg, _ = tiny_setup(steps=5)
    res = train(model, stream, tcfg)
    losses = [r["loss"] for r in res.metrics]
    for i, row in enumerate(res.metrics):
        want = sum(losses[: i + 1]) / (i + 1)
        assert row["mlm_loss"] == pytest.approx(want, abs=1e-12)
        assert row["perplexity"] == pytest.approx(math.exp(want), rel=1e-12)
        assert row["arlm_loss"] is None
    assert res.final_loss_avg == pytest.approx(sum(losses) / 5, abs=1e-12)


def test_checkpoint_contains_trained_weights(tmp_path):
    model, stream, tcfg, _ = tiny_setup(steps=3)
    res = train(model, stream, tcfg, out_dir=str(tmp_path))
    arrays, meta = load_checkpoint(res.checkpoint_path)
    assert meta["step"] == 3
    assert meta["config"]["d"] == 8
    assert meta["train"]["peak_lr"] == pytest.approx(3e-3)
    assert set(arrays) == set(model.params)
    for name, arr in arrays.items():
        npt.assert_array_equal(arr, model.params[name].data)


def test_periodic_checkpoints_written(tmp_path):
    model, stream, tcfg, _ = tiny_setup(steps=5, checkpoint_interval=2)
    train(model, stream, tcfg, out_dir=str(tmp_path))
    assert (tmp_path / "checkpoint_step2.ckpt").exists()
    assert (tmp_path / "checkpoint_step4.ckpt").exists()
    assert (tmp_path / "checkpoint_final.ckpt").exists()
    _, meta = load_checkpoint(str(tmp_path / "checkpoint_step2.ckpt"))
    assert meta["step"] == 2


def test_loss_decreases_over_short_run():
    model, stream, tcfg, _ = tiny_setup(steps=80, peak_lr=1e-2,
                                        warmup_steps=8)
    res = train(model, stream, tcfg)
    losses = [r["loss"] for r in res.metrics]
    head = sum(losses[:10]) / 10
    tail = sum(losses[-10:]) / 10
    assert tail < head


def test_joint_mode_alternates_objectives():
    model, stream, tcfg, _ = tiny_setup(mode="joint", steps=5)
    res = train(model, stream, tcfg)
    assert [r["objective"] for r in res.metrics] == \
        ["arlm", "mlm", "arlm", "mlm", "arlm"]
    last = res.metrics[-1]
    assert last["mlm_loss"] is not None
    assert last["arlm_loss"] is not None


def test_arlm_mode_never_touches_mlm_window():
    model, stream, tcfg, _ = tiny_setup(mode="arlm", steps=3)
    res = train(model, stream, tcfg)
    assert all(r["objective"] == "arlm" for r in res.metrics)
    assert res.metrics[-1]["mlm_loss"] is None
    assert res.metrics[-1]["arlm_loss"] is not None


def test_divergence_raises_and_keeps_partial_output(tmp_path):
    model, stream, tcfg, _ = tiny_setup(steps=4)
    model.params["out_bias"].data[:] = np.nan
    with pytest.raises(DivergenceError):
        train(model, stream, tcfg, out_dir=str(tmp_path))
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 1
    assert math.isnan(json.loads(lines[0])["loss"])
    assert not (tmp_path / "checkpoint_final.ckpt").exists()


def test_non_finite_gradient_stops_before_the_update(tmp_path, monkeypatch):
    # a finite loss whose gradient turns NaN at step 2: the run must stop
    # before AdamW writes NaN into the weights
    model, stream, tcfg, _ = tiny_setup(steps=4, checkpoint_interval=1)
    real_clip = trainer_mod.clip_gradients
    calls = []

    def poisoned(params, max_norm):
        calls.append(1)
        if len(calls) == 2:
            params["out_bias"].grad[0] = np.nan
            snapshot.update({n: p.data.copy() for n, p in params.items()})
        return real_clip(params, max_norm)

    snapshot = {}
    monkeypatch.setattr(trainer_mod, "clip_gradients", poisoned)
    with pytest.raises(DivergenceError, match="gradient norm"):
        train(model, stream, tcfg, out_dir=str(tmp_path))
    for name, p in model.params.items():
        npt.assert_array_equal(p.data, snapshot[name], err_msg=name)
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2
    last = json.loads(lines[1])
    assert math.isfinite(last["loss"]) and math.isnan(last["grad_norm"])
    assert (tmp_path / "checkpoint_step1.ckpt").exists()
    assert not (tmp_path / "checkpoint_step2.ckpt").exists()
    assert not (tmp_path / "checkpoint_final.ckpt").exists()


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def test_repeated_step_reuses_freed_memory():
    # A toy-preset step builds and frees ~74 MB of arrays.  With glibc's
    # default thresholds that memory went back to the kernel after every
    # step and the next step faulted ~18,900 fresh pages in again.
    if not _on_glibc():
        pytest.skip("the allocator policy is set on glibc only")
    import resource

    run_cfg = load_run_config("toy", [], 1)
    lines = load_corpus(bundled_corpus_path())
    vocab = build_vocab(lines, cap=run_cfg.data.vocab_cap)
    tcfg = run_cfg.trainer
    model = Model(run_cfg.build_model_config(len(vocab)), seed=1)
    stream = BatchStream(encode_corpus(lines, vocab), n=tcfg.seq_len,
                         batch_size=tcfg.batch_size, vocab_size=len(vocab),
                         seed=1)
    batch = stream.next_batch()
    opt = AdamW(model.params, tcfg)

    def step():
        with Tape() as tape:
            loss = sift_loss(batch, model, run_cfg.sift, mode="mlm", seed=1)
        tape.backward(loss)
        clip_gradients(model.params, tcfg.grad_clip)
        opt.step(1e-4)
        model.zero_grad()

    step()
    step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000, f"a warm step took {faults} minor page faults"


def test_sift_disabled_equals_lambda_zero():
    model1, stream1, tcfg, _ = tiny_setup(steps=4)
    res1 = train(model1, stream1, tcfg, SiftConfig())
    model2, stream2, _, _ = tiny_setup(steps=4)
    res2 = train(model2, stream2, tcfg,
                 SiftConfig(enabled=True, lam=0.0))
    assert res1.metrics == res2.metrics
    for name in model1.params:
        npt.assert_array_equal(model1.params[name].data,
                               model2.params[name].data)


def test_sift_enabled_changes_the_run():
    model1, stream1, tcfg, _ = tiny_setup(steps=4)
    res1 = train(model1, stream1, tcfg, SiftConfig())
    model2, stream2, _, _ = tiny_setup(steps=4)
    res2 = train(model2, stream2, tcfg,
                 SiftConfig(enabled=True, epsilon=0.1, lam=1.0))
    assert res1.metrics[-1]["loss"] != res2.metrics[-1]["loss"]


# ---------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------

def test_uniform_logits_give_vocab_size_perplexity():
    cfg = ModelConfig(vocab_size=17, max_len=16, L=1, d=8, heads=1, ffn=8,
                      k=2, n_emd=1, dropout=0.0)
    model = Model(cfg, seed=0)
    for p in model.params.values():
        p.data[:] = 0.0
    rows = [np.array([2, 7, 9, 3]), np.array([2, 5, 3])]
    assert evaluate_ppl(model, rows) == pytest.approx(17.0, rel=1e-12)


def test_evaluate_ppl_matches_row_forwards():
    model, _, _, seqs = tiny_setup()
    rows = [np.asarray([2] + seqs[i][:6] + [3]) for i in range(3)]
    total = 0.0
    count = 0
    for row in rows:
        nll, _, _ = model.arlm_row(row)
        total += nll.item()
        count += row.size - 1
    assert evaluate_ppl(model, rows) == pytest.approx(
        math.exp(total / count), rel=1e-12)


def test_evaluate_ppl_past_the_float_range_is_inf():
    # a checkpoint with a blown-up weight can score a mean NLL past 709
    model, _, _, seqs = tiny_setup()
    model.params["out_bias"].data[5] = 1e6
    rows = [np.asarray([2] + seqs[0][:6] + [3])]
    assert evaluate_ppl(model, rows) == math.inf


def test_evaluate_ppl_rejects_unusable_rows():
    model, _, _, _ = tiny_setup()
    with pytest.raises(IngestionError):
        evaluate_ppl(model, [np.array([5])])


# ---------------------------------------------------------------------
# Ablation suite.
# ---------------------------------------------------------------------

def ablation_setup():
    lines = tiny_corpus()
    vocab = build_vocab(lines, cap=32)
    seqs = encode_corpus(lines, vocab)
    cfg = ModelConfig(vocab_size=len(vocab), max_len=16, L=1, d=8, heads=2,
                      ffn=16, k=4, n_emd=1, dropout=0.0, mode="mlm")
    tcfg = TrainConfig(steps=2, batch_size=2, seq_len=10, warmup_steps=1,
                       peak_lr=3e-3, seed=5)
    return cfg, seqs, tcfg


def test_ablation_suite_rows_and_csv(tmp_path):
    cfg, seqs, tcfg = ablation_setup()
    rows = run_ablation_suite(cfg, seqs, tcfg, out_dir=str(tmp_path))
    assert [r["variant"] for r in rows] == \
        ["full", "-EMD", "-C2P", "-P2C", "-(EMD+C2P)", "-(EMD+P2C)"]
    for r in rows:
        assert math.isfinite(r["final_mlm_loss"])
        assert r["final_ppl"] == pytest.approx(math.exp(r["final_mlm_loss"]))
        assert r["steps"] == 2 and r["seed"] == 5
    text = (tmp_path / "ablation.csv").read_text().splitlines()
    assert text[0] == "variant,final_mlm_loss,final_ppl,steps,seed"
    assert len(text) == 7
    for line, r in zip(text[1:], rows):
        assert line.split(",")[0] == r["variant"]
        assert float(line.split(",")[1]) == pytest.approx(r["final_mlm_loss"])
    for name in ("full", "-EMD"):
        assert (tmp_path / name / "metrics.jsonl").exists()


def test_ablation_variants_actually_differ(tmp_path):
    cfg, seqs, tcfg = ablation_setup()
    rows = run_ablation_suite(cfg, seqs, tcfg, out_dir=str(tmp_path))
    losses = {r["variant"]: r["final_mlm_loss"] for r in rows}
    assert losses["full"] != losses["-EMD"]
    assert losses["full"] != losses["-C2P"]
    assert losses["full"] != losses["-P2C"]


def test_ablation_rerun_is_byte_identical(tmp_path):
    cfg, seqs, tcfg = ablation_setup()
    run_ablation_suite(cfg, seqs, tcfg, out_dir=str(tmp_path / "x"))
    run_ablation_suite(cfg, seqs, tcfg, out_dir=str(tmp_path / "y"))
    assert (tmp_path / "x" / "ablation.csv").read_bytes() == \
        (tmp_path / "y" / "ablation.csv").read_bytes()
