"""Config resolution and the command-line surface."""

import csv
import json
import math
import os
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from desklm import cli, equivalence
from desklm import tensor as T
from desklm.cli import main
from desklm.data import Vocab, build_vocab, load_corpus, tokenize
from desklm.equivalence import run_equivalence_suite
from desklm.errors import CheckpointError, CheckpointFormatError, ConfigError
from desklm.model import (Model, ModelConfig, load_checkpoint, load_model,
                          param_shapes, save_checkpoint)
from desklm.runconfig import (EvalConfig, RunConfig, apply_override,
                              bundled_corpus_path, effective_config_text,
                              load_run_config, parse_override, preset_path)
from desklm.tensor import Tensor
from desklm.trainer import evaluate_ppl

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PRETRAIN_FAST = ["--set", "trainer.steps=3", "--set", "trainer.warmup_steps=1",
                 "--set", "trainer.batch_size=2", "--set", "trainer.seq_len=16"]


# ---------------------------------------------------------------------
# Overrides and config files.
# ---------------------------------------------------------------------

@pytest.mark.parametrize("text,key,value", [
    ("trainer.steps=10", "trainer.steps", 10),
    ("trainer.peak_lr=5e-4", "trainer.peak_lr", 5e-4),
    ("model.ablations.c2p=false", "model.ablations.c2p", False),
    ("data.corpus=null", "data.corpus", None),
    ("data.corpus=some/path.txt", "data.corpus", "some/path.txt"),
    ("sift.lambda=0.5", "sift.lambda", 0.5),
])
def test_parse_override_forms(text, key, value):
    got_key, got_value = parse_override(text)
    assert got_key == key
    assert got_value == value


@pytest.mark.parametrize("bad", ["steps", "=5", "  =x", ""])
def test_parse_override_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        parse_override(bad)


def test_apply_override_nests_and_last_wins():
    raw = {"trainer": {"steps": 5}}
    apply_override(raw, "trainer.steps", 9)
    apply_override(raw, "model.ablations.c2p", False)
    apply_override(raw, "trainer.steps", 11)
    assert raw["trainer"]["steps"] == 11
    assert raw["model"]["ablations"]["c2p"] is False


def test_apply_override_through_value_fails():
    raw = {"trainer": {"steps": 5}}
    with pytest.raises(ConfigError):
        apply_override(raw, "trainer.steps.deeper", 1)


def test_load_run_config_resolves_presets():
    for name in ("toy", "base", "large"):
        cfg = load_run_config(name)
        assert isinstance(cfg, RunConfig)
    toy = load_run_config(None)
    assert toy.trainer.steps == 2000
    assert toy.model["d"] == 64


def test_load_run_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"trainer": {"steps": 30}}))
    cfg = load_run_config(str(path), sets=["trainer.steps=25"], seed=42)
    assert cfg.trainer.steps == 25
    assert cfg.trainer.seed == 42


def test_load_run_config_rejects_unknown_names(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config("nonexistent-preset")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_run_config(str(bad))


@pytest.mark.parametrize("raw,needle", [
    ({"optimizer": {}}, "optimizer"),
    ({"trainer": {"step": 1}}, "trainer.step"),
    ({"model": {"width": 8}}, "model.width"),
    ({"model": {"ablations": {"bogus": True}}}, "model.ablations.bogus"),
    ({"sift": {"lambda": 0.5, "strength": 1}}, "sift.strength"),
])
def test_unknown_keys_are_named(raw, needle):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(raw)
    assert needle in str(err.value)


@pytest.mark.parametrize("override,section", [
    ("model=5", "model"),
    ("model=[1]", "model"),
    ("model.ablations=3", "model.ablations"),
    ("sift=3", "sift"),
    ("trainer=5", "trainer"),
    ("data=null", "data"),
    ("eval=[1]", "eval"),
])
def test_a_section_that_is_not_an_object_is_named(tmp_path, capsys, override, section):
    raw = {}
    apply_override(raw, *parse_override(override))
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(raw)
    assert str(err.value) == f"{section} must be an object"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    for config in (["--config", "toy", "--set", override], ["--config", str(path)]):
        assert main(["audit", *config]) == 2
        assert f"error: {section} must be an object" in _one_line_error(capsys)


def test_lambda_key_maps_to_lam_and_back():
    cfg = RunConfig.from_dict({"sift": {"enabled": True, "lambda": 0.25}})
    assert cfg.sift.lam == 0.25
    doc = cfg.to_dict()
    assert doc["sift"]["lambda"] == 0.25
    assert "lam" not in doc["sift"]


def test_lam_is_an_unknown_key(tmp_path, capsys):
    # "lambda" is the one spelling: the field name must not be taken
    # beside it, and lose to it, without a word
    with pytest.raises(ConfigError) as err:
        load_run_config("toy", ["sift.lam=3.0"])
    assert str(err.value) == "unknown key sift.lam"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sift": {"lambda": 0.5, "lam": 2.0}}))
    for config in (["--config", "toy", "--set", "sift.lam=3.0"], ["--config", str(path)]):
        assert main(["audit", *config]) == 2
        assert "error: unknown key sift.lam" in _one_line_error(capsys)


def test_effective_config_round_trips(tmp_path):
    cfg = load_run_config("toy", sets=["model.ablations.p2c=false",
                                       "sift.lambda=2.0"])
    text = effective_config_text(cfg)
    path = tmp_path / "echo.json"
    path.write_text(text)
    again = load_run_config(str(path))
    assert again.to_dict() == cfg.to_dict()
    assert again.model["ablations"]["p2c"] is False
    assert again.sift.lam == 2.0


def test_audit_model_config_requires_vocab_size():
    cfg = load_run_config("toy")
    with pytest.raises(ConfigError) as err:
        cfg.audit_model_config()
    assert "vocab_size" in str(err.value)
    assert load_run_config("base").audit_model_config().d == 768


def test_build_model_config_injects_vocab_size():
    cfg = load_run_config("toy")
    mc = cfg.build_model_config(77)
    assert mc.vocab_size == 77
    assert mc.d == 64


def test_bundled_paths_exist():
    assert load_corpus(bundled_corpus_path())
    for name in ("toy", "base", "large"):
        json.load(open(preset_path(name)))


# ---------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------

def test_pretrain_writes_artifacts_and_respects_steps(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["pretrain", "--config", "toy", *PRETRAIN_FAST,
               "--out", str(out)])
    assert rc == 0
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 3
    assert (out / "checkpoint_final.ckpt").exists()
    echoed = json.loads((out / "effective_config.json").read_text())
    assert echoed["trainer"]["steps"] == 3
    assert echoed["model"]["vocab_size"] == 134  # derived from the corpus
    stdout = capsys.readouterr().out
    assert "final_mlm_loss_avg=" in stdout


def test_diverging_pretrain_exits_3_and_keeps_its_metrics(tmp_path, capsys):
    out = tmp_path / "run"
    with pytest.warns(RuntimeWarning) as numpy_warnings:
        rc = main(["pretrain", "--config", "toy", "--set", "trainer.steps=4",
                   "--set", "trainer.warmup_steps=1", "--set", "trainer.peak_lr=1e300",
                   "--out", str(out)])
    assert rc == 3
    assert any("overflow" in str(w.message) for w in numpy_warnings)
    assert capsys.readouterr().err.splitlines()[-1] == \
        "error: non-finite loss nan at step 2"
    rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    assert [r["step"] for r in rows] == [1, 2]
    assert math.isfinite(rows[0]["loss"]) and math.isnan(rows[1]["loss"])
    assert not (out / "checkpoint_final.ckpt").exists()


def test_pretrain_without_out_is_config_error(capsys):
    rc = main(["pretrain", "--config", "toy", *PRETRAIN_FAST])
    assert rc == 2
    assert "--out" in capsys.readouterr().err


def test_pretrain_missing_corpus_names_the_key(tmp_path, capsys):
    rc = main(["pretrain", "--config", "toy", *PRETRAIN_FAST,
               "--set", "data.corpus=/no/such/file.txt",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data.corpus" in err and "/no/such/file.txt" in err


def test_pretrain_unknown_key_is_config_error(tmp_path, capsys):
    rc = main(["pretrain", "--config", "toy", "--set", "trainer.stepz=5",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "trainer.stepz" in capsys.readouterr().err


def test_lr_decay_is_an_unknown_key(tmp_path, capsys):
    # the schedule is linear warmup then linear decay, with no switch
    out = tmp_path / "x"
    rc = main(["pretrain", "--config", "toy", "--set", "trainer.lr_decay=cosine",
               "--out", str(out)])
    assert rc == 2
    assert _one_line_error(capsys) == "error: unknown key trainer.lr_decay\n"
    assert not (out / "metrics.jsonl").exists()


@pytest.mark.parametrize("section,key,value,needle", [
    ("trainer", "grad_clip", math.nan, "TrainConfig.grad_clip"),
    ("trainer", "adam_eps", math.inf, "TrainConfig.adam_eps"),
    ("trainer", "peak_lr", math.nan, "TrainConfig.peak_lr"),
    ("sift", "epsilon", math.nan, "SiftConfig.epsilon"),
])
@pytest.mark.parametrize("via", ["set", "file"])
def test_non_finite_float_is_config_error(tmp_path, capsys, section, key, value,
                                          needle, via):
    # JSON readers take NaN and Infinity, in --set values and config
    # files alike; a range check written x <= 0 would let NaN through
    out = tmp_path / "x"
    args = ["pretrain", *PRETRAIN_FAST, "--out", str(out)]
    if via == "set":
        args += ["--config", "toy", "--set", f"{section}.{key}={json.dumps(value)}"]
    else:
        with open(preset_path("toy"), encoding="utf-8") as fh:
            raw = json.load(fh)
        raw[section][key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        args += ["--config", str(path)]
    assert main(args) == 2
    err = _one_line_error(capsys)
    assert needle in err and "finite" in err
    assert not (out / "metrics.jsonl").exists()


@pytest.mark.parametrize("override,needle", [
    ("trainer.seq_len=100", "max_len"),
    ("trainer.mask_rate=1.5", "mask_rate"),
    ("trainer.span_max=0", "span_max"),
])
def test_pretrain_bad_trainer_value_fails_before_training(tmp_path, capsys,
                                                          override, needle):
    # rejected while the config is resolved, not at step 1
    out = tmp_path / "x"
    rc = main(["pretrain", "--config", "toy", "--set", override,
               "--out", str(out)])
    assert rc == 2
    assert needle in capsys.readouterr().err
    assert not (out / "metrics.jsonl").exists()


@pytest.mark.parametrize("override,needle", [
    ("model.d=32.0", "ModelConfig.d"),
    ("trainer.batch_size=true", "TrainConfig.batch_size"),
    ("model.ablations.c2p=no", "AblationFlags.c2p"),
    ("eval.max_rows=true", "EvalConfig.max_rows"),
    ("eval.max_rows=2.5", "EvalConfig.max_rows"),
    ("data.vocab_cap=512.5", "DataConfig.vocab_cap"),
    ("eval.checkpoint=5", "EvalConfig.checkpoint"),
])
def test_pretrain_mistyped_value_is_config_error(tmp_path, capsys, override,
                                                 needle):
    out = tmp_path / "x"
    rc = main(["pretrain", "--config", "toy", "--set", override,
               "--out", str(out)])
    assert rc == 2
    assert needle in capsys.readouterr().err
    assert not (out / "metrics.jsonl").exists()


@pytest.mark.parametrize("command,sets,needle", [
    ("equivalence", ['model.d="foo"', "model.heads=-3"], "ModelConfig.d"),
    ("eval", ['model.d="foo"', "model.heads=0"], "ModelConfig.d"),
    ("eval", ["model.heads=0"], "0 heads"),
    ("dump-attention", ["model.k=-4"], "k must be >= 1"),
])
def test_malformed_model_section_fails_before_any_command_work(tmp_path, capsys,
                                                               command, sets, needle):
    # commands that never build a model from the config still check it
    ckpt, _, _ = _uniform_checkpoint(tmp_path)
    out = tmp_path / "x"
    args = [command, "--config", "toy", "--set", f"eval.checkpoint={ckpt}",
            "--out", str(out)]
    for item in sets:
        args += ["--set", item]
    args += {"equivalence": ["--sweep-seeds", "0"], "dump-attention": ["w01 w02"]}.get(
        command, [])
    assert main(args) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err
    assert not out.exists()


def test_pretrain_ablation_override_lands_in_echo(tmp_path):
    out = tmp_path / "run"
    rc = main(["pretrain", "--config", "toy", *PRETRAIN_FAST,
               "--set", "model.ablations.c2p=false", "--out", str(out)])
    assert rc == 0
    echoed = json.loads((out / "effective_config.json").read_text())
    assert echoed["model"]["ablations"]["c2p"] is False


def test_pretrain_rerun_is_bitwise_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["pretrain", "--config", "toy", *PRETRAIN_FAST,
                 "--out", str(out1)]) == 0
    assert main(["pretrain", "--config",
                 str(out1 / "effective_config.json"),
                 "--out", str(out2)]) == 0
    assert (out1 / "metrics.jsonl").read_bytes() == \
        (out2 / "metrics.jsonl").read_bytes()
    assert (out1 / "checkpoint_final.ckpt").read_bytes() == \
        (out2 / "checkpoint_final.ckpt").read_bytes()
    assert (out1 / "effective_config.json").read_bytes() == \
        (out2 / "effective_config.json").read_bytes()


def test_pretrain_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS sums a long product in pieces that depend on its thread
    # count; left at the environment's count, this run's metrics and
    # checkpoint differ between one thread and two
    code = "import sys\nfrom desklm.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        outs.append(tmp_path / f"threads{threads}")
        proc = subprocess.run(
            [sys.executable, "-c", code, "pretrain", "--config", "toy", "--seed", "1",
             "--set", "trainer.steps=12", "--set", "trainer.warmup_steps=1",
             "--out", str(outs[-1])],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
    for name in ("metrics.jsonl", "checkpoint_final.ckpt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_seed_flag_changes_the_run(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["pretrain", "--config", "toy", *PRETRAIN_FAST,
                 "--out", str(out1), "--seed", "1"]) == 0
    assert main(["pretrain", "--config", "toy", *PRETRAIN_FAST,
                 "--out", str(out2), "--seed", "2"]) == 0
    assert (out1 / "metrics.jsonl").read_bytes() != \
        (out2 / "metrics.jsonl").read_bytes()


def _uniform_checkpoint(tmp_path, vocab_words=30, mode="mlm"):
    """A checkpoint whose logits are uniform: every weight zeroed."""
    words = [f"w{i:02d}" for i in range(vocab_words)]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(" ".join(words[i:i + 6])
                                for i in range(0, vocab_words - 6, 2)) + "\n")
    vocab = build_vocab(load_corpus(str(corpus)), cap=512)
    cfg = ModelConfig(vocab_size=len(vocab), max_len=16, L=1, d=8, heads=1,
                      ffn=8, k=2, n_emd=1, dropout=0.0, mode=mode)
    model = Model(cfg, seed=0)
    for p in model.params.values():
        p.data[:] = 0.0
    path = tmp_path / "uniform.ckpt"
    save_checkpoint(str(path), model.params,
                    {"config": cfg.to_dict(), "vocab": vocab.tokens})
    return str(path), str(corpus), len(vocab)


def test_eval_prints_single_decimal_line(tmp_path, capsys):
    ckpt, corpus, v = _uniform_checkpoint(tmp_path, mode="arlm")
    rc = main(["eval", "--config", "toy",
               "--set", f"eval.checkpoint={ckpt}",
               "--set", f"eval.corpus={corpus}"])
    assert rc == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert len(out_lines) == 1
    name, value = out_lines[0].split(" ")
    assert name == "perplexity"
    assert float(value) == pytest.approx(v, rel=1e-6)


def test_eval_without_checkpoint_is_config_error(capsys):
    rc = main(["eval", "--config", "toy"])
    assert rc == 2
    assert "eval.checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unreadable_checkpoint_is_checkpoint_error(tmp_path, capsys, where):
    path = tmp_path / "absent.ckpt" if where == "missing" else tmp_path
    rc = main(["eval", "--config", "toy", "--set", f"eval.checkpoint={path}"])
    assert rc == 2
    assert "cannot read checkpoint" in _one_line_error(capsys)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def _random_checkpoint(tmp_path, mode="mlm"):
    """The uniform checkpoint with seed-1 weights, so that rows and
    corpora differ in perplexity."""
    ckpt, corpus, _ = _uniform_checkpoint(tmp_path, mode=mode)
    _, meta = load_checkpoint(ckpt)
    model = Model(ModelConfig(**meta["config"]), seed=1)
    save_checkpoint(ckpt, model.params, meta)
    return ckpt, corpus, model, Vocab(meta["vocab"])


def test_eval_of_uniform_logits_scores_the_vocabulary_size(tmp_path, capsys):
    ckpt, corpus, v = _uniform_checkpoint(tmp_path)
    assert main(["eval", "--config", "toy", "--set", f"eval.checkpoint={ckpt}",
                 "--set", f"eval.corpus={corpus}"]) == 0
    scores = _scores(capsys.readouterr().out)
    assert list(scores) == ["masked_nll", "masked_ppl"]
    assert scores["masked_nll"] == pytest.approx(math.log(v), rel=1e-6)
    assert scores["masked_ppl"] == pytest.approx(v, rel=1e-6)


def test_eval_scores_what_the_checkpoint_trained(tmp_path, capsys):
    # an mlm checkpoint gets the masked score, which falls with
    # training; a joint one gets it and the causal perplexity too
    def trained(name, steps, *sets):
        out = tmp_path / name
        assert main(["pretrain", "--config", "toy", "--set", f"trainer.steps={steps}",
                     "--set", "trainer.warmup_steps=1", *sets, "--out", str(out)]) == 0
        capsys.readouterr()
        ckpt = out / "checkpoint_final.ckpt"
        args = ["eval", "--config", "toy", "--set", f"eval.checkpoint={ckpt}",
                "--set", "eval.max_rows=8"]
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == printed
        return ckpt, _scores(printed)

    _, early = trained("early", 1)
    _, late = trained("late", 60)
    assert list(early) == list(late) == ["masked_nll", "masked_ppl"]
    assert late["masked_nll"] < early["masked_nll"]
    ckpt, joint = trained("joint", 2, "--set", "model.mode=joint")
    assert list(joint) == ["masked_nll", "masked_ppl", "perplexity"]
    model, meta = load_model(str(ckpt))
    rows = cli._eval_rows(model, Vocab(meta["vocab"]), load_corpus(bundled_corpus_path())[:8])
    assert f"{joint['perplexity']:.6f}" == f"{evaluate_ppl(model, rows):.6f}"


def test_eval_max_rows_scores_the_first_rows(tmp_path, capsys):
    ckpt, corpus, model, vocab = _random_checkpoint(tmp_path, mode="arlm")
    args = ["eval", "--config", "toy", "--set", f"eval.checkpoint={ckpt}",
            "--set", f"eval.corpus={corpus}"]
    printed = []
    for extra in ([], ["--set", "eval.max_rows=2"]):
        assert main(args + extra) == 0
        printed.append(capsys.readouterr().out)
    rows = cli._eval_rows(model, vocab, load_corpus(corpus))
    assert len(rows) > 2
    assert printed[1] == f"perplexity {evaluate_ppl(model, rows[:2]):.6f}\n"
    assert printed[0] == f"perplexity {evaluate_ppl(model, rows):.6f}\n" != printed[1]


def test_eval_max_rows_packs_only_the_rows_it_scores(tmp_path, capsys, monkeypatch):
    ckpt, corpus, _, _ = _random_checkpoint(tmp_path)
    packed = []
    real = cli._eval_rows
    monkeypatch.setattr(cli, "_eval_rows",
                        lambda model, vocab, lines: packed.append(lines) or
                        real(model, vocab, lines))
    assert main(["eval", "--config", "toy", "--set", f"eval.checkpoint={ckpt}",
                 "--set", f"eval.corpus={corpus}", "--set", "eval.max_rows=3"]) == 0
    assert [len(lines) for lines in packed] == [3]
    assert packed[0] == load_corpus(corpus)[:3]


@pytest.mark.parametrize("given,key", [("eval", "eval.corpus"), ("data", "data.corpus"),
                                       ("neither", "data.corpus")])
def test_eval_corpus_is_eval_then_data_then_bundled(tmp_path, capsys, monkeypatch,
                                                    given, key):
    ckpt, first, model, vocab = _random_checkpoint(tmp_path, mode="arlm")
    second = tmp_path / "second.txt"
    second.write_text("w09 w03 w27 w14 w01\nw20 w20 w05 w11\n")
    corpora = {"eval": first, "data": str(second), "neither": bundled_corpus_path()}
    def printed(path) -> str:
        rows = cli._eval_rows(model, vocab, load_corpus(path))[:3]
        return f"perplexity {evaluate_ppl(model, rows):.6f}\n"

    ppl = {name: printed(path) for name, path in corpora.items()}
    assert len(set(ppl.values())) == 3

    def run(path) -> int:
        sets = {"eval": [f"eval.corpus={path}", f"data.corpus={second}"],
                "data": [f"data.corpus={path}"], "neither": []}[given]
        args = ["eval", "--config", "toy", "--set", f"eval.checkpoint={ckpt}",
                "--set", "eval.max_rows=3"]
        for item in sets:
            args += ["--set", item]
        return main(args)

    assert run(corpora[given]) == 0
    assert capsys.readouterr().out == ppl[given]
    # an unreadable file is named by the key that chose it
    missing = str(tmp_path / "absent.txt")
    monkeypatch.setattr(cli, "bundled_corpus_path", lambda: missing)
    assert run(missing) == 2
    assert key in _one_line_error(capsys)


def _scores(out: str) -> dict[str, float]:
    """eval's stdout, one `name value` line per score, as a dict."""
    return {name: float(value) for name, value in
            (line.split(" ") for line in out.splitlines())}


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_config_that_is_a_directory_is_config_error(tmp_path, capsys):
    assert main(["audit", "--config", str(tmp_path)]) == 2
    assert str(tmp_path) in _one_line_error(capsys)


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"model": "\xff"}')
    assert main(["audit", "--config", str(path)]) == 2
    assert "not valid JSON" in _one_line_error(capsys)


def test_corpus_that_is_not_utf8_is_config_error(tmp_path, capsys):
    corpus = tmp_path / "bad.txt"
    corpus.write_bytes(b"the cat \xff sat\n")
    rc = main(["pretrain", "--config", "toy", *PRETRAIN_FAST,
               "--set", f"data.corpus={corpus}", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "data.corpus" in _one_line_error(capsys)


@pytest.mark.parametrize("spoil", [
    lambda meta: meta["config"].update(bogus=1),
    lambda meta: meta.update(config=[1, 2]),
    lambda meta: meta.update(seed="x"),
    lambda meta: meta.update(seed=3.7),
    lambda meta: meta.update(seed="12"),
    lambda meta: meta.update(seed=True),
    lambda meta: meta.update(vocab=7),
], ids=["config-unknown-key", "config-not-object", "seed-not-int", "seed-float",
        "seed-digit-string", "seed-bool", "vocab-not-list"])
def test_malformed_checkpoint_metadata_is_format_error(tmp_path, capsys, spoil):
    ckpt, corpus, _ = _uniform_checkpoint(tmp_path)
    arrays, meta = load_checkpoint(ckpt)
    spoil(meta)
    save_checkpoint(ckpt, {k: Tensor(a) for k, a in arrays.items()}, meta)
    rc = main(["eval", "--config", "toy", "--set", f"eval.checkpoint={ckpt}",
               "--set", f"eval.corpus={corpus}"])
    assert rc == 2
    _one_line_error(capsys)
    with pytest.raises(CheckpointFormatError):
        cli._model_from_eval_config(RunConfig(eval=EvalConfig(checkpoint=ckpt)))


def test_eval_is_repeatable(tmp_path, capsys):
    ckpt, corpus, _ = _uniform_checkpoint(tmp_path)
    args = ["eval", "--config", "toy",
            "--set", f"eval.checkpoint={ckpt}",
            "--set", f"eval.corpus={corpus}"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_eval_corrupts_rows_at_the_checkpoint_recipe(tmp_path, capsys):
    # trained at mask_rate 0.4 and span_max 2, scored at them under the
    # toy config's 0.15 and 3 as when they are set again
    out = tmp_path / "run"
    recipe = ["--set", "trainer.mask_rate=0.4", "--set", "trainer.span_max=2"]
    assert main(["pretrain", "--config", "toy", *PRETRAIN_FAST, *recipe,
                 "--out", str(out)]) == 0
    args = ["eval", "--config", "toy", "--set", "eval.max_rows=8",
            "--set", f"eval.checkpoint={out / 'checkpoint_final.ckpt'}"]
    printed = []
    for extra in ([], recipe):
        capsys.readouterr()
        assert main(args + extra) == 0
        printed.append(capsys.readouterr().out)
    assert list(_scores(printed[0])) == ["masked_nll", "masked_ppl"]
    assert printed[0] == printed[1]


@pytest.mark.parametrize("train", ['"fast"', '[0.4]', '{"mask_rate": 1.5}',
                                   '{"span_max": "3"}'])
def test_malformed_checkpoint_train_section_is_format_error(tmp_path, capsys, train):
    ckpt, corpus, _ = _uniform_checkpoint(tmp_path)
    _, meta = load_checkpoint(ckpt)
    _with_metadata(ckpt, json.dumps({**meta, "train": json.loads(train)}).encode())
    rc = main(["eval", "--config", "toy", "--set", f"eval.checkpoint={ckpt}",
               "--set", f"eval.corpus={corpus}"])
    assert rc == 2
    assert "checkpoint train section" in _one_line_error(capsys)


def _fuzzed_corpus(rng, kind: int, text: bytes) -> bytes:
    """One seeded corpus file of the given kind (0-4)."""
    if kind == 0:  # raw bytes, half of them ASCII
        top = 128 if rng.integers(0, 2) else 256
        return rng.integers(0, top, int(rng.integers(0, 300)), dtype=np.uint8).tobytes()
    if kind == 1:  # whitespace, NUL, a little text and, in half the files, 0xFF
        parts = [b" ", b"\t", b"\n", b"\r", b"\x00", b"\x0b", b"\x0c", b"\x1c",
                 b"a", b"7", b".", b"\xc3\xa9", b"\xe2\x80\xa8", b"\xff"]
        top = len(parts) - int(rng.integers(0, 2))
        return b"".join(parts[i] for i in rng.integers(0, top, int(rng.integers(0, 200))))
    if kind == 2:  # bundled text with a few flipped bits
        start = int(rng.integers(0, len(text) - 600))
        piece = bytearray(text[start:start + int(rng.integers(50, 600))])
        for bit in rng.integers(0, 8 * len(piece), int(rng.integers(1, 9))):
            piece[bit // 8] ^= 1 << (bit % 8)
        return bytes(piece)
    if kind == 3:  # empty, or line breaks alone
        return [b"", b"\n", b"\r\n" * 3, b"\n \n\t\n"][int(rng.integers(0, 4))]
    start = int(rng.integers(0, len(text) // 2))  # one long line
    return text[start:start + int(rng.integers(2000, 8000))].replace(b"\n", b" ")


def test_eval_corpus_fuzz_ends_in_exit_0_or_2(tmp_path, capsys):
    # Seeded corpus files through `desklm eval` on a 2-step toy checkpoint:
    # each ends in a perplexity, or in exit 2 with one error line, and
    # never in a traceback.
    assert main(["pretrain", "--config", "toy", "--set", "trainer.steps=2",
                 "--set", "trainer.warmup_steps=1", "--out", str(tmp_path / "run")]) == 0
    ckpt = tmp_path / "run" / "checkpoint_final.ckpt"
    with open(bundled_corpus_path(), "rb") as fh:
        text = fh.read()
    rng = np.random.default_rng(20261019)
    corpus = tmp_path / "fuzz.txt"
    capsys.readouterr()
    exits = []
    for case in range(150):
        data = _fuzzed_corpus(rng, case % 5, text)
        corpus.write_bytes(data)
        rc = main(["eval", "--config", "toy", "--set", f"eval.checkpoint={ckpt}",
                   "--set", f"eval.corpus={corpus}"])
        out, err = capsys.readouterr()
        assert "Traceback" not in err, (case, data)
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        if rc == 0:
            assert _scores(out).keys() == {"masked_nll", "masked_ppl"} and not errors, case
            assert all(map(math.isfinite, _scores(out).values())), (case, data)
        else:
            assert rc == 2 and out == "" and len(errors) == 1, (case, rc, data, err)
        exits.append(rc)
    assert exits.count(0) > 30 and exits.count(2) > 30


def test_audit_prints_pinned_values(capsys):
    assert main(["audit", "--config", "large"]) == 0
    out = dict(line.split("=", 1)
               for line in capsys.readouterr().out.splitlines())
    assert out["extra_position_params"] == "51380224"
    assert out["max_reach"] == "24528"
    assert out["emd_decode_cost"] == "0.0125"
    assert main(["audit", "--config", "base"]) == 0
    out = dict(line.split("=", 1)
               for line in capsys.readouterr().out.splitlines())
    assert out["extra_position_params"] == "14942208"
    assert out["emd_decode_cost"] == "0.025"
    assert main(["audit", "--config", "base",
                 "--set", "model.share_projection=true"]) == 0
    out = dict(line.split("=", 1)
               for line in capsys.readouterr().out.splitlines())
    assert out["extra_position_params"] == str(2 * 512 * 768)


def test_audit_decode_cost_follows_mask_rate_and_emd(capsys):
    # the decode blocks that run, over L, at the share of slots the head
    # decodes: the masked fraction for mlm, every slot for the causal
    # objective, the mean of the two for joint
    for sets, want in ((["trainer.mask_rate=0.3"], "0.025"),
                       (["model.ablations.emd=false"], "0.00625"),
                       (["model.mode=arlm"], "0.0833333"),
                       (["model.mode=joint"], "0.0479167"),
                       (["model.mode=joint", "trainer.mask_rate=0.3"], "0.0541667")):
        assert main(["audit", "--config", "large",
                     *(a for s in sets for a in ("--set", s))]) == 0
        out = dict(line.split("=", 1)
                   for line in capsys.readouterr().out.splitlines())
        assert out["emd_decode_cost"] == want


def test_audit_counts_only_the_enabled_position_terms(capsys):
    # base: L=12, d=768, k=512; one projection per layer for one term
    for term in ("c2p", "p2c"):
        assert main(["audit", "--config", "base",
                     "--set", f"model.ablations.{term}=false"]) == 0
        out = dict(line.split("=", 1)
                   for line in capsys.readouterr().out.splitlines())
        assert out["extra_position_params"] == str(12 * 768 * 768 + 2 * 512 * 768)
    assert main(["audit", "--config", "base", "--set", "model.ablations.c2p=false",
                 "--set", "model.ablations.p2c=false"]) == 0
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert out["extra_position_params"] == "0"


def _audit(capsys, *sets) -> dict[str, str]:
    assert main(["audit", "--config", "toy", "--set", "model.vocab_size=100",
                 *(a for s in sets for a in ("--set", s))]) == 0
    return dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())


def _registry_count(**over) -> int:
    cfg = ModelConfig(**{**load_run_config("toy").model, "vocab_size": 100, **over})
    return sum(math.prod(s) for s in param_shapes(cfg).values())


def test_audit_counts_past_int64_exactly(capsys):
    out = _audit(capsys, "model.d=4000000000", "model.heads=1")
    assert int(out["total_params"]) == _registry_count(d=4_000_000_000, heads=1)
    assert int(out["total_params"]) > 2**64


def test_audit_prints_the_float64_bytes_of_the_parameters(capsys):
    assert main(["audit", "--config", "large"]) == 0
    out = dict(line.split("=", 1)
               for line in capsys.readouterr().out.splitlines())
    assert out["total_params"] == "420056912"
    assert out["param_bytes"] == "3360455296"
    out = _audit(capsys, "model.d=4000000000", "model.heads=1")
    assert int(out["param_bytes"]) == 8 * _registry_count(d=4_000_000_000, heads=1)
    assert int(out["param_bytes"]) > 2**64


def test_audit_of_a_billion_blocks_is_fast_and_exact(capsys):
    # the count is linear in L and in the decoder sets; its slopes come
    # from the registry at two and three blocks
    base = _registry_count(L=1, n_emd=1, emd_shared=False)
    block = _registry_count(L=2, n_emd=1, emd_shared=False) - base
    assert _registry_count(L=1, n_emd=2, emd_shared=False) - base == block
    start = time.perf_counter()
    out = _audit(capsys, "model.L=1000000000", "model.n_emd=1000000000",
                 "model.emd_shared=false")
    assert time.perf_counter() - start < 1.0
    assert int(out["total_params"]) == base + 2 * (10**9 - 1) * block
    assert out["emd_decode_cost"] == "0.15"


def test_audit_refuses_zero_layers_before_printing(tmp_path, capsys):
    # a zero-layer model trains, but its audit figures are per layer
    assert main(["pretrain", "--config", "toy", *PRETRAIN_FAST,
                 "--set", "model.L=0", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["audit", "--config", "toy", "--set", "model.vocab_size=100",
                 "--set", "model.L=0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: audit needs model.L >= 1"), err


def test_dump_attention_matrices(tmp_path, capsys):
    ckpt, corpus, _ = _uniform_checkpoint(tmp_path)
    out = tmp_path / "dump"
    rc = main(["dump-attention", "--config", "toy",
               "--set", f"eval.checkpoint={ckpt}",
               "--out", str(out), "w01 w02 w03 w04"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["files"]) == 1  # L=1, heads=1
    assert manifest["tokens"][0] == "<cls>"
    entry = manifest["files"][0]
    assert entry["last_layer"] is True
    rows = list(csv.reader(open(out / entry["path"])))
    n = len(manifest["tokens"])
    assert len(rows) == n and all(len(r) == n for r in rows)
    for r in rows:
        assert sum(map(float, r)) == pytest.approx(1.0, abs=1e-6)


def test_dump_attention_writes_each_collected_map_as_csv(tmp_path, capsys):
    # each file is the map encode collects, one CRLF-ended row per query,
    # its entries at 10 significant digits joined by commas
    _, corpus, _ = _uniform_checkpoint(tmp_path)
    vocab = build_vocab(load_corpus(corpus), cap=512)
    cfg = ModelConfig(vocab_size=len(vocab), max_len=16, L=2, d=8, heads=2,
                      ffn=8, k=2, n_emd=1, dropout=0.0)
    ckpt = str(tmp_path / "random.ckpt")
    save_checkpoint(ckpt, Model(cfg, seed=1).params,
                    {"config": cfg.to_dict(), "vocab": vocab.tokens})
    out = tmp_path / "dump"
    text = "w03 w01 w04 w01 w05"
    assert main(["dump-attention", "--config", "toy", "--set", f"eval.checkpoint={ckpt}",
                 "--out", str(out), text]) == 0
    model, _ = load_model(ckpt)
    collected = []
    with T.no_grad():
        model.encode(cli._row(model, vocab.encode(tokenize(text))), collect=collected)
    assert len(collected) == 2
    for li, per_head in enumerate(collected):
        assert len(per_head) == 2
        for h, probs in enumerate(per_head):
            want = "".join(",".join(f"{v:.10g}" for v in row) + "\r\n" for row in probs)
            assert (out / f"attention_layer{li}_head{h}.csv").read_bytes() == \
                want.encode("utf-8")


def test_dump_attention_rerun_matches(tmp_path):
    ckpt, _, _ = _uniform_checkpoint(tmp_path)
    outs = []
    for sub in ("d1", "d2"):
        out = tmp_path / sub
        assert main(["dump-attention", "--config", "toy",
                     "--set", f"eval.checkpoint={ckpt}",
                     "--out", str(out), "w05 w06 w07"]) == 0
        outs.append((out / "attention_layer0_head0.csv").read_bytes())
    assert outs[0] == outs[1]


def test_dump_attention_empty_text_is_config_error(tmp_path, capsys):
    ckpt, _, _ = _uniform_checkpoint(tmp_path)
    rc = main(["dump-attention", "--config", "toy",
               "--set", f"eval.checkpoint={ckpt}",
               "--out", str(tmp_path / "d"), "   "])
    assert rc == 2


@pytest.mark.parametrize("command", ["pretrain", "dump-attention", "ablation-suite",
                                     "audit", "equivalence", "eval"])
def test_out_that_is_not_a_directory_is_config_error(tmp_path, capsys, monkeypatch,
                                                      command):
    ckpt, corpus, _ = _uniform_checkpoint(tmp_path)
    args = {
        "pretrain": ["pretrain", "--config", "toy", *PRETRAIN_FAST],
        "dump-attention": ["dump-attention", "--config", "toy",
                           "--set", f"eval.checkpoint={ckpt}", "w01 w02"],
        "ablation-suite": ["ablation-suite", "--config", "toy", *PRETRAIN_FAST],
        "audit": ["audit", "--config", "large"],
        "equivalence": ["equivalence", "--sweep-seeds", "0"],
        "eval": ["eval", "--config", "toy", "--set", f"eval.checkpoint={ckpt}",
                 "--set", f"eval.corpus={corpus}"],
    }[command]
    scored = []
    monkeypatch.setattr(cli, "evaluate_ppl", lambda *a: scored.append(a) or 1.0)
    blocker = tmp_path / "F"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert main(args + ["--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith(f"error: --out {out}: ")
        assert printed.err.count("\n") == 1
    # eval fails before it scores a row
    assert scored == []
    assert blocker.read_text() == ""


def test_equivalence_command_passes_and_fails(capsys):
    assert main(["equivalence", "--sweep-seeds", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3 and "FAIL" not in out
    assert main(["equivalence", "--sweep-seeds", "2",
                 "--fault", "swap-delta"]) == 1
    out = capsys.readouterr().out
    assert "FAIL kernel_equivalence" in out
    assert "counterexample_seed=" in out


def test_equivalence_counterexample_is_rebuilt_from_its_line(capsys):
    assert main(["equivalence", "--sweep-seeds", "2", "--fault", "swap-delta"]) == 1
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("FAIL kernel_equivalence"))
    got = dict(item.split("=") for item in line.split()[2:])
    (case,) = equivalence._run_cases(
        int(got["n"]), int(got["k"]), int(got["d"]), int(got["heads"]),
        got["share"] == "True", [(got["c2p"] == "True", got["p2c"] == "True")],
        case_seed=int(got["counterexample_seed"]), score_tol=1e-10, grad_tol=1e-8,
        fault="swap-delta")
    assert not case.passed
    assert f"{case.max_score_diff:.3e}" == got["score_diff"]
    assert f"{case.max_grad_diff:.3e}" == got["grad_diff"]


def test_equivalence_sweep_seeds_must_not_be_negative(capsys):
    assert main(["equivalence", "--sweep-seeds", "-3"]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("error: --sweep-seeds") and printed.err.count("\n") == 1
    # zero draws is valid: the edge shapes alone
    assert main(["equivalence", "--sweep-seeds", "0"]) == 0
    edge_only = len(run_equivalence_suite(seed=0).cases)
    assert f"PASS kernel_equivalence cases={edge_only} " in capsys.readouterr().out


@pytest.mark.parametrize("mode,steps,trained", [
    ("mlm", 1, ["mlm"]), ("mlm", 2, ["mlm"]),
    ("arlm", 1, ["arlm"]), ("arlm", 2, ["arlm"]),
    # joint mode's step 1 trains the causal objective, step 2 the masked
    ("joint", 1, ["arlm"]), ("joint", 2, ["mlm", "arlm"]),
])
def test_runs_report_each_objective_they_trained(tmp_path, capsys, mode, steps, trained):
    columns = {"mlm": ["mlm"], "arlm": ["arlm"], "joint": ["mlm", "arlm"]}[mode]
    run = ["--config", "toy", *PRETRAIN_FAST, "--set", f"model.mode={mode}",
           "--set", f"trainer.steps={steps}"]
    assert main(["pretrain", *run, "--out", str(tmp_path / "pre")]) == 0
    printed = [line.split("=")[0] for line in capsys.readouterr().out.splitlines()
               if line.startswith("final_")]
    assert printed == [f"final_{o}_loss_avg" for o in columns if o in trained]
    assert main(["ablation-suite", *run, "--out", str(tmp_path / "abl")]) == 0
    with open(tmp_path / "abl" / "ablation.csv", encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["variant", *(f"final_{o}_loss" for o in columns),
                        "final_ppl", "steps", "seed"]
    for row in table[1:]:
        # an objective that never ran has an empty cell
        assert [bool(cell) for cell in row[1:1 + len(columns)]] == \
            [o in trained for o in columns]


def test_ablation_suite_command(tmp_path, capsys):
    out = tmp_path / "abl"
    rc = main(["ablation-suite", "--config", "toy",
               "--set", "trainer.steps=2", "--set", "trainer.warmup_steps=1",
               "--set", "trainer.batch_size=2", "--set", "trainer.seq_len=12",
               "--out", str(out)])
    assert rc == 0
    table = (out / "ablation.csv").read_text().splitlines()
    assert table[0] == "variant,final_mlm_loss,final_ppl,steps,seed"
    assert len(table) == 7
    stdout = capsys.readouterr().out
    assert "ordering_full_le_double_ablated=" in stdout


def test_ablation_full_variant_is_the_pretrain_run(tmp_path, capsys):
    # pretrain and every ablation variant share one training recipe
    run = ["--config", "toy", "--seed", "3", *PRETRAIN_FAST]
    assert main(["pretrain", *run, "--out", str(tmp_path / "pre")]) == 0
    assert main(["ablation-suite", *run, "--out", str(tmp_path / "abl")]) == 0
    for name in ("metrics.jsonl", "checkpoint_final.ckpt"):
        assert (tmp_path / "pre" / name).read_bytes() == \
            (tmp_path / "abl" / "full" / name).read_bytes()


def test_ablation_variant_that_cannot_make_its_directory_is_one_error_line(tmp_path,
                                                                         capsys):
    out = tmp_path / "abl"
    out.mkdir()
    (out / "-EMD").write_text("")
    assert main(["ablation-suite", "--config", "toy", *PRETRAIN_FAST,
                 "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith(f"error: --out {out / '-EMD'}: cannot create directory")
    assert printed.err.count("\n") == 1


def test_ablation_suite_checkpoints_carry_the_vocabulary(tmp_path, capsys):
    out = tmp_path / "abl"
    assert main(["ablation-suite", "--config", "toy", *PRETRAIN_FAST,
                 "--set", "trainer.steps=2", "--out", str(out)]) == 0
    capsys.readouterr()
    ckpt = out / "-(EMD+P2C)" / "checkpoint_final.ckpt"
    assert main(["eval", "--config", "toy", "--set", f"eval.checkpoint={ckpt}",
                 "--set", "eval.max_rows=4"]) == 0
    assert all(map(math.isfinite, _scores(capsys.readouterr().out).values()))


def test_config_is_loaded_once_before_any_command_work(monkeypatch, capsys):
    loads, runs = [], []
    real_load = cli.load_run_config
    monkeypatch.setattr(cli, "load_run_config",
                        lambda *a: loads.append(a) or real_load(*a))
    monkeypatch.setattr(cli, "cmd_audit",
                        lambda args, run_cfg: runs.append(run_cfg) or 0)
    assert main(["audit", "--config", "toy", "--seed", "9"]) == 0
    assert len(loads) == 1 and runs[0].trainer.seed == 9
    assert main(["audit", "--config", "toy", "--set", "trainer.bogus=1"]) == 2
    assert "trainer.bogus" in _one_line_error(capsys)
    assert len(loads) == 2 and len(runs) == 1


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unexpected_exception_is_runtime_failure(monkeypatch, capsys):
    def boom(args, run_cfg):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "cmd_audit", boom)
    assert main(["audit", "--config", "toy"]) == 3
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "RuntimeError: unexpected" in err


def test_a_config_too_large_for_memory_is_one_error_line(tmp_path):
    # the child caps its own address space at 1.5 GB before it runs the
    # command; a d = 200000 model asks numpy for hundreds of GiB
    resource = pytest.importorskip("resource")
    limit = 1_500_000_000
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from desklm.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code, "pretrain", "--config", "toy",
         "--set", "model.d=200000", "--set", "model.heads=1",
         "--set", "trainer.steps=1", "--set", "trainer.warmup_steps=1",
         "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: pretrain ran out of memory: Unable to allocate")


# ---------------------------------------------------------------------
# Deep nesting and seeded fuzzing of the input surfaces.
# ---------------------------------------------------------------------

def _nested(depth: int, leaf: str = "1", obj: bool = False) -> str:
    if obj:
        return '{"a": ' * depth + leaf + "}" * depth
    return "[" * depth + leaf + "]" * depth


def test_deeply_nested_config_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(_nested(100_000, ""))
    assert main(["audit", "--config", str(path)]) == 2
    assert "not valid JSON" in _one_line_error(capsys)


@pytest.mark.parametrize("obj", [False, True], ids=["list", "object"])
def test_deeply_nested_override_is_config_error(capsys, obj):
    # too deep to parse, the value is taken as a bare string
    value = _nested(5000, obj=obj)
    assert parse_override(f"model.vocab_size={value}") == ("model.vocab_size", value)
    assert main(["audit", "--config", "large",
                 "--set", f"model.vocab_size={value}"]) == 2
    assert "ModelConfig.vocab_size must be int" in _one_line_error(capsys)


def _with_metadata(ckpt: str, meta: bytes) -> None:
    """Replace a checkpoint's metadata bytes, keeping its tensors."""
    with open(ckpt, "rb") as fh:
        data = fh.read()
    (old_len,) = struct.unpack("<Q", data[4:12])
    with open(ckpt, "wb") as fh:
        fh.write(data[:4] + struct.pack("<Q", len(meta)) + meta + data[12 + old_len:])


def test_deeply_nested_checkpoint_metadata_is_format_error(tmp_path, capsys):
    ckpt, corpus, _ = _uniform_checkpoint(tmp_path)
    _with_metadata(ckpt, ('{"config": ' + _nested(5000, obj=True) + "}").encode())
    rc = main(["eval", "--config", "toy", "--set", f"eval.checkpoint={ckpt}",
               "--set", f"eval.corpus={corpus}"])
    assert rc == 2
    assert "metadata is not valid JSON" in _one_line_error(capsys)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(ckpt)


# Leaves and nesting depths the fuzzers draw from: every JSON kind, the
# values each field rejects, integers past int32 and int64 counts, and
# depths past the parser's recursion limit.
_LEAVES = ["0", "1", "2", "-1", "3", "8", "4000000000", "1000000000000",
           "0.5", "0.15", "-0.0", "1e300",
           "NaN", "-Infinity", "true", "false", "null", '"mlm"', '"arlm"',
           '"x"', '""', "[]", "{}", '{"c2p": false}', "[1, 2]", "tru", '"a',
           "{", "}"]
_DEPTHS = [0, 0, 0, 1, 2, 3, 50, 900, 5000]


def _fuzz_json(rng) -> str:
    """A drawn leaf, nested in lists or objects to a drawn depth."""
    depth = int(rng.choice(_DEPTHS))
    return _nested(depth, str(rng.choice(_LEAVES)), bool(rng.integers(0, 2)))


def _check_exit(rc: int, _out: str, err: str, case) -> None:
    """rc 0 without an error line, or rc 2 with exactly one; never a
    traceback."""
    assert "Traceback" not in err, (case, err[-2000:])
    errors = [line for line in err.splitlines()
              if line.startswith("error: ") or ": error: " in line]
    if rc == 0:
        assert not errors, (case, errors)
    else:
        assert rc == 2 and len(errors) == 1, (case, rc, err[-2000:])


def _run(argv) -> int:
    try:
        return main(argv)
    except SystemExit as e:  # argparse: usage errors and --help
        return e.code


def test_config_file_fuzz_ends_in_exit_0_or_2(tmp_path, capsys):
    # Seeded edits of the large preset through `desklm audit`: up to two
    # keys (known, unknown or whole sections) take a drawn value,
    # and a fifth of the files then lose their tail or have bytes flipped.
    with open(preset_path("large"), encoding="utf-8") as fh:
        base = json.load(fh)
    keys = [(sec, key) for sec, body in base.items() for key in body]
    keys += [("model", "bogus"), ("sift", "lam"), ("nope", "x"), ("model", None),
             ("trainer", None)]
    rng = np.random.default_rng(20261020)
    path = tmp_path / "fuzz.json"
    exits = []
    for case in range(300):
        doc = json.loads(json.dumps(base))
        slots = {}
        for i in range(int(rng.integers(0, 3))):
            sec, key = keys[int(rng.integers(0, len(keys)))]
            slot = f"@{i}@"
            body = doc.setdefault(sec, {})
            if key is None or not isinstance(body, dict):
                doc[sec] = slot
            else:
                body[key] = slot
            slots[f'"{slot}"'] = _fuzz_json(rng)
        text = json.dumps(doc)
        for slot, value in slots.items():
            text = text.replace(slot, value)
        data = text.encode("utf-8")
        if rng.random() < 0.1:
            data = data[:int(rng.integers(0, len(data)))]
        elif rng.random() < 0.1:
            data = bytearray(data)
            for bit in rng.integers(0, 8 * len(data), int(rng.integers(1, 5))):
                data[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(data))
        rc = _run(["audit", "--config", str(path)])
        _check_exit(rc, *capsys.readouterr(), case)
        exits.append(rc)
    assert exits.count(0) > 40 and exits.count(2) > 100


# Override keys the --set fuzzer draws: fields, sections, unknown names
# and malformed paths.
_SET_KEYS = ["model.vocab_size", "model.d", "model.heads", "model.L", "model.k",
             "model.mode", "model.dropout", "model.ablations", "model.ablations.c2p",
             "model.ablations.emd", "model.ablations.x", "model", "trainer.steps",
             "trainer.mask_rate", "trainer.span_max", "trainer.seed", "sift.lambda",
             "sift.lam", "sift.enabled", "data.vocab_cap", "data", "eval.max_rows",
             "eval", "bogus.key", "model..d", "model.d.x", ".", " ", "model.d "]


_VALID_SETS = ["model.d=96", "model.L=3", "model.k=8", 'model.mode="arlm"',
               "model.mode=joint", "model.ablations.c2p=false",
               'model.ablations={"emd": false}', "model.dropout=0",
               "sift.lambda=0.5", "trainer.mask_rate=0.3", "data.vocab_cap=100",
               "eval.max_rows=3", "data.corpus=some/path.txt"]


def test_override_fuzz_ends_in_exit_0_or_2(capsys):
    # Seeded --set lists through `desklm audit --config large`: valid
    # settings, or drawn keys with drawn JSON values or with raw text
    # that is not JSON.
    rng = np.random.default_rng(20261021)
    exits = []
    for case in range(300):
        argv = ["audit", "--config", "large"]
        for _ in range(int(rng.integers(1, 4))):
            u = rng.random()
            if u < 0.5:
                argv += ["--set", str(rng.choice(_VALID_SETS))]
                continue
            key = str(rng.choice(_SET_KEYS))
            if u < 0.6:
                value = "".join(rng.choice(list("ab1.=[]{}\" é\t")) for _ in range(8))
            else:
                value = _fuzz_json(rng)
            sep = "" if rng.random() < 0.05 else "="
            argv += ["--set", f"{key}{sep}{value}"]
        rc = _run(argv)
        _check_exit(rc, *capsys.readouterr(), (case, [a[:80] for a in argv]))
        exits.append(rc)
    assert exits.count(0) > 40 and exits.count(2) > 100


def test_argv_fuzz_ends_in_exit_0_or_2(tmp_path, capsys):
    # Seeded command lines: a command (or none, or an unknown one), then
    # drawn flags and values.  Training is bounded by settings appended
    # last (last one wins): 1 step of a toy model; sweeps by
    # --sweep-seeds <= 1.
    ckpt, corpus, _ = _uniform_checkpoint(tmp_path)
    blocker = tmp_path / "F"
    blocker.write_text("")
    commands = ["pretrain", "eval", "audit", "dump-attention", "equivalence",
                "ablation-suite", "frobnicate", "", "-h"]
    weights = np.array([1, 4, 6, 4, 1, 0.3, 1, 1, 0.5])
    pool = [["--config", "toy"], ["--config", "large"], ["--config", "nope"],
            ["--config", str(tmp_path)], ["--config"], ["--seed", "3"],
            ["--seed", "-1"], ["--seed", "x"], ["--out", str(tmp_path / "o")],
            ["--out", str(blocker)], ["--out"], ["--set", f"eval.checkpoint={ckpt}"],
            ["--set", f"eval.corpus={corpus}"], ["--set", "eval.max_rows=2"],
            ["--set", "model.vocab_size=40"], ["--set", "trainer.steps=x"],
            ["--set", "nope"], ["--set"], ["--sweep-seeds", "-1"],
            ["--sweep-seeds", "0"], ["--sweep-seeds", "x"], ["--fault", "nope"],
            ["--bogus"], ["-x"], ["w01 w02"], [""], ["--"], ["=", "--set=a=1"]]
    one_step = ["--config", "toy", *PRETRAIN_FAST, "--set", "trainer.steps=1"]
    bound = {"pretrain": one_step, "ablation-suite": one_step,
             "equivalence": ["--sweep-seeds", "1"]}
    rng = np.random.default_rng(20261022)
    exits = []
    for case in range(300):
        command = str(rng.choice(commands, p=weights / weights.sum()))
        argv = [command] if command else []
        for i in rng.integers(0, len(pool), int(rng.integers(0, 6))):
            argv += pool[i]
        argv += bound.get(command, [])
        rc = _run(argv)
        _check_exit(rc, *capsys.readouterr(), (case, argv))
        exits.append(rc)
    assert exits.count(0) > 8 and exits.count(2) > 150


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # flipped floats overflow
def test_checkpoint_bytes_fuzz_ends_in_exit_0_or_2(tmp_path, capsys):
    # Seeded spoilings of a small checkpoint through `desklm eval`: cut
    # short, bits flipped anywhere, or drawn JSON in the metadata.  A
    # flipped float loads as it is; a checksum is still to come.
    ckpt, corpus, _ = _uniform_checkpoint(tmp_path)
    _, meta = load_checkpoint(ckpt)
    model = Model(ModelConfig(**meta["config"]), seed=1)
    save_checkpoint(ckpt, model.params, meta)
    with open(ckpt, "rb") as fh:
        good = fh.read()
    fields = ["config", "vocab", "seed", "nope"]
    rng = np.random.default_rng(20261023)
    args = ["eval", "--config", "toy", "--set", f"eval.checkpoint={ckpt}",
            "--set", f"eval.corpus={corpus}", "--set", "eval.max_rows=2"]
    exits = []
    for case in range(240):
        kind = case % 3
        if kind == 0:
            data = good[:int(rng.integers(0, len(good)))]
        elif kind == 1:
            data = bytearray(good)
            for bit in rng.integers(0, 8 * len(data), int(rng.integers(1, 9))):
                data[bit // 8] ^= 1 << (bit % 8)
        with open(ckpt, "wb") as fh:
            fh.write(good if kind == 2 else bytes(data))
        if kind == 2:
            spoiled = dict(meta)
            field = fields[int(rng.integers(0, len(fields)))]
            spoiled[field] = "@"
            _with_metadata(ckpt, json.dumps(spoiled).replace(
                '"@"', _fuzz_json(rng)).encode("utf-8"))
        rc = _run(args)
        _check_exit(rc, *capsys.readouterr(), case)
        exits.append(rc)
    assert exits.count(0) > 40 and exits.count(2) > 80
