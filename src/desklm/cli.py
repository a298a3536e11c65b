"""Command-line entry point.

Subcommands: pretrain, eval, audit, dump-attention, equivalence,
ablation-suite.  Every command accepts --config (file path or preset
name), repeatable --set dotted overrides, --out, and --seed.  main
resolves them into one RunConfig before any command work and hands it
to the command.  When --out is given the resolved configuration is
written there as effective_config.json; rerunning any command from
that echoed file with the same seed reproduces metrics and checkpoints
byte for byte.  eval and dump-attention pack their rows with
data.pack, unpadded, so the row format has one owner.

Exit codes are a stable contract: 0 success, 1 property failure,
2 usage or configuration error (including a configuration that needs
more memory than the machine has), 3 runtime failure (including any
unexpected exception, whose traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

import numpy as np

from . import tensor as T
from .attention import extra_param_count
from .data import Vocab, build_vocab, encode_corpus, load_corpus, pack, tokenize
from .equivalence import run_allocation_audit, run_equivalence_suite
from .errors import CheckpointError, CheckpointFormatError, ConfigError, \
    DeskLMError, IngestionError
from .model import OBJECTIVES, count_params, load_model
from .relpos import max_reach
from .runconfig import RunConfig, bundled_corpus_path, \
    effective_config_text, load_run_config
from .trainer import evaluate_mlm, evaluate_ppl, make_out_dir, perplexity, \
    run_ablation_suite, train_fresh

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# the commands that cannot run without --out, and what they write there
NEEDS_OUT = {"pretrain": "checkpoints and metrics",
             "dump-attention": "the CSV files",
             "ablation-suite": "the CSV table"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desklm",
        description="Desk-scale language model with disentangled "
                    "relative-position attention.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("pretrain", cmd_pretrain),
        ("eval", cmd_eval),
        ("audit", cmd_audit),
        ("dump-attention", cmd_dump_attention),
        ("equivalence", cmd_equivalence),
        ("ablation-suite", cmd_ablation_suite),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="config JSON path or preset name (toy/base/large)")
        p.add_argument("--set", dest="sets", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="dotted config override, repeatable, last wins")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override trainer.seed")
        p.set_defaults(fn=fn)
    sub.choices["dump-attention"].add_argument(
        "text", help="input text to run through the model")
    equivalence = sub.choices["equivalence"]
    equivalence.add_argument("--fault", default=None,
                             help="inject a named kernel fault (test only)")
    equivalence.add_argument("--sweep-seeds", type=int, default=100,
                             help="number of randomized equivalence draws")
    return parser


def _echo(args, run_cfg: RunConfig, model_cfg=None) -> None:
    """Write the effective config into --out (made here) or to stderr."""
    text = effective_config_text(run_cfg, model_cfg)
    if args.out:
        make_out_dir(args.out)
        with open(os.path.join(args.out, "effective_config.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stderr.write(text)


def _read_corpus(path: str, key: str) -> list[str]:
    try:
        return load_corpus(path)
    except IngestionError as e:
        raise ConfigError(f"{key}: {e}") from e


def _load_training_data(run_cfg: RunConfig):
    lines = _read_corpus(run_cfg.data.corpus or bundled_corpus_path(),
                         "data.corpus")
    vocab = build_vocab(lines, cap=run_cfg.data.vocab_cap)
    seqs = encode_corpus(lines, vocab)
    return vocab, seqs


def cmd_pretrain(args, run_cfg: RunConfig) -> int:
    vocab, seqs = _load_training_data(run_cfg)
    model_cfg = run_cfg.build_model_config(len(vocab))
    _echo(args, run_cfg, model_cfg)
    result = train_fresh(model_cfg, seqs, run_cfg.trainer, run_cfg.sift,
                         out_dir=args.out, meta_extra={"vocab": vocab.tokens})
    print(f"steps={run_cfg.trainer.steps}")
    print(f"final_loss_avg={result.final_loss_avg:.6f}")
    print(f"checkpoint={result.checkpoint_path}")
    return EXIT_OK


def _eval_rows(model, vocab: Vocab, lines: list[str]) -> list[np.ndarray]:
    return [_row(model, ids) for ids in encode_corpus(lines, vocab)]


def _row(model, ids: list[int]) -> np.ndarray:
    """ids packed unpadded, truncated to the model's length."""
    return pack(ids, min(len(ids) + 2, model.cfg.max_len))[0]


def _model_from_eval_config(run_cfg: RunConfig):
    if not run_cfg.eval.checkpoint:
        raise ConfigError("eval.checkpoint is required")
    model, meta = load_model(run_cfg.eval.checkpoint)
    if "vocab" not in meta:
        raise ConfigError("checkpoint metadata lacks a vocabulary")
    tokens = meta["vocab"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CheckpointFormatError("checkpoint vocabulary is not a list of strings")
    vocab = Vocab(tokens)
    if len(vocab) != model.cfg.vocab_size:
        raise ConfigError(
            f"checkpoint vocabulary size {len(vocab)} does not match "
            f"model vocab_size {model.cfg.vocab_size}")
    return model, vocab


def cmd_eval(args, run_cfg: RunConfig) -> int:
    model, vocab = _model_from_eval_config(run_cfg)
    corpus = run_cfg.eval.corpus
    lines = _read_corpus(corpus or run_cfg.data.corpus or bundled_corpus_path(),
                         "eval.corpus" if corpus else "data.corpus")
    _echo(args, run_cfg, model.cfg)
    # every line load_corpus keeps encodes to a row, so row i is line i
    rows = _eval_rows(model, vocab, lines[:run_cfg.eval.max_rows])
    for objective in OBJECTIVES[model.cfg.mode]:
        if objective == "mlm":
            nll = evaluate_mlm(model, rows, run_cfg.trainer)
            print(f"masked_nll {nll:.6f}\nmasked_ppl {perplexity(nll):.6f}")
        else:
            print(f"perplexity {evaluate_ppl(model, rows):.6f}")
    return EXIT_OK


def cmd_audit(args, run_cfg: RunConfig) -> int:
    cfg = run_cfg.audit_model_config()
    if cfg.L < 1:
        # the per-layer figures below divide by L
        raise ConfigError(f"audit needs model.L >= 1, got {cfg.L}")
    _echo(args, run_cfg, cfg)
    print(f"total_params={count_params(cfg)}")
    print(f"extra_position_params={extra_param_count(cfg)}")
    # the masked objective decodes its masked slots, the causal one every
    # slot; a mode's share is the mean over the objectives it trains
    share = {"mlm": run_cfg.trainer.mask_rate, "arlm": 1.0}
    objectives = OBJECTIVES[cfg.mode]
    decoded = cfg.decode_runs * (sum(share[o] for o in objectives) / len(objectives))
    print(f"emd_decode_cost={decoded / cfg.L:.6g}")
    print(f"max_reach={max_reach(cfg.k, cfg.L)}")
    return EXIT_OK


def cmd_dump_attention(args, run_cfg: RunConfig) -> int:
    tokens = tokenize(args.text)
    if not tokens:
        raise ConfigError("input text produced no tokens")
    model, vocab = _model_from_eval_config(run_cfg)
    ids = _row(model, vocab.encode(tokens))
    collected: list = []
    with T.no_grad():
        model.encode(ids, collect=collected)
    _echo(args, run_cfg, model.cfg)

    manifest = {"tokens": vocab.decode(ids.tolist()), "files": []}
    for li, per_head in enumerate(collected):
        for h, probs in enumerate(per_head):
            fname = f"attention_layer{li}_head{h}.csv"
            with open(os.path.join(args.out, fname), "w", encoding="utf-8",
                      newline="") as fh:
                # 10 significant digits: per-entry rounding error stays
                # below 5e-11 so row sums hold 1 within 1e-6 at any n
                np.savetxt(fh, probs, fmt="%.10g", delimiter=",", newline="\r\n")
            manifest["files"].append({
                "layer": li,
                "head": h,
                "path": fname,
                "last_layer": li == model.cfg.L - 1,
            })
    with open(os.path.join(args.out, "manifest.json"), "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(manifest['files'])} matrices to {args.out}")
    return EXIT_OK


def cmd_equivalence(args, run_cfg: RunConfig) -> int:
    if args.sweep_seeds < 0:
        raise ConfigError(f"--sweep-seeds must be >= 0, got {args.sweep_seeds}")
    _echo(args, run_cfg)
    seed = run_cfg.trainer.seed
    report = run_equivalence_suite(seed=seed, fault=args.fault,
                                   n_seeds=args.sweep_seeds)
    if report.passed:
        print(f"PASS kernel_equivalence cases={len(report.cases)} "
              f"worst_score_diff={report.worst_score_diff:.3e} "
              f"worst_grad_diff={report.worst_grad_diff:.3e}")
    else:
        first = report.failures[0]
        print(f"FAIL kernel_equivalence failures={len(report.failures)} "
              f"counterexample_seed={first.seed} n={first.n} k={first.k} "
              f"d={first.d} heads={first.heads} share={first.share} "
              f"c2p={first.enable_c2p} p2c={first.enable_p2c} "
              f"score_diff={first.max_score_diff:.3e} "
              f"grad_diff={first.max_grad_diff:.3e}")

    audit = run_allocation_audit(seed=seed)
    budget_held = all(r.within_budget for r in audit)
    if budget_held:
        print("PASS allocation_budget " + " ".join(
            f"n={r.n}:{r.efficient_peak}<={r.budget}" for r in audit))
    else:
        bad = next(r for r in audit if not r.within_budget)
        print(f"FAIL allocation_budget n={bad.n} "
              f"peak={bad.efficient_peak} budget={bad.budget}")

    first, last = audit[0], audit[-1]
    ratio_small = first.naive_peak / first.efficient_peak
    ratio_large = last.naive_peak / last.efficient_peak
    growth_held = ratio_large > 4 * ratio_small
    print(f"{'PASS' if growth_held else 'FAIL'} allocation_growth "
          f"ratio_n{first.n}={ratio_small:.2f} ratio_n{last.n}={ratio_large:.2f}")

    return EXIT_OK if report.passed and budget_held and growth_held else EXIT_PROPERTY


def cmd_ablation_suite(args, run_cfg: RunConfig) -> int:
    vocab, seqs = _load_training_data(run_cfg)
    model_cfg = run_cfg.build_model_config(len(vocab))
    _echo(args, run_cfg, model_cfg)
    rows = run_ablation_suite(model_cfg, seqs, run_cfg.trainer, run_cfg.sift,
                              out_dir=args.out, meta_extra={"vocab": vocab.tokens})
    for row in rows:
        print(f"{row['variant']}: final_mlm_loss={row['final_mlm_loss']:.6f} "
              f"final_ppl={row['final_ppl']:.4f}")
    full = rows[0]["final_mlm_loss"]
    doubles = {r["variant"]: r["final_mlm_loss"] for r in rows
               if r["variant"].startswith("-(")}
    held = all(full <= v for v in doubles.values())
    # informational, not gated: at desk scale the ordering is expected
    # but noisy
    print(f"ordering_full_le_double_ablated={held}")
    print(f"table={os.path.join(args.out, 'ablation.csv')}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run_cfg = load_run_config(args.config, args.sets, args.seed)
        if args.command in NEEDS_OUT and not args.out:
            raise ConfigError(f"{args.command} needs --out for {NEEDS_OUT[args.command]}")
        return args.fn(args, run_cfg)
    except (ConfigError, IngestionError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as e:
        # the configuration asks for more memory than the machine has
        print(f"error: {args.command} ran out of memory: "
              f"{str(e) or 'allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG
    except DeskLMError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception:
        # an unexpected failure is still a runtime failure: Python's own
        # exit status 1 would read as EXIT_PROPERTY
        traceback.print_exc()
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
