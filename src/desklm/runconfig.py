"""Run configuration: JSON files, bundled presets, dotted overrides.

A run is described by one JSON document with five sections: model,
trainer, sift, data, eval.  Missing sections and missing keys take
defaults; unknown keys are rejected with the offending dotted path.
Command-line overrides arrive as dotted key=value pairs and are applied
after the file parse, last one wins.

One key is translated at the boundary: the JSON document says
"lambda" for the regularizer weight because that reads naturally in a
config file, while the dataclass field is called lam because "lambda"
is reserved in Python.  "lambda" is the only spelling a config takes;
sift.lam is an unknown key.

model.vocab_size is special: training commands derive it from the
corpus (the table has to match the vocabulary actually built), so
configs may omit it.  The audit command works from the config alone
and requires it.  The model section is still checked in full when the
config loads, with a stand-in vocab_size where it has none.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from importlib import resources

from .data import NUM_RESERVED
from .errors import ConfigError, check_field_types
from .model import AblationFlags, ModelConfig
from .sift import SiftConfig
from .trainer import TrainConfig

PRESETS = ("toy", "base", "large")


@dataclass
class DataConfig:
    corpus: str | None = None   # None: the bundled corpus
    vocab_cap: int = 512

    def __post_init__(self):
        check_field_types(self)
        if self.vocab_cap <= NUM_RESERVED:
            raise ConfigError("data.vocab_cap must exceed the reserved ids")


@dataclass
class EvalConfig:
    checkpoint: str | None = None
    corpus: str | None = None
    max_rows: int | None = None

    def __post_init__(self):
        check_field_types(self)
        if self.max_rows is not None and self.max_rows < 1:
            raise ConfigError("eval.max_rows must be >= 1 when set")


def bundled_corpus_path() -> str:
    return str(resources.files("desklm").joinpath("corpus/tiny.txt"))


def preset_path(name: str) -> str:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choices: {PRESETS}")
    return str(resources.files("desklm").joinpath(f"presets/{name}.json"))


def _checked_kwargs(section: str, raw, cls, aliases: dict | None = None) -> dict:
    """raw as keyword arguments for cls: a JSON object whose keys each
    name a field of cls, or its alias, which is then the only spelling
    of that field."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{section} must be an object")
    aliases = aliases or {}
    spelling = {name: alias for alias, name in aliases.items()}
    allowed = {spelling.get(f.name, f.name) for f in fields(cls)}
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown key {section}.{key}")
    return {aliases.get(key, key): value for key, value in raw.items()}


@dataclass
class RunConfig:
    model: dict = field(default_factory=dict)
    trainer: TrainConfig = field(default_factory=TrainConfig)
    sift: SiftConfig = field(default_factory=SiftConfig)
    data: DataConfig = field(default_factory=DataConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        for section in raw:
            if section not in ("model", "trainer", "sift", "data", "eval"):
                raise ConfigError(f"unknown config section {section!r}")
        model = _checked_kwargs("model", raw.get("model", {}), ModelConfig)
        if "ablations" in model:
            _checked_kwargs("model.ablations", model["ablations"], AblationFlags)
        try:
            # types and ranges are checked here, before any command runs;
            # training derives vocab_size from the corpus, so 2, the
            # smallest legal one, stands in when the section has none
            ModelConfig(**{"vocab_size": 2, **model})
            return cls(
                model=model,
                trainer=TrainConfig(**_checked_kwargs(
                    "trainer", raw.get("trainer", {}), TrainConfig)),
                sift=SiftConfig(**_checked_kwargs(
                    "sift", raw.get("sift", {}), SiftConfig, {"lambda": "lam"})),
                data=DataConfig(**_checked_kwargs(
                    "data", raw.get("data", {}), DataConfig)),
                eval=EvalConfig(**_checked_kwargs(
                    "eval", raw.get("eval", {}), EvalConfig)),
            )
        except TypeError as e:
            raise ConfigError(f"malformed config: {e}") from e

    def build_model_config(self, vocab_size: int) -> ModelConfig:
        args = dict(self.model)
        args["vocab_size"] = vocab_size
        cfg = ModelConfig(**args)
        if self.trainer.seq_len > cfg.max_len:
            raise ConfigError(f"trainer.seq_len {self.trainer.seq_len} exceeds "
                              f"model.max_len {cfg.max_len}")
        return cfg

    def audit_model_config(self) -> ModelConfig:
        if "vocab_size" not in self.model:
            raise ConfigError("audit needs model.vocab_size in the config")
        return ModelConfig(**self.model)

    def to_dict(self, model_cfg: ModelConfig | None = None) -> dict:
        sift = asdict(self.sift)
        sift["lambda"] = sift.pop("lam")
        return {
            "model": model_cfg.to_dict() if model_cfg else dict(self.model),
            "trainer": asdict(self.trainer),
            "sift": sift,
            "data": asdict(self.data),
            "eval": asdict(self.eval),
        }


def parse_override(text: str) -> tuple[str, object]:
    """One --set argument: dotted.key=value with JSON-style values.

    Values that fail to parse as JSON, or nest too deeply to parse, are
    taken as bare strings, so --set data.corpus=some/path.txt works
    without quoting gymnastics.
    """
    key, sep, value = text.partition("=")
    key = key.strip()
    if not sep or not key:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    try:
        parsed = json.loads(value)
    except (json.JSONDecodeError, RecursionError):
        parsed = value
    return key, parsed


def apply_override(raw: dict, key: str, value) -> None:
    parts = key.split(".")
    if any(not p for p in parts):
        raise ConfigError(f"override key {key!r} has an empty segment")
    node = raw
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ConfigError(
                f"override {key!r}: {part!r} is a value, not a section")
        node = nxt
    node[parts[-1]] = value


def load_run_config(config: str | None, sets: list[str] | None = None,
                    seed: int | None = None) -> RunConfig:
    """Resolve file/preset, apply overrides in order, then --seed."""
    if config is None:
        path = preset_path("toy")
    elif os.path.exists(config):
        path = config
    elif config in PRESETS:
        path = preset_path(config)
    else:
        raise ConfigError(f"config {config!r} is neither a file nor a preset")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    for item in sets or []:
        key, value = parse_override(item)
        apply_override(raw, key, value)
    if seed is not None:
        raw.setdefault("trainer", {})["seed"] = seed
    return RunConfig.from_dict(raw)


def effective_config_text(run_cfg: RunConfig,
                          model_cfg: ModelConfig | None = None) -> str:
    return json.dumps(run_cfg.to_dict(model_cfg), sort_keys=True,
                      indent=2) + "\n"
