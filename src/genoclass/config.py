"""Run configuration: one strict JSON document drives every command.

The document shape is::

    {
      "input": "raw.csv",
      "schema": "schema.json",
      "target": "genetic_disorder",
      "output_dir": "out",
      "split": {"ratio": 0.8, "seed": 42},
      "imputation": "mode_median",
      "features": {"engineer": true, "bins": 10, "top_k": 25, "sources": {...}},
      "model": {"algorithm": "gbdt_plain", "seed": 0, "params": {...}}
    }

Only ``input``, ``schema``, ``target``, and ``output_dir`` are required;
every other key falls back to its field's default. Unknown keys anywhere
are rejected rather than ignored, so typos cannot silently change a run.
The flat fields of :class:`RunConfig` name their keys in the sections
above, and ``genoclass.codec`` reads and writes the document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .codec import JsonCodec, decode, json_digest
from .dataset import TASK_ROLES
from .errors import ArgumentError, ConfigError
from .features import EngineeredSpec
from .registry import ALGORITHMS

ALGORITHM_NAMES = tuple(ALGORITHMS)

IMPUTATION_POLICIES = ("mode_median", "drop_rows")


@dataclass(frozen=True)
class RunConfig(JsonCodec):
    """Everything one prepare/train/evaluate cycle needs.

    Args:
        input: Path of the raw CSV.
        schema: Path of the column-schema JSON.
        target: Task name, ``genetic_disorder`` or ``disorder_subclass``.
        output_dir: Directory receiving every file the commands write.
        split_ratio: Train fraction of the stratified split.
        split_seed: Shuffle seed of the split.
        imputation: Missing-cell policy, ``mode_median`` or ``drop_rows``.
        engineer: Whether the five derived columns are appended.
        bins: Equal-frequency bin count used while ranking numeric features.
        top_k: How many top-ranked features the model consumes.
        sources: Raw column names feeding the engineered features.
        algorithm: Model family to train.
        model_seed: Seed forwarded into the model hyperparameters.
        model_params: Extra hyperparameters, keyed per model config field.
    """

    input: str
    schema: str
    target: str
    output_dir: str
    split_ratio: float = field(default=0.8, metadata={"key": "split.ratio"})
    split_seed: int = field(default=42, metadata={"key": "split.seed"})
    imputation: str = "mode_median"
    engineer: bool = field(default=True, metadata={"key": "features.engineer"})
    bins: int = field(default=10, metadata={"key": "features.bins"})
    top_k: int = field(default=25, metadata={"key": "features.top_k"})
    sources: EngineeredSpec = field(default_factory=EngineeredSpec, metadata={"key": "features.sources"})
    algorithm: str = field(default="gbdt_plain", metadata={"key": "model.algorithm"})
    model_seed: int = field(default=0, metadata={"key": "model.seed"})
    model_params: dict = field(default_factory=dict, metadata={"key": "model.params"})

    def __post_init__(self) -> None:
        if self.target not in TASK_ROLES:
            raise ConfigError(f"target must be one of {sorted(TASK_ROLES)}, got {self.target!r}")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError(f"split ratio must be in (0, 1), got {self.split_ratio}")
        if self.imputation not in IMPUTATION_POLICIES:
            raise ConfigError(f"imputation must be one of {list(IMPUTATION_POLICIES)}, got {self.imputation!r}")
        if self.bins < 2:
            raise ConfigError(f"bins must be >= 2, got {self.bins}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.algorithm not in ALGORITHM_NAMES:
            raise ConfigError(f"algorithm must be one of {list(ALGORITHM_NAMES)}, got {self.algorithm!r}")

    @classmethod
    def from_json(cls, doc: dict) -> "RunConfig":
        try:
            return decode(cls, doc, partial=True, name="config")
        except ArgumentError as exc:
            raise ConfigError(str(exc)) from exc


def load_run_config(path: str | Path, seed: int | None = None, output_dir: str | None = None) -> RunConfig:
    """Parse and validate a config file, with optional command-line overrides.

    Args:
        path: JSON file to read.
        seed: When given, replaces both the split seed and the model seed.
        output_dir: When given, replaces the configured output directory.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {str(path)!r} does not exist")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {str(path)!r} is not valid JSON: {exc}") from exc
    cfg = RunConfig.from_json(doc)
    if seed is not None:
        cfg = replace(cfg, split_seed=int(seed), model_seed=int(seed))
    if output_dir is not None:
        cfg = replace(cfg, output_dir=str(output_dir))
    return cfg


def config_fingerprint(cfg: RunConfig) -> str:
    """Hash of the canonical config serialization.

    Stored in every downstream file so stale mixtures of prepare/train
    outputs are detectable.
    """
    return json_digest(cfg.to_json())
