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
every other key falls back to the module defaults. Unknown keys anywhere
are rejected rather than ignored, so typos cannot silently change a run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .codec import decode, scalar
from .dataset import TASK_ROLES
from .errors import ArgumentError, ConfigError
from .features import EngineeredSpec
from .registry import ALGORITHMS

ALGORITHM_NAMES = tuple(ALGORITHMS)

IMPUTATION_POLICIES = ("mode_median", "drop_rows")


def _reject_unknown(doc: dict, allowed: tuple[str, ...], where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} keys {unknown}")


@dataclass(frozen=True)
class RunConfig:
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
    split_ratio: float = 0.8
    split_seed: int = 42
    imputation: str = "mode_median"
    engineer: bool = True
    bins: int = 10
    top_k: int = 25
    sources: EngineeredSpec = field(default_factory=EngineeredSpec)
    algorithm: str = "gbdt_plain"
    model_seed: int = 0
    model_params: dict = field(default_factory=dict)

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

    def to_json(self) -> dict:
        return {
            "input": self.input,
            "schema": self.schema,
            "target": self.target,
            "output_dir": self.output_dir,
            "split": {"ratio": self.split_ratio, "seed": self.split_seed},
            "imputation": self.imputation,
            "features": {
                "engineer": self.engineer,
                "bins": self.bins,
                "top_k": self.top_k,
                "sources": self.sources.to_json(),
            },
            "model": {
                "algorithm": self.algorithm,
                "seed": self.model_seed,
                "params": dict(self.model_params),
            },
        }

    @staticmethod
    def from_json(doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
        _reject_unknown(
            doc,
            ("input", "schema", "target", "output_dir", "split", "imputation", "features", "model"),
            "config",
        )
        missing = [k for k in ("input", "schema", "target", "output_dir") if k not in doc]
        if missing:
            raise ConfigError(f"config is missing required keys {missing}")

        split = doc.get("split", {})
        _reject_unknown(split, ("ratio", "seed"), "split")
        features = doc.get("features", {})
        _reject_unknown(features, ("engineer", "bins", "top_k", "sources"), "features")
        model = doc.get("model", {})
        _reject_unknown(model, ("algorithm", "seed", "params"), "model")
        params = model.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("model params must be a JSON object")
        try:
            sources = decode(EngineeredSpec, features.get("sources", {}), base=EngineeredSpec())
        except ArgumentError as exc:
            raise ConfigError(f"bad features.sources: {exc}") from exc

        sections = {"split": split, "features": features, "model": model}

        def typed(hint: type, where: str, default=None):
            """The value at where ("key" or "section.key"), type-checked, or default if absent."""
            *head, key = where.split(".")
            section = sections[head[0]] if head else doc
            try:
                return scalar(hint, section[key], where) if key in section else default
            except ArgumentError as exc:
                raise ConfigError(str(exc)) from exc

        return RunConfig(
            input=typed(str, "input"),
            schema=typed(str, "schema"),
            target=typed(str, "target"),
            output_dir=typed(str, "output_dir"),
            split_ratio=typed(float, "split.ratio", 0.8),
            split_seed=typed(int, "split.seed", 42),
            imputation=typed(str, "imputation", "mode_median"),
            engineer=typed(bool, "features.engineer", True),
            bins=typed(int, "features.bins", 10),
            top_k=typed(int, "features.top_k", 25),
            sources=sources,
            algorithm=typed(str, "model.algorithm", "gbdt_plain"),
            model_seed=typed(int, "model.seed", 0),
            model_params=dict(params),
        )


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
    canonical = json.dumps(cfg.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
