"""Versioned on-disk container for fitted models.

An artifact bundles the fitted model parameters with the preprocessing
record that produced its training matrix, so evaluation on raw rows can
replay exactly the same transformations. The format carries an explicit
version number; files written by a different version are rejected rather
than migrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .codec import read_json, write_json
from .errors import ArgumentError, PersistenceError
from .registry import ALGORITHMS

FORMAT_VERSION = 3


@dataclass(frozen=True)
class ModelArtifact:
    """Self-describing snapshot of one fitted model.

    Args:
        algorithm: Registry name of the model family.
        task: Task name the model was trained for.
        class_labels: Decoded label strings, in code order.
        model_doc: JSON document of the fitted model.
        pipeline_doc: JSON document of the preprocessing record.
        config_hash: Fingerprint of the run config that produced the model.
        seed: Model seed recorded for reproducibility.
        version: Artifact format version.
    """

    algorithm: str
    task: str
    class_labels: tuple[str, ...]
    model_doc: dict
    pipeline_doc: dict
    config_hash: str
    seed: int
    version: int = FORMAT_VERSION

    def to_json(self) -> dict:
        return {
            "format_version": self.version,
            "algorithm": self.algorithm,
            "task": self.task,
            "class_labels": list(self.class_labels),
            "model": self.model_doc,
            "pipeline": self.pipeline_doc,
            "config_hash": self.config_hash,
            "seed": self.seed,
        }

    @staticmethod
    def from_json(doc: dict) -> "ModelArtifact":
        try:
            version = int(doc["format_version"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"artifact has no readable format version: {exc}") from exc
        if version != FORMAT_VERSION:
            raise PersistenceError(
                f"artifact format version {version} is not supported (expected {FORMAT_VERSION})"
            )
        try:
            return ModelArtifact(
                algorithm=str(doc["algorithm"]),
                task=str(doc["task"]),
                class_labels=tuple(doc["class_labels"]),
                model_doc=dict(doc["model"]),
                pipeline_doc=dict(doc["pipeline"]),
                config_hash=str(doc["config_hash"]),
                seed=int(doc["seed"]),
                version=version,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"artifact document is malformed: {exc}") from exc

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())

    @staticmethod
    def load(path: str | Path) -> "ModelArtifact":
        return ModelArtifact.from_json(read_json(path, "artifact file"))


def revive_model(artifact: ModelArtifact):
    """Rebuild the fitted model object stored in an artifact."""
    name = artifact.algorithm
    if name not in ALGORITHMS:
        raise ArgumentError(f"unknown algorithm {name!r} in artifact")
    try:
        return ALGORITHMS[name].model.from_json(artifact.model_doc)
    except ArgumentError as exc:
        raise PersistenceError(f"{name} model document is malformed: {exc}") from exc
