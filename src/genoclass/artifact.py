"""Versioned on-disk container for fitted models.

An artifact bundles the fitted model parameters with the preprocessing
record that produced its training matrix, so evaluation on raw rows can
replay exactly the same transformations. The format carries an explicit
version number; files written by a different version are rejected rather
than migrated. Format 4 stores trees leaves-only (``cart.Tree``), boosting
as one tree per round, and the file as compact JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .codec import JsonCodec, decode, read_json, write_json
from .errors import ArgumentError, PersistenceError
from .registry import ALGORITHMS

FORMAT_VERSION = 4


@dataclass(frozen=True)
class ModelArtifact(JsonCodec):
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
    model_doc: dict = field(metadata={"key": "model"})
    pipeline_doc: dict = field(metadata={"key": "pipeline"})
    config_hash: str
    seed: int
    version: int = field(default=FORMAT_VERSION, metadata={"key": "format_version"})

    @classmethod
    def from_json(cls, doc: dict) -> "ModelArtifact":
        if isinstance(doc, dict) and doc.get("format_version", FORMAT_VERSION) != FORMAT_VERSION:
            raise PersistenceError(
                f"artifact format version {doc['format_version']!r} is not supported (expected {FORMAT_VERSION})"
            )
        try:
            return decode(cls, doc)
        except ArgumentError as exc:
            raise PersistenceError(f"artifact document is malformed: {exc}") from exc

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json(), compact=True)

    @staticmethod
    def load(path: str | Path) -> "ModelArtifact":
        return ModelArtifact.from_json(read_json(path, "artifact file"))


def revive_model(artifact: ModelArtifact):
    """Rebuild the fitted model object stored in an artifact."""
    name = artifact.algorithm
    if name not in ALGORITHMS:
        raise ArgumentError(f"unknown algorithm {name!r} in artifact")
    try:
        model = ALGORITHMS[name].model.from_json(artifact.model_doc)
    except ArgumentError as exc:
        raise PersistenceError(f"{name} model document is malformed: {exc}") from exc
    if tuple(model.class_labels) != artifact.class_labels:
        raise PersistenceError(f"artifact class labels {list(artifact.class_labels)} differ from its {name} model's {list(model.class_labels)}")
    return model
