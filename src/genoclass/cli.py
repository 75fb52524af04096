"""Command-line front end.

Four subcommands mirror the pipeline stages: ``prepare``, ``train``,
``evaluate``, ``report``. Exit codes: 0 on success, 1 when user-supplied
configuration or arguments are invalid, 2 on runtime failures. The
``GENOCLASS_OUTPUT_DIR`` environment variable redirects outputs without
editing config files; an explicit ``--out`` flag still wins over it.
"""

from __future__ import annotations

import fcntl
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from .codec import make_dirs, remove_stale_temporaries
from .config import load_run_config
from .errors import ConfigError, GenoclassError, PersistenceError, StateError, ValidationError
from .pipeline import run_evaluate, run_prepare, run_report, run_train

ENV_OUTPUT_DIR = "GENOCLASS_OUTPUT_DIR"
LOCK_NAME = ".genoclass.lock"


def _env_output_dir() -> str | None:
    value = os.environ.get(ENV_OUTPUT_DIR, "").strip()
    return value or None


@contextmanager
def _locked(out_dir: str | Path):
    """Hold an exclusive lock on out_dir's lock file while a command runs.

    Concurrent commands against one output directory would interleave file
    writes, so the second invocation fails fast instead of corrupting state.
    The lock is an ``flock`` on the file, which the kernel drops when the
    command ends, however it ends, so a killed command leaves the file but
    not the lock. Once it holds the lock, it removes the temporary files a
    killed command left in out_dir and in its ``report_*`` table directories.
    """
    out_dir = make_dirs(out_dir)
    try:
        lock = open(out_dir / LOCK_NAME, "a")
    except OSError as exc:
        raise PersistenceError(f"cannot open {str(out_dir / LOCK_NAME)!r}: {exc.strerror or exc}") from exc
    with lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise StateError(f"output directory {str(out_dir)!r} is locked by another command") from None
        remove_stale_temporaries([out_dir, *out_dir.glob("report_*")])
        yield


def _run(action) -> None:
    try:
        action()
    except ValidationError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except GenoclassError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except MemoryError as exc:
        # the last resort against a job too large for the machine: an error line, not a traceback
        click.echo(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", err=True)
        sys.exit(2)


@click.group()
def main() -> None:
    """Schema-driven tabular classification pipeline."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Run config JSON file.")
@click.option("--seed", type=int, default=None, help="Override both the split seed and the model seed.")
def prepare(config_path: str, seed: int | None) -> None:
    """Ingest the raw CSV; split, impute, engineer, rank, and persist."""

    def action() -> None:
        cfg = load_run_config(config_path, seed=seed, output_dir=_env_output_dir())
        with _locked(cfg.output_dir):
            result = run_prepare(cfg)
        click.echo(
            f"prepared {result.train_rows} train and {result.test_rows} test rows "
            f"({result.dropped_rows} unlabeled rows dropped) in {result.out_dir}"
        )
        click.echo(f"selected {len(result.pipeline.selected)} of {len(result.pipeline.ranking)} ranked features")

    _run(action)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Run config JSON file.")
@click.option("--seed", type=int, default=None, help="Override both the split seed and the model seed.")
def train(config_path: str, seed: int | None) -> None:
    """Fit the configured algorithm on the prepared train split."""

    def action() -> None:
        cfg = load_run_config(config_path, seed=seed, output_dir=_env_output_dir())
        with _locked(cfg.output_dir):
            result = run_train(cfg)
        loss = "n/a" if result.final_loss is None else f"{result.final_loss:.6f}"
        click.echo(
            f"trained {result.algorithm} for {result.task} on {result.train_rows} rows: "
            f"final training loss {loss}, training accuracy {result.train_accuracy:.4f}"
        )
        click.echo(f"saved {result.artifact_path}")

    _run(action)


@main.command()
@click.option("--artifact", "artifact_path", required=True, type=click.Path(), help="Stored model artifact.")
@click.option("--data", "data_path", required=True, type=click.Path(), help="Test CSV (raw or prepared layout).")
@click.option("--out", "out_dir", default=None, type=click.Path(), help="Output directory (default: the artifact's).")
def evaluate(artifact_path: str, data_path: str, out_dir: str | None) -> None:
    """Score a stored model on a test file and write report files."""

    def action() -> None:
        out = out_dir or _env_output_dir() or str(Path(artifact_path).parent)
        with _locked(out):
            result = run_evaluate(artifact_path, data_path, out)
        click.echo(
            f"evaluated {result.algorithm} for {result.task} on {result.rows} rows: "
            f"accuracy {result.accuracy:.4f}"
        )
        click.echo(f"wrote {result.report_path} and {result.tables_dir}/")

    _run(action)


@main.command()
@click.argument("reports", nargs=-1, required=True, type=click.Path())
@click.option("--out", "out_dir", default=None, type=click.Path(), help="Directory for the merged tables.")
def report(reports: tuple[str, ...], out_dir: str | None) -> None:
    """Merge evaluation report files into comparison tables."""

    def action() -> None:
        out = out_dir or _env_output_dir()
        if out is None:
            raise ConfigError(f"no output directory: pass --out or set {ENV_OUTPUT_DIR}")
        with _locked(out):
            loaded = run_report(list(reports), out)
        click.echo(f"merged {len(loaded)} reports into {out}")

    _run(action)


if __name__ == "__main__":
    main()
