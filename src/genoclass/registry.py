"""The trainable model families, one entry per algorithm name.

Each entry ties a name to its config class, fitted-model class and fit
function, plus the config values the name fixes: the three boosting
entries share one config class and differ only in ``variant``. The run
config's algorithm list, config building and artifact revival all read
this one table, so adding an algorithm means adding one entry.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, fields

from .codec import decode
from .ensemble import ForestConfig, ForestModel, GbdtConfig, GbdtModel, fit_gbdt, fit_random_forest
from .errors import ArgumentError, ConfigError
from .linear import LogisticConfig, LogisticModel, SvmConfig, SvmModel, fit_logistic, fit_svm


@dataclass(frozen=True)
class Algorithm:
    """One trainable model family: config building, fit dispatch and revival.

    Args:
        name: Registry name, as written in run configs and artifacts.
        config: Hyperparameter dataclass the fit function takes.
        model: Fitted-model class; its ``from_json`` revives artifacts.
        fit: ``fit(dataset, target, config) -> model``.
        fixed: Config values the name implies; they are not legal params.
    """

    name: str
    config: type
    model: type
    fit: Callable
    fixed: dict = field(default_factory=dict)

    @property
    def params(self) -> frozenset[str]:
        """Config fields a run config may set: all but the seed and the fixed values."""
        return frozenset(f.name for f in fields(self.config)) - {"seed"} - set(self.fixed)

    def build_config(self, params: dict, seed: int):
        """The config for user params; unset fields keep their defaults."""
        unknown = sorted(set(params) - self.params)
        if unknown:
            raise ConfigError(f"unknown {self.name} params {unknown}; allowed: {sorted(self.params)}")
        try:
            return decode(self.config, {**params, "seed": seed, **self.fixed}, partial=True)
        except ArgumentError as exc:
            raise ConfigError(str(exc)) from exc


ALGORITHMS: dict[str, Algorithm] = {
    alg.name: alg
    for alg in (
        Algorithm("logistic", LogisticConfig, LogisticModel, fit_logistic),
        Algorithm("svm", SvmConfig, SvmModel, fit_svm),
        Algorithm("random_forest", ForestConfig, ForestModel, fit_random_forest),
        *(
            Algorithm(f"gbdt_{variant}", GbdtConfig, GbdtModel, fit_gbdt, {"loss": "multiclass_logloss", "variant": variant})
            for variant in ("plain", "goss", "oblivious")
        ),
    )
}
