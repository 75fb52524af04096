"""Schema-driven tabular classification toolkit.

A self-contained pipeline for multi-class prediction on tabular medical
records: CSV ingestion against an explicit column schema, imputation,
derived features, dependence-based feature selection, five from-scratch
classifier families, and an evaluation/report suite, exposed both as a
library and as the ``genoclass`` batch command.
"""

from .artifact import FORMAT_VERSION, ModelArtifact, revive_model
from .config import (
    ALGORITHM_NAMES,
    IMPUTATION_POLICIES,
    RunConfig,
    config_fingerprint,
    load_run_config,
)
from .dataset import (
    KINDS,
    ROLES,
    TASK_ROLES,
    ColumnSchema,
    Dataset,
    SplitPair,
    apply_imputation,
    fit_imputation,
    impute_missing,
    load_csv,
    schema_from_json,
    schema_to_json,
    stratified_split,
    validate_schema,
    write_csv,
)
from .ensemble import (
    ForestConfig,
    ForestDiagnostics,
    ForestModel,
    GbdtConfig,
    GbdtModel,
    GossSample,
    Tree,
    TreeParams,
    fit_gbdt,
    fit_random_forest,
    fit_tree,
    forest_diagnostics,
    goss_gain,
    goss_sample,
    loss_gradients,
    loss_value,
    predict_tree,
)
from .errors import (
    ArgumentError,
    ConfigError,
    ConvergenceError,
    DataTypeError,
    DegenerateDataError,
    EmptyInputError,
    EvaluationError,
    GenoclassError,
    ImputationError,
    PersistenceError,
    SchemaError,
    StateError,
    StratificationError,
    ValidationError,
)
from .features import (
    ENGINEERED_COLUMNS,
    ContingencyTable,
    EngineeredSpec,
    FeatureRanking,
    bin_continuous,
    bin_values,
    chi2_statistic,
    contingency,
    engineer_features,
    engineered_column_schemas,
    rank_features,
    select_top_k,
)
from .linear import (
    ColumnEncoder,
    KernelSpec,
    LogisticConfig,
    LogisticModel,
    Standardizer,
    SvmConfig,
    SvmModel,
    fit_logistic,
    fit_svm,
    kernel_eval,
    predict_proba_logistic,
    svm_decision,
)
from .metrics import (
    ClassMetrics,
    ConfusionMatrix,
    EvaluationReport,
    RocCurve,
    build_report,
    class_metrics,
    confusion_matrix,
    multiclass_roc,
    render_report,
    roc_curve,
)
from .pipeline import (
    EvalResult,
    FeaturePipeline,
    PrepareResult,
    TrainResult,
    prepare_fingerprint,
    run_evaluate,
    run_prepare,
    run_report,
    run_train,
)
from .registry import ALGORITHMS, Algorithm

__version__ = "0.1.0"
