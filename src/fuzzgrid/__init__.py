"""Grid-partition fuzzy models learned from data, plus a deterministic
noise-sensitivity benchmark around the plane z = x + y."""

from .datagen import (
    CLUSTERED,
    UNIFORM,
    DataSpec,
    Dataset,
    Example,
    Rng,
    make_plane_dataset,
    read_dataset,
    sample_inputs,
    write_dataset,
)
from .evaluation import (
    DiffReport,
    difference_surface,
    grid_axes,
    grid_values,
    model_error,
    plane_truth,
    write_diff_report,
)
from .inference import (
    FuzzyModel,
    NoActiveRuleError,
    infer,
    load_model,
    rule_diff,
    save_model,
)
from .learning import (
    NeuroFuzzyConfig,
    cluster_learn,
    conclusion_gradient,
    neurofuzzy_learn,
    wm_learn,
)
from .membership import (
    GAUSSIAN,
    TRIANGULAR,
    Partition,
    activations,
)

__version__ = "0.1.0"

__all__ = [
    "CLUSTERED",
    "UNIFORM",
    "DataSpec",
    "Dataset",
    "Example",
    "Rng",
    "make_plane_dataset",
    "read_dataset",
    "sample_inputs",
    "write_dataset",
    "DiffReport",
    "difference_surface",
    "grid_axes",
    "grid_values",
    "model_error",
    "plane_truth",
    "write_diff_report",
    "FuzzyModel",
    "NoActiveRuleError",
    "infer",
    "load_model",
    "rule_diff",
    "save_model",
    "NeuroFuzzyConfig",
    "cluster_learn",
    "conclusion_gradient",
    "neurofuzzy_learn",
    "wm_learn",
    "GAUSSIAN",
    "TRIANGULAR",
    "Partition",
    "activations",
]
