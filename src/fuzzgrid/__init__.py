"""Grid-partition fuzzy models learned from data, plus a deterministic
noise-sensitivity benchmark around the plane z = x + y."""

from .datagen import (
    CLUSTERED,
    UNIFORM,
    DataSpec,
    Dataset,
    Rng,
    make_plane_dataset,
    read_dataset,
    write_dataset,
)
from .evaluation import (
    DiffReport,
    difference_surface,
    grid_axes,
    model_error,
    plane_truth,
    write_diff_report,
)
from .inference import (
    FuzzyModel,
    infer,
    load_model,
    rule_diff,
    save_model,
)
from .learning import (
    NeuroFuzzyConfig,
    cluster_learn,
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
    "Rng",
    "make_plane_dataset",
    "read_dataset",
    "write_dataset",
    "DiffReport",
    "difference_surface",
    "grid_axes",
    "model_error",
    "plane_truth",
    "write_diff_report",
    "FuzzyModel",
    "infer",
    "load_model",
    "rule_diff",
    "save_model",
    "NeuroFuzzyConfig",
    "cluster_learn",
    "neurofuzzy_learn",
    "wm_learn",
    "GAUSSIAN",
    "TRIANGULAR",
    "Partition",
    "activations",
]
