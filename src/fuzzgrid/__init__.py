"""Grid-partition fuzzy models learned from data, plus a deterministic
noise-sensitivity benchmark around the plane z = x + y.

The names below load from their submodules on first use, so importing the
package alone loads no numpy. That leaves numpy's BLAS thread count to
whoever loads it first: a program that uses the library, or the command
line, which loads it with one thread (see fuzzgrid.cli).
"""

import importlib as _importlib

# The public names, by the submodule that defines them.
_EXPORTS = {
    "datagen": (
        "CLUSTERED",
        "UNIFORM",
        "DataSpec",
        "Dataset",
        "Rng",
        "make_plane_dataset",
        "read_dataset",
        "write_dataset",
    ),
    "evaluation": (
        "DiffReport",
        "difference_surface",
        "grid_axes",
        "model_error",
        "plane_truth",
        "write_diff_report",
    ),
    "inference": ("FuzzyModel", "infer", "load_model", "rule_diff", "save_model"),
    "learning": ("NeuroFuzzyConfig", "cluster_learn", "neurofuzzy_learn", "wm_learn"),
    "membership": ("GAUSSIAN", "TRIANGULAR", "Partition", "activations"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # Looked up at every access and never stored here, so a name always is
    # what its submodule holds now, also while a tool has rebound it there.
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
