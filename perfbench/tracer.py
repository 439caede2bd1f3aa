"""Span tracer that wraps fuzzgrid's public functions from outside the package.

Every public function defined in one of the layer modules, plus
``Partition.degrees``, is replaced by a wrapper that records one span per
call: its name, the span it was called from, start and end times
(``time.perf_counter_ns``) and one integer of work done (examples, bytes,
grid points or a nonzero exit, depending on the function). Spans stay in
flat in-memory arrays until the run ends.

The package binds functions by name across modules (``from .datagen import
make_plane_dataset`` in ``cli``, ``cluster_learn`` called from
``neurofuzzy_learn``, ``grid_values`` and ``rule_diff`` from
``difference_surface``), so each wrapper is rebound in every ``fuzzgrid``
namespace that holds the original object, not only in its home module.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import sys
import time
from array import array

LAYERS = ("datagen", "membership", "learning", "inference", "evaluation", "cli")

# Class methods traced as if they were layer functions: (layer, class, method).
METHODS = (("membership", "Partition", "degrees"),)

# plane_truth is the per-point ground-truth callback of model_error: a span
# per grid point would cost more than the call it measures.
SKIP = frozenset({"evaluation.plane_truth"})

LEARNERS = ("learning.wm_learn", "learning.cluster_learn", "learning.neurofuzzy_learn")


def _path_size(arguments, result):
    return os.path.getsize(arguments["path"])


def _data_size(arguments, result):
    return len(arguments["data"])


# Work counted per span, as one integer taken from the call's bound
# arguments and its result.
COUNTERS = {
    "datagen.make_plane_dataset": lambda arguments, result: len(result),
    "datagen.write_dataset": _path_size,
    "datagen.read_dataset": _path_size,
    "inference.save_model": _path_size,
    "inference.load_model": _path_size,
    "learning.wm_learn": _data_size,
    "learning.cluster_learn": _data_size,
    "learning.neurofuzzy_learn": _data_size,
    "evaluation.grid_values": lambda arguments, result: int(result.size),
    "evaluation.write_diff_report": _path_size,
    "cli.main": lambda arguments, result: int(result != 0),
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.items = array("q")
        self.raised = array("q")
        self._stack = [-1]
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._rebound: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.name)

    # -- installation ------------------------------------------------------

    def targets(self):
        """(span name, owner, attribute, function) for everything traced."""
        out = []
        for layer in LAYERS:
            module = importlib.import_module(f"fuzzgrid.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in SKIP
                ):
                    out.append((name, module, attr, obj))
        for layer, cls_name, method in METHODS:
            module = importlib.import_module(f"fuzzgrid.{layer}")
            cls = getattr(module, cls_name)
            out.append((f"{layer}.{method}", cls, method, vars(cls)[method]))
        return out

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, fn in self.targets():
            wrapper = self._wrap(fn, name)
            self._wrappers[id(fn)] = (fn, wrapper)
            if inspect.isclass(owner):
                self._rebind(owner, attr, fn, wrapper)
        # Rebind every module-level name that holds a traced function, in the
        # package and in each of its submodules.
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "fuzzgrid" or key.startswith("fuzzgrid."))
        ]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._rebind(module, attr, obj, entry[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()
        self._wrappers.clear()

    def wrap_call(self, name: str, fn):
        """fn wrapped to record a span named name, e.g. one per benchmark op."""
        return self._wrap(fn, name)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._rebound.append((owner, attr, original))

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count is not None else None
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        items, raised, stack = self.items, self.raised, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            items.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised.append(i)
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                items[i] = count(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per span: duration minus the time its direct children cover.

        Calls run on one thread, so a span's children are disjoint
        intervals inside it and the covered time is their summed duration.
        """
        start, end, parent = self.start, self.end, self.parent
        out = [end[i] - start[i] for i in range(len(start))]
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                out[p] -= end[i] - start[i]
        return out

    def _has_ancestor(self, i: int, name_ids: set) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] in name_ids:
                return True
            p = self.parent[p]
        return False

    def totals(self) -> dict:
        """Per span name: calls, summed self and total time, summed work.

        ``errors`` counts spans that raised or, for ``cli.main``, returned
        a nonzero exit code. ``top_items`` sums work over spans with no
        enclosing learner, so examples a nested ``cluster_learn`` sees
        inside ``neurofuzzy_learn`` are not counted twice.
        """
        self_ns = self.self_ns()
        learner_ids = {self._name_ids[n] for n in LEARNERS if n in self._name_ids}
        raised = set(self.raised)
        out = {
            name: {
                "calls": 0,
                "self_ns": 0,
                "total_ns": 0,
                "items": 0,
                "top_items": 0,
                "errors": 0,
            }
            for name in self.names
        }
        for i in range(len(self.name)):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["self_ns"] += self_ns[i]
            row["total_ns"] += self.end[i] - self.start[i]
            row["items"] += self.items[i]
            if self.name[i] not in learner_ids or not self._has_ancestor(i, learner_ids):
                row["top_items"] += self.items[i]
            if i in raised:
                row["errors"] += 1
        if "cli.main" in out:
            out["cli.main"]["errors"] += out["cli.main"]["items"]
        return out

    def write(self, path) -> None:
        """All spans as gzipped CSV: name, parent index, start, end, work."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,parent,start_ns,end_ns,items\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                    f"{self.start[i]},{self.end[i]},{self.items[i]}\n"
                )
