"""Self-tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench -q
"""

import json
import sys

import pytest

import run
import workloads
from tracer import Tracer

sys.path.insert(0, str(run.SRC))

import fuzzgrid  # noqa: E402
import fuzzgrid.cli  # noqa: E402
import fuzzgrid.learning  # noqa: E402
from fuzzgrid import DataSpec, NeuroFuzzyConfig, Partition, make_plane_dataset  # noqa: E402


def synthetic_tracer(spans):
    """A tracer holding (name, parent, start, end, items) spans, recorded by hand."""
    tracer = Tracer()
    for name, parent, start, end, items in spans:
        tracer.name.append(tracer._name_id(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.items.append(items)
    return tracer


def test_self_time_subtracts_nested_children():
    # neurofuzzy_learn [0, 100] holds cluster_learn [10, 50] and a degrees
    # call [60, 70]; cluster_learn holds two degrees calls.
    tracer = synthetic_tracer(
        [
            ("learning.neurofuzzy_learn", -1, 0, 100, 20),
            ("learning.cluster_learn", 0, 10, 50, 20),
            ("membership.degrees", 1, 15, 20, 0),
            ("membership.degrees", 1, 30, 42, 0),
            ("membership.degrees", 0, 60, 70, 0),
        ]
    )
    assert tracer.self_ns() == [100 - 40 - 10, 40 - 5 - 12, 5, 12, 10]
    totals = tracer.totals()
    assert totals["learning.neurofuzzy_learn"]["self_ns"] == 50
    assert totals["learning.cluster_learn"]["self_ns"] == 23
    assert totals["membership.degrees"] == {
        "calls": 3, "self_ns": 27, "total_ns": 27, "items": 0, "top_items": 0, "errors": 0,
    }
    # The nested cluster_learn sees the same examples: counted once.
    assert totals["learning.cluster_learn"]["items"] == 20
    assert totals["learning.cluster_learn"]["top_items"] == 0
    assert totals["learning.neurofuzzy_learn"]["top_items"] == 20


def test_traced_neurofuzzy_spans_nest_and_self_times_add_up():
    data = make_plane_dataset(DataSpec(n=12, seed=3))
    inputs = [Partition(1, 11, 3, "gaussian") for _ in range(2)]
    output = Partition(2, 22, 5, "triangular")
    tracer = Tracer()
    tracer.install()
    try:
        fuzzgrid.learning.neurofuzzy_learn(data, inputs, output, NeuroFuzzyConfig(epochs=2))
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name]
    assert names[0] == "learning.neurofuzzy_learn"
    assert names[1] == "learning.cluster_learn"
    assert tracer.parent[1] == 0
    degree_parents = {
        names[tracer.parent[i]] for i, name in enumerate(names) if name == "membership.degrees"
    }
    assert degree_parents == {"learning.neurofuzzy_learn", "learning.cluster_learn"}
    # 2 x 12 degree calls inside cluster_learn, 2 x 12 for the weights.
    assert names.count("membership.degrees") == 48
    self_ns = tracer.self_ns()
    assert all(t >= 0 for t in self_ns)
    assert sum(self_ns) == tracer.end[0] - tracer.start[0]
    totals = tracer.totals()
    assert totals["learning.neurofuzzy_learn"]["top_items"] == 12
    assert totals["learning.cluster_learn"]["top_items"] == 0


def test_tracer_rebinds_every_importing_namespace_and_restores():
    originals = {
        "cli": fuzzgrid.cli.make_plane_dataset,
        "package": fuzzgrid.make_plane_dataset,
        "learning": fuzzgrid.learning.cluster_learn,
        "degrees": Partition.degrees,
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert fuzzgrid.cli.make_plane_dataset is not originals["cli"]
        assert fuzzgrid.make_plane_dataset is fuzzgrid.cli.make_plane_dataset
        assert sys.modules["fuzzgrid.datagen"].make_plane_dataset is fuzzgrid.make_plane_dataset
        assert fuzzgrid.learning.cluster_learn is not originals["learning"]
        assert fuzzgrid.cluster_learn is fuzzgrid.learning.cluster_learn
        assert Partition.degrees is not originals["degrees"]
        # fuzzgrid.membership is the function the package re-exports, and
        # it is wrapped too; the module is reached through sys.modules.
        assert fuzzgrid.membership is sys.modules["fuzzgrid.membership"].membership
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert fuzzgrid.cli.make_plane_dataset is originals["cli"]
    assert fuzzgrid.make_plane_dataset is originals["package"]
    assert fuzzgrid.learning.cluster_learn is originals["learning"]
    assert Partition.degrees is originals["degrees"]


def test_main_errors_count_nonzero_exits(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        code = fuzzgrid.cli.main(["eval", str(tmp_path / "missing.model")])
    finally:
        tracer.uninstall()
    assert code != 0
    assert tracer.totals()["cli.main"]["errors"] == 1


def test_p90_refuses_fewer_than_100_samples():
    with pytest.raises(ValueError):
        run.p90(list(range(99)))
    # 100 samples: the 90th smallest, with ten samples beyond it.
    assert run.p90(list(range(1, 101))) == 90
    assert run.p90(list(range(1, 201))) == 180


def test_op_seeds_follow_run_cell(monkeypatch):
    seen = []

    class Report:
        rmse = max_abs = gap_fraction = 0.0
        rule_changes = {"changed": 0, "only_a": 0, "only_b": 0}

    def fake_run_pair(cfg, seed):
        seen.append(seed)
        return None, None, Report()

    monkeypatch.setattr(fuzzgrid.cli, "run_pair", fake_run_pair)
    cfg = fuzzgrid.cli.ExperimentConfig(algorithm="simplified", seed=37)
    fuzzgrid.cli.run_cell(cfg, 70)
    assert seen == [workloads.op_seed(37, k) for k in range(70)]


def test_close_is_exact_on_integers_and_relative_on_floats():
    assert workloads.close([1.0, 3, None, "ab"], [1.0 + 1e-12, 3, None, "ab"])
    assert not workloads.close([1.0], [1.0 + 1e-6])
    assert not workloads.close([3], [4])
    assert not workloads.close([None], [0.0])
    assert not workloads.close({"a": 1}, {"b": 1})


def test_reference_mismatch_fails_the_op(tmp_path):
    workload = workloads.Ladder(fuzzgrid, None, tmp_path)
    summary = workload.reference[0]
    assert workload.check(0, None, summary) == []
    nudged = {"pairs": [list(p) for p in summary["pairs"]]}
    nudged["pairs"][0][0] *= 1 + 1e-12
    assert workload.check(0, None, nudged) == []
    nudged["pairs"][0][0] *= 1 + 1e-6
    assert workload.check(0, None, nudged)


def test_spread_is_iqr_over_median():
    assert run.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_benchmark_json_lists_what_the_run_reports():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = dict(run.TIMED)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_cli_files_checks_report_and_heatmap_layout(tmp_path):
    workload = workloads.CliFiles(fuzzgrid, None, tmp_path)
    raw = workload.op(0)
    summary = workload.summary(raw)
    assert workload.check(0, raw, summary) == []
    report = workload._report()
    heatmap = raw[1][4].splitlines()[:-4]
    res = workload.resolution
    y_major = report.reshape(res, res, 3).transpose(1, 0, 2).reshape(-1, 3)
    assert "report rows are not in x-major grid order" in workload.layout(y_major, heatmap)
    assert "heatmap gaps differ from the report's NaN cells" in workload.layout(
        report, heatmap[::-1]
    )
    nudged = dict(summary, report=summary["report"][:2] + [summary["report"][2] * 1.001, None])
    assert workload.invariants(nudged)


def test_run_refuses_a_workload_without_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "REFERENCE_DIR", tmp_path)
    assert run.main(["--workload", "ladder", "--seconds", "1"]) == 2
