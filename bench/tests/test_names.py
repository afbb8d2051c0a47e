"""BENCHMARK.json, bench.metrics and what the workers emit name the same things."""

import json
import re

from bench import ROOT, metrics
from bench.workloads import GATED, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _doc():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_benchmark_json_has_exactly_the_contract_keys():
    doc = _doc()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["paths"] == ["bench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert all(set(w) == {"name", "why"} for w in doc["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in doc["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in doc["per_layer"])


def test_gated_workloads_match():
    doc = _doc()
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in GATED
    ]
    assert 2 <= len(GATED) <= 8
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)


def test_metric_tables_match():
    doc = _doc()
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]


def test_names_units_and_bounds_are_legal():
    every = [*metrics.END_TO_END, *metrics.PER_LAYER]
    names = [m.name for m in every] + [w.name for w in WORKLOADS]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m.unit) for m in every)
    assert all(m.better in ("lower", "higher") for m in every)
    assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)
    setup = metrics.END_TO_END_BY_NAME["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in metrics.END_TO_END)
    assert 1 <= len(metrics.PER_LAYER) <= 128


def test_per_layer_names_carry_their_module():
    modules = {"zoo", "converter", "graph", "runtime", "ops", "core", "serving", "obs"}
    assert {m.name.split(".")[0] for m in metrics.PER_LAYER} == modules
