"""Tests of the benchmark itself, on the tiny-sized workload variant.

Run from the checkout root::

    python3 -m pytest -q hobbitbench/tests
"""

import contextlib
import dataclasses
import functools
import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from hobbitbench import host
from hobbitbench import run as bench
from hobbitbench import workloads
from hobbitbench.spans import (
    Ledger, Span, SpanRecorder, layer_self_times, self_times,
)
from repro.aggregation import pipeline as aggregation_pipeline
from repro.aggregation.identical import ColumnarAggregationUnsupported
from repro.obs import current_metrics, metrics_scope

ROOT = bench.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(workload, trace=0, seed=2016):
    """Run one tiny workload in-process; return its parsed result."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main([
            "--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--size", "tiny",
        ])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@functools.lru_cache(maxsize=None)
def _bench_once(workload, trace=0, seed=2016):
    """:func:`_bench` for tests that leave the program untouched."""
    return _bench(workload, trace, seed)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# -- names and the BENCHMARK.json contract ------------------------------------


def test_metric_names_and_units_are_well_formed():
    tables = {**workloads.END_TO_END, **workloads.PER_LAYER}
    assert len(tables) == len(workloads.END_TO_END) + len(workloads.PER_LAYER)
    for name, (unit, better) in tables.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
        assert better in ("higher", "lower"), name


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert set(bench.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    for section, table in (("end_to_end", workloads.END_TO_END),
                           ("per_layer", workloads.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[section]} \
            == table, section
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_plan_covers_every_workload_and_layer_metric():
    with open(os.path.join(ROOT, "hobbitbench", "plan.json"),
              encoding="utf-8") as handle:
        plan = json.load(handle)
    assert set(plan["workloads"]) == set(bench.WORKLOAD_NAMES)
    predicted = {
        name for row in plan["predictions"] for name in row["metrics"]
    }
    assert predicted == set(workloads.PER_LAYER)
    end_to_end = set(workloads.END_TO_END)
    for row in plan["predictions"]:
        assert set(row["moves"]) <= end_to_end | {"(diagnostic)"}, row


# -- span arithmetic ----------------------------------------------------------


def _span(span_id, name, parent, start, end):
    return Span(span_id, name, parent, "run", float(start), float(end))


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, "iteration", None, 0, 10),
        _span(1, "core.campaign", 0, 1, 4),
        _span(2, "store.verify", 1, 2, 3),
        _span(3, "core.strict_het", 0, 3, 6),   # overlaps span 1
        _span(4, "probing.scan", 0, 9, 12),     # overhangs the parent
    ]
    own = self_times(tree)
    assert own[0] == pytest.approx(10 - 5 - 1)  # [1, 6] and [9, 10]
    assert own[1] == pytest.approx(3 - 1)
    assert own[2] == pytest.approx(1)
    assert own[3] == pytest.approx(3)
    assert own[4] == pytest.approx(3)
    assert layer_self_times(tree) == pytest.approx(
        {"iteration": 4, "core": 5, "store": 1, "probing": 3}
    )


def test_recorder_nests_spans_and_finds_descendants():
    recorder = SpanRecorder("r1")
    with recorder.span("setup"):
        pass
    with recorder.span("iteration") as root:
        with recorder.span("core.campaign"):
            with recorder.span("store.verify"):
                pass
        with recorder.span("analysis.score"):
            pass
    with recorder.span("netsim.build"):
        pass
    names = [span.name for span in recorder.descendants(root)]
    assert names == ["core.campaign", "store.verify", "analysis.score"]
    assert recorder.spans[2].parent == root.span_id
    assert recorder.spans[3].parent == 2
    assert all(span.run_id == "r1" for span in recorder.spans)
    assert all(span.end >= span.start for span in recorder.spans)


# -- failures raise fail_ratio ------------------------------------------------


def test_a_fallback_counter_fails_the_call(tmp_path):
    run = workloads.Run("cold-small", 2016, "tiny", str(tmp_path))
    with metrics_scope():
        with run.call("core.campaign"):
            pass
        with run.call("core.campaign"):
            current_metrics().count("campaign.fastpath_fallback")
    assert (run.ledger.attempted, run.ledger.failed) == (2, 1)
    assert run.ledger.fail_ratio == 0.5


def test_ledger_counts_checks():
    ledger = Ledger()
    assert ledger.check("ok", True)
    assert not ledger.check("bad", False, "why")
    assert ledger.failures == ["bad: why"]
    assert ledger.fail_ratio == 0.5


def test_forced_aggregation_fallback_lowers_pass_ratio(monkeypatch):
    def unsupported(lasthop_sets):
        raise ColumnarAggregationUnsupported("forced by the test")

    monkeypatch.setattr(
        aggregation_pipeline, "group_identical_columnar", unsupported
    )
    result = _bench("campaign-scale")
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["pass_ratio"]["value"] < 1.0


def test_failed_check_lowers_pass_ratio(monkeypatch):
    spec = workloads.SIZES["tiny"]["cold-small"]
    monkeypatch.setitem(
        workloads.SIZES["tiny"], "cold-small",
        dataclasses.replace(spec, floors=(1.01, 0.0, 0.0)),
    )
    result = _bench("cold-small")
    # One failed precision floor per world measured.
    assert not result["correct"] and result["failed"] == 2
    assert result["metrics"]["pass_ratio"]["value"] == pytest.approx(
        1 - 2 / result["attempted"]
    )


# -- every workload emits every metric ----------------------------------------


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_workload_emits_every_end_to_end_metric(workload):
    result = _bench_once(workload)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(workloads.END_TO_END)
    for name, entry in metrics.items():
        assert entry["unit"] == workloads.END_TO_END[name][0]
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = _bench_once(workload, trace=1)
    assert result["correct"], result
    assert set(result["metrics"]) == set(workloads.PER_LAYER)
    stem = os.path.join(bench.WORKDIR, f"{workload}-2016")
    with open(stem + ".spans.json", encoding="utf-8") as handle:
        spans = json.load(handle)
    assert {span["run_id"] for span in spans} == {f"{workload}/2016"}
    assert os.path.getsize(stem + ".trace.jsonl") > 0


def test_same_seed_same_counts_and_second_seed_passes():
    first = _bench_once("campaign-scale")["metrics"]
    again = _bench("campaign-scale")["metrics"]
    other = _bench_once("campaign-scale", seed=2017)
    exact = ("probes", "probes_per_slash24", "homog_precision",
             "homog_recall", "block_purity")
    for name in exact:
        assert first[name] == again[name], name
    assert other["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "hobbitbench"),
                    tmp_path / "hobbitbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "hobbitbench/run.py", "--workload", "cold-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_host_speed_factor_is_robust_to_one_stray_sample():
    sample = host.calibrate()
    assert 0 < sample < 5
    reference = host.REFERENCE_S
    assert host.speed_factor([reference / 2, reference / 2, 9.0]) == 2.0
