"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q labbench
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
from layers import per_layer, units  # noqa: E402
from semiclass_lab import experiments, measures  # noqa: E402
from semiclass_lab.config import ExperimentConfig  # noqa: E402
from semiclass_lab.experiments import RunReport  # noqa: E402
from spans import Span, Tracer, layer_totals, read_spans  # noqa: E402


def test_wrap_returns_result_and_reraises_unchanged():
    tracer = Tracer()
    double = tracer.wrap("m.double", lambda x: 2 * x)
    assert double(21) == 42
    err = ValueError("boom")

    def fail():
        raise err

    with pytest.raises(ValueError) as info:
        tracer.wrap("m.fail", fail)()
    assert info.value is err
    assert [s.name for s in tracer.spans] == ["m.double", "m.fail"]
    assert all(s.end >= s.start for s in tracer.spans)


def test_wrap_counts_from_bound_arguments():
    tracer = Tracer()
    f = tracer.wrap("m.f", lambda pts, T=3: None,
                    count=lambda a, r: {"steps": len(a["pts"]) * (a["T"] + 1)})
    f([1, 2])
    f([1], T=1)
    assert layer_totals(tracer.spans)["m.f"]["steps"] == 8 + 2


def test_self_time_excludes_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.region("outer"):
        with tracer.region("inner"):
            pass
        with tracer.region("inner"):
            pass
    totals = layer_totals(tracer.spans)
    assert totals["outer"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert totals["inner"] == {"calls": 2, "s": 4.0, "self_s": 4.0}


def test_failing_check_is_counted():
    report = RunReport("suite")
    report.add("holds", True, 1.0)
    report.add("breaks", False, 2.0)
    results = [{"checks": child.check_records([report])}]
    assert run.summarize_checks(results) == (2, 1, ["suite/breaks"])


def _small(region, seed, out):
    reports = []
    for name in ("egorov", "scar-construction"):
        cfg = ExperimentConfig(experiment=name, N=32, seed=seed, out_dir=str(out / name))
        with region(f"experiments.{name}"):
            reports.append(experiments.run_experiment(cfg))
    return reports


def test_traced_run_gives_identical_digests(tmp_path, monkeypatch):
    monkeypatch.setitem(child.WORKLOADS, "small", _small)
    original = experiments.husimi
    plain = child.run("small", 0, tmp_path / "plain", traced=False)
    traced = child.run("small", 0, tmp_path / "traced", traced=True)
    assert plain["digests"] and plain["digests"] == traced["digests"]
    assert experiments.husimi is original is measures.husimi
    names = {s.name for s in read_spans(tmp_path / "traced" / "spans.jsonl")}
    assert {"experiments.egorov", "measures.husimi",
            "torus_quantum.coherent_state"} <= names
    assert not (tmp_path / "plain" / "spans.jsonl").exists()


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == dict(units(), **run.RUN_LAYER_UNITS)
    assert set(per_layer([Span("unused", 0.0, 1.0)])) == set(units())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
