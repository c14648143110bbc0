"""Fast smoke test of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import bench
import checks
import run
import speed
from modroute import engine

HERE = Path(__file__).resolve().parent
TINY = [
    bench.Workload("tiny-missions", "missions", grid=4, agents=2, missions=2),
    bench.Workload("tiny-batch", "batch", grid=4, agents=2, missions=4, trials=2),
    bench.Workload("tiny-replay", "replay", grid=4, agents=2, missions=2, sweep=(0.5, 1.0)),
]


def declared(section: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def units(report: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in report["metrics"].items()}


@pytest.fixture(autouse=True)
def small_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SPAN_DIR", tmp_path)
    monkeypatch.setattr(bench, "SETUP_MIN_S", 0.0)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_untraced_and_traced_runs_report_every_metric_and_agree(workload, tmp_path):
    report, detail = bench.run(workload, seed=3, seconds=0, trace=False)
    assert report["correct"] and report["failed"] == 0 and report["attempted"] > 0
    assert units(report) == declared("end_to_end")
    assert all(metric["value"] > 0 for metric in report["metrics"].values())
    assert detail["failed_frac"] == 0.0

    traced, traced_detail = bench.run(workload, seed=3, seconds=0, trace=True)
    assert traced["correct"] and traced_detail["traced_digest_matches"]
    assert traced_detail["digest"] == detail["digest"]
    assert units(traced) == declared("per_layer")
    assert (tmp_path / f"spans-{workload.name}-seed3.tsv.gz").is_file()
    calls = {name: m["value"] for name, m in traced["metrics"].items() if name.endswith(".calls")}
    assert calls["engine.run_mission.calls"] > 0 and calls["paths.PathCache.k_shortest.calls"] > 0
    if workload.kind == "replay":
        assert calls["paths.yen_k_shortest.calls"] == 0
    if workload.kind == "batch":
        assert calls["baselines.run_nonmodular_baseline.calls"] == workload.missions


def test_cli_prints_detail_then_result(monkeypatch, capsys):
    monkeypatch.setitem(bench.WORKLOADS, "tiny-batch", TINY[1])
    assert run.main(["--workload", "tiny-batch", "--seed", "0", "--seconds", "0", "--trace", "0"]) == 0
    detail, result = (json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert units(result) == declared("end_to_end")
    assert len(detail["digest"]) == 64


def test_step_cap_reaches_runs_inside_run_batch():
    report, detail = bench.run(replace(TINY[1], step_cap=1), seed=3, seconds=0, trace=False)
    assert report["correct"]
    assert detail["completed_frac"] == 0.0


def test_speed_meter_scales_each_unit_by_the_probes_around_it(monkeypatch):
    probe_s = [0.010, 0.005, 0.0025]
    ticks = iter(t for d in probe_s for t in (0.0, d))
    monkeypatch.setattr(speed, "clock", lambda: next(ticks))
    monkeypatch.setattr(speed, "reference", lambda: None)
    monkeypatch.setattr(speed, "REFERENCE_S", 0.005)
    meter = speed.SpeedMeter()
    meter.add_unit(0.06)
    meter.add_step(0.003)
    meter.add_unit(0.05)  # 0.11 s since the first probe: probes again
    meter.add_unit(0.03)
    units, steps = meter.close()  # the closing probe
    assert list(meter.probe_s) == probe_s
    assert units == pytest.approx([0.04, 0.05 * 2 / 3, 0.03 * 4 / 3])
    assert steps == pytest.approx([0.002])

    raw = speed.SpeedMeter(normalise=False)
    raw.add_unit(0.5)
    assert raw.close() == ([0.5], []) and len(raw.probe_s) == 0


def _real_result():
    prep = bench.build(TINY[0], seed=3)
    mission, run_seed = prep.missions[0]
    return mission, engine.run_mission(mission, bench.PARAMS, seed=run_seed)


def _jump(nodes: tuple[int, ...]) -> tuple[int, ...]:
    """The same path, but its first move lands on a node two grid rows away."""
    far = (nodes[0] + 8) % 16
    return (nodes[0], far) + nodes[2:]


@pytest.mark.parametrize("corrupt", [
    lambda r: replace(r, total_cost=r.total_cost + 1.0),
    lambda r: replace(r, steps_taken=r.steps_taken + 1),
    lambda r: replace(r, per_agent_paths=(_jump(r.per_agent_paths[0]),) + r.per_agent_paths[1:]),
    lambda r: replace(r, per_agent_paths=tuple((p[0],) * len(p) for p in r.per_agent_paths)),
], ids=["cost-sum", "step-count", "non-edge-move", "targets-missed"])
def test_checks_reject_corrupted_results(corrupt):
    mission, result = _real_result()
    assert checks.violations(mission, result) == []
    assert checks.violations(mission, corrupt(result))


@pytest.mark.parametrize("fault", ["corrupt", "raise"])
def test_faulty_results_count_as_failed(fault, monkeypatch):
    original = engine.run_mission

    def faulty(*args, **kwargs):
        result = original(*args, **kwargs)
        if fault == "raise":
            raise RuntimeError("injected")
        return replace(result, total_cost=result.total_cost + 1.0)

    monkeypatch.setattr(engine, "run_mission", faulty)
    report, detail = bench.run(TINY[0], seed=3, seconds=0, trace=False)
    assert not report["correct"]
    assert report["failed"] == report["attempted"] == TINY[0].missions
    assert detail["failed_frac"] == 1.0


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "batch-8x8", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
