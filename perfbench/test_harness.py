"""Smoke tests of the benchmark harness at a tiny size.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import orekf.runner  # noqa: E402
from perfbench import harness, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Size  # noqa: E402

TINY = Size(campaign_duration=2.0, runs_per_cell=1, crowded_duration=2.0,
            replay_duration=3.0, warmup_duration=1.0)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _digest(name, seed, work_dir):
    wl = WORKLOADS[name](TINY, 1, work_dir)
    wl.setup(seed)
    res = wl.run_op(wl.op_seed(seed, 0))
    assert res.failures == []
    return res.digest


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    """A plain and a traced tiny run of each workload."""
    return {trace: harness.run_benchmark(request.param, 3, 0.01, trace, ROOT,
                                         TINY)
            for trace in (False, True)}


def test_every_metric_is_printed_with_its_unit(runs):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, report = runs[trace]
        assert result["correct"], report["failures"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
        for m in SPEC[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        json.dumps(result, allow_nan=False)


def test_layer_self_times_add_up_to_the_traced_time(runs):
    result, report = runs[True]
    for lane in report["accounting"].values():
        assert lane["sum_self_s"] == pytest.approx(lane["span_s"], abs=1e-6)
    metrics = result["metrics"]
    assert metrics["trace.wall_s"]["value"] > 0
    assert metrics["propagation.steps"]["value"] > 0


def test_same_seed_same_digest_and_other_seed_other_inputs(tmp_path):
    for name in WORKLOADS:
        first = _digest(name, 5, tmp_path / f"{name}-a")
        assert _digest(name, 5, tmp_path / f"{name}-b") == first
        assert _digest(name, 6, tmp_path / f"{name}-c") != first


def test_digests_do_not_depend_on_workload_order(tmp_path):
    # RunConfig.trajectory() writes the duration into the shared preset,
    # and the workloads run with different durations.
    order = sorted(WORKLOADS)
    forward = {n: _digest(n, 2, tmp_path / f"f-{n}") for n in order}
    backward = {n: _digest(n, 2, tmp_path / f"b-{n}") for n in order[::-1]}
    assert forward == backward


def test_tracer_puts_every_name_back(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    original = orekf.runner.propagate_batch
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert orekf.runner.propagate_batch is not original
            assert len(tracer.rebound()) == len(tracing.PROBES) + 1
            1 / 0
    assert orekf.runner.propagate_batch is original
    assert tracer.rebound() == []


def test_replay_check_catches_changed_output(tmp_path):
    wl = WORKLOADS["replay"](TINY, 1, tmp_path)
    wl.setup(1)
    original = tmp_path / f"original-{wl.configs[0].filter}" / "run.csv"
    original.write_text(original.read_text() + "\n")
    assert any("differs" in f for f in wl.run_op(0).failures)


def test_campaign_check_catches_a_wrong_pool_result(tmp_path):
    wl = WORKLOADS["campaign"](TINY, 1, tmp_path)
    wl.setup(1)
    res = wl.run_op(7)
    assert wl.verify([(0, res)], 0) == {}
    for _, sweep in res.sweeps:
        for key, (seed, met) in sweep.items():
            sweep[key] = (seed, dict(met, rmse_position_m=0.0))
    assert wl.verify([(0, res)], 0)[0]


def test_tail_keeps_ten_samples_beyond_it():
    assert harness.tail(list(range(1, 31))) == (20, 100.0 * 20 / 30, 30)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_exits_without_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crowded",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
