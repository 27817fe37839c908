"""Self-tests of the benchmark.  Run from the repository root::

    python3 -m pytest perfbench -q

They check the benchmark, not the program: metric names and units agree
between ``BENCHMARK.json`` and ``run.py``, tracing does not change what
is detected, the deterministic counts repeat exactly for a fixed seed,
the result line keeps its contract, and a tree without ``src/`` fails
without printing a result.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from layers import GcMonitor, Tracer
from run import END_TO_END, PER_LAYER, per_layer_metrics
from workloads import WORKLOADS, SimTree, mismatches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_the_spec():
    spec = _spec()
    for name in [*END_TO_END, *PER_LAYER, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_mismatches_counts_missing_extra_and_order():
    assert mismatches([1, 2, 3], [1, 2, 3]) == 0
    assert mismatches([1, 2], [1, 2, 3]) == 1
    assert mismatches([1, 2, 3, 4, 4], [1, 2, 3]) == 2
    assert mismatches([2, 1], [1, 2]) == 1


def _traced_pair(workload, seed):
    gc_monitor = GcMonitor()
    plain = workload.rep(seed, None, gc_monitor, 1.0)
    tracer = Tracer()
    traced = workload.rep(seed, tracer, gc_monitor, 1.0)
    return plain, traced, tracer


def test_traced_and_untraced_runs_detect_the_same_solutions():
    plain, traced, tracer = _traced_pair(SimTree(epochs=4, degree=2, height=3), seed=3)
    assert plain.failed == 0 and traced.failed == 0
    assert plain.detections > 0
    assert traced.signatures == plain.signatures
    assert tracer.span_count > 0
    metrics = per_layer_metrics([plain], [traced], [tracer])
    assert set(metrics) == set(PER_LAYER)
    assert metrics["detect.core.offers"] > 0


def test_load_open_traced_run_matches_untraced():
    workload = WORKLOADS["load_open"]()
    plain, traced, tracer = _traced_pair(workload, seed=5)
    assert plain.failed == 0 and traced.failed == 0
    assert traced.signatures == plain.signatures
    assert tracer.call_count("load.dispatch") > 0


def test_sim_tree_counts_repeat_exactly_for_a_fixed_seed():
    workload = WORKLOADS["sim_tree"]()
    runs = []
    for _ in range(2):
        tracer = Tracer()
        rep = workload.rep(7, tracer, GcMonitor(), 1.0)
        assert rep.failed == 0
        runs.append(
            (
                rep.messages / rep.detections,
                rep.layer["sim.kernel.events"],
                rep.layer["detect.core.comparisons_per_offer"],
            )
        )
    assert runs[0] == runs[1]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_result_line_keeps_its_contract():
    out = _run(ROOT, "--workload", "load_open", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tree_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "sim_tree", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
