"""Smoke tests of the benchmark itself, at the smallest sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import repeat  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def smallest(monkeypatch):
    monkeypatch.setattr(workloads, "COMPILE_SIZES", ((2, 12),))


def test_pinned_expectations_pass(smallest):
    r = worker.run("compile", seed=1, seconds=0)
    assert r["failures"] == []
    assert r["attempted"] == 7 * len(r["measured"]["walls"])
    assert r["measured"]["setup_s"] > 0


def test_perturbed_expectation_is_a_failed_operation(smallest):
    expect = copy.deepcopy(workloads.EXPECTED["compile"])
    g, gbar, gk, ghnn = expect["compile (2,12)"]
    expect["compile (2,12)"] = (g + 1, gbar, gk, ghnn)
    r = worker.run("compile", seed=1, seconds=0, expect=expect)
    assert r["attempted"] == 7 * len(r["measured"]["walls"])
    assert len(r["failures"]) == len(r["measured"]["walls"])
    assert all(f.startswith("compile (2,12): got (5227,") for f in r["failures"])


def test_raising_operation_is_counted_not_aborting():
    def boom():
        raise RuntimeError("broken")

    tally = worker.Tally()
    ops = [workloads.Op("boom", boom, None), workloads.Op("fine", lambda: 1, 1)]
    *_, ok = tally.run_pass(ops)
    assert tally.attempted == 2
    assert ok == {"fine"}
    assert tally.failures == ["boom: raised RuntimeError: broken"]


def test_reference_scale():
    wall, cpu = worker.reference_block(2, jobs=2)  # one forked child, waited for
    assert wall > 0 and cpu > 0
    assert worker.ref_scale([(1, worker.REF_S), (3, worker.REF_S)]) == pytest.approx(1.0)
    # a host running the loop at half speed halves the scale
    assert worker.ref_scale([(4, 2 * worker.REF_S)]) == pytest.approx(0.5)


def test_seeded_walks_repeat_and_differ():
    import random

    from smachine.main_machine import build_main_machine
    from smachine.toy import toy_even_recognizer

    bundle = build_main_machine(toy_even_recognizer(), m=2, L=12)

    def walk(seed):
        return workloads.random_walk(bundle.machine, bundle.w_word(0, 0), 12, random.Random(seed))[0]

    assert walk(3) == walk(3)
    assert len(walk(3)) == 12
    assert len({walk(s) for s in range(3, 8)}) > 1


def test_unobserved_layer_is_not_reported_as_zero():
    rec = tracing.Recorder()
    m = tracing.layer_metrics(rec, 1.0, 0.0, 1, {"checks.sweep_states"})
    assert m["checks.sweep_states"]["value"] is None
    assert m["checks.states_per_s"]["note"] == "not observed"
    assert m["presentation.relators"]["value"] == 0


def test_traced_run_sees_the_compile_layers():
    # in child processes: installing the wrappers would outlive the test
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "compile", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert res.returncode == 0, res.stderr
    r = json.loads(res.stdout.splitlines()[-1])
    assert r["correct"] and r["failed"] == 0
    layers = r["metrics"]
    assert set(layers) == set(tracing.UNITS)
    assert layers["presentation.relators"]["value"] > 5227 + 1590
    assert layers["trapezia.cells"]["value"] > 5950
    assert layers["checks.sweep_states"]["value"] == 0
    assert all(v["value"] is not None for v in layers.values())


def test_repeat_judges_drift_and_spread():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def runs(wall):
        return [
            {"metrics": {m["name"]: {"value": wall if m["name"] == "wall_s" else 1.0}
                         for m in spec["end_to_end"]}}
            for _ in range(4)
        ]

    rows = {r["metric"]: r["ok"] for r in repeat.judge(spec, [runs(1.0), runs(1.0)])}
    assert all(rows.values())
    rows = {r["metric"]: r["ok"] for r in repeat.judge(spec, [runs(1.0), runs(2.0)])}
    assert not rows["wall_s"] and rows["cpu_s"]


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert "correct" not in res.stdout
