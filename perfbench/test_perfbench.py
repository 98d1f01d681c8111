"""The benchmark's own tests.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from metrics import END_TO_END, OWNER, PER_LAYER  # noqa: E402
from plan import WORKLOADS, make_plan, plan_hash  # noqa: E402


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_plan(workload):
    a, b = make_plan(workload, 17), make_plan(workload, 17)
    assert a == b
    assert plan_hash(a) == plan_hash(b)
    assert plan_hash(make_plan(workload, 18)) != plan_hash(a)


def test_declared_names_match_the_code():
    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_layer_map_places_every_per_layer_metric_once():
    with open(os.path.join(HERE, "layer_map.json")) as fh:
        groups = json.load(fh)["groups"]
    placed = [m for g in groups for m in g["metrics"]]
    assert sorted(placed) == sorted(PER_LAYER)
    for g in groups:
        assert {OWNER[m] for m in g["metrics"]} == {g["owner"]}
        for move in g["moves"]:
            assert move["metric"] in END_TO_END
            assert move["workload"] in WORKLOADS
        assert set(g["still"]) <= set(WORKLOADS)


@pytest.mark.parametrize("kind,on_edt,wrong", [
    ("inline", True, 0), ("inline", False, 1),
    ("await", True, 1), ("nowait", True, 1), ("default", True, 1), ("await", False, 0),
])
def test_gui_body_placement_is_checked_by_handler_kind(kind, on_edt, wrong):
    import threading

    from gui_offload import Recorder

    rec = Recorder(threading.get_ident() if on_edt else -1)
    rec.body(0, 0, lambda us: None, kind)
    assert rec.wrong == wrong


@pytest.mark.parametrize("trace,names", [(0, END_TO_END), (1, PER_LAYER)])
def test_printed_metric_names_match_benchmark_json(trace, names):
    out = _run("--workload", "fanout_burst", "--seed", "3", "--seconds", "1",
               "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("plan workload=fanout_burst seed=3 sha256=")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "gui_offload", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert "metrics" not in out.stdout
