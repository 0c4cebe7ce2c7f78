"""Tests of the benchmark's correctness gate.

    python3 -m pytest perfbench/test_gate.py

They use the cheapest pinned run (a 2-node ping-pong, well under a
second), so they finish in a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import DEFAULT_SEED, FarmMessaging, Gate  # noqa: E402
from repro.apps import PingPongConfig  # noqa: E402
from repro.harness import RunFailure, execute_run  # noqa: E402

LABEL = "pingpong-msg-2048/cni"


def _pins():
    doc = json.loads((ROOT / "perfbench" / "pinned.json").read_text())
    return doc["digests"]["farm_messaging"]


def _item(tmp_path, seed=DEFAULT_SEED):
    items = FarmMessaging(seed, str(tmp_path)).items
    return next(item for item in items if item.label == LABEL)


def test_pinned_spec_passes(tmp_path):
    item = _item(tmp_path)
    gate = Gate(_pins(), DEFAULT_SEED)
    assert gate.check(item, execute_run(item.spec)) is None


def test_perturbed_spec_trips_the_gate(tmp_path):
    item = _item(tmp_path)
    perturbed = dataclasses.replace(
        item.spec, workload=PingPongConfig(rounds=5, message_bytes=2048))
    problem = Gate(_pins(), DEFAULT_SEED).check(item, execute_run(perturbed))
    assert problem is not None and "pinned" in problem


def test_unseeded_run_is_pinned_at_every_seed(tmp_path):
    item = _item(tmp_path, seed=7)
    assert not item.seeded
    perturbed = dataclasses.replace(
        item.spec, workload=PingPongConfig(rounds=5, message_bytes=2048))
    assert Gate(_pins(), 7).check(item, execute_run(perturbed)) is not None


def test_seeded_run_at_other_seed_must_repeat(tmp_path):
    items = FarmMessaging(7, str(tmp_path)).items
    item = next(i for i in items if i.label == "halo-p8-cell_loss/cni")
    assert item.seeded
    gate = Gate(_pins(), 7)
    first = execute_run(item.spec)
    assert gate.check(item, first) is None
    assert gate.check(item, execute_run(item.spec)) is None
    other = execute_run(_item(tmp_path).spec)
    assert "earlier repeat" in gate.check(item, other)


def test_errors_and_failures_count_as_failed(tmp_path):
    item = _item(tmp_path)
    gate = Gate(_pins(), DEFAULT_SEED)
    assert "raised" in gate.check(item, RuntimeError("boom"))
    failure = RunFailure(item.spec.describe(), "DeliveryFailed", "gave up")
    assert "DeliveryFailed" in gate.check(item, failure)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_dsm",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
