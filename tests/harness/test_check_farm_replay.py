"""The checks in tools/check_farm_replay.py (CI runs the tool end to end
against a real farm)."""

import importlib.util
import os

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), "..", "..", "tools",
                     "check_farm_replay.py")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("check_farm_replay", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def jobs(hit, *digests):
    return [(f"j{i}", hit, d) for i, d in enumerate(digests)]


STORE = {"service.store.hits": 2, "service.store.puts": 2}


def test_faithful_replay_passes(tool):
    assert tool.check(jobs(False, "a", "b"), jobs(True, "a", "b"),
                      STORE, 2) == []


def test_forced_digest_mismatch_fails_the_tool(tool, monkeypatch, capsys):
    monkeypatch.setattr(tool, "replay", lambda specs, store: (
        jobs(False, *"abcdef"), jobs(True, *"abcdeX"),
        {"service.store.hits": 6, "service.store.puts": 6}))
    assert tool.main() == 1
    err = capsys.readouterr().err
    assert err.startswith("digest mismatch: j5=f j5=X")


def test_cache_misses_and_store_counts_are_problems(tool):
    assert tool.check(jobs(True, "a"), jobs(True, "a"), STORE, 1) == [
        "first pass was served from the store",
        "service.store.hits = 2, expected 1",
        "service.store.puts = 2, expected 1"]
    assert tool.check(jobs(False, "a"), jobs(False, "a"),
                      {"service.store.hits": 1, "service.store.puts": 1},
                      1) == [
        "second pass was not served entirely from the store"]


def test_batch_is_the_six_jacobi_specs(tool):
    specs = tool.batch()
    assert [(s.params.num_processors, s.interface) for s in specs] == [
        (p, i) for p in (1, 2, 4) for i in ("cni", "standard")]
