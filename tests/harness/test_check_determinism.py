"""The comparison in tools/check_determinism.py (logic only — CI runs
the tool end to end on real experiments)."""

import argparse
import importlib.util
import os

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), "..", "..", "tools",
                     "check_determinism.py")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("check_determinism", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def runs(*digests, net=True):
    metrics = {"net.crossings": 1} if net else {"cluster.elapsed_ns": 1}
    return [{"digest": d, "metrics": metrics} for d in digests]


def test_identical_digests_pass(tool):
    assert tool.compare({1: runs("a", "b"), 2: runs("a", "b"),
                         4: runs("a", "b")}) == []


def test_mismatched_digest_lists_fail(tool):
    problems = tool.compare({1: runs("a", "b"), 2: runs("a", "c")})
    assert len(problems) == 1 and "diverge" in problems[0]
    assert tool.compare({1: runs("a", "b"), 2: runs("a")})


def test_empty_digest_lists_fail(tool):
    assert tool.compare({1: [], 2: []})


def test_topology_runs_need_the_net_scope(tool):
    plain = {1: runs("a", net=False), 2: runs("a", net=False)}
    assert tool.compare(plain) == []
    assert tool.compare(plain, require_net=True) == [
        "--jobs 1: net.* scope missing", "--jobs 2: net.* scope missing"]


def test_jobs_list_parsing(tool):
    assert tool.parse_jobs("1,2,4") == [1, 2, 4]
    for bad in ("1", "0,2", ""):
        with pytest.raises(argparse.ArgumentTypeError):
            tool.parse_jobs(bad)
