"""tools/profile.py profiles a benchmark workload's run list."""

import json
import os
import subprocess
import sys

_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def test_profile_tool_runs_the_fabric_1024_workload():
    out = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "tools", "profile.py"),
         "--workload", "fabric_1024", "--limit", "5"],
        capture_output=True, text=True, timeout=600, check=True).stdout
    with open(os.path.join(_ROOT, "perfbench", "pinned.json")) as fh:
        pinned = json.load(fh)["digests"]["fabric_1024"]
    # the same runs the benchmark pins, one profile line each
    for label, digest in pinned.items():
        assert f"[profile] {label}: " in out
        assert f"digest {digest[:12]}" in out
    assert "function calls" in out
