"""The benchmark still runs: its self-test passes and its span wrappers
still find every name they wrap."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


class _LookupTracer:
    """Stands in for the benchmark's tracer: looks each wrapped name up and
    wraps nothing, so a renamed or deleted name raises AttributeError."""

    def wrap(self, owner, name, layer, info=None):
        getattr(owner, name)

    def wrap_iter(self, owner, name, layer):
        getattr(owner, name)


def test_install_spans_names_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while being built.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    workloads.install_spans(_LookupTracer())


def test_selftest_passes():
    # The benchmark's own self-test: every gate, metric and pinned digest.
    root = WORKLOADS.parents[1]
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
