"""The committed harnesses still reproduce the output hashes of their
committed results: `bench/canon.py` against `BENCH_canon.json` and
`bench/count.py` against `BENCH_count.json`, each read from its `change`
section."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _hashes(result: dict) -> dict:
    """Every `*sha256` value of a harness result, keyed by its path."""
    out = {}
    for key, value in result.items():
        if isinstance(value, dict):
            out.update({f"{key}/{k}": v for k, v in _hashes(value).items()})
        elif key.endswith("sha256"):
            out[key] = value
    return out


@pytest.mark.parametrize("name", ["canon", "count"])
def test_bench_reproduces_committed_hashes(name):
    proc = subprocess.run([sys.executable, f"bench/{name}.py", "--runs", "1",
                           "--src", str(ROOT / "src")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    expected = _hashes(json.loads((ROOT / f"BENCH_{name}.json").read_text())["change"])
    assert expected and _hashes(json.loads(proc.stdout)) == expected
