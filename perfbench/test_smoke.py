"""Smoke test of the benchmark on tiny archetypes.

    python3 -m pytest perfbench -q

For each workload, a one-second untraced and a one-second traced run must
pass their checks, print every metric of BENCHMARK.json with its unit, and
print the same output digest.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_runs_print_every_metric(workload):
    digests = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        out = run(workload, trace)
        assert out.returncode == 0, out.stdout + out.stderr
        lines = out.stdout.splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(line.startswith(f"{name} = ") and f" {unit}  (" in line for line in lines)
        digests += [line for line in lines if line.startswith("digest: ")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run("gen_place", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
