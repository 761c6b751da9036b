"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "enumerate": (("V", 10),),
    "percell": (("V", 10), ("EX6", 6)),
    "certify": (("order", "V", 10), ("blocks", "L", 3), ("theorem", "L", 3)),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    lines, result = run.run(workload, 1, 0, trace, inputs=TINY[workload])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith("fail_ratio 0.0 ratio") for line in lines)


def test_wrong_reference_is_counted_in_fail_ratio():
    refs = workloads.reference()
    refs["tau"][("V", 10)] = 35
    lines, result = run.run("enumerate", 1, 0, False, inputs=TINY["enumerate"],
                            refs=refs)
    assert not result["correct"] and result["failed"] == 1
    fail_ratio = next(line for line in lines if line.startswith("fail_ratio "))
    assert float(fail_ratio.split()[1]) == result["failed"] / result["attempted"]


def test_references_match_a_raw_permutation_scan():
    status, count = workloads.raw_scan(workloads.families.build_exceptional(6).grid)
    assert count == 8 and sum(row.count("FREE") for row in status) == 16
    grid = workloads.families.build_L(3).grid
    sols = [p for p in itertools.permutations(range(9))
            if len({grid[r][p[r]] for r in range(9)}) == 9]
    hits = min(sum(1 for r in range(9) if r // 3 == i and p[r] // 3 == j)
               for p in sols for i in range(3) for j in range(3))
    assert len(sols) == workloads.REFERENCE["l9_transversals"]
    assert hits == workloads.REFERENCE["l9_min_block_hits"]


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
