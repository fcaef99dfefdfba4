"""Smoke test of the benchmark at n <= 2 and a few time steps.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric is printed by name with its unit, that the self
times of a traced run sum to no more than its wall time, that a corrupted
reference value makes fail_rate non-zero, and that the benchmark refuses to
run without the solver sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# end-to-end metrics printed beside the gated ones, by the workloads they apply to
REPORTED = {"finest_solve_s": "s", "newmark_step_ms_p50": "ms",
            "newmark_step_ms_p95": "ms", "trapezoid_step_ms_p50": "ms",
            "trapezoid_step_ms_p95": "ms", "fail_rate": "ratio"}


def bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace),
                           "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def printed(text, name, unit):
    return re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b", text, re.M)


@pytest.fixture(scope="module")
def untraced():
    return {w: bench(w, 0) for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {w: bench(w, 1) for w in WORKLOADS}


def test_every_end_to_end_metric_printed_with_unit(untraced):
    text = "\n".join(proc.stdout for proc in untraced.values())
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, unit in {**wanted, **REPORTED}.items():
        assert printed(text, name, unit), f"{name} [{unit}] not printed"
    for workload, proc in untraced.items():
        result = result_of(proc)
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
        assert all(v["value"] > 0 for v in result["metrics"].values()), workload


def test_traced_self_times_within_wall(traced):
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, proc in traced.items():
        result = result_of(proc)
        assert result["correct"], proc.stdout
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
        assert 0 < metrics["trace.self_s_sum"] <= metrics["trace.traced_wall_s"]
        for name, unit in wanted.items():
            assert printed(proc.stdout, name, unit), f"{workload}: {name} not printed"


def test_corrupted_reference_counts_as_failure(tmp_path, monkeypatch, capsys):
    refs = json.loads(run.REFERENCES.read_text())
    refs["smoke"]["ladder-k1"]["solve_n2"]["rel_err_u"]["value"] *= 1 + 1e-8
    path = tmp_path / "references.json"
    path.write_text(json.dumps(refs))
    monkeypatch.setattr(run, "REFERENCES", path)
    assert run.main(["--workload", "ladder-k1", "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--smoke"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1
    assert re.search(r"^\s+fail_rate\s+0\.\d*[1-9]", out, re.M), out


def test_refuses_to_run_without_solver_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("ladder-k1", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
