"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench -q        (from the repository root)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    SHORT_WORDS,
    WEIGHTS,
    WORKLOADS,
    CheckError,
    ball_index,
    build_config,
    check_outputs,
    draw_inputs,
    load_reference,
)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_manifest_is_current():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.manifest()


def test_inputs_follow_the_seed():
    assert draw_inputs(11) == draw_inputs(11)
    seen = {draw_inputs(seed)[0] for seed in range(200)}
    assert seen == set(WEIGHTS) and min(seen) == 0.3 and max(seen) == 0.7
    for seed in range(50):
        _, sources = draw_inputs(seed)
        assert len(set(sources)) == 2 and set(sources) <= set(SHORT_WORDS)


def test_ball_index_matches_the_ball_order():
    from aufwalk.words import ball, format_word

    for i, w in enumerate(ball(5)):
        assert ball_index(format_word(w)) == i


def test_reference_covers_every_weight():
    reference = load_reference()
    for w in ("walk-dense", "walk-sparse", "branch"):
        for size in ("smoke", "full"):
            for weight in WEIGHTS:
                assert f"{w}/{size}/{weight:.2f}" in reference


def _smoke_walk(tmp_path: Path, seed: int):
    workload = WORKLOADS["walk-dense"]
    weight, sources = draw_inputs(seed)
    out = tmp_path / "out"
    cfg, extra = build_config(ROOT, workload, True, weight, sources, out)
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    env = {k: v for k, v in os.environ.items() if k != "AUFWALK_OUT"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "aufwalk.cli", "walk", str(tmp_path / "config.json"), *extra],
        cwd=ROOT, env=env, capture_output=True,
    )
    return workload, weight, sources, cfg, proc.returncode, out


def test_checks_reject_a_wrong_green_value(tmp_path):
    workload, weight, sources, cfg, code, out = _smoke_walk(tmp_path, seed=4)
    reference = load_reference()
    check_outputs(workload, True, weight, sources, cfg, code, out, reference)
    csv = out / "green_martin.csv"
    lines = csv.read_text().splitlines()
    row = lines[1 + ball_index("ba")].split(",")
    row[2] = repr(float(row[2]) * (1 + 1e-6))
    lines[1 + ball_index("ba")] = ",".join(row)
    csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckError):
        check_outputs(workload, True, weight, sources, cfg, code, out, reference)
    with pytest.raises(CheckError):
        check_outputs(workload, True, weight, sources, cfg, 1, out, reference)


def test_checks_reject_a_second_failing_audit(tmp_path):
    report = {"overallPass": False, "audits": [
        {"name": "perturbation_rate", "pass": False}, {"name": "harnack", "pass": False},
    ]}
    (tmp_path / "audit_report.json").write_text(json.dumps(report))
    with pytest.raises(CheckError):
        check_outputs(WORKLOADS["audit"], True, 0.5, [], {}, 1, tmp_path, load_reference())


def test_smoke_measure_reports_every_end_to_end_metric():
    result = result_of(bench("--smoke", "--workload", "walk-dense", "--seed", "2", "--seconds", "1"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_trace_reports_every_layer_metric(workload):
    result = result_of(bench("--smoke", "--workload", workload, "--seed", "3", "--trace", "1"))
    assert result["correct"], result
    names = {m["name"] for m in run.manifest()["per_layer"]}
    assert set(result["metrics"]) == names
    for p in tracer.PROBES:
        if workload in p.expected:
            assert result["metrics"][f"{p.name}.{p.metrics[0]}"]["value"] > 0


def test_tracer_wraps_names_imported_elsewhere():
    # in a fresh interpreter, since installing rebinds module attributes
    script = """
import tracer
t = tracer.Tracer()
t.install()
from aufwalk import fusion, intertwiners, kernels, perturbed, words
assert kernels.qdim is words.qdim is fusion.qdim is perturbed.qdim is intertwiners.qdim
assert perturbed.green_table is kernels.green_table
kernels.qdim("ab", 0.5)
perturbed.qdim("ab", 0.5)
assert t.stats["words.qdim"].calls == 2
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_missing_samples_are_reported():
    calls = {p.name: 1 for p in tracer.PROBES}
    assert tracer.missing_samples(calls, "audit") == []
    calls["perturbed.qhat_oracle"] = 0
    assert tracer.missing_samples(calls, "audit") == ["perturbed.qhat_oracle"]
    assert tracer.missing_samples(calls, "branch") == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "audit", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
