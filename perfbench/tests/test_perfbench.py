"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.fixture(scope="module")
def runs():
    """Per workload: one untraced run and two traced runs."""
    out = {}
    for name in NAMES:
        out[name] = [_run(name, 0), _run(name, 1), _run(name, 1)]
        for proc in out[name]:
            assert proc.returncode == 0, proc.stderr
    return out


def test_every_metric_is_printed_with_its_unit(runs):
    for name, (plain, traced, _) in runs.items():
        for proc, declared in ((plain, SPEC["end_to_end"]),
                               (traced, SPEC["per_layer"])):
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert list(result["metrics"]) == [m["name"] for m in declared]
            for m in declared:
                assert result["metrics"][m["name"]]["unit"] == m["unit"]
                assert any(line.split()[:1] == [m["name"]]
                           and line.split()[-1] == m["unit"] for line in lines), \
                    f"{name}: {m['name']} not printed with unit {m['unit']}"
        assert any(line.startswith("failed_ratio ") for line in
                   plain.stdout.splitlines())


def test_counts_repeat_across_traced_runs(runs):
    counted = [n for n, (_, kind) in spans.LAYER_METRICS.items() if kind != "timed"]
    for name, (_, first, second) in runs.items():
        a = json.loads(first.stdout.splitlines()[-1])["metrics"]
        b = json.loads(second.stdout.splitlines()[-1])["metrics"]
        for metric in counted:
            assert a[metric]["value"] == b[metric]["value"], (name, metric)


def test_layers_run_where_expected(runs):
    def layers(name):
        return json.loads(runs[name][1].stdout.splitlines()[-1])["metrics"]
    cv, feat = layers("cv_combined"), layers("features_long")
    assert cv["training.steps"]["value"] == 2 * workloads.SIZES["tiny"][
        "cv_combined"]["steps"]
    assert cv["tensor.Tensor.backward.calls"]["value"] == cv["training.steps"]["value"]
    assert cv["experiment.run_cv.self_s"]["value"] > 0
    assert cv["net.predict_probs.score_frames"]["value"] > 0
    assert cv["prosody.extract_prosody.self_s"]["value"] == 0
    assert feat["textfeat.select_window.calls"]["value"] == 24 * workloads.FPS
    assert feat["prosody.frame_signal.max_mb"]["value"] > 0
    assert feat["tensor.conv1d_dilated.calls"]["value"] == 0


def test_traced_run_writes_its_spans(runs):
    detail = next(line for line in runs["cv_combined"][1].stdout.splitlines()
                  if line.startswith("detail "))
    written = json.loads((ROOT / json.loads(detail[7:])["spans"]).read_text())
    names = {span[3] for span in written["spans"]}
    assert {"experiment.run_cv", "training.train", "tensor.conv1d_dilated"} <= names
    assert all(span[0] is not None for span in written["spans"])


def test_declared_metrics_match_the_tracer():
    extra = {"synth.generate_synthetic_corpus.s", "trace.overhead_s",
             "trace.overhead_ratio"}
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert declared == set(spans.LAYER_METRICS) | extra
    readme = (BENCH / "README.md").read_text()
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"`{m['name']}`" in readme, m["name"]


def _measure(tmp_path, name, tamper):
    """Run the timed loop in-process; `tamper(workload, result, i)` follows call i."""
    base = workloads.WORKLOADS[name]

    class Tampered(base):
        calls = 0

        def call(self):
            result = super().call()
            tamper(self, result, Tampered.calls)
            Tampered.calls += 1
            return result

    args = Namespace(workload=name, root=str(tmp_path), size="tiny", seed=7,
                     reps=1, seconds=0.0, trace=0)
    worker.setup(args)
    workloads.WORKLOADS[name] = Tampered
    try:
        return worker.measure(args)
    finally:
        workloads.WORKLOADS[name] = base


def test_untampered_outputs_pass(tmp_path):
    result = _measure(tmp_path, "features_long", lambda w, r, i: None)
    assert result["failed"] == 0 and not result["problems"]


@pytest.mark.parametrize("name", NAMES)
def test_changed_output_on_a_later_call_is_caught(tmp_path, name):
    def tamper(w, result, i):
        if i == 1:
            path = w.outputs(result)[0]
            path.write_bytes(path.read_bytes() + b" ")
    result = _measure(tmp_path, name, tamper)
    assert result["failed"] > 0
    assert any("differ" in p for p in result["problems"])


def test_headline_under_a_baseline_floor_is_caught(tmp_path):
    def tamper(w, report, i):
        path = w.root / "baselines" / "baselines.json"
        baselines = json.loads(path.read_text())
        baselines["baselines"]["always_one"]["headline"]["mean"] = 0.95
        path.write_text(json.dumps(baselines))
    result = _measure(tmp_path, "cv_combined", tamper)
    assert result["failed"] > 0
    assert any("always_one floor" in p for p in result["problems"])


def test_missing_prosody_rows_are_caught(tmp_path):
    def tamper(w, result, i):
        path = next(p for p in w.outputs(result) if p.name.endswith(".prosody.csv"))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
    result = _measure(tmp_path, "features_long", tamper)
    assert result["failed"] > 0
    assert any("prosody" in p for p in result["problems"])


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("features_long", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
