"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs end to end, traced and untraced, and passes its
correctness gate; one altered annotation category makes the gate fail.
"""
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402

WORKLOADS = list(bench.SPECS["tiny"])


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_gate_and_reports_every_metric(workload):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    res = _run(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    res = _run(workload, 1)
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_fails_on_one_altered_category(workload, monkeypatch):
    from geotag_facade import cli, matcher
    run = bench.Bench(workload, seed=1, size="tiny")
    try:
        run.setup()
        run.prepare()
        run.check(run.execute())
        assert run.problems == [] and run.failed == 0

        original = matcher.generate_coarse_annotations

        def altered(*args, **kwargs):
            anns, report = original(*args, **kwargs)
            a = anns[0]
            anns[0] = dataclasses.replace(
                a, category=2 if a.category == 1 else 1)
            return anns, report

        monkeypatch.setattr(matcher, "generate_coarse_annotations", altered)
        monkeypatch.setattr(cli, "generate_coarse_annotations", altered)
        run.check(run.execute())
    finally:
        bench.shutil.rmtree(run.out, ignore_errors=True)
    assert run.problems, "an altered category passed the gate"
    assert run.failed > 0


def test_ground_truth_never_comes_from_the_engine(tmp_path, monkeypatch):
    """Inputs generate unchanged when the engine's clipping and pixel
    conversion refuse to run: a defect there cannot reach the gate's
    ground truth."""
    import citygen
    from geotag_facade import projection, raytrace, synth

    spec = bench.SPECS["tiny"]["city"]
    cached = citygen.ensure_inputs(spec, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("the generator called the engine under test")

    for module in (projection, synth):
        monkeypatch.setattr(module, "clip_scene", refuse)
    for module in (raytrace, synth):
        monkeypatch.setattr(module, "intervals_to_pixel", refuse)
    citygen.generate(spec, 1, tmp_path)
    for name in ("gt.json", "detections.json"):
        assert (tmp_path / name).read_bytes() == (cached / name).read_bytes()
