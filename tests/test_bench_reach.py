"""The benchmark's reach into the package, kept in this suite.

``perfbench/`` rebinds package functions by name (its tracer patches the
layer functions in every package module) and builds its inputs with the
package's synthetic-scene and oracle code. A package change that drops
or renames one of those names breaks the benchmark, and only the
benchmark's own smoke test, ``perfbench/test_smoke.py``, outside this
suite, would see it. Here the tracer's rebinding is entered, both tiny
workloads' inputs are generated and loaded as the benchmark's set-up
loads them, and every name the smoke test monkeypatches is looked up
where it patches it.
"""
import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import citygen  # noqa: E402
import run as bench  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", sorted(bench.SPECS["tiny"]))
def test_benchmark_finds_every_name_it_uses(workload, tmp_path):
    with Tracer().patched():
        sizes = citygen.generate(bench.SPECS["tiny"][workload], 1, tmp_path)
        inputs = bench.load_inputs(tmp_path)
        bench.run_config(workload, 1)
    assert len(inputs.gt) == sizes["gt_boxes"] > 0
    assert inputs.dets.n_boxes == sizes["detections"]


# (module, name) pairs that perfbench/test_smoke.py replaces with
# monkeypatch.setattr, which fails on a name its module lacks
SMOKE_PATCHED = [("projection", "clip_scene"), ("synth", "clip_scene"),
                 ("raytrace", "intervals_to_pixel"),
                 ("synth", "intervals_to_pixel"),
                 ("matcher", "generate_coarse_annotations"),
                 ("cli", "generate_coarse_annotations")]


@pytest.mark.parametrize("module, name", SMOKE_PATCHED)
def test_smoke_test_finds_every_name_it_patches(module, name):
    found = getattr(importlib.import_module(f"geotag_facade.{module}"), name,
                    None)
    assert callable(found), f"geotag_facade.{module}.{name}"
