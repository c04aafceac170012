"""Input orders the engine ignores.

A seeded noisy scene is written by the ``synth`` command, with five
footprints repeated under ids that sort before theirs: every wall of a
copy ties with its original's, and the tie goes to the smaller id
whatever the file order. Then one input file is rewritten in a seeded
shuffled order, and the run on the shuffled copy is compared with the
run on the original:

* the order of the footprint features, each with its own building id,
  changes neither the annotations and run report, in either threshold
  mode, nor the ``trace`` files;
* the order of the ``metas.jsonl`` lines leaves the fixed-mode
  annotation set equal. In adaptive mode it does not: a batch's
  threshold comes from the batch before, and the batches are a seeded
  shuffle of the panoramas in line order;
* the order of the detection records, within and across panoramas,
  leaves the annotation set equal in both modes, and every adaptive
  threshold equal to the last bit: the fit takes the scores a batch
  kept in value order, so its sums round alike.
"""
import json
import random
import shutil
from dataclasses import astuple

import pytest

from geotag_facade import (RunConfig, generate_coarse_annotations,
                           load_category_mapping, load_detections,
                           load_footprints, load_panorama_meta)
from geotag_facade.cli import main

MODES = [RunConfig(batch_size=3, seed=5),
         RunConfig(batch_size=3, seed=5, threshold_mode="fixed",
                   fixed_threshold=0.5)]
SHUFFLES = (1, 2, 3)


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    d = tmp_path_factory.mktemp("scene")
    assert main([str(a) for a in (
        "synth", "--seed", 7, "--n-buildings", 30, "--n-cameras", 15,
        "--shift-frac", 0.03, "--scale-frac", 0.03, "--fp-rate", 0.3,
        "--out", d)]) == 0
    path = d / "footprints.geojson"
    doc = json.loads(path.read_text())
    for feature in doc["features"][:5]:
        copy = json.loads(json.dumps(feature))
        copy["properties"]["building_id"] = "a-" + \
            copy["properties"]["building_id"]
        doc["features"].append(copy)
    path.write_text(json.dumps(doc))
    return d


def shuffled(scene, tmp_path, name, seed):
    """A copy of the scene's inputs with file ``name`` in a seeded
    shuffled order: the features of a GeoJSON file, the lines of a JSON
    lines file, or the records of a JSON list."""
    out = tmp_path / f"{name}-{seed}"
    shutil.copytree(scene, out)
    path, rng = out / name, random.Random(seed)
    if name.endswith(".jsonl"):
        lines = path.read_text().splitlines()
        rng.shuffle(lines)
        path.write_text("\n".join(lines) + "\n")
        return out
    doc = json.loads(path.read_text())
    rng.shuffle(doc["features"] if isinstance(doc, dict) else doc)
    path.write_text(json.dumps(doc))
    return out


def annotate(d, config):
    footprints = load_footprints(d / "footprints.geojson",
                                 load_category_mapping(d / "mapping.json"))
    return generate_coarse_annotations(
        load_panorama_meta(d / "metas.jsonl").metas, footprints,
        load_detections(d / "detections.json"), config)


def annotation_set(anns):
    return sorted(map(astuple, anns))


def trace_docs(d, out):
    """The ``trace`` command's interval files on ``d``, less their input
    hashes."""
    assert main([str(a) for a in (
        "trace", "--footprints", d / "footprints.geojson",
        "--metas", d / "metas.jsonl", "--mapping", d / "mapping.json",
        "--out", out)]) == 0
    docs = {}
    for path in sorted(out.glob("intervals_*.json")):
        docs[path.name] = json.loads(path.read_text())
        del docs[path.name]["input_hashes"]
    return docs


@pytest.mark.parametrize("config", MODES, ids=["adaptive", "fixed"])
def test_footprint_order_changes_nothing(scene, tmp_path, config):
    want, want_report = annotate(scene, config)
    assert len(want) > 20
    assert any(a.building_id.startswith("a-") for a in want)
    for seed in SHUFFLES:
        got, report = annotate(
            shuffled(scene, tmp_path, "footprints.geojson", seed), config)
        assert got == want
        assert report.to_dict() == want_report.to_dict()


def test_footprint_order_leaves_the_trace_files(scene, tmp_path):
    want = trace_docs(scene, tmp_path / "want")
    assert len(want) == 15
    for seed in SHUFFLES:
        d = shuffled(scene, tmp_path, "footprints.geojson", seed)
        assert trace_docs(d, tmp_path / f"got-{seed}") == want


def test_meta_line_order_leaves_the_fixed_mode_set(scene, tmp_path):
    config = MODES[1]
    want, want_report = annotate(scene, config)
    assert len(want) > 20
    for seed in SHUFFLES:
        got, report = annotate(
            shuffled(scene, tmp_path, "metas.jsonl", seed), config)
        assert annotation_set(got) == annotation_set(want)
        assert report.totals == want_report.totals


@pytest.mark.parametrize("config", MODES, ids=["adaptive", "fixed"])
def test_detection_order_leaves_the_set(scene, tmp_path, config):
    want, want_report = annotate(scene, config)
    assert len(want) > 20
    for seed in SHUFFLES:
        got, report = annotate(
            shuffled(scene, tmp_path, "detections.json", seed), config)
        assert annotation_set(got) == annotation_set(want)
        assert report.totals == want_report.totals


def test_detection_order_leaves_the_adaptive_thresholds(scene, tmp_path):
    # the fit sees the kept scores in value order, so its sums round alike
    want = annotate(scene, MODES[0])[1].threshold_history
    assert len({t for _, t in want}) > 2
    for seed in range(1, 9):
        report = annotate(shuffled(scene, tmp_path, "detections.json", seed),
                          MODES[0])[1]
        assert report.threshold_history == want
