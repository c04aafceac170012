"""The COCO writer lays the document out from per-annotation templates;
it must write the bytes of the dict-building reference writer, which
``json`` encodes, for every kind of value an annotation can carry."""
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from geotag_facade import (AnnotationSet, CategoryMapping, CoarseAnnotation,
                           GroundTruthBox, PanoramaMeta, RunConfig,
                           generate_coarse_annotations)
from geotag_facade.cocoio import write_coco
from geotag_facade.synth import (NoiseConfig, SceneConfig, generate_scene,
                                 perturb_detections)

from oracle_utils import reference_write_coco

PANOS = ["p", 'quo"te', "back\\slash", "été", "\U0001f3e0",
         "tab\tnew\nline", "", "7"]
METAS = [PanoramaMeta(pano_id=p, lat=40.0, lon=-74.0, north_px=0.0,
                      width=2048, height=1024) for p in PANOS]
MAPPING = CategoryMapping(city="cé", entries={"a": 1, "b": 2, "c": 3},
                          names={1: "école", 2: 'say "hi"'})
FLOATS = [1e-7, 1e16, -0.0, 0.0, 5e-324, 0.1, 1 / 3, 2048.0, 1e22, 1.5e300,
          123456789.123, -2.5]
INFO = {"config": RunConfig().to_dict(), "input_hashes": {"b": "x", "a": "y"},
        "nested": [1, 2.5, None, True, "é", {"z": [], "y": {}}]}


def assert_same_bytes(tmp_path, annotations, info=INFO, metas=METAS):
    write_coco(tmp_path / "got.json", metas, annotations, MAPPING, info=info)
    reference_write_coco(tmp_path / "want.json", metas, annotations,
                         MAPPING, info=info)
    got = (tmp_path / "got.json").read_bytes()
    assert got == (tmp_path / "want.json").read_bytes()
    return got.decode()


def ann(pano="p", x=1.0, y=2.0, w=3.0, h=4.0, category=1, building_id="B",
        iou_x=0.5, score=0.9):
    return CoarseAnnotation(pano_id=pano, x=x, y=y, w=w, h=h,
                            category=category, building_id=building_id,
                            iou_x=iou_x, score=score)


CASES = {
    "floats": [ann(x=v, y=FLOATS[-k - 1], w=abs(v) or 1.0, iou_x=v,
                   score=FLOATS[k - 3]) for k, v in enumerate(FLOATS)],
    "ints": [ann(x=0, y=7, w=2 ** 60, h=3, iou_x=1, score=0),
             ann(x=-5, y=0, w=1, h=1, category=3, iou_x=0, score=1)],
    "area-overflows": [ann(w=1e200, h=1e200), ann(w=-1e200, h=1e200),
                       ann(x=math.inf, y=-math.inf, w=math.nan, h=2.0,
                           iou_x=math.nan, score=math.inf)],
    "ids": [ann(pano=p, building_id=b) for p, b in zip(
        PANOS, ['q"uote', "b\\s", "é", "\U0001f3e0", "\x00\x1f",
                " ", "", "</script>"])],
    "numpy-scalars": [
        ann(x=np.float64(0.1), y=np.float32(0.1), w=np.float32(3.5),
            h=np.float32(1e-3), category=np.int64(2),
            building_id=np.str_("Bé"), iou_x=np.float32(0.7),
            score=np.float64(1e-7)),
        ann(x=np.int32(4), w=np.int64(5), h=np.float64(2.5),
            category=np.int8(3), iou_x=np.float64(-0.0), score=np.uint8(1))],
    "empty": [],
    "ground-truth": [GroundTruthBox(pano_id=p, x=v, y=1.0, w=20.0, h=2 * v
                                    or 1.0, category=k % 3 + 1,
                                    building_id=f"b{k}")
                     for k, (p, v) in enumerate(zip(PANOS, FLOATS))],
    "optional-keys-mixed": [
        ann(score=None), ann(iou_x=None), ann(building_id=None),
        ann(score=None, iou_x=None, building_id=None), ann(),
        SimpleNamespace(pano_id="p", x=1.0, y=2.0, w=3.0, h=4.0, category=2),
        SimpleNamespace(pano_id="7", x=1.0, y=2.0, w=3.0, h=4.0, category=1,
                        score=0.25)],
}


@pytest.mark.parametrize("info", [INFO, None, {}])
@pytest.mark.parametrize("case", sorted(CASES))
def test_named_cases(tmp_path, case, info):
    rows = CASES[case]
    text = assert_same_bytes(tmp_path, rows, info)
    assert ('"annotations": []' in text) == (case == "empty")
    if all(isinstance(a, CoarseAnnotation) for a in rows):
        # the same rows as columns, as annotate hands them over
        assert assert_same_bytes(tmp_path, AnnotationSet.of(rows),
                                 info) == text
    if case == "area-overflows":
        assert '"area": Infinity' in text and '"area": -Infinity' in text
        assert '"area": NaN' in text


def random_value(rng, kind):
    if kind == "float":
        return rng.choice([*FLOATS, rng.uniform(-1e4, 1e4), rng.random(),
                           float(rng.randrange(4096)), math.inf, math.nan,
                           np.float64(rng.random()),
                           np.float32(rng.random())])
    if kind == "category":
        return rng.choice([1, 2, 3, np.int64(2), True, 0])
    return rng.choice([*PANOS, "B", "Bé", 'q"', None, np.str_("x")])


@pytest.mark.parametrize("seed", range(5))
def test_seeded_rows(tmp_path, seed):
    rng = random.Random(seed)
    rows = []
    for _ in range(rng.randint(0, 60)):
        fields = {f: random_value(rng, "float") for f in "xywh"}
        fields.update(pano_id=rng.choice(PANOS),
                      category=random_value(rng, "category"))
        for opt, kind in (("building_id", "id"), ("iou_x", "float"),
                          ("score", "float")):
            if rng.random() < 0.8:  # else the row lacks the field
                fields[opt] = None if rng.random() < 0.2 else \
                    random_value(rng, kind)
        rows.append(SimpleNamespace(**fields))
    with np.errstate(over="ignore"):  # float32 areas may overflow
        assert_same_bytes(tmp_path, rows, rng.choice([INFO, None]))


def test_annotate_output(tmp_path):
    # the annotation set generate_coarse_annotations returns, as columns
    scene = generate_scene(31, SceneConfig(n_buildings=10, n_cameras=4))
    dets = perturb_detections(scene, NoiseConfig(
        shift_frac=0.02, scale_frac=0.02, fp_rate=0.2), seed=32)
    anns, _ = generate_coarse_annotations(
        scene.metas, scene.footprint_set, dets, RunConfig(batch_size=2))
    assert isinstance(anns, AnnotationSet) and len(anns) > 10
    assert_same_bytes(tmp_path, anns, metas=scene.metas)
    assert_same_bytes(tmp_path, scene.gt_boxes, metas=scene.metas)
