"""Contract: no input value makes a reader end in a Python traceback.

The inputs of a tiny ``synth`` scene, plus one ``trace`` intervals file,
are changed one JSON value at a time. Every value of each object is
walked, and of each list only the first record. Each value in turn is
replaced by every value of a fixed pool. Every reader must then return
(rejecting bad records into its ``LoadReport``) or raise a
``GeotagFacadeError``; a COCO file it reads must also evaluate.
Provenance that no reader reads (a COCO ``info`` block, a trace file's
``input_hashes`` and its config beside ``radius_m``) is dropped first,
which keeps the walk short. Every vertex of the first footprint ring,
not only its first, is also replaced by pool values and by positions of
one, three and ragged values. Wherever the footprint reader returns, it
must equal the one-ring reference loader, report and rings alike; the
detection reader must equal the record-by-record reference loader,
columns, rows and report alike, or raise its error. The COCO reader
must give the rows, sizes and info of the one-``EvalBox``-per-annotation
reference reader, or raise its error, under every mutation of the COCO
file.
"""
import copy
import json

import pytest

from geotag_facade import (GeotagFacadeError, coarse_accuracy, coco_summary,
                           load_category_mapping, load_footprints,
                           load_panorama_meta)
from geotag_facade.cli import main
from geotag_facade.cocoio import read_coco, read_trace
from geotag_facade.metrics import EvalBox

from oracle_utils import (load_detections_as_reference,
                          reference_load_footprints, reference_read_coco)

POOL = [None, True, False, "x", "1.5", [], {}, -1, 0, 1.5, 10 ** 30,
        10 ** 400, float("nan"), float("inf")]


def _paths(doc, path=()):
    """Every value of an object, and the first record of a list."""
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, path + (k,))
    elif isinstance(doc, list) and doc:
        yield from _paths(doc[0], path + (0,))


def _mutated(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz_scene")
    assert main(["synth", "--seed", "3", "--n-buildings", "3",
                 "--n-cameras", "1", "--out", str(d)]) == 0
    # walk the optional mapping keys and a prediction's score too
    mapping = json.loads((d / "mapping.json").read_text())
    mapping.update(default=1, names={"1": "first"})
    (d / "mapping.json").write_text(json.dumps(mapping))
    gt = json.loads((d / "gt.json").read_text())
    gt["annotations"][0]["score"] = 0.9
    gt["info"] = {}
    (d / "gt.json").write_text(json.dumps(gt))
    assert main(["trace", "--footprints", str(d / "footprints.geojson"),
                 "--metas", str(d / "metas.jsonl"),
                 "--mapping", str(d / "mapping.json"),
                 "--out", str(d / "trace")]) == 0
    [intervals] = (d / "trace").glob("intervals_*.json")
    doc = json.loads(intervals.read_text())
    del doc["input_hashes"]
    doc["config"] = {"radius_m": doc["config"]["radius_m"]}
    intervals.write_text(json.dumps(doc))
    return d, intervals


def _balanced(loaded):
    r = loaded.report
    assert r.n_accepted + r.n_rejected == r.n_input, "unbalanced report"


def _footprints_as_reference(path, mapping):
    """load_footprints, which must equal the one-ring reference loader
    wherever it returns."""
    fs = load_footprints(path, mapping)
    _balanced(fs)
    want, report = reference_load_footprints(path, mapping)
    assert fs.report.to_dict() == report.to_dict()
    assert [repr(fp) for fp in fs] == [repr(fp) for fp in want]
    return fs


def _read_coco_and_eval(path, gt, evaluated):
    boxes, widths, _, _ = read_coco(path)
    read = (tuple(boxes), tuple(widths.items()))
    if read not in evaluated:  # most mutations read the same boxes
        evaluated.add(read)
        coarse_accuracy(boxes, gt, width_by_pano=widths)
        coarse_accuracy(gt, boxes, width_by_pano=widths)
        coco_summary(boxes, gt, width_by_pano=widths)


@pytest.mark.parametrize("name", ["footprints.geojson", "metas.jsonl",
                                  "detections.json", "mapping.json",
                                  "gt.json", "intervals.json"])
def test_every_mutation_is_read_or_rejected(scene, tmp_path, name):
    d, intervals = scene
    mapping = load_category_mapping(d / "mapping.json")
    gt, evaluated = read_coco(d / "gt.json")[0], set()
    readers = {
        "footprints.geojson": lambda p: _footprints_as_reference(p,
                                                                 mapping),
        "metas.jsonl": lambda p: _balanced(load_panorama_meta(p)),
        "detections.json": lambda p: _balanced(
            load_detections_as_reference(p)),
        "mapping.json": lambda p: _footprints_as_reference(
            d / "footprints.geojson", load_category_mapping(p)),
        "gt.json": lambda p: _read_coco_and_eval(p, gt, evaluated),
        "intervals.json": read_trace,
    }
    source = intervals if name == "intervals.json" else d / name
    text = source.read_text()
    lines = name.endswith(".jsonl")
    doc = [json.loads(ln) for ln in text.splitlines()] if lines \
        else json.loads(text)
    paths = list(_paths(doc[0], (0,)) if lines else _paths(doc))
    target = tmp_path / name
    escaped = []
    for path in paths:
        for value in POOL:
            m = _mutated(doc, path, value)
            target.write_text("".join(json.dumps(r) + "\n" for r in m)
                              if lines else json.dumps(m))
            try:
                readers[name](target)
            except GeotagFacadeError:
                pass
            except Exception as e:  # the contract: nothing else escapes
                escaped.append(f"{'/'.join(map(str, path))} = {value!r}: "
                               f"{type(e).__name__}: {e}")
    assert len(paths) > 5
    assert not escaped, "\n".join(escaped)


def _read_as_floats(reader, path):
    """``reader``'s result with the box fields as floats, as the columns
    hold them, or its error."""
    try:
        boxes, *rest = reader(path)
    except GeotagFacadeError as e:
        return type(e), str(e)
    return [EvalBox(b.pano_id, *map(float, (b.x, b.y, b.w, b.h)), b.category,
                    None if b.score is None else float(b.score))
            for b in boxes], *rest


def test_read_coco_equals_the_reference_reader(scene, tmp_path):
    d, _ = scene
    boxes, *rest = read_coco(d / "gt.json")
    want, *want_rest = reference_read_coco(d / "gt.json")
    assert boxes == want and len(boxes) == 3 and rest == want_rest
    doc = json.loads((d / "gt.json").read_text())
    target = tmp_path / "gt.json"
    outcomes = set()
    for path in _paths(doc):
        for value in POOL:
            target.write_text(json.dumps(_mutated(doc, path, value)))
            got = _read_as_floats(read_coco, target)
            assert got == _read_as_floats(reference_read_coco, target), \
                f"{'/'.join(map(str, path))} = {value!r}"
            outcomes.add(isinstance(got[0], type))
    assert outcomes == {True, False}  # some read, some rejected


def _vertex_variants(lon, lat):
    """Replacements for one vertex: each pool value, and positions of one
    value, of three values and of ragged shape."""
    for v in POOL:
        yield v
        yield [v]
        yield [lon, v]
        yield [v, lat]
        yield [lon, lat, v]
        yield [v, v, v]
    yield from ([lon, [lat]], [[lon], lat], [[lon, lat]], [[lon], [lat]],
                [lon, lat, [lat]], [lon, lat, lon, lat])


def test_every_vertex_mutation_is_read_or_rejected(scene, tmp_path):
    # any vertex, the closing one included, not only the walk's first
    d, _ = scene
    mapping = load_category_mapping(d / "mapping.json")
    doc = json.loads((d / "footprints.geojson").read_text())
    ring = doc["features"][0]["geometry"]["coordinates"][0]
    target = tmp_path / "footprints.geojson"
    escaped, rejected = [], 0
    for k, (lon, lat) in enumerate(ring):
        for variant in _vertex_variants(lon, lat):
            m = copy.deepcopy(doc)
            m["features"][0]["geometry"]["coordinates"][0][k] = variant
            target.write_text(json.dumps(m))
            try:
                fs = _footprints_as_reference(target, mapping)
            except GeotagFacadeError:
                continue
            except Exception as e:  # the contract: nothing else escapes
                escaped.append(f"vertex {k} = {variant!r}: "
                               f"{type(e).__name__}: {e}")
                continue
            rejected += fs.report.n_rejected
    assert len(ring) >= 4 and rejected > 50
    assert not escaped, "\n".join(escaped)
