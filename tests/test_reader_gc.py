"""The readers parse and check their files with the cyclic collector
paused, and leave it as they found it."""
import dataclasses
import gc
import inspect
import json
import sys

import numpy as np
import pytest

from geotag_facade import (CategoryMapping, LoadError, ParseError, ingest,
                           load_category_mapping, load_detections,
                           load_footprints, load_panorama_meta)
from geotag_facade.cli import main
from geotag_facade.cocoio import read_coco, read_trace

from test_ingest import feature, square, write


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A small scene, its trace files, and per reader: (file, call,
    text of a JSON file whose structure the reader rejects)."""
    d = tmp_path_factory.mktemp("scene")
    assert main([str(a) for a in ("synth", "--seed", 3, "--n-buildings", 10,
                                  "--n-cameras", 3, "--out", d)]) == 0
    files = {k: d / f for k, f in (("mapping", "mapping.json"),
                                   ("footprints", "footprints.geojson"),
                                   ("metas", "metas.jsonl"))}
    assert main(["trace", *(str(a) for k in files
                            for a in (f"--{k}", files[k])),
                 "--out", str(d / "trace")]) == 0
    mapping = load_category_mapping(files["mapping"])
    first_meta = files["metas"].read_text(encoding="utf-8").splitlines()[0]
    return {
        "load_category_mapping": (files["mapping"], load_category_mapping,
                                  '{"entries": [1]}'),
        "load_footprints": (files["footprints"],
                            lambda p: load_footprints(p, mapping),
                            '{"type": "Feature"}'),
        "load_panorama_meta": (files["metas"], load_panorama_meta,
                               f"{first_meta}\n{first_meta}\n"),
        "load_detections": (d / "detections.json", load_detections, "{}"),
        "read_coco": (d / "gt.json", read_coco, "[]"),
        "read_trace": (sorted((d / "trace").glob("intervals_*.json"))[0],
                       read_trace, '{"pano_id": 1}'),
    }


READERS = ("load_category_mapping", "load_footprints", "load_panorama_meta",
           "load_detections", "read_coco", "read_trace")


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """The collector's state at the call; set back on after the test."""
    (gc.enable if request.param else gc.disable)()
    yield request.param
    gc.enable()


def plain(v):
    """``v`` as nested tuples of plain values, numpy arrays with their
    dtype, and each ``LoadReport`` with its ``to_dict()``."""
    if isinstance(v, np.ndarray):
        return "ndarray", v.dtype.str, v.shape, v.tolist()
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        fields = tuple((f.name, plain(getattr(v, f.name)))
                       for f in dataclasses.fields(v))
        if isinstance(v, ingest.LoadReport):
            fields += (("to_dict", plain(v.to_dict())),)
        return type(v).__name__, fields
    if isinstance(v, (list, tuple)):
        return type(v).__name__, tuple(map(plain, v))
    if isinstance(v, dict):
        return "dict", tuple((plain(k), plain(x)) for k, x in v.items())
    return type(v).__name__, v


@pytest.mark.parametrize("name", READERS)
def test_result_does_not_depend_on_the_collector(scene, name):
    path, read, _ = scene[name]
    results = []
    for on in (True, False):
        (gc.enable if on else gc.disable)()
        try:
            results.append(repr(plain(read(path))))
        finally:
            gc.enable()
    assert results[0] == results[1]


@pytest.mark.parametrize("name", READERS)
def test_reader_parses_paused(scene, monkeypatch, name):
    path, read, _ = scene[name]
    paused, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda *a: (
        paused.append(not gc.isenabled()), loads(*a))[1])
    read(path)
    assert paused and all(paused)
    assert gc.isenabled()


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize("outcome", ["ok", "parse-error", "load-error"])
def test_reader_leaves_the_collector_as_found(scene, tmp_path, collector,
                                              name, outcome):
    path, read, bad_structure = scene[name]
    if outcome != "ok":
        path = tmp_path / path.name
        path.write_text('{"a": ' if outcome == "parse-error"
                        else bad_structure, encoding="utf-8")
    error = {"ok": None, "parse-error": ParseError,
             "load-error": LoadError}[outcome]
    if error is None:
        read(path)
    else:
        with pytest.raises(error):
            read(path)
    assert gc.isenabled() is collector


def test_no_collection_starts_inside_load_footprints(tmp_path, monkeypatch):
    """None while the body runs: the one collection that may come due
    in the read runs at the exit of the pause, after the body returned."""
    path = write(tmp_path, "footprints.geojson", {
        "type": "FeatureCollection",
        "features": [feature(f"b{i}", square(-74.0 + 0.0002 * (i % 50),
                                             40.0 + 0.0002 * (i // 50)))
                     for i in range(2000)]})
    checked_paused = []
    check_rings = ingest._check_rings
    monkeypatch.setattr(ingest, "_check_rings", lambda *a: (
        checked_paused.append(not gc.isenabled()), check_rings(*a))[1])
    body = inspect.unwrap(ingest.load_footprints).__code__
    starts = []  # (generation, whether the body is on the stack)

    def record(phase, info):
        if phase == "start":
            frame, in_body = sys._getframe(1), False
            while frame is not None:
                in_body |= frame.f_code is body
                frame = frame.f_back
            starts.append((info["generation"], in_body))

    gc.collect()  # no collection is due as the call starts
    gc.callbacks.append(record)
    try:
        fps = load_footprints(path, CategoryMapping(city="t",
                                                    entries={"R1": 1}))
    finally:
        gc.callbacks.remove(record)
    assert len(fps) == 2000 and fps.report.n_rejected == 0
    assert [s for s in starts if s[1]] == []
    assert starts in ([], [(0, False)])
    assert checked_paused == [True]  # the ring checks run paused too
    assert gc.isenabled()
