import itertools
import json
import logging
import math
import random
from pathlib import Path

import numpy as np
import pytest

from geotag_facade import (CategoryMapping, DetectionSet, LoadError,
                           ParseError, load_category_mapping,
                           load_footprints, load_panorama_meta)
from geotag_facade.ingest import load_detections, ranges

from oracle_utils import (load_detections_as_reference,
                          reference_load_footprints, reference_ranges)


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return p


def feature(building_id, ring, label="R1", gtype="Polygon"):
    return {
        "type": "Feature",
        "properties": {"building_id": building_id, "label": label},
        "geometry": {"type": gtype, "coordinates": [ring]},
    }


def square(lon0, lat0, size=0.0001):
    return [[lon0, lat0], [lon0 + size, lat0], [lon0 + size, lat0 + size],
            [lon0, lat0 + size], [lon0, lat0]]


MAPPING = CategoryMapping(city="t", entries={"R1": 1, "R2": 2}, default=None)


def warnings_of(caplog, read):
    """The WARNING lines ``read()`` logs from the readers' module."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="geotag_facade.ingest"):
        read()
    return [r.getMessage() for r in caplog.records
            if r.levelno == logging.WARNING]


class TestFootprints:
    def test_three_valid_features(self, tmp_path):
        fc = {"type": "FeatureCollection", "features": [
            feature(f"b{i}", square(-74.0 + i * 0.01, 40.7)) for i in range(3)]}
        fs = load_footprints(write(tmp_path, "f.json", fc), MAPPING)
        assert len(fs) == 3
        assert fs.report.n_input == 3 and fs.report.n_rejected == 0
        assert all(fp.category == 1 for fp in fs)
        # rings come back closed, lat-first
        for fp in fs:
            assert fp.ring[0] == fp.ring[-1]
            assert len(set(fp.ring)) >= 3

    def test_two_vertex_ring_rejected(self, tmp_path):
        fc = {"type": "FeatureCollection", "features": [
            feature("bad", [[-74.0, 40.7], [-74.001, 40.7], [-74.0, 40.7]])]}
        fs = load_footprints(write(tmp_path, "f.json", fc), MAPPING)
        assert len(fs) == 0
        assert fs.report.rejected[0][0] == "bad"

    def test_unknown_label_uses_default(self, tmp_path):
        mapping = CategoryMapping(city="t", entries={"A": 1, "B": 2, "C": 3,
                                                     "D": 4}, default=5)
        fc = {"type": "FeatureCollection",
              "features": [feature("b0", square(-74.0, 40.7), label="R1")]}
        fs = load_footprints(write(tmp_path, "f.json", fc), mapping)
        assert len(fs) == 1 and fs.footprints[0].category == 5

    def test_none_accepted_warns(self, tmp_path, caplog):
        fc = {"type": "FeatureCollection", "features": [
            feature("b0", square(-74.0, 40.7), label="zz"),
            feature("b1", [[-74.0, 40.7], [-74.001, 40.7], [-74.0, 40.7]])]}
        p = write(tmp_path, "f.json", fc)
        assert warnings_of(caplog, lambda: load_footprints(p, MAPPING)) == [
            f"loaded 0 footprints from {p}: all 2 rejected, the first (b0) "
            f"for: label 'zz' not in mapping and no default"]
        # one accepted, or none given, is no warning
        fc["features"].append(feature("b2", square(-74.0, 40.8)))
        for doc in (fc, {"type": "FeatureCollection", "features": []}):
            p = write(tmp_path, "f.json", doc)
            assert warnings_of(caplog,
                               lambda: load_footprints(p, MAPPING)) == []

    def test_unknown_label_without_default_rejected(self, tmp_path):
        fc = {"type": "FeatureCollection",
              "features": [feature("b0", square(-74.0, 40.7), label="zz")]}
        fs = load_footprints(write(tmp_path, "f.json", fc), MAPPING)
        assert len(fs) == 0 and fs.report.n_rejected == 1

    def test_self_intersecting_rejected(self, tmp_path):
        bow = [[0.0, 0.0], [0.002, 0.002], [0.002, 0.0], [0.0, 0.001],
               [0.0, 0.0]]
        fc = {"type": "FeatureCollection", "features": [feature("bow", bow)]}
        fs = load_footprints(write(tmp_path, "f.json", fc), MAPPING)
        assert len(fs) == 0
        assert "self-intersecting" in fs.report.rejected[0][1]

    def test_zero_area_rejected(self, tmp_path):
        line = [[0.0, 0.0], [0.001, 0.0], [0.002, 0.0], [0.0, 0.0]]
        fc = {"type": "FeatureCollection", "features": [feature("flat", line)]}
        fs = load_footprints(write(tmp_path, "f.json", fc), MAPPING)
        assert len(fs) == 0

    def test_multipolygon_split_with_suffix(self, tmp_path):
        f = {
            "type": "Feature",
            "properties": {"building_id": "m", "label": "R1"},
            "geometry": {"type": "MultiPolygon", "coordinates": [
                [square(-74.0, 40.7)], [square(-74.01, 40.7)]]},
        }
        fs = load_footprints(
            write(tmp_path, "f.json", {"type": "FeatureCollection",
                                       "features": [f]}), MAPPING)
        assert [fp.building_id for fp in fs] == ["m#1", "m#2"]
        assert fs.report.n_input == 2

    def test_holes_ignored(self, tmp_path):
        outer = square(-74.0, 40.7, 0.001)
        inner = square(-73.9997, 40.7003, 0.0001)
        f = feature("h", outer)
        f["geometry"]["coordinates"].append(inner)
        fs = load_footprints(
            write(tmp_path, "f.json", {"type": "FeatureCollection",
                                       "features": [f]}), MAPPING)
        assert len(fs) == 1
        assert len(fs.footprints[0].ring) == 5  # outer ring only, closed

    def test_malformed_json_reports_offset(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"type": "FeatureCollection", "features": [}')
        with pytest.raises(ParseError) as ei:
            load_footprints(p, MAPPING)
        assert ei.value.offset is not None

    def test_counts_balance_on_fuzzed_inputs(self, tmp_path):
        rng = random.Random(0)
        feats = []
        for i in range(60):
            kind = rng.randrange(5)
            if kind == 0:
                feats.append(feature(f"g{i}", square(-74 + i * 1e-3, 40.7)))
            elif kind == 1:  # too few vertices
                feats.append(feature(f"s{i}", [[0, 0], [1e-3, 0], [0, 0]]))
            elif kind == 2:  # unknown label
                feats.append(feature(f"u{i}", square(-74, 40.7), label="?"))
            elif kind == 3:  # missing properties
                f = feature(f"n{i}", square(-74, 40.7))
                del f["properties"]["label"]
                feats.append(f)
            else:  # NaN vertex (json admits it)
                ring = square(-74, 40.7)
                ring[1][0] = float("nan")
                feats.append(feature(f"x{i}", ring))
        fs = load_footprints(
            write(tmp_path, "f.json", {"type": "FeatureCollection",
                                       "features": feats}), MAPPING)
        assert fs.report.n_accepted + fs.report.n_rejected == fs.report.n_input
        assert fs.report.n_input == 60
        assert len(fs) == fs.report.n_accepted
        # every accepted footprint satisfies the ring invariants
        from oracle_utils import _validate_ring
        for fp in fs:
            assert fp.ring[0] == fp.ring[-1]
            assert len(set(fp.ring[:-1])) >= 3
            assert all(math.isfinite(c) for v in fp.ring for c in v)
            revalidated, reason = _validate_ring(
                [[lon, lat] for lat, lon in fp.ring])
            assert revalidated is not None, reason

    def test_deterministic(self, tmp_path):
        fc = {"type": "FeatureCollection", "features": [
            feature(f"b{i}", square(-74.0 + i * 0.01, 40.7)) for i in range(5)]}
        p = write(tmp_path, "f.json", fc)
        a = load_footprints(p, MAPPING)
        b = load_footprints(p, MAPPING)
        assert a.footprints == b.footprints


BAD_VALUES = {"nan": float("nan"), "inf": float("inf"), "string": "40.7",
              "bool": True, "huge": 10 ** 400}


def ring_cases():
    """Named rings for the ring checks, as GeoJSON [lon, lat] lists."""
    sq = [[0.0, 0.0], [1e-3, 0.0], [1e-3, 1e-3], [0.0, 1e-3]]
    circle = [[math.cos(k * 2 * math.pi / 400) * 1e-3,
               math.sin(k * 2 * math.pi / 400) * 1e-3] for k in range(400)]
    crossed = list(circle)
    crossed[150], crossed[250] = crossed[250], crossed[150]
    cases = {
        "square-closed": sq + sq[:1], "square-unclosed": sq,
        "square-doubly-closed": sq + sq[:1] + sq[:1],
        "square-closed-twice-round": sq + sq + sq[:1],
        "bow-tie": [[0, 0], [2e-3, 2e-3], [2e-3, 0], [0, 1e-3], [0, 0]],
        "touching-vertex-on-edge": [[0, 0], [4e-3, 0], [4e-3, 4e-3],
                                    [2e-3, 0], [0, 4e-3]],
        "touching-at-a-vertex": [[0, 0], [2e-3, 0], [1e-3, 1e-3],
                                 [2e-3, 2e-3], [0, 2e-3], [1e-3, 1e-3]],
        "collinear": [[0, 0], [1e-3, 0], [2e-3, 0], [3e-3, 0]],
        # two edges on one line meet, and no other pair does
        "collinear-edges-overlap": [[2e-3, 0], [0, 3e-3], [2e-3, 1e-3],
                                    [1e-3, 2e-3], [3e-3, 0]],
        "collinear-edges-touch": [[1e-3, 3e-3], [1e-3, 1e-3], [1e-3, 2e-3],
                                  [1e-3, 0], [2e-3, 2e-3], [2e-3, 3e-3]],
        "collinear-edges-touch-at-one-lat": [
            [3e-3, 1e-3], [1e-3, 1e-3], [2e-3, 1e-3], [0, 1e-3],
            [2e-3, 2e-3], [3e-3, 2e-3]],
        # areas of 0.75 and 1.5 times the 1e-16 square-degree floor
        "tiny-area": [[0, 0], [1e-8, 0], [0, 1.5e-8]],
        "small-area": [[0, 0], [1e-8, 0], [0, 3e-8]],
        "collinear-back-and-forth": [[0, 0], [2e-3, 0], [1e-3, 0]],
        "spike": [[0, 0], [2e-3, 0], [2e-3, 2e-3], [2e-3, 3e-3],
                  [2e-3, 2e-3], [0, 2e-3]],
        "duplicates": [sq[0], sq[0], sq[1], sq[1], sq[1], sq[2], sq[3],
                       sq[3], sq[0], sq[0]],
        "zero-then-minus-zero": [[0.0, 0.0], [-0.0, 0.0], [1e-3, 0.0],
                                 [1e-3, 1e-3], [0.0, -0.0]],
        "minus-zero-then-zero": [[-0.0, -0.0], [0.0, 0.0], [1e-3, 0.0],
                                 [1e-3, 1e-3], [0.0, 1e-3], [0.0, 0.0]],
        "one-point": [[1e-3, 2e-3]] * 5, "one-position": [[1e-3, 2e-3]],
        "two-points": [[0, 0], [1e-3, 0], [0, 0], [1e-3, 0]],
        "empty": [], "not-a-list": "ring", "position-not-a-list": [
            [0, 0], {"lon": 1}, [1e-3, 1e-3]],
        "three-element-positions": [p + [12.5] for p in sq],
        "one-element-position": [[0, 0], [1e-3], [1e-3, 1e-3], [0, 1e-3]],
        "integer-ring": [[0, 0], [3, 0], [3, 3], [0, 3], [0, 0]],
        "huge-ring": [[1e300, 1e300], [-1e300, 1e300], [-1e300, -1e300],
                      [1e300, -1e300]],
        "circle-400": circle, "circle-400-crossed": crossed,
    }
    for a, b in itertools.permutations(BAD_VALUES, 2):
        ring = [list(p) for p in sq]
        # the first bad vertex names the reason
        ring[1][1], ring[3][0] = BAD_VALUES[a], BAD_VALUES[b]
        cases[f"bad-{a}-before-{b}"] = ring
        ring = [list(p) for p in sq]
        ring[2] = [BAD_VALUES[a], BAD_VALUES[b]]  # one position holds both
        cases[f"bad-pair-{a}-{b}"] = ring
    return cases


def grid_value(rng):
    """A coordinate on a coarse grid; zero as 0.0, -0.0 or the int 0."""
    v = rng.randint(-2, 2) * 1e-4
    return v if v else rng.choice((0.0, -0.0, 0))


def random_ring(rng):
    """A short ring on a coarse grid: many collinear, touching,
    crossing and repeated vertices, some closed, some not."""
    ring = [[grid_value(rng), grid_value(rng)]
            for _ in range(rng.randint(0, 9))]
    if ring and rng.random() < 0.5:
        ring.append(list(ring[0]))
    if ring and rng.random() < 0.1:
        ring[rng.randrange(len(ring))][rng.randrange(2)] = rng.choice(
            list(BAD_VALUES.values()))
    return ring


def parity_collection(seed):
    """Named and seeded rings as Polygons and MultiPolygons, among
    features with bad ids, labels and geometry."""
    rng = random.Random(seed)
    rings = list(ring_cases().items())
    rings += [(f"r{k}", random_ring(rng)) for k in range(300)]
    rng.shuffle(rings)
    feats = []
    while rings:
        kind = rng.randrange(10)
        if kind < 5:
            name, ring = rings.pop()
            feats.append(feature(name, ring, label=rng.choice(
                ("R1", "R2", "R1", "zz"))))
        elif kind < 8:
            polys = [[rings.pop()[1]] for _ in range(min(len(rings),
                                                         rng.randint(1, 4)))]
            feats.append(feature(f"m{len(feats)}", None,
                                 gtype="MultiPolygon"))
            feats[-1]["geometry"]["coordinates"] = polys
        else:
            feats.append(rng.choice([
                feature(None, rings.pop()[1]), feature(7, rings.pop()[1],
                                                       label=[1]),
                feature("p", rings.pop()[1], gtype="Point"), "feature",
                {"type": "Feature", "properties": {"building_id": "x",
                                                   "label": "R1"}}]))
    return {"type": "FeatureCollection", "features": feats}


class TestRingChecksAgainstScalar:
    """The array pass over every ring equals the one-ring reference."""

    @staticmethod
    def assert_same(path):
        fs = load_footprints(path, MAPPING)
        want, report = reference_load_footprints(path, MAPPING)
        # repr tells -0.0 from 0.0
        assert [(fp.building_id, repr(fp.ring), fp.raw_label, fp.category)
                for fp in fs] == [
            (fp.building_id, repr(fp.ring), fp.raw_label, fp.category)
            for fp in want]
        assert fs.report.to_dict() == report.to_dict()
        return fs, report

    def test_named_cases(self, tmp_path):
        cases = ring_cases()
        fc = {"type": "FeatureCollection", "features": [
            feature(name, ring) for name, ring in cases.items()]}
        fs, report = self.assert_same(write(tmp_path, "f.json", fc))
        accepted = {fp.building_id for fp in fs}
        assert {"square-closed", "square-unclosed", "square-doubly-closed",
                "three-element-positions", "zero-then-minus-zero",
                "minus-zero-then-zero", "integer-ring", "huge-ring",
                "small-area", "circle-400"} <= accepted
        reasons = dict(report.rejected)
        assert reasons["bow-tie"] == "ring is self-intersecting"
        assert reasons["circle-400-crossed"] == "ring is self-intersecting"
        assert reasons["collinear"] == "ring has zero area"
        assert reasons["tiny-area"] == "ring has zero area"
        assert {reasons["collinear-edges-overlap"],
                reasons["collinear-edges-touch"],
                reasons["collinear-edges-touch-at-one-lat"]} == {
            "ring is self-intersecting"}
        assert reasons["bad-nan-before-string"] == "non-finite coordinate"
        assert reasons["bad-huge-before-inf"] == "non-numeric coordinate"
        assert reasons["bad-pair-inf-bool"] == "non-numeric coordinate"
        ring = {fp.building_id: fp.ring for fp in fs}
        assert repr(ring["zero-then-minus-zero"][0]) == "(0.0, 0.0)"
        assert repr(ring["minus-zero-then-zero"][0]) == "(-0.0, -0.0)"

    @pytest.mark.parametrize("cells", [None, 7])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_collections(self, tmp_path, monkeypatch, seed, cells):
        if cells is not None:  # one ring and one edge per block
            monkeypatch.setattr("geotag_facade.ingest._PAIR_CELLS", cells)
        fs, report = self.assert_same(write(tmp_path, "f.json",
                                            parity_collection(seed)))
        assert len(fs) > 20 and len({r for _, r in report.rejected}) >= 9

    @pytest.mark.parametrize("seed", range(4))
    def test_positions_beyond_two_values_take_the_one_pass_read(
            self, tmp_path, monkeypatch, seed):
        # rings whose positions all start with two floats, some of them
        # [lon, lat, z] and some of mixed length: the read is one pass
        # (no value goes through the per-vertex reader) and reads only
        # the first two values of each position, as that reader does
        rng = random.Random(seed)
        rings = [r for r in [*ring_cases().values()]
                 + [random_ring(rng) for _ in range(300)]
                 if isinstance(r, list) and r and all(
                     isinstance(q, list) and len(q) == 2
                     and {type(q[0]), type(q[1])} <= {float} for q in r)]
        extra = ([], [0.0], [12.5], ["z"], [None], [1.5, {}], [[1.0]])
        uniform = [0.0]
        feats = []
        for k, ring in enumerate(rings):
            if k % 3 == 0:  # every position [lon, lat, z]
                ring = [q + uniform for q in ring]
            elif k % 3 == 1:  # positions of mixed length
                ring = [q + rng.choice(extra) for q in ring]
            feats.append(feature(f"r{k}", ring, label=rng.choice(
                ("R1", "R2", "zz"))))
        path = write(tmp_path, "f.json", {"type": "FeatureCollection",
                                          "features": feats})

        def refuse(*values):
            raise AssertionError("a ring was read vertex by vertex")
        monkeypatch.setattr("geotag_facade.ingest._numbers", refuse)
        fs, report = self.assert_same(path)
        assert len(rings) > 100 and len(fs) >= 10
        assert len({r for _, r in report.rejected}) >= 4


def meta_line(pano_id="a", lat=40.7, lon=-74.0, north_px=512, width=2048,
              height=1024):
    return {"pano_id": pano_id, "lat": lat, "lon": lon, "north_px": north_px,
            "width": width, "height": height}


class TestPanoramaMeta:
    def write_jsonl(self, tmp_path, records):
        p = tmp_path / "metas.jsonl"
        p.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return p

    def test_single_valid_record(self, tmp_path):
        ps = load_panorama_meta(self.write_jsonl(tmp_path, [meta_line()]))
        assert len(ps) == 1
        m = ps.metas[0]
        assert (m.pano_id, m.width, m.height) == ("a", 2048, 1024)

    def test_north_px_at_width_rejected(self, tmp_path):
        ps = load_panorama_meta(self.write_jsonl(
            tmp_path, [meta_line(north_px=2048)]))
        assert len(ps) == 0 and ps.report.n_rejected == 1

    def test_duplicate_pano_id_errors(self, tmp_path):
        p = self.write_jsonl(tmp_path, [meta_line(), meta_line()])
        with pytest.raises(LoadError):
            load_panorama_meta(p)

    def test_none_accepted_warns(self, tmp_path, caplog):
        p = self.write_jsonl(tmp_path, [meta_line(width=-5),
                                        meta_line("b", north_px=4096)])
        assert warnings_of(caplog, lambda: load_panorama_meta(p)) == [
            f"loaded 0 panoramas from {p}: all 2 rejected, the first (a) "
            f"for: non-positive size -5x1024"]
        # one accepted, or none given, is no warning
        for recs in ([meta_line(width=-5), meta_line("b")], []):
            p = self.write_jsonl(tmp_path, recs)
            assert warnings_of(caplog, lambda: load_panorama_meta(p)) == []

    def test_non_equirect_warns_but_loads(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            ps = load_panorama_meta(self.write_jsonl(
                tmp_path, [meta_line(width=2000, height=1024)]))
        assert len(ps) == 1
        assert any("equirectangular" in r.message for r in caplog.records)

    def test_file_order_kept(self, tmp_path):
        recs = [meta_line(pano_id=f"p{i}") for i in (3, 1, 2)]
        ps = load_panorama_meta(self.write_jsonl(tmp_path, recs))
        assert [m.pano_id for m in ps.metas] == ["p3", "p1", "p2"]

    def test_blank_lines_are_skipped(self, tmp_path):
        # blank and whitespace-only lines count as no record at all
        p = tmp_path / "m.jsonl"
        p.write_text("\n" + json.dumps(meta_line(pano_id="a")) + "\n  \t\n\n"
                     + json.dumps(meta_line(pano_id="b")) + "\n \n")
        ps = load_panorama_meta(p)
        assert [m.pano_id for m in ps.metas] == ["a", "b"]
        assert ps.report.n_input == 2 and ps.report.n_rejected == 0

    def test_nan_fields_rejected(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"pano_id": "n", "lat": NaN, "lon": 0, '
                     '"north_px": 0, "width": 2048, "height": 1024}\n')
        ps = load_panorama_meta(p)
        assert len(ps) == 0 and ps.report.n_rejected == 1


def det(pano_id="a", bbox=(10, 10, 100, 50), score=0.9, **extra):
    d = {"pano_id": pano_id, "bbox": list(bbox), "score": score}
    d.update(extra)
    return d


class TestDetections:
    def test_grouping(self, tmp_path):
        p = write(tmp_path, "d.json",
                  [det("a"), det("a", (0, 0, 5, 5), 0.5), det("b")])
        ds = load_detections_as_reference(p)
        assert {k: len(v) for k, v in ds.by_pano.items()} == {"a": 2, "b": 1}
        assert ds.n_boxes == 3

    def test_category_discarded(self, tmp_path):
        p = write(tmp_path, "d.json", [det(category_id=4)])
        ds = load_detections_as_reference(p)
        box = ds.by_pano["a"][0]
        assert not hasattr(box, "category_id") and not hasattr(box, "category")

    def test_negative_size_rejected(self, tmp_path):
        p = write(tmp_path, "d.json", [det(bbox=(10, 10, -5, 20))])
        ds = load_detections_as_reference(p)
        assert ds.n_boxes == 0 and ds.report.n_rejected == 1

    def test_box_top_above_the_image_rejected(self, tmp_path):
        p = write(tmp_path, "d.json", [det(bbox=(10, -0.5, 5, 20)),
                                       det("b", bbox=(10, 0, 5, 20))])
        ds = load_detections(p)
        assert ds.pano_ids == ["b"] and ds.n_boxes == 1
        assert ds.report.rejected == [("result[0]",
                                       "box top -0.5 above the image")]

    def test_score_out_of_range_rejected(self, tmp_path):
        p = write(tmp_path, "d.json", [det(score=1.5), det(score=-0.1)])
        ds = load_detections_as_reference(p)
        assert ds.n_boxes == 0 and ds.report.n_rejected == 2

    def test_none_accepted_warns(self, tmp_path, caplog):
        p = write(tmp_path, "d.json", [det(score=1.5), det(bbox=(0, 0, 0, 5))])
        assert warnings_of(caplog, lambda: load_detections(p)) == [
            f"loaded 0 detections from {p}: all 2 rejected, the first "
            f"(result[0]) for: score 1.5 outside [0, 1]"]
        # one accepted, or none given, is no warning
        for recs in ([det(score=1.5), det()], []):
            p = write(tmp_path, "d.json", recs)
            assert warnings_of(caplog, lambda: load_detections(p)) == []

    def test_image_id_alias(self, tmp_path):
        p = write(tmp_path, "d.json",
                  [{"image_id": "z", "bbox": [0, 0, 5, 5], "score": 0.5}])
        ds = load_detections_as_reference(p)
        assert ds.by_pano["z"]

    def test_counts_balance(self, tmp_path):
        p = write(tmp_path, "d.json",
                  [det(), det(score=2.0), det(bbox=(0, 0, 0, 5)), det("b")])
        ds = load_detections_as_reference(p)
        assert ds.report.n_accepted + ds.report.n_rejected == ds.report.n_input == 4

    def test_nan_bbox_rejected(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text('[{"pano_id": "a", "bbox": [NaN, 0, 10, 10], '
                     '"score": 0.5}]')
        ds = load_detections_as_reference(p)
        assert ds.n_boxes == 0 and ds.report.n_rejected == 1

    def test_not_an_array_errors_as_the_reference_does(self, tmp_path):
        p = write(tmp_path, "d.json", {"pano_id": "a"})
        with pytest.raises(LoadError):
            load_detections_as_reference(p)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_interleaved_panoramas(self, tmp_path, seed):
        # boxes of six panoramas interleave, with rejected records among
        # them: each panorama keeps its boxes in input order, and the
        # panoramas come in order of first appearance
        rng = random.Random(seed)
        recs = []
        for _ in range(400):
            pano = rng.choice(["p3", "p1", "p0", 7, "p2", "\u00e9"])
            rec = det(pano, [rng.choice((rng.uniform(0, 2048), 0, -0.0,
                                         2.5e-7)) for _ in range(2)]
                      + [rng.uniform(1, 300), rng.uniform(1, 200)],
                      rng.random())
            if rng.random() < 0.1:
                rec[rng.choice(["bbox", "score", "pano_id"])] = rng.choice(
                    [None, -1, 2.0, "x", [1, 2], float("nan")])
            if rng.random() < 0.2:
                rec = {"image_id": rec.pop("pano_id"), **rec}
            recs.append(rec)
        ds = load_detections_as_reference(write(tmp_path, "d.json", recs))
        assert len(ds.pano_ids) >= 6 and ds.pano_ids != sorted(ds.pano_ids)
        assert 300 < ds.n_boxes < 400
        again = DetectionSet.of(b for bs in ds.by_pano.values() for b in bs)
        assert again.pano_ids == ds.pano_ids
        assert all(np.array_equal(getattr(again, c), getattr(ds, c))
                   for c in ("offsets", "x", "y", "w", "h", "score"))


class TestCategoryMapping:
    def test_load_and_resolve(self, tmp_path):
        p = write(tmp_path, "m.json", {
            "city": "nyc", "default": 6,
            "entries": {"R1": 1, "R2": 2, "C": 3, "D": 4, "E": 5},
            "names": {"1": "one"}})
        m = load_category_mapping(p)
        assert m.resolve("R2") == 2
        assert m.resolve("??") == 6
        assert m.category_ids == [1, 2, 3, 4, 5, 6]
        assert m.name_of(1) == "one" and m.name_of(2) == "category_2"

    def test_no_categories_rejected(self, tmp_path):
        p = write(tmp_path, "m.json", {"entries": {}})
        with pytest.raises(LoadError, match="mapping has no categories"):
            load_category_mapping(p)

    def test_gap_in_ids_rejected(self, tmp_path):
        p = write(tmp_path, "m.json", {"entries": {"a": 1, "b": 3}})
        with pytest.raises(LoadError):
            load_category_mapping(p)


# the city mappings shipped in configs/, and each one's category count
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CITY_CATEGORIES = {"boston": 5, "los_angeles": 5, "new_york": 6}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_shipped_city_mapping(path):
    m = load_category_mapping(path)
    assert m.city == path.stem
    assert m.category_ids == list(range(1, CITY_CATEGORIES[path.stem] + 1))
    for c in m.category_ids:
        assert c in m.names and m.name_of(c) != f"category_{c}"


class TestRanges:
    """``ranges`` equals the run-by-run loop, dtype int64 throughout."""

    @staticmethod
    def assert_same(first, count):
        first = np.array(first, np.int64)
        count = np.array(count, np.int64)
        owner, index = ranges(first, count)
        want_owner, want_index = reference_ranges(first.tolist(),
                                                  count.tolist())
        assert owner.dtype == index.dtype == np.int64
        assert owner.tolist() == want_owner
        assert index.tolist() == want_index

    def test_named_cases(self):
        self.assert_same([], [])
        self.assert_same([7], [0])
        self.assert_same([0, 0, 0], [0, 0, 0])
        self.assert_same([3], [1])
        self.assert_same([5, 0, 5], [2, 0, 3])  # runs may overlap
        self.assert_same([9, 2, 0], [1, 3, 2])  # and go back
        self.assert_same([2 ** 31 - 1, 2 ** 32, 2 ** 62], [3, 2, 1])

    def test_seeded_random_runs(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.choice((0, 1, 2, rng.randint(3, 60)))
            top = rng.choice((50, 2 ** 31, 2 ** 40))
            first = [rng.randrange(top) for _ in range(n)]
            count = [rng.choice((0, 0, 1, rng.randint(2, 40)))
                     for _ in range(n)]
            self.assert_same(first, count)
