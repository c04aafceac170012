import math

import numpy as np
import pytest

from geotag_facade.errors import ConfigError
from geotag_facade.ingest import (BuildingFootprint, FootprintSet,
                                  PanoramaMeta)
from geotag_facade.metrics import iou_2d
from geotag_facade.projection import (FootprintIndex, LocalScene,
                                      WallSegment, clip_scene,
                                      geodetic_to_local)
from geotag_facade.raytrace import trace_sweep
from geotag_facade.synth import (NoiseConfig, SceneConfig, generate_scene,
                                 oracle_hits, oracle_intervals_for_scene,
                                 oracle_visibility, perturb_detections)


def scene_of(segments, radius=50.0):
    buildings, seen = [], set()
    for s in segments:
        if s.building_id not in seen:
            seen.add(s.building_id)
            buildings.append((s.building_id, s.category))
    return LocalScene(pano_id="p", origin=(0.0, 0.0), radius_m=radius,
                      segments=segments, buildings=tuple(buildings))


def square_segs(cx, cy, side, building_id="B", category=1):
    h = side / 2.0
    c = [(cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h),
         (cx - h, cy + h)]
    return [WallSegment(ax=c[i][0], ay=c[i][1], bx=c[(i + 1) % 4][0],
                        by=c[(i + 1) % 4][1], building_id=building_id,
                        category=category) for i in range(4)]


class TestOracle:
    def test_square_extent_analytic(self):
        # 10 m square centered 20 m north: extent is atan(5/15) = 18.4349 deg
        ivs = oracle_intervals_for_scene(scene_of(square_segs(0, 20, 10)))
        assert len(ivs) == 1
        iv = ivs[0]
        extent = math.degrees(math.atan2(5.0, 15.0))
        assert iv.angle_lo == pytest.approx(360.0 - extent, abs=2e-4)
        assert iv.angle_hi == pytest.approx(extent, abs=2e-4)
        assert iv.min_distance == pytest.approx(15.0, abs=1e-9)

    def test_occluder_hides_far_building(self):
        segs = (square_segs(0, 12, 10, "near") +
                square_segs(0, 30, 4, "far"))
        ivs = oracle_intervals_for_scene(scene_of(segs))
        assert {iv.building_id for iv in ivs} == {"near"}

    def test_resolution_refinement_consistent(self):
        segs = square_segs(7, 25, 12)
        a = oracle_intervals_for_scene(scene_of(segs), 0.01)
        b = oracle_intervals_for_scene(scene_of(segs), 0.001)
        assert len(a) == len(b) == 1
        assert a[0].angle_lo == pytest.approx(b[0].angle_lo, abs=0.01)
        assert a[0].angle_hi == pytest.approx(b[0].angle_hi, abs=0.01)

    def test_empty_scene(self):
        bidx, dist = oracle_hits(scene_of([]), np.arange(360.0))
        assert (bidx == -1).all() and not np.isfinite(dist).any()

    def test_shared_wall_goes_to_the_smaller_id(self):
        # "zeta" is listed first, and both buildings own the wall due north
        wall = dict(ax=-5.0, ay=20.0, bx=5.0, by=20.0)
        segs = [WallSegment(**wall, building_id="zeta", category=1),
                WallSegment(**wall, building_id="alpha", category=2),
                WallSegment(ax=20.0, ay=-5.0, bx=20.0, by=5.0,
                            building_id="zeta", category=1)]
        scene = LocalScene(pano_id="p", origin=(0.0, 0.0), radius_m=50.0,
                           segments=segs,
                           buildings=(("zeta", 1), ("alpha", 2)))
        bidx, dist = oracle_hits(scene, np.array([0.0, 10.0, 90.0, 180.0]))
        assert bidx.tolist() == [1, 1, 0, -1]
        assert dist[0] == pytest.approx(20.0)
        assert dist[2] == pytest.approx(20.0)
        sweep = trace_sweep(scene, 1.0)
        assert sweep.building_idx[[0, 10, 90, 180]].tolist() == [1, 1, 0, -1]


    def test_building_seen_all_the_way_round(self):
        # four slabs of one building, overlapping at the corners, ring
        # the camera: one interval over the whole circle, nothing to refine
        from geotag_facade import RunConfig, trace_run
        from geotag_facade.projection import local_to_geodetic
        boxes = [(-14.0, 10.0, 14.0, 14.0), (-14.0, -14.0, 14.0, -10.0),
                 (10.0, -14.0, 14.0, 14.0), (-14.0, -14.0, -10.0, 14.0)]
        fps = []
        for x0, y0, x1, y1 in boxes:
            ring = [local_to_geodetic((0.0, 0.0), p)
                    for p in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]
            fps.append(BuildingFootprint(building_id="ring",
                                         ring=(*ring, ring[0]),
                                         raw_label="x", category=3))
        index = FootprintIndex(FootprintSet.of(fps))
        meta = PanoramaMeta(pano_id="p", lat=0.0, lon=0.0, north_px=0.0,
                            width=2048, height=1024)
        iv, = oracle_intervals_for_scene(clip_scene(index, meta, 50.0))
        assert (iv.building_id, iv.category) == ("ring", 3)
        assert (iv.angle_lo, iv.angle_hi) == (0.0, pytest.approx(359.99))
        assert iv.min_distance == pytest.approx(10.0)
        table = trace_run(index, [meta], RunConfig(step_deg=1.0))
        assert table.offsets.tolist() == [0, 1]
        assert index.footprints.building_ids[table.owner[0]] == "ring"
        assert (table.angle_lo[0], table.angle_hi[0]) == (0.0, 359.0)
        assert table.min_distance[0] == pytest.approx(10.0)


class TestGenerateScene:
    def test_deterministic(self):
        a = generate_scene(1, SceneConfig(n_buildings=6, n_cameras=2))
        b = generate_scene(1, SceneConfig(n_buildings=6, n_cameras=2))
        assert a.footprints == b.footprints
        assert a.metas == b.metas
        assert a.gt_boxes == b.gt_boxes
        assert a.gt_intervals == b.gt_intervals

    def test_empty_scene(self):
        s = generate_scene(2, SceneConfig(n_buildings=0, n_cameras=2))
        assert s.footprints == []
        assert all(ivs == [] for ivs in s.gt_intervals.values())
        assert s.gt_boxes == []

    def test_single_building_due_north_symmetric(self):
        # place the building by hand: symmetric interval about north_px
        origin = (10.0, 20.0)
        ring_local = [(-5, 15), (5, 15), (5, 25), (-5, 25)]
        from geotag_facade.projection import local_to_geodetic
        geo = [local_to_geodetic(origin, p) for p in ring_local]
        fp = BuildingFootprint(building_id="b", ring=tuple(geo + [geo[0]]),
                               raw_label="cat_1", category=1)
        meta = PanoramaMeta(pano_id="c", lat=origin[0], lon=origin[1],
                            north_px=777.0, width=2048, height=1024)
        local = clip_scene(FootprintIndex(FootprintSet.of([fp])), meta, 50.0)
        ivs = oracle_intervals_for_scene(local)
        from geotag_facade.raytrace import intervals_to_pixel
        iv = intervals_to_pixel(ivs, meta)[0]
        lo_off = (777.0 - iv.px_lo) % 2048
        hi_off = (iv.px_hi - 777.0) % 2048
        assert lo_off == pytest.approx(hi_off, abs=0.01)

    def test_invariants(self):
        for seed in range(5):
            s = generate_scene(seed, SceneConfig(n_buildings=10, n_cameras=3))
            # no camera inside a footprint, checked on the local plane
            index = FootprintIndex(s.footprint_set)
            for m in s.metas:
                local = clip_scene(index, m, s.config.radius_m)
                assert not local.degenerate
            # gt boxes' horizontal extent equals the interval pixel span
            spans = {}
            for pid, ivs in s.gt_intervals.items():
                for iv in ivs:
                    spans[(pid, round(iv.px_lo, 9))] = iv
            for g in s.gt_boxes:
                iv = spans[(g.pano_id, round(g.x, 9))]
                assert g.w == pytest.approx((iv.px_hi - iv.px_lo) % 2048)
                assert g.category == iv.category

    def test_footprints_disjoint(self):
        s = generate_scene(9, SceneConfig(n_buildings=14, n_cameras=1))
        rects = []
        for fp in s.footprints:
            pts = [geodetic_to_local(s.origin, v) for v in fp.ring[:-1]]
            xs = [p.x for p in pts]
            ys = [p.y for p in pts]
            rects.append((min(xs), max(xs), min(ys), max(ys)))
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                a, b = rects[i], rects[j]
                overlap = (a[0] < b[1] and b[0] < a[1]
                           and a[2] < b[3] and b[2] < a[3])
                assert not overlap

    def test_corridor_width_guard(self):
        with pytest.raises(ConfigError):
            SceneConfig(corridor_width=4.0)

    @pytest.mark.parametrize("res", [7.0, 0.007, 0.0, -1.0, math.nan,
                                     math.inf])
    def test_oracle_resolution_must_divide_360(self, res):
        # a step that does not tile the circle is a config error, not a
        # ValueError from the oracle once the scene is built
        with pytest.raises(ConfigError, match="does not divide 360"):
            SceneConfig(oracle_resolution_deg=res)
        for ok in (0.01, 0.1, 7.5):
            SceneConfig(oracle_resolution_deg=ok)

    def test_oracle_visibility_roundtrip_from_files(self, tmp_path):
        # serialize the scene, reload through the loaders, oracle agrees
        import json
        from geotag_facade.ingest import (load_footprints,
                                          load_panorama_meta,
                                          load_category_mapping)
        s = generate_scene(4, SceneConfig(n_buildings=8, n_cameras=2))
        features = [{
            "type": "Feature",
            "properties": {"building_id": fp.building_id,
                           "label": fp.raw_label},
            "geometry": {"type": "Polygon",
                         "coordinates": [[[lon, lat] for lat, lon in fp.ring]]},
        } for fp in s.footprints]
        (tmp_path / "f.geojson").write_text(json.dumps(
            {"type": "FeatureCollection", "features": features}))
        (tmp_path / "m.jsonl").write_text("\n".join(
            json.dumps({"pano_id": m.pano_id, "lat": m.lat, "lon": m.lon,
                        "north_px": m.north_px, "width": m.width,
                        "height": m.height}) for m in s.metas))
        (tmp_path / "map.json").write_text(json.dumps(
            {"city": "synthetic", "entries": s.mapping.entries}))
        mapping = load_category_mapping(tmp_path / "map.json")
        fps = load_footprints(tmp_path / "f.geojson", mapping)
        metas = load_panorama_meta(tmp_path / "m.jsonl")
        assert fps.footprints == s.footprints
        assert metas.metas == s.metas
        s2 = type(s)(seed=s.seed, config=s.config, origin=s.origin,
                     footprints=fps.footprints, mapping=mapping,
                     metas=metas.metas)
        assert oracle_visibility(s2) == s.gt_intervals


class TestPerturbDetections:
    def test_zero_noise_identity(self):
        s = generate_scene(5, SceneConfig(n_buildings=8, n_cameras=2))
        dets = perturb_detections(s, NoiseConfig(), seed=99)
        boxes = [b for m in s.metas for b in dets.by_pano[m.pano_id]]
        assert len(boxes) == len(s.gt_boxes)
        for b, g in zip(boxes, s.gt_boxes):
            assert (b.x, b.y, b.w, b.h) == (g.x, g.y, g.w, g.h)
            assert b.score == 1.0

    def test_small_jitter_keeps_high_iou(self):
        s = generate_scene(6, SceneConfig(n_buildings=10, n_cameras=3))
        noise = NoiseConfig(shift_frac=0.05, scale_frac=0.05)
        dets = perturb_detections(s, noise, seed=1)
        gt_iter = iter(s.gt_boxes)
        for m in s.metas:
            for b in dets.by_pano[m.pano_id]:
                g = next(gt_iter)
                v = iou_2d((b.x, b.y, b.w, b.h), (g.x, g.y, g.w, g.h),
                           width=m.width)
                assert v >= 0.75  # 0.05 shift+scale worst case is ~0.78

    def test_fp_count_deterministic(self):
        s = generate_scene(7, SceneConfig(n_buildings=10, n_cameras=4))
        n_true = len(s.gt_boxes)
        noise = NoiseConfig(fp_rate=0.2)
        d1 = perturb_detections(s, noise, seed=2)
        d2 = perturb_detections(s, noise, seed=2)
        assert d1.n_boxes == d2.n_boxes == n_true + round(0.2 * n_true)
        assert d1.by_pano == d2.by_pano

    def test_fp_midpoints_avoid_intervals(self):
        s = generate_scene(8, SceneConfig(n_buildings=10, n_cameras=3))
        noise = NoiseConfig(fp_rate=0.3)
        dets = perturb_detections(s, noise, seed=3)
        n_true_by_pano = {}
        for g in s.gt_boxes:
            n_true_by_pano[g.pano_id] = n_true_by_pano.get(g.pano_id, 0) + 1
        for m in s.metas:
            fps = dets.by_pano[m.pano_id][n_true_by_pano.get(m.pano_id, 0):]
            for b in fps:
                mid = (b.x + b.w / 2.0) % m.width
                for iv in s.gt_intervals[m.pano_id]:
                    lo, hi = iv.px_lo, iv.px_hi
                    inside = (lo < mid < hi if lo <= hi
                              else (mid > lo or mid < hi))
                    assert not inside

    def test_noise_fraction_guard(self):
        with pytest.raises(ConfigError):
            NoiseConfig(shift_frac=0.6)
