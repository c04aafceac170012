import math
import random

import pytest

from geotag_facade import RunConfig
from geotag_facade.ingest import DetectionBox, DetectionSet, LoadReport
from geotag_facade.matcher import (filter_detections, fit_threshold,
                                   generate_coarse_annotations, match_box)
from geotag_facade.raytrace import VisibilityInterval
from geotag_facade.synth import (NoiseConfig, SceneConfig, generate_scene,
                                 perturb_detections)

from oracle_utils import brute_iou_1d, brute_midpoint_inside

W = 2048.0


def det(x, w, score=0.9, pano="p", y=100.0, h=300.0):
    return DetectionBox(pano_id=pano, x=x, y=y, w=w, h=h, score=score)


def interval(px_lo, px_hi, building_id="B", category=1):
    return VisibilityInterval(building_id=building_id, category=category,
                              angle_lo=0.0, angle_hi=0.0, min_distance=10.0,
                              px_lo=px_lo, px_hi=px_hi)


class TestFitThreshold:
    def test_first_batch_default(self):
        assert fit_threshold([], RunConfig()) == 0.3

    def test_zero_sigma(self):
        assert fit_threshold([0.5, 0.5, 0.5], RunConfig()) == 0.5

    def test_worked_example(self):
        thr = fit_threshold([0.9, 0.8, 0.1], RunConfig())
        mu, sigma = 0.6, math.sqrt(0.19)  # sample std, ddof=1
        assert sigma == pytest.approx(0.4359, abs=1e-4)
        assert thr == pytest.approx(mu - 0.5 * sigma, abs=1e-12)
        assert thr == pytest.approx(0.3821, abs=1e-4)

    def test_clamping(self):
        config = RunConfig()
        assert fit_threshold([0.99, 0.99, 0.99], config) == 0.9  # clip_hi
        assert fit_threshold([0.01, 0.02, 0.01], config) == 0.05  # clip_lo
        # the clamp is the run config's
        narrow = RunConfig(clip_lo=0.2, clip_hi=0.6)
        assert fit_threshold([0.99, 0.99, 0.99], narrow) == 0.6
        assert fit_threshold([0.01, 0.02, 0.01], narrow) == 0.2

    def test_empty_scores_after_first_falls_back(self):
        # no detections: batch 1 retains no scores either, so it too
        # gets the default
        scene, _ = pipeline_inputs(n_cameras=4)
        empty = DetectionSet(by_pano={}, report=LoadReport(path="x"))
        _, report = generate_coarse_annotations(
            scene.metas, scene.footprint_set, empty, RunConfig(batch_size=2))
        assert report.threshold_history == [(0, 0.3), (1, 0.3)]

    def test_fixed_mode_ignores_scores(self):
        fixed = RunConfig(threshold_mode="fixed", fixed_threshold=0.7)
        assert fit_threshold([], fixed) == 0.7
        assert fit_threshold([0.99, 0.99, 0.99], fixed) == 0.7
        assert fit_threshold([0.9, 0.8, 0.1], fixed) == 0.7


class TestFilterDetections:
    def test_inclusive_threshold(self):
        boxes = [det(0, 10, s) for s in (0.2, 0.3, 0.9)]
        kept = filter_detections(boxes, 0.3)
        assert [b.score for b in kept] == [0.3, 0.9]

    def test_all_filtered(self):
        boxes = [det(0, 10, 0.5)] * 3
        assert filter_detections(boxes, 0.9) == []

    def test_monotone_in_threshold(self):
        rng = random.Random(1)
        boxes = [det(0, 10, rng.random()) for _ in range(50)]
        for lo, hi in ((0.2, 0.5), (0.5, 0.7), (0.1, 0.9)):
            a = set(id(b) for b in filter_detections(boxes, hi))
            b = set(id(b) for b in filter_detections(boxes, lo))
            assert a <= b


class TestMatchBox:
    def test_clear_match(self):
        m = match_box(det(950, 200), [interval(900, 1200)], 0.3, W)
        assert m is not None
        assert m.building_id == "B"
        assert m.iou_x == pytest.approx(200 / 300)

    def test_low_iou_no_match(self):
        m = match_box(det(1020, 10), [interval(900, 1200)], 0.3, W)
        assert m is None  # midpoint inside but IoU ~0.033

    def test_wrapped_interval_match(self):
        # interval [2000, 2048) u [0, 100), box [0, 100]
        m = match_box(det(0, 100), [interval(2000.0, 100.0)], 0.3, W)
        assert m is not None
        assert m.iou_x == pytest.approx(100 / 148)

    def test_midpoint_strictly_required(self):
        # midpoint lands exactly on the interval edge: strict rule says no
        m = match_box(det(800, 200), [interval(900, 1200)], 0.3, W)
        assert m is None

    def test_midpoint_in_gap(self):
        ivs = [interval(100, 200, "A"), interval(300, 400, "B")]
        assert match_box(det(210, 60), ivs, 0.3, W) is None

    def test_argmax_iou_wins(self):
        ivs = [interval(900, 1200, "A"), interval(1000, 1120, "B", category=2)]
        m = match_box(det(1000, 120), ivs, 0.3, W)
        assert m.building_id == "B" and m.category == 2

    def test_category_comes_from_interval(self):
        m = match_box(det(950, 200), [interval(900, 1200, category=4)], 0.3, W)
        assert m.category == 4

    def test_against_brute_force(self):
        rng = random.Random(7)
        for _ in range(5000):
            lo = rng.uniform(0, W)
            hi = (lo + rng.uniform(0, W - 1)) % W
            x = rng.uniform(-W, W)
            w = rng.uniform(1, 600)
            iv = interval(lo, hi)
            m = match_box(det(x, w), [iv], 0.3, W)
            mid = (x + w / 2.0) % W
            want = (brute_midpoint_inside(lo, hi, mid, W)
                    and brute_iou_1d(x, x + w, lo, hi, W) > 0.3)
            assert (m is not None) == want


def pipeline_inputs(seed=11, n_buildings=10, n_cameras=3, noise=None):
    scene = generate_scene(seed, SceneConfig(n_buildings=n_buildings,
                                             n_cameras=n_cameras))
    dets = perturb_detections(scene, noise or NoiseConfig(), seed=seed + 1)
    return scene, dets


class TestGenerateCoarseAnnotations:
    def test_single_building_perfect_detection(self):
        # the minimal case: one building, one perfect box over its interval
        scene = generate_scene(33, SceneConfig(
            n_buildings=1, n_cameras=1,
            category_weights=(0.0, 1.0, 0.0, 0.0, 0.0)))  # category 2
        dets = perturb_detections(scene, NoiseConfig(), seed=1)
        assert len(scene.gt_boxes) == 1
        anns, _ = generate_coarse_annotations(
            scene.metas, scene.footprint_set, dets, RunConfig())
        assert len(anns) == 1
        assert anns[0].category == 2
        assert anns[0].building_id == scene.footprints[0].building_id

    def test_zero_noise_reproduces_categories(self):
        scene, dets = pipeline_inputs()
        config = RunConfig(seed=5, batch_size=2)
        anns, report = generate_coarse_annotations(
            scene.metas, scene.footprint_set, dets, config)
        assert len(anns) == len(scene.gt_boxes)
        truth = {(g.pano_id, round(g.x, 6)): g for g in scene.gt_boxes}
        for a in anns:
            g = truth[(a.pano_id, round(a.x, 6))]
            assert a.category == g.category
            assert a.building_id == g.building_id
            assert a.iou_x > config.iou_x_min
        assert report.totals["annotated"] == len(anns)
        assert report.totals["unmatched"] == 0

    def test_zero_detections(self):
        scene, _ = pipeline_inputs()
        empty = DetectionSet(by_pano={}, report=LoadReport(path="x"))
        anns, report = generate_coarse_annotations(
            scene.metas, scene.footprint_set, empty, RunConfig())
        assert anns == []
        tot = report.totals
        assert (tot["input_boxes"], tot["filtered_out"], tot["unmatched"],
                tot["annotated"]) == (0, 0, 0, 0)

    def test_determinism(self):
        scene, dets = pipeline_inputs(noise=NoiseConfig(
            shift_frac=0.02, scale_frac=0.02, fp_rate=0.2))
        config = RunConfig(seed=17, batch_size=2)
        a1, r1 = generate_coarse_annotations(scene.metas, scene.footprint_set,
                                             dets, config)
        a2, r2 = generate_coarse_annotations(scene.metas, scene.footprint_set,
                                             dets, config)
        assert a1 == a2
        assert r1.threshold_history == r2.threshold_history

    def test_missing_meta_reported(self):
        scene, dets = pipeline_inputs()
        dets.by_pano["ghost"] = [det(0, 10, pano="ghost")]
        anns, report = generate_coarse_annotations(
            scene.metas, scene.footprint_set, dets, RunConfig())
        assert report.missing_meta == {"ghost": 1}
        assert all(a.pano_id != "ghost" for a in anns)

    def test_batch_thresholds_recorded(self):
        scene, dets = pipeline_inputs(n_cameras=6)
        config = RunConfig(seed=1, batch_size=2, threshold_mode="adaptive")
        _, report = generate_coarse_annotations(
            scene.metas, scene.footprint_set, dets, config)
        assert len(report.threshold_history) == 3
        assert report.threshold_history[0] == (0, 0.3)
        # zero-noise scores are all 1.0, so later thresholds hit clip_hi
        assert report.threshold_history[1][1] == config.clip_hi

    def test_fixed_mode_logs_fixed(self):
        scene, dets = pipeline_inputs(n_cameras=4)
        config = RunConfig(seed=1, batch_size=2, threshold_mode="fixed",
                           fixed_threshold=0.7)
        _, report = generate_coarse_annotations(
            scene.metas, scene.footprint_set, dets, config)
        assert all(t == 0.7 for _, t in report.threshold_history)

    def test_annotations_do_not_depend_on_group_cap(self, monkeypatch):
        from geotag_facade import matcher
        from geotag_facade.config import rays_per_turn
        scene, dets = pipeline_inputs(n_cameras=12, noise=NoiseConfig(
            shift_frac=0.02, scale_frac=0.02, fp_rate=0.2))
        default = matcher.GROUP_RAYS
        for step in (1.0, 0.1):
            config = RunConfig(seed=3, batch_size=5, step_deg=step)
            runs = []
            # one camera per group, three, the whole run and the default
            # (9 cameras at 0.1 degrees): groups of 3 and 9 straddle the
            # batches of 5
            for cap in (1, 3 * rays_per_turn(step), 1 << 40, default):
                monkeypatch.setattr(matcher, "GROUP_RAYS", cap)
                runs.append(generate_coarse_annotations(
                    scene.metas, scene.footprint_set, dets, config))
            assert runs[0][0] and len(runs[0][1].batches) == 3
            for anns, report in runs[1:]:
                assert anns == runs[0][0]
                assert report.to_dict() == runs[0][1].to_dict()

    def test_groups_fill_across_batches(self, monkeypatch):
        # 7 panoramas in batches of 2 and groups of 3 cameras: one trace
        # stream makes ceil(7 / 3) = 3 groups, where tracing each batch on
        # its own made 4 (2, 2, 2, 1)
        from geotag_facade import matcher
        scene, dets = pipeline_inputs(n_cameras=7)
        sizes = []
        clip_group = matcher.clip_group

        def counted(index, group, radius_m):
            sizes.append(len(group))
            return clip_group(index, group, radius_m)
        monkeypatch.setattr(matcher, "clip_group", counted)
        monkeypatch.setattr(matcher, "GROUP_RAYS", 3 * 360)
        anns, report = generate_coarse_annotations(
            scene.metas, scene.footprint_set, dets,
            RunConfig(seed=3, batch_size=2))
        assert sizes == [3, 3, 1]
        assert [b.n_panoramas for b in report.batches] == [2, 2, 2, 1]
        assert len(anns) == len(scene.gt_boxes)

    def test_annotations_recheck_from_provenance(self):
        # every annotation's midpoint sits inside its source building's
        # interval and its iou_x clears the floor, re-derived from scratch
        from geotag_facade.matcher import _midpoint_inside
        from geotag_facade.projection import FootprintIndex
        from geotag_facade.metrics import iou_1d
        from oracle_utils import trace_panorama
        scene, dets = pipeline_inputs(seed=21, noise=NoiseConfig(
            shift_frac=0.02, scale_frac=0.02, fp_rate=0.2))
        config = RunConfig(seed=9, batch_size=2)
        anns, _ = generate_coarse_annotations(
            scene.metas, scene.footprint_set, dets, config)
        assert anns
        meta_by_id = {m.pano_id: m for m in scene.metas}
        index = FootprintIndex(scene.footprint_set)
        for a in anns:
            meta = meta_by_id[a.pano_id]
            intervals, _ = trace_panorama(index, meta, config)
            sources = [iv for iv in intervals
                       if iv.building_id == a.building_id]
            mid = (a.x + a.w / 2.0) % meta.width
            holders = [iv for iv in sources
                       if _midpoint_inside(iv.px_lo, iv.px_hi, mid,
                                           meta.width)]
            assert len(holders) == 1
            assert a.iou_x > config.iou_x_min
            assert a.iou_x == pytest.approx(iou_1d(
                (a.x, a.x + a.w), (holders[0].px_lo, holders[0].px_hi),
                meta.width))

    def test_degenerate_scene_skipped(self):
        from geotag_facade.ingest import (BuildingFootprint, DetectionSet,
                                          FootprintSet, LoadReport,
                                          PanoramaMeta)
        from geotag_facade.projection import local_to_geodetic
        origin = (40.0, -74.0)
        ring = [local_to_geodetic(origin, p)
                for p in [(-5, -5), (5, -5), (5, 5), (-5, 5)]]
        fp = BuildingFootprint(building_id="trap", ring=tuple(ring + [ring[0]]),
                               raw_label="x", category=1)
        meta = PanoramaMeta(pano_id="inside", lat=origin[0], lon=origin[1],
                            north_px=0.0, width=2048, height=1024)
        fps = FootprintSet(footprints=[fp], report=LoadReport(path="x"))
        dets = DetectionSet(by_pano={"inside": [det(0, 10, pano="inside")]},
                            report=LoadReport(path="x"))
        anns, report = generate_coarse_annotations([meta], fps, dets,
                                                   RunConfig())
        assert anns == []
        assert report.skipped_panoramas == [
            ("inside", "camera inside footprint trap")]
        assert report.totals["dropped"] == 1
