import math
import random
import warnings

import numpy as np
import pytest

from geotag_facade import RunConfig
from geotag_facade.ingest import DetectionBox, DetectionSet, LoadReport
from geotag_facade.matcher import (MatchResult, filter_detections,
                                   fit_threshold, generate_coarse_annotations,
                                   match_batch, match_box)
from geotag_facade.raytrace import IntervalTable, VisibilityInterval
from geotag_facade.synth import (NoiseConfig, SceneConfig, generate_scene,
                                 perturb_detections)

from oracle_utils import (brute_iou_1d, brute_midpoint_inside,
                          reference_annotations)

W = 2048.0


def det(x, w, score=0.9, pano="p", y=100.0, h=300.0):
    return DetectionBox(pano_id=pano, x=x, y=y, w=w, h=h, score=score)


def interval(px_lo, px_hi, building_id="B", category=1):
    return VisibilityInterval(building_id=building_id, category=category,
                              angle_lo=0.0, angle_hi=0.0, min_distance=10.0,
                              px_lo=px_lo, px_hi=px_hi)


def table_of(*cameras, footprints=None):
    """An IntervalTable holding each camera's interval rows. Each row is
    its own owner, as it has the building_id and category a footprint
    names: ``footprints``, shared by the tables of a run, holds every
    row, by default this table's."""
    rows = [iv for ivs in cameras for iv in ivs]
    footprints = tuple(rows) if footprints is None else footprints
    ids = sorted({iv.building_id for iv in footprints})
    where = {id(iv): i for i, iv in enumerate(footprints)}

    def column(name):
        return np.array([getattr(iv, name) for iv in rows], float)
    return IntervalTable(
        footprints=footprints, containing=[None] * len(cameras),
        offsets=np.cumsum([0] + [len(ivs) for ivs in cameras]),
        rank=np.array([ids.index(iv.building_id) for iv in rows], np.int64),
        owner=np.array([where[id(iv)] for iv in rows], np.int64),
        angle_lo=column("angle_lo"), angle_hi=column("angle_hi"),
        min_distance=column("min_distance"), px_lo=column("px_lo"),
        px_hi=column("px_hi"))


def batch_match_box(box, intervals, iou_min, width):
    """``match_box`` through the batch pass: a batch of one box, which
    must raise no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matched = match_batch([([box], width, table_of(intervals), 0)],
                              iou_min)
    if not matched:
        return None
    (_, building_id, category, iou), = matched
    return MatchResult(building_id=building_id, category=category, iou_x=iou)


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
    """The matching rule, through the per-box ``match_box``."""

    match = staticmethod(match_box)

    def test_clear_match(self):
        m = self.match(det(950, 200), [interval(900, 1200)], 0.3, W)
        assert m is not None
        assert m.building_id == "B"
        assert m.iou_x == pytest.approx(200 / 300)

    def test_low_iou_no_match(self):
        m = self.match(det(1020, 10), [interval(900, 1200)], 0.3, W)
        assert m is None  # midpoint inside but IoU ~0.033

    def test_wrapped_interval_match(self):
        # interval [2000, 2048) u [0, 100), box [0, 100]
        m = self.match(det(0, 100), [interval(2000.0, 100.0)], 0.3, W)
        assert m is not None
        assert m.iou_x == pytest.approx(100 / 148)

    def test_midpoint_strictly_required(self):
        # midpoint lands exactly on the interval edge: strict rule says no
        m = self.match(det(800, 200), [interval(900, 1200)], 0.3, W)
        assert m is None

    def test_iou_at_the_floor_is_not_enough(self):
        # 300 / 1000 rounds to the float 0.3: the floor is strict
        assert self.match(det(0, 300), [interval(0, 1000)], 0.3, W) is None
        assert self.match(det(0, 302), [interval(0, 1000)], 0.3,
                          W) is not None

    def test_midpoint_in_gap(self):
        ivs = [interval(100, 200, "A"), interval(300, 400, "B")]
        assert self.match(det(210, 60), ivs, 0.3, W) is None

    def test_argmax_iou_wins(self):
        ivs = [interval(900, 1200, "A"), interval(1000, 1120, "B", category=2)]
        m = self.match(det(1000, 120), ivs, 0.3, W)
        assert m.building_id == "B" and m.category == 2

    def test_category_comes_from_interval(self):
        m = self.match(det(950, 200), [interval(900, 1200, category=4)],
                       0.3, W)
        assert m.category == 4

    def test_against_brute_force(self):
        rng = random.Random(7)
        for _ in range(5000):
            lo = rng.uniform(0, W)
            hi = (lo + rng.uniform(0, W - 1)) % W
            x = rng.uniform(-W, W)
            w = rng.uniform(1, 600)
            iv = interval(lo, hi)
            m = self.match(det(x, w), [iv], 0.3, W)
            mid = (x + w / 2.0) % W
            want = (brute_midpoint_inside(lo, hi, mid, W)
                    and brute_iou_1d(x, x + w, lo, hi, W) > 0.3)
            assert (m is not None) == want

    def test_box_across_the_seam(self):
        # box [2000, 2048) u [0, 52) in [1990, 2048) u [0, 90), the span
        # written wrapped and overflowing, and the box from either side
        for box in (det(2000, 100), det(-48, 100)):
            for iv in (interval(1990.0, 90.0), interval(1990.0, 2138.0)):
                m = self.match(box, [iv], 0.3, W)
                assert m.iou_x == pytest.approx(100 / 148)

    def test_empty_span_holds_nothing(self):
        # ends equal mod the width: an empty span, though hi - lo may read
        # as the whole circle, of which the box would cover 59 %
        for lo, hi in ((300.0, 300.0), (300.0, 300.0 + W),
                       (300.0 + W, 300.0)):
            assert self.match(det(0, 1200), [interval(lo, hi)], 0.3, W) is None

    def test_equal_iou_goes_to_the_smaller_id(self):
        # ids order as strings: "10" comes before "9"
        ivs = [interval(900, 1200, "B", 2), interval(900, 1200, "A", 1),
               interval(900, 1200, "C", 3)]
        m = self.match(det(950, 200), ivs, 0.3, W)
        assert (m.building_id, m.category) == ("A", 1)
        ivs = [interval(900, 1200, "9", 2), interval(900, 1200, "10", 1)]
        assert self.match(det(950, 200), ivs, 0.3, W).building_id == "10"

    def test_building_split_in_two(self):
        # an occluder Z splits A; the box's midpoint lies in A's second part
        ivs = [interval(100, 300, "A"), interval(400, 500, "Z"),
               interval(500, 700, "A")]
        m = self.match(det(520, 160), ivs, 0.3, W)
        assert m.building_id == "A"
        assert m.iou_x == pytest.approx(160 / 200)

    def test_midpoint_on_either_end(self):
        # each box would have IoU 0.5 but its midpoint is an end of the
        # span: plain, then wrapped; one pixel inwards it matches
        for box, iv, inwards in ((det(900, 600), interval(900, 1200), -1),
                                 (det(600, 600), interval(900, 1200), 1),
                                 (det(1852, 296), interval(2000, 100), 1),
                                 (det(-48, 296), interval(2000, 100), -1)):
            assert self.match(box, [iv], 0.3, W) is None
            moved = det(box.x + inwards, box.w)
            assert self.match(moved, [iv], 0.3, W) is not None


class TestMatchBatch(TestMatchBox):
    """Every :class:`TestMatchBox` case through the batch pass."""

    match = staticmethod(batch_match_box)


def random_panorama(rng, width):
    """Interval rows and boxes of one panorama, rich in what array code
    gets wrong: spans across the seam, empty spans, equal spans of two
    buildings, a building in two parts, and box midpoints on span ends
    (whole-pixel ends make those exact)."""
    ivs = []
    for _ in range(rng.randint(0, 6)):
        whole = rng.random() < 0.5
        lo = float(rng.randrange(width)) if whole else rng.uniform(0, width)
        kind = rng.random()
        if kind < 0.1:
            hi = lo
        elif kind < 0.2:
            hi = lo + width
        else:
            span = rng.randrange(1, width // 2) if whole \
                else rng.uniform(1, width / 2)
            hi = (lo + span) % width
        bid = rng.choice("ABCDE")
        ivs.append(interval(lo, hi, bid, category=ord(bid) % 5 + 1))
        if rng.random() < 0.2:  # the same span, another building
            other = rng.choice("ABCDE")
            ivs.append(interval(lo, hi, other, category=ord(other) % 5 + 1))
        if rng.random() < 0.2:  # the building's second part
            lo2 = float(rng.randrange(width))
            ivs.append(interval(lo2, (lo2 + rng.randrange(1, 200)) % width,
                                bid, category=ord(bid) % 5 + 1))
    boxes = []
    for _ in range(rng.randint(0, 8)):
        if ivs and rng.random() < 0.3:  # the midpoint on a span end
            iv = rng.choice(ivs)
            half = float(rng.randrange(1, width // 4))
            boxes.append(det(rng.choice((iv.px_lo, iv.px_hi)) - half,
                             2 * half))
        else:
            boxes.append(det(rng.uniform(-width, width),
                             rng.uniform(1, width / 3)))
    return width, ivs, boxes


BATCH_SEEDS = range(30)


@pytest.mark.parametrize("seed", BATCH_SEEDS)
def test_batch_equals_match_box_on_seeded_batches(seed):
    # one batch of panoramas of different widths, split over two tables
    # as a trace group straddling batches splits it; some panoramas have
    # no box or no interval
    rng = random.Random(seed)
    panos = [random_panorama(rng, rng.choice((512, 2048, 3000, 4096)))
             for _ in range(rng.randint(2, 12))]
    cut = rng.randint(0, len(panos))
    rows = tuple(iv for _, ivs, _ in panos for iv in ivs)
    first = table_of(*[ivs for _, ivs, _ in panos[:cut]], footprints=rows)
    second = table_of(*[ivs for _, ivs, _ in panos[cut:]], footprints=rows)
    work = [(boxes, width, first, c) if c < cut
            else (boxes, width, second, c - cut)
            for c, (width, _, boxes) in enumerate(panos)]
    want = [(b, m.building_id, m.category, m.iou_x)
            for width, ivs, boxes in panos for b in boxes
            for m in [match_box(b, ivs, 0.3, width)] if m is not None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert match_batch(work, 0.3) == want


def test_seeded_batches_hold_every_case():
    # the seeded batches above do reach the cases they are built for
    seen = {"wrapped span": 0, "empty span": 0, "tie": 0, "on an end": 0,
            "match": 0}
    for seed in BATCH_SEEDS:
        rng = random.Random(seed)
        for _ in range(rng.randint(2, 12)):
            width, ivs, boxes = random_panorama(
                rng, rng.choice((512, 2048, 3000, 4096)))
            for iv in ivs:
                lo, hi = iv.px_lo % width, iv.px_hi % width
                seen["empty span"] += lo == hi
                seen["wrapped span"] += hi < lo
            for b in boxes:
                mid = (b.x + b.w / 2.0) % width
                seen["on an end"] += any(
                    mid in (iv.px_lo % width, iv.px_hi % width) for iv in ivs)
                ious = [m.iou_x for m in (match_box(b, [iv], 0.3, width)
                                          for iv in ivs) if m]
                seen["match"] += bool(ious)
                seen["tie"] += len(ious) > len(set(ious))
    assert min(seen.values()) >= 5, seen


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
            want, want_report = reference_annotations(
                scene.metas, scene.footprint_set, dets, config)
            for anns, report in runs:
                assert anns == want
                assert report.to_dict() == want_report.to_dict()

    def test_annotate_builds_no_rows_and_matches_in_batches(self,
                                                            monkeypatch):
        # 7 panoramas in batches of 3 and groups of 2: the batch pass
        # reads tables across group and batch boundaries, and builds no
        # interval row and calls no per-box match on the way
        from geotag_facade import matcher, raytrace
        scene, dets = pipeline_inputs(n_cameras=7, noise=NoiseConfig(
            shift_frac=0.02, scale_frac=0.02, fp_rate=0.2))
        config = RunConfig(seed=3, batch_size=3)
        want, want_report = reference_annotations(
            scene.metas, scene.footprint_set, dets, config)

        def refuse(*args, **kwargs):
            raise AssertionError("annotate went through rows")
        monkeypatch.setattr(raytrace, "VisibilityInterval", refuse)
        monkeypatch.setattr(matcher, "match_box", refuse)
        monkeypatch.setattr(matcher, "GROUP_RAYS", 2 * 360)
        anns, report = generate_coarse_annotations(
            scene.metas, scene.footprint_set, dets, config)
        assert [b.n_panoramas for b in report.batches] == [3, 3, 1]
        assert len(want) > 10
        assert anns == want
        assert report.to_dict() == want_report.to_dict()

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
