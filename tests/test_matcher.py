import math
import random
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from geotag_facade import RunConfig
from geotag_facade.ingest import DetectionBox, DetectionSet
from geotag_facade.matcher import (MatchResult, filter_detections,
                                   fit_threshold, generate_coarse_annotations,
                                   match_box, match_intervals)
from geotag_facade.projection import footprint_names
from geotag_facade.raytrace import IntervalTable, VisibilityInterval
from geotag_facade.synth import (NoiseConfig, SceneConfig, generate_scene,
                                 perturb_detections)

from oracle_utils import (_midpoint_inside, brute_iou_1d,
                          brute_midpoint_inside, iou_1d, reference_annotations,
                          reference_match_box, table_rows)

W = 2048.0


def det(x, w, score=0.9, pano="p", y=100.0, h=300.0):
    return DetectionBox(pano_id=pano, x=x, y=y, w=w, h=h, score=score)


def interval(px_lo, px_hi, building_id="B", category=1):
    return VisibilityInterval(building_id=building_id, category=category,
                              angle_lo=0.0, angle_hi=0.0, min_distance=10.0,
                              px_lo=px_lo, px_hi=px_hi)


def table_of(*cameras):
    """An IntervalTable holding each camera's interval rows, and the
    owners it names. Each row is its own owner, as it has the
    building_id and category a footprint names, and ``names`` names the
    rows as a footprint set does."""
    rows = [iv for ivs in cameras for iv in ivs]
    ids = sorted({iv.building_id for iv in rows})
    names = SimpleNamespace(building_ids=[iv.building_id for iv in rows],
                            categories=[iv.category for iv in rows])

    def column(name):
        return np.array([getattr(iv, name) for iv in rows], float)
    return IntervalTable(
        containing=[None] * len(cameras),
        offsets=np.cumsum([0] + [len(ivs) for ivs in cameras]),
        rank=np.array([ids.index(iv.building_id) for iv in rows], np.int64),
        owner=np.arange(len(rows)), angle_lo=column("angle_lo"),
        angle_hi=column("angle_hi"), min_distance=column("min_distance"),
        px_lo=column("px_lo"), px_hi=column("px_hi")), names


def match_table(boxes, cams, widths, table, iou_min=0.3):
    """One ``match_intervals`` pass over ``table``, as annotate runs it:
    box ``i`` lies on camera ``cams[i]`` of ``widths[i]`` pixels. Raises
    on any numpy warning. Returns (box, owner, iou) of the winners."""
    cams = np.array(cams, np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        won, row, iou = match_intervals(
            np.array([b.x for b in boxes], float),
            np.array([b.w for b in boxes], float), np.array(widths, float),
            table.offsets[cams], np.diff(table.offsets)[cams], table.px_lo,
            table.px_hi, table.rank, iou_min)
    return won, table.owner[row], iou


def batch_match_box(box, intervals, iou_min, width):
    """``match_box`` through annotate's pass: a run of one box."""
    table, names = table_of(intervals)
    won, owner, iou = match_table([box], [0], [width], table, iou_min)
    if not len(won):
        return None
    (building_id, category), = footprint_names(names, owner)
    return MatchResult(building_id=building_id, category=category,
                       iou_x=float(iou[0]))


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
        empty = DetectionSet.of([])
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
    """The matching rule, through ``match_box``, the one-box case of the
    batch pass."""

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
    """Every :class:`TestMatchBox` case through annotate's one pass."""

    match = staticmethod(batch_match_box)


class TestReferenceMatchBox(TestMatchBox):
    """Every :class:`TestMatchBox` case through the scalar reference that
    the seeded batches and ``reference_annotations`` compare against."""

    match = staticmethod(reference_match_box)


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
    # one pass over the panoramas of one table, of different widths; some
    # panoramas have no box or no interval
    rng = random.Random(seed)
    panos = [random_panorama(rng, rng.choice((512, 2048, 3000, 4096)))
             for _ in range(rng.randint(2, 12))]
    table, names = table_of(*[ivs for _, ivs, _ in panos])
    on = [(b, c, width) for c, (width, _, boxes) in enumerate(panos)
          for b in boxes]
    want = [(b, m.building_id, m.category, m.iou_x)
            for width, ivs, boxes in panos for b in boxes
            for m in [reference_match_box(b, ivs, 0.3, width)]
            if m is not None]
    boxes = [b for b, _, _ in on]
    won, owner, iou = match_table(boxes, [c for _, c, _ in on],
                                  [w for _, _, w in on], table)
    names = footprint_names(names, owner)
    assert [(boxes[i], bid, cat, v) for i, (bid, cat), v
            in zip(won.tolist(), names, iou.tolist())] == want


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
                ious = [m.iou_x for iv in ivs
                        for m in [reference_match_box(b, [iv], 0.3, width)]
                        if m]
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
        empty = DetectionSet.of([])
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
        dets = DetectionSet.of([*(b for bs in dets.by_pano.values()
                                  for b in bs), det(0, 10, pano="ghost")])
        anns, report = generate_coarse_annotations(
            scene.metas, scene.footprint_set, dets, RunConfig())
        assert report.missing_meta == {"ghost": 1}
        assert all(a.pano_id != "ghost" for a in anns)

    def test_report_counts_are_plain_ints(self):
        # a filtered box and a dropped one: every count the report hands
        # a library caller is an int, not a numpy scalar
        scene, dets = pipeline_inputs(n_cameras=4)
        pano = scene.metas[0].pano_id
        dets = DetectionSet.of([*(b for bs in dets.by_pano.values()
                                  for b in bs),
                                det(0, 10, score=0.1, pano=pano),
                                det(0, 10, pano=pano, h=5000.0)])
        _, report = generate_coarse_annotations(
            scene.metas, scene.footprint_set, dets,
            RunConfig(batch_size=3, threshold_mode="fixed",
                      fixed_threshold=0.5))
        d = report.to_dict()
        assert d["totals"]["filtered_out"] == d["totals"]["dropped"] == 1
        counts = [*d["totals"].values(),
                  *(v for b in d["batches"] for k, v in b.items()
                    if k != "threshold")]
        assert all(type(v) is int for v in counts), counts

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

    def test_annotations_do_not_depend_on_group_cap(self, group_cameras):
        scene, dets = pipeline_inputs(n_cameras=12, noise=NoiseConfig(
            shift_frac=0.02, scale_frac=0.02, fp_rate=0.2))
        for step in (1.0, 0.1):
            config = RunConfig(seed=3, batch_size=5, step_deg=step)
            runs = []
            # one camera per group, three, nine, the whole run and the
            # default: groups of 3 and 9 straddle the batches of 5
            for cap in (1, 3, 9, 1 << 40, group_cameras.default):
                group_cameras(cap)
                runs.append(generate_coarse_annotations(
                    scene.metas, scene.footprint_set, dets, config))
            assert runs[0][0] and len(runs[0][1].batches) == 3
            want, want_report = reference_annotations(
                scene.metas, scene.footprint_set, dets, config)
            for anns, report in runs:
                assert anns == want
                assert report.to_dict() == want_report.to_dict()

    def test_annotate_builds_no_rows_and_matches_in_batches(
            self, monkeypatch, group_cameras):
        # 7 panoramas in batches of 3 and groups of 2: annotate reads the
        # run's table across group and batch boundaries, and builds no
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
        group_cameras(2)
        anns, report = generate_coarse_annotations(
            scene.metas, scene.footprint_set, dets, config)
        assert [b.n_panoramas for b in report.batches] == [3, 3, 1]
        assert len(want) > 10
        assert anns == want
        assert report.to_dict() == want_report.to_dict()

    @pytest.mark.parametrize("batch_size", [1, 3, 7, 100])
    def test_one_match_pass_per_run(self, monkeypatch, group_cameras,
                                    batch_size):
        # whatever the batches and the groups, annotate matches every
        # kept box of the run in one match_intervals call
        from geotag_facade import matcher
        scene, dets = pipeline_inputs(n_cameras=7, noise=NoiseConfig(
            shift_frac=0.02, scale_frac=0.02, fp_rate=0.2))
        config = RunConfig(seed=3, batch_size=batch_size)
        want, want_report = reference_annotations(
            scene.metas, scene.footprint_set, dets, config)
        calls = []
        match_intervals = matcher.match_intervals

        def counted(*args):
            calls.append(len(args[0]))
            return match_intervals(*args)
        monkeypatch.setattr(matcher, "match_intervals", counted)
        for cap in (1, 2, 1 << 40):
            group_cameras(cap)
            calls.clear()
            anns, report = generate_coarse_annotations(
                scene.metas, scene.footprint_set, dets, config)
            assert len(calls) == 1
            assert calls[0] == sum(b.input_boxes - b.filtered_out - b.dropped
                                   for b in report.batches)
            assert len(want) > 10 and anns == want
            assert report.to_dict() == want_report.to_dict()

    def test_no_panoramas(self):
        # an empty run traces to an empty table: no batch, and every box
        # is reported under missing_meta
        from geotag_facade.matcher import trace_run
        from geotag_facade.projection import FootprintIndex
        scene, dets = pipeline_inputs()
        index = FootprintIndex(scene.footprint_set)
        table = trace_run(index, [], RunConfig())
        assert table.containing == [] and table.offsets.tolist() == [0]
        assert len(table.px_lo) == len(table.owner) == 0
        assert table_rows(table, index.footprints) == []
        anns, report = generate_coarse_annotations(
            [], scene.footprint_set, dets, RunConfig())
        assert anns == [] and report.batches == []
        assert report.missing_meta == {p: len(bs)
                                       for p, bs in dets.by_pano.items()}
        assert report.totals["dropped_missing_meta"] == dets.n_boxes > 0

    def test_groups_fill_across_batches(self, monkeypatch, group_cameras):
        # 7 panoramas in batches of 2 and groups of 3 cameras: tracing the
        # run as one table makes ceil(7 / 3) = 3 groups, where tracing
        # each batch on its own made 4 (2, 2, 2, 1)
        from geotag_facade import matcher
        scene, dets = pipeline_inputs(n_cameras=7)
        sizes = []
        clip_group = matcher.clip_group

        def counted(index, group, radius_m):
            sizes.append(len(group))
            return clip_group(index, group, radius_m)
        monkeypatch.setattr(matcher, "clip_group", counted)
        group_cameras(3)
        anns, report = generate_coarse_annotations(
            scene.metas, scene.footprint_set, dets,
            RunConfig(seed=3, batch_size=2))
        assert sizes == [3, 3, 1]
        assert [b.n_panoramas for b in report.batches] == [2, 2, 2, 1]
        assert len(anns) == len(scene.gt_boxes)

    @pytest.mark.parametrize("cameras", [1, 96, 97, 200])
    def test_a_fine_street_traces_in_groups_of_cameras(self, monkeypatch,
                                                       cameras):
        # at 0.1 degrees, as the benchmark's street-fine workload sweeps,
        # a group holds GROUP_CAMERAS cameras, as at any step: its 200
        # panoramas make 3 groups
        from geotag_facade import matcher
        from geotag_facade.projection import FootprintIndex
        scene = generate_scene(5, SceneConfig(n_buildings=14, n_cameras=5,
                                              with_ground_truth=False))
        metas = [replace(m, pano_id=f"{m.pano_id}-{k}")
                 for k in range(40) for m in scene.metas][:cameras]
        sizes = []
        clip_group = matcher.clip_group

        def counted(index, group, radius_m):
            sizes.append(len(group))
            return clip_group(index, group, radius_m)
        monkeypatch.setattr(matcher, "clip_group", counted)
        table = matcher.trace_run(FootprintIndex(scene.footprint_set), metas,
                                  RunConfig(step_deg=0.1))
        assert len(sizes) == math.ceil(cameras / matcher.GROUP_CAMERAS)
        assert sum(sizes) == cameras == len(table.offsets) - 1
        assert set(sizes[:-1]) <= {matcher.GROUP_CAMERAS}
        assert len(table.rank) > 0

    def test_annotations_recheck_from_provenance(self):
        # every annotation's midpoint sits inside its source building's
        # interval and its iou_x clears the floor, re-derived from scratch
        from geotag_facade.projection import FootprintIndex
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
                                          FootprintSet, PanoramaMeta)
        from geotag_facade.projection import local_to_geodetic
        origin = (40.0, -74.0)
        ring = [local_to_geodetic(origin, p)
                for p in [(-5, -5), (5, -5), (5, 5), (-5, 5)]]
        fp = BuildingFootprint(building_id="trap", ring=tuple(ring + [ring[0]]),
                               raw_label="x", category=1)
        meta = PanoramaMeta(pano_id="inside", lat=origin[0], lon=origin[1],
                            north_px=0.0, width=2048, height=1024)
        fps = FootprintSet.of([fp])
        dets = DetectionSet.of([det(0, 10, pano="inside")])
        anns, report = generate_coarse_annotations([meta], fps, dets,
                                                   RunConfig())
        assert anns == []
        assert report.skipped_panoramas == [
            ("inside", "camera inside footprint trap")]
        assert report.totals["dropped"] == 1
