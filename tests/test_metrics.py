import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from geotag_facade import metrics
from geotag_facade.cocoio import canonical_json
from geotag_facade.metrics import (COCO_IOU_GRID, EvalBox, EvalBoxSet,
                                   average_precision, coarse_accuracy,
                                   coco_summary, iou_2d)

from oracle_utils import (_reference_ap_from_flags,
                          all_pairs_coarse_accuracy, brute_iou_1d,
                          brute_iou_2d, iou_1d,
                          reference_average_precision,
                          reference_coarse_accuracy, reference_coco_summary,
                          reference_iou_2d)

W = 2048.0


def pair_iou(a, b, width):
    """The package's 1D IoU of one pair of (lo, hi) intervals."""
    return float(metrics.iou_1d_arrays(
        *(np.array([v], float) for v in (*a, *b, width)))[0])


class TestIou1d:
    """The package's 1D IoU, ``iou_1d_arrays``, one pair at a time and
    against the scalar reference ``iou_1d``."""

    def test_identical(self):
        assert pair_iou((100, 200), (100, 200), W) == 1.0

    def test_partial(self):
        assert pair_iou((100, 200), (150, 250), W) == pytest.approx(50 / 150)

    def test_disjoint(self):
        assert pair_iou((0, 10), (500, 600), W) == 0.0

    def test_wrapped_vs_box_at_seam(self):
        # interval [2000, 2048) u [0, 100), box [0, 100]
        assert pair_iou((2000, 100), (0, 100), W) == pytest.approx(100 / 148)

    def test_overflow_representation(self):
        # hi > width means the same wrapped interval
        assert pair_iou((2000, 2148), (0, 100), W) == pytest.approx(100 / 148)

    def test_degenerate_union_raises(self):
        with pytest.raises(ValueError):
            pair_iou((5, 5), (9, 9), W)

    def test_symmetry_and_bounds_random(self):
        rng = random.Random(1)
        for _ in range(2000):
            a = (rng.uniform(0, W), rng.uniform(0, W))
            b = (rng.uniform(0, W), rng.uniform(0, W))
            if a[0] == a[1] and b[0] == b[1]:
                continue
            v1, v2 = pair_iou(a, b, W), pair_iou(b, a, W)
            assert v1 == pytest.approx(v2)
            assert 0.0 <= v1 <= 1.0
            assert v1 == pytest.approx(brute_iou_1d(*a, *b, W))

    def test_arrays_equal_the_scalar_bit_for_bit(self):
        # spans of every length up to the circle, both written wrapped
        # and overflowing; long spans overlap in all four piece pairs,
        # where the summing order shows in the last bit
        rng = random.Random(3)
        pairs = []
        for _ in range(20000):
            width = rng.choice((512.0, 2048.0, 3000.0))
            spans = []
            for _ in range(2):
                lo = rng.uniform(-width, 2 * width)
                length = rng.uniform(0.5, width) if rng.random() < 0.5 \
                    else rng.uniform(width / 2, width)
                hi = lo + length
                spans += [lo, hi if rng.random() < 0.5 else hi % width]
            pairs.append((*spans, width))
        a_lo, a_hi, b_lo, b_hi, width = np.array(pairs).T
        got = metrics.iou_1d_arrays(a_lo, a_hi, b_lo, b_hi, width)
        want = [iou_1d((p[0], p[1]), (p[2], p[3]), p[4]) for p in pairs]
        assert got.tolist() == want

    def test_arrays_raise_on_a_zero_length_union(self):
        with pytest.raises(ValueError, match="zero-length union"):
            metrics.iou_1d_arrays(np.array([1.0, 5.0]), np.array([2.0, 5.0]),
                                  np.array([1.0, 9.0]), np.array([3.0, 9.0]),
                                  np.array([W, W]))


class TestIou2d:
    def test_identical(self):
        assert iou_2d((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_half_overlap(self):
        # each box shares half its area, union is 1.5x one box
        assert iou_2d((0, 0, 10, 10), (5, 0, 10, 10)) == pytest.approx(1 / 3)

    def test_translated_both_axes(self):
        v = iou_2d((0, 0, 10, 10), (2, 2, 10, 10))
        assert v == pytest.approx(0.64 / 1.36)
        assert v == pytest.approx(brute_iou_2d((0, 0, 10, 10), (2, 2, 10, 10)))

    def test_wrap_across_seam(self):
        a = (2000, 100, 148, 50)  # wraps: [2000, 2148] = [2000, 2048)u[0,100)
        b = (0, 100, 100, 50)
        v = iou_2d(a, b, width=W)
        assert v == pytest.approx(brute_iou_2d(a, b, width=W))
        assert v == pytest.approx(100 / 148)

    def test_non_positive_box_raises(self):
        with pytest.raises(ValueError):
            iou_2d((0, 0, 0, 10), (0, 0, 10, 10))

    def test_random_against_oracle(self):
        rng = random.Random(2)
        for _ in range(1000):
            a = (rng.uniform(0, W), rng.uniform(0, 900), rng.uniform(1, 400),
                 rng.uniform(1, 100))
            b = (rng.uniform(0, W), rng.uniform(0, 900), rng.uniform(1, 400),
                 rng.uniform(1, 100))
            assert iou_2d(a, b, width=W) == pytest.approx(
                brute_iou_2d(a, b, width=W))


def pair_ious(pairs):
    """The kernel on (box_a, box_b, width) triples, width None for no wrap."""
    a = np.array([metrics._as_xywh(p[0]) for p in pairs], float).reshape(-1, 4)
    b = np.array([metrics._as_xywh(p[1]) for p in pairs], float).reshape(-1, 4)
    w = np.array([np.nan if p[2] is None else p[2] for p in pairs], float)
    return metrics._pair_ious(a, b, w)


def assert_kernel_matches_reference(pairs):
    want = [reference_iou_2d(a, b, w) for a, b, w in pairs]
    assert np.array_equal(pair_ious(pairs), np.array(want, float))
    assert [iou_2d(a, b, w) for a, b, w in pairs] == want


class TestPairIousMatchReference:
    """The array kernel is bit-identical to the scalar 2-D IoU."""

    def test_seeded_random_pairs(self):
        rng = random.Random(21)
        pairs = []
        for _ in range(3000):
            def one():
                # grid values make equal and exact IoUs; x reaches below
                # 0 and past the width, w past the whole panorama
                x = rng.choice([rng.uniform(-W, 2 * W), 0.0, 1990.0, -40.0,
                                float(rng.randrange(-100, 2200))])
                w = rng.choice([rng.uniform(0.01, 500.0), 50.0, 100.0,
                                rng.uniform(W - 10.0, 2.5 * W)])
                return (x, rng.choice([0.0, rng.uniform(0, 900)]), w,
                        rng.choice([rng.uniform(0.5, 300.0), 100.0]))
            pairs.append((one(), one(), rng.choice([None, W, 1000])))
        assert_kernel_matches_reference(pairs)

    def test_seam_forms_and_wide_boxes(self):
        boxes = [
            # overflowing x + w > width against a box at the seam start
            ((2000.0, 100.0, 148.0, 50.0), (0.0, 100.0, 100.0, 50.0)),
            # x below 0 (the interval [2000, 100) in hi < lo form) and x
            # past the width: the start wraps by the modulo
            ((-48.0, 100.0, 148.0, 50.0), (0.0, 100.0, 100.0, 50.0)),
            ((W + 10.0, 0.0, 30.0, 10.0), (0.0, 0.0, 50.0, 10.0)),
            ((2040.0, 0.0, 20.0, 10.0), (2030.0, 0.0, 30.0, 10.0)),
            # wider than the panorama, at and off the seam
            ((0.0, 0.0, 3000.0, 10.0), (100.0, 0.0, 50.0, 10.0)),
            ((500.0, 0.0, 2 * W, 10.0), (2000.0, 0.0, 100.0, 10.0)),
            ((500.0, 0.0, W, 10.0), (500.0, 0.0, W, 10.0)),
            # zero overlap, horizontally and vertically
            ((0.0, 0.0, 10.0, 10.0), (500.0, 0.0, 10.0, 10.0)),
            ((0.0, 0.0, 10.0, 10.0), (0.0, 10.0, 10.0, 10.0)),
        ]
        pairs = [(a, b, width) for width in (W, None) for a, b in boxes]
        assert_kernel_matches_reference(pairs)
        assert pair_ious(pairs[-2:]).tolist() == [0.0, 0.0]
        assert pair_ious(pairs[:1]).tolist() == [100 / 148]

    def test_integer_coordinates(self):
        rng = random.Random(22)
        pairs = []
        for _ in range(500):
            a, b = (EvalBox("a", rng.randrange(-50, 2100),
                            rng.randrange(0, 50), rng.randrange(1, 300),
                            rng.randrange(1, 60), 1) for _ in range(2))
            pairs.append((a, b, rng.choice([None, 2048, 2048.0])))
        assert_kernel_matches_reference(pairs)

    def test_ious_exactly_on_the_grid(self):
        gt = (0.0, 0.0, 100.0, 100.0)
        pairs = [((0.0, 0.0, float(round(t * 100.0)), 100.0), gt, width)
                 for t in COCO_IOU_GRID for width in (None, W)]
        assert_kernel_matches_reference(pairs)
        assert pair_ious(pairs).tolist() == [t for t in COCO_IOU_GRID
                                             for _ in range(2)]

    def test_non_positive_box_raises(self):
        good = (0.0, 0.0, 10.0, 10.0)
        for bad in ((0.0, 0.0, 0.0, 10.0), (0.0, 0.0, 10.0, -1.0)):
            for pair in ((bad, good, None), (good, bad, W)):
                with pytest.raises(ValueError, match="positive area"):
                    pair_ious([(good, good, None), pair])
        with pytest.raises(ValueError, match="width must be positive"):
            pair_ious([(good, good, None), (good, good, 0.0)])
        with pytest.raises(ValueError, match="width must be positive"):
            iou_2d(good, good, width=0)
        assert pair_ious([]).shape == (0,)


def box(pano, x, cat, score=None, y=100.0, w=100.0, h=200.0):
    return EvalBox(pano_id=pano, x=x, y=y, w=w, h=h, category=cat,
                   score=score)


class TestCoarseAccuracy:
    def test_exact_match_is_one(self):
        gt = [box("a", 0, 1), box("a", 500, 2)]
        rep = coarse_accuracy(list(gt), gt)
        assert rep.accuracy == 1.0
        assert rep.to_dict()["per_category"]["1"] == {"correct": 1, "total": 1}

    def test_shifted_to_iou_07_fails_at_08(self):
        gt = [box("a", 0, 1), box("a", 500, 2)]
        shift = 300.0 / 17.0  # gives exactly IoU 0.7 for w=100
        coarse = [box("a", 0, 1), box("a", 500 + shift, 2)]
        assert iou_2d(coarse[1], gt[1]) == pytest.approx(0.7)
        rep = coarse_accuracy(coarse, gt)
        assert rep.accuracy == 0.5

    def test_good_box_wrong_label_incorrect(self):
        gt = [box("a", 0, 1)]
        coarse = [box("a", 1, 2)]  # IoU ~0.95+, wrong category
        assert iou_2d(coarse[0], gt[0]) > 0.9
        rep = coarse_accuracy(coarse, gt)
        assert rep.correct == 0 and rep.accuracy == 0.0

    def test_empty_coarse_undefined(self):
        rep = coarse_accuracy([], [box("a", 0, 1)])
        assert rep.accuracy is None
        assert rep.to_dict()["accuracy"] is None

    def test_one_to_one_assignment(self):
        # two coarse boxes over one gt: only one may count
        gt = [box("a", 0, 1)]
        coarse = [box("a", 0, 1), box("a", 1, 1)]
        rep = coarse_accuracy(coarse, gt)
        assert rep.correct == 1 and rep.total == 2

    def test_permutation_invariant(self):
        rng = random.Random(3)
        gt = [box("a", i * 150, 1 + i % 3) for i in range(6)]
        coarse = [box("a", i * 150 + rng.uniform(-5, 5), 1 + i % 3)
                  for i in range(6)]
        base = coarse_accuracy(coarse, gt).accuracy
        for _ in range(5):
            c2, g2 = coarse[:], gt[:]
            rng.shuffle(c2)
            rng.shuffle(g2)
            assert coarse_accuracy(c2, g2).accuracy == base


def assert_accuracy_as_reference(coarse, gt, iou_thr=0.8, widths=None):
    got = coarse_accuracy(coarse, gt, iou_thr, widths)
    want = reference_coarse_accuracy(coarse, gt, iou_thr, widths)
    assert got.to_dict() == want.to_dict()


class TestCoarseAccuracyMatchesReference:
    """coarse_accuracy against the per-panorama scalar greedy matching."""

    def test_seeded_random_sets(self):
        rng = random.Random(31)
        for case in range(80):
            panos = ["a", "b", "c"][:rng.randint(1, 3)]
            gt = random_boxes(rng, rng.randint(0, 14), panos, [1, 2, 3],
                              scored=False, seam=case % 2 == 0)
            coarse = random_boxes(rng, rng.randint(0, 14), panos + ["d"],
                                  [1, 2, 3, 4], scored=True,
                                  seam=case % 2 == 0)
            coarse += rng.sample(gt, min(len(gt), 3))
            rng.shuffle(coarse)
            # widths for some panoramas only: the rest do not wrap
            widths = ({p: 2048.0 for p in panos[1:]} if case % 3 else None)
            for thr in (0.5, 0.8, COCO_IOU_GRID[rng.randrange(10)]):
                assert_accuracy_as_reference(coarse, gt, thr, widths)
                assert_accuracy_as_reference(gt, coarse, thr, widths)

    def test_equal_iou_ties_and_duplicates(self):
        # one annotation overlaps two ground truths at equal IoU: the
        # lower ground-truth index wins; duplicate annotations take one
        # ground truth each, the earlier annotation first
        gt = [box("a", 50, 1), box("a", -50, 2), box("a", 0, 1)]
        coarse = [box("a", 0, 1), box("a", 0, 1), box("a", 0, 2)]
        for widths in (None, {"a": W}):
            for thr in (0.3, 0.8):
                assert_accuracy_as_reference(coarse, gt, thr, widths)
                assert_accuracy_as_reference(coarse[::-1], gt[::-1], thr,
                                             widths)
        assert coarse_accuracy(coarse[2:], gt[:2], 0.3).correct == 0
        assert coarse_accuracy(coarse[2:], gt[1::-1], 0.3).correct == 1

    def test_empty_and_one_sided_panoramas(self):
        boxes = [box("a", 0, 1), box("b", 0, 2)]
        assert_accuracy_as_reference([], [])
        assert_accuracy_as_reference(boxes, [])
        assert_accuracy_as_reference([], boxes)
        assert_accuracy_as_reference(boxes, [box("b", 5, 2), box("c", 0, 2)])
        rep = coarse_accuracy(boxes, [box("c", 0, 1)])
        assert rep.correct == 0 and rep.total == 2

    def test_non_positive_box_raises_only_when_paired(self):
        bad = box("a", 0, 1, w=0.0)
        for coarse, gt in (([bad], [box("a", 0, 1)]),
                           ([box("a", 0, 1)], [bad])):
            for fn in (coarse_accuracy, reference_coarse_accuracy):
                with pytest.raises(ValueError, match="positive area"):
                    fn(coarse, gt)
        # no ground truth shares its panorama: no pair, no error
        assert_accuracy_as_reference([bad, box("b", 0, 1)], [box("b", 0, 1)])
        assert_accuracy_as_reference([box("b", 0, 1)], [bad, box("b", 0, 1)])


def overlap_cases():
    """Seeded box sets over four panoramas, as (coarse, gt, widths): x on
    and off the seam, boxes across it and as wide as the panorama or
    wider, at a panorama width of 2048, 100, or none (no wrap)."""
    rng = random.Random(53)
    for _ in range(60):
        def boxes(n):
            return [EvalBox(
                pano_id=rng.choice("abcd"),
                x=rng.choice([rng.uniform(-3000.0, 5000.0),
                              rng.uniform(1900.0, 2100.0),
                              float(rng.randrange(0, 2048, 16)),
                              rng.choice([0.0, 2048.0, -48.0, 99.0])]),
                y=float(rng.randrange(0, 64, 8)),
                w=rng.choice([rng.uniform(1.0, 300.0), 16.0, 48.0, 100.0,
                              2048.0, rng.uniform(2000.0, 5000.0)]),
                h=float(rng.choice([8, 32, 64])),
                category=rng.randint(1, 3)) for _ in range(n)]
        coarse, gt = boxes(rng.randint(0, 40)), boxes(rng.randint(0, 40))
        coarse += rng.sample(gt, min(len(gt), 5))
        widths = {p: w for p, w in zip("abcd", rng.sample(
            [2048.0, 2048.0, 100.0, None], 4)) if w is not None}
        yield coarse, gt, rng.choice([widths, None])


class TestAccuracyScoresOverlapsOnly:
    """coarse_accuracy scores only the pairs whose spans overlap, and
    reports what scoring every same-panorama pair reports."""

    def test_reports_equal_the_all_pairs_form(self):
        for coarse, gt, widths in overlap_cases():
            for a, b in ((coarse, gt), (gt, coarse)):
                for thr in (0.3, 0.8):
                    assert canonical_json(
                        coarse_accuracy(a, b, thr, widths).to_dict()
                    ) == canonical_json(
                        all_pairs_coarse_accuracy(a, b, thr,
                                                  widths).to_dict())

    def test_pairs_are_those_of_positive_horizontal_overlap(self):
        # with every box one pixel tall at y 0, a pair's IoU is positive
        # exactly when its horizontal overlap is
        seen = Counter()
        for coarse, gt, widths in overlap_cases():
            a, b = (EvalBoxSet.of([replace(box, y=0.0, h=1.0)
                                   for box in boxes])
                    for boxes in (coarse, gt))
            a_pano, b_pano, panos = metrics._codes(a, b, "pano_id")
            i, j = metrics._pairs(a_pano, b_pano, len(panos))
            hit = metrics._ious(a, b, i, j, a_pano, panos, widths) > 0.0
            got = metrics._overlapping(a, b, a_pano, b_pano,
                                       metrics._pano_widths(panos, widths))
            assert [x.tolist() for x in got] == [i[hit].tolist(),
                                                 j[hit].tolist()]
            seen["pairs"] += len(i)
            seen["overlaps"] += int(hit.sum())
        assert 0 < seen["overlaps"] < seen["pairs"] / 2, seen

    def test_errors_only_on_shared_panoramas(self):
        bad_w = box("a", 0, 1, w=0.0)
        good = box("a", 500, 1)
        with pytest.raises(ValueError, match="positive area"):
            coarse_accuracy([bad_w], [good])  # no overlap, still paired
        with pytest.raises(ValueError, match="width must be positive"):
            coarse_accuracy([good], [box("a", 1500, 1)], 0.8, {"a": 0.0})
        # a panorama only one side has is never measured
        rep = coarse_accuracy([box("b", 0, 1), bad_w], [box("b", 0, 1)],
                              0.8, {"a": 0.0, "b": W})
        assert rep.correct == 1 and rep.total == 2


class TestAveragePrecision:
    def test_single_perfect(self):
        gt = [box("a", 0, 1)]
        preds = [box("a", 0, 1, score=0.9)]
        rep = average_precision(preds, gt, 0.5)
        assert rep.per_category[1] == 1.0 and rep.mean == 1.0

    def test_tp_fp_tp_gives_0835(self):
        gt = [box("a", 0, 1), box("a", 1000, 1)]
        preds = [box("a", 0, 1, score=0.9),      # TP
                 box("a", 500, 1, score=0.8),    # FP, overlaps nothing
                 box("a", 1000, 1, score=0.7)]   # TP
        rep = average_precision(preds, gt, 0.5)
        assert rep.per_category[1] == pytest.approx(0.834983, abs=1e-4)

    def test_all_below_iou_threshold(self):
        gt = [box("a", 0, 1)]
        preds = [box("a", 90, 1, score=0.9)]  # IoU 10/190
        rep = average_precision(preds, gt, 0.5)
        assert rep.per_category[1] == 0.0

    def test_score_rank_invariance(self):
        gt = [box("a", 0, 1), box("a", 1000, 1)]
        preds = [box("a", 0, 1, score=0.9),
                 box("a", 500, 1, score=0.8),
                 box("a", 1000, 1, score=0.7)]
        squashed = [EvalBox(p.pano_id, p.x, p.y, p.w, p.h, p.category,
                            score=p.score ** 4) for p in preds]
        a = average_precision(preds, gt, 0.5).per_category[1]
        b = average_precision(squashed, gt, 0.5).per_category[1]
        assert a == b

    def test_zero_gt_category_excluded(self):
        gt = [box("a", 0, 1)]
        preds = [box("a", 0, 1, score=0.9), box("a", 500, 2, score=0.8)]
        rep = average_precision(preds, gt, 0.5)
        assert rep.excluded == [2]
        assert 2 not in rep.per_category

    def test_gt_matched_once(self):
        gt = [box("a", 0, 1)]
        preds = [box("a", 0, 1, score=0.9), box("a", 0, 1, score=0.8)]
        rep = average_precision(preds, gt, 0.5)
        # second pred is an FP: precision falls to 1/2 at recall 1
        assert rep.per_category[1] == 1.0  # max precision at recall>=r is 1.0

    def test_coco_summary_shape(self):
        gt = [box("a", 0, 1), box("a", 500, 2)]
        preds = [box("a", 0, 1, score=0.9), box("a", 500, 2, score=0.8)]
        summary = coco_summary(preds, gt)
        assert summary["mAP50"] == 1.0
        assert summary["mAP75"] == 1.0
        assert summary["mAP"] == 1.0
        assert set(summary["per_category_ap50"]) == {"1", "2"}
        # boxes are 100x200 = 20000 px^2: large only
        assert summary["mAP_large"] == 1.0
        assert summary["mAP_small"] is None


def random_boxes(rng, n, panos, cats, scored, seam=True):
    """Boxes on a coarse grid, so equal IoUs, duplicates and exact grid
    IoUs occur; widths reach past the seam when ``seam``."""
    out = []
    for _ in range(n):
        x = rng.choice([0.0, 100.0, 150.0, 1900.0, 1990.0, 2000.0])
        if not seam:
            x = min(x, 1000.0)
        # 32x32 and 96x96 sit exactly on the area bucket edges
        w = rng.choice([10.0, 25.0, 32.0, 50.0, 60.0, 75.0, 96.0, 180.0])
        h = rng.choice([20.0, 32.0, 96.0, 150.0])
        score = None
        if scored:
            score = rng.choice([None, 0.5, 0.5, 0.9, round(rng.random(), 3)])
        out.append(EvalBox(pano_id=rng.choice(panos), x=x,
                           y=rng.choice([0.0, 0.0, 10.0]), w=w, h=h,
                           category=rng.choice(cats), score=score))
    return out


def assert_same_as_reference(preds, gts, width_by_pano=None):
    got = coco_summary(preds, gts, width_by_pano)
    want = reference_coco_summary(preds, gts, width_by_pano)
    assert canonical_json(got) == canonical_json(want)
    for t in (0.0, 0.3, 0.75, 1.0):
        got = average_precision(preds, gts, t, width_by_pano).to_dict()
        want = reference_average_precision(preds, gts, t,
                                           width_by_pano).to_dict()
        assert canonical_json(got) == canonical_json(want)


class TestApMatchesReference:
    """coco_summary and average_precision against the AP path that
    reran the greedy matching for every value."""

    def test_seeded_random_sets(self):
        rng = random.Random(11)
        for case in range(80):
            panos = ["a", "b", "c"][:rng.randint(1, 3)]
            gts = random_boxes(rng, rng.randint(0, 14), panos, [1, 2, 3],
                               scored=False, seam=case % 2 == 0)
            # one prediction-only category; copies of ground truth give
            # duplicate predictions on one box
            preds = random_boxes(rng, rng.randint(0, 14), panos,
                                 [1, 2, 3, 4], scored=True,
                                 seam=case % 2 == 0)
            preds += [EvalBox(g.pano_id, g.x, g.y, g.w, g.h, g.category,
                              score=rng.choice([None, 0.5, 0.9]))
                      for g in rng.sample(gts, min(len(gts), 3))]
            rng.shuffle(preds)
            widths = {p: 2048.0 for p in panos} if case % 3 else None
            assert_same_as_reference(preds, gts, widths)

    def test_iou_exactly_on_the_grid(self):
        gt = [EvalBox("a", 0.0, 0.0, 100.0, 100.0, 1)]
        for t in COCO_IOU_GRID:
            # a w-wide box inside the 100x100 ground truth has IoU w/100
            w = round(t * 100.0)
            pred = EvalBox("a", 0.0, 0.0, float(w), 100.0, 1, score=0.8)
            assert iou_2d(pred, gt[0]) == t
            assert_same_as_reference([pred], gt)
            assert average_precision([pred], gt, t).per_category[1] == 1.0

    def test_recall_on_the_101_point_grid(self):
        # with 20 or 50 ground truth boxes, recall k/n lands on (or a
        # rounding error away from) the 101 recall points
        rng = random.Random(13)
        for n_gt in (20, 50):
            gts = [EvalBox("a", 120.0 * k, 0.0, 100.0, 100.0, 1)
                   for k in range(n_gt)]
            preds = [EvalBox("a", g.x, 0.0, 100.0, 100.0, 1,
                             score=rng.random()) for g in gts[::2]]
            preds += [EvalBox("a", 120.0 * k + 60.0, 500.0, 10.0, 10.0, 1,
                              score=rng.random()) for k in range(n_gt // 2)]
            assert_same_as_reference(preds, gts)
        # recall 7/20 is one rounding error below the 0.35 point; a false
        # positive right after the 7th hit makes that point's precision 1
        preds = [EvalBox("a", g.x, 0.0, 100.0, 100.0, 1, score=1.0 - k / 100)
                 for k, g in enumerate(gts[:20])]
        preds.insert(7, EvalBox("a", 60.0, 500.0, 10.0, 10.0, 1, score=0.935))
        assert_same_as_reference(preds, gts[:20])

    def test_equal_ious_tie_to_the_later_ground_truth(self):
        gts = [EvalBox("a", 0.0, 0.0, 100.0, 100.0, 1),
               EvalBox("a", 0.0, 0.0, 100.0, 100.0, 1)]
        preds = [EvalBox("a", 0.0, 0.0, 100.0, 100.0, 1, score=0.9),
                 EvalBox("a", 0.0, 0.0, 100.0, 100.0, 1, score=0.9)]
        assert_same_as_reference(preds, gts)
        # both ranks want both ground truths, so the walk decides
        assert matched_at(preds, gts, 0.5) == [1, 0]
        # one rank wants both alone and takes its best at once
        assert_same_as_reference(preds[:1], gts)
        assert matched_at(preds[:1], gts, 0.5) == [1]

    def test_seam_wrap_with_and_without_widths(self):
        gts = [EvalBox("a", 2000.0, 0.0, 100.0, 100.0, 1)]
        preds = [EvalBox("a", 2010.0, 0.0, 100.0, 100.0, 1, score=0.9),
                 EvalBox("a", 0.0, 0.0, 52.0, 100.0, 1, score=0.8)]
        for widths in (None, {"a": 2048.0}):
            assert_same_as_reference(preds, gts, widths)

    def test_empty_sides(self):
        boxes = [EvalBox("a", 0.0, 0.0, 100.0, 100.0, 1, score=0.5)]
        assert_same_as_reference([], [])
        assert_same_as_reference([], boxes)
        assert_same_as_reference(boxes, [])
        assert coco_summary(boxes, [])["excluded_categories"] == [1]

    def test_acceptance_scene_with_noise(self):
        from geotag_facade import RunConfig
        from geotag_facade.ingest import FootprintSet
        from geotag_facade.matcher import generate_coarse_annotations
        from geotag_facade.synth import (NoiseConfig, SceneConfig,
                                         generate_scene, perturb_detections)
        scene = generate_scene(2003, SceneConfig(n_buildings=14,
                                                 n_cameras=8))
        dets = perturb_detections(scene, NoiseConfig(
            shift_frac=0.05, scale_frac=0.05, fp_rate=0.3), seed=2004)
        fset = FootprintSet.of(scene.footprints)
        annotations, _ = generate_coarse_annotations(
            scene.metas, fset, dets, RunConfig(threshold_mode="fixed",
                                               fixed_threshold=0.05))
        preds = [EvalBox(a.pano_id, a.x, a.y, a.w, a.h, a.category,
                         score=a.score) for a in annotations]
        gts = [EvalBox(g.pano_id, g.x, g.y, g.w, g.h, g.category)
               for g in scene.gt_boxes]
        assert preds and gts
        widths = {m.pano_id: m.width for m in scene.metas}
        assert_same_as_reference(preds, gts, widths)

    def test_each_iou_computed_once(self, monkeypatch):
        rng = random.Random(12)
        panos = ["a", "b"]
        gts = random_boxes(rng, 30, panos, [1, 2], scored=False)
        preds = random_boxes(rng, 40, panos, [1, 2, 3], scored=True)
        # a y of its own per box, so that a scored pair names its boxes
        gts = [replace(g, y=g.y + k / 64) for k, g in enumerate(gts)]
        preds = [replace(p, y=p.y + (k + 30) / 64)
                 for k, p in enumerate(preds)]
        calls = []
        real = metrics._pair_ious

        def counted(a, b, width):
            calls.append(list(zip(map(tuple, a.tolist()),
                                  map(tuple, b.tolist()))))
            return real(a, b, width)

        monkeypatch.setattr(metrics, "_pair_ious", counted)
        coco_summary(preds, gts, {p: 2048.0 for p in panos})
        both = {p.category for p in preds} & {g.category for g in gts}
        assert both == {1, 2}
        assert len(calls) == 1  # one kernel call for every category
        xywh = metrics._as_xywh
        want = Counter((xywh(p), xywh(g)) for p in preds for g in gts
                       if p.category == g.category
                       and p.pano_id == g.pano_id)
        assert set(want.values()) == {1} and len(want) > 100
        assert Counter(calls[0]) == want


def matched_at(preds, gts, t):
    """The ground truth each ranked prediction matches at ``t``, -1 for
    none, of one category's boxes."""
    match = metrics._match(EvalBoxSet.of(preds), EvalBoxSet.of(gts), [t],
                           None)
    return match[-1][t].tolist()


def ap_reference_cases():
    """The seeded sets of ``TestApMatchesReference.test_seeded_random_sets``
    as (preds, gts, widths)."""
    rng = random.Random(11)
    for case in range(80):
        panos = ["a", "b", "c"][:rng.randint(1, 3)]
        gts = random_boxes(rng, rng.randint(0, 14), panos, [1, 2, 3],
                           scored=False, seam=case % 2 == 0)
        preds = random_boxes(rng, rng.randint(0, 14), panos, [1, 2, 3, 4],
                             scored=True, seam=case % 2 == 0)
        preds += [EvalBox(g.pano_id, g.x, g.y, g.w, g.h, g.category,
                          score=rng.choice([None, 0.5, 0.9]))
                  for g in rng.sample(gts, min(len(gts), 3))]
        rng.shuffle(preds)
        yield preds, gts, {p: 2048.0 for p in panos} if case % 3 else None


def acceptance_scene_boxes():
    """The noisy acceptance scene of ``TestApMatchesReference``: its
    annotations as an ``AnnotationSet``, the same as ``EvalBox`` rows, the
    ground truth as rows, and the panorama widths."""
    from geotag_facade import RunConfig
    from geotag_facade.ingest import FootprintSet
    from geotag_facade.matcher import generate_coarse_annotations
    from geotag_facade.synth import (NoiseConfig, SceneConfig,
                                     generate_scene, perturb_detections)
    scene = generate_scene(2003, SceneConfig(n_buildings=14, n_cameras=8))
    dets = perturb_detections(scene, NoiseConfig(
        shift_frac=0.05, scale_frac=0.05, fp_rate=0.3), seed=2004)
    annotations, _ = generate_coarse_annotations(
        scene.metas, FootprintSet.of(scene.footprints), dets,
        RunConfig(threshold_mode="fixed", fixed_threshold=0.05))
    preds = [EvalBox(a.pano_id, a.x, a.y, a.w, a.h, a.category,
                     score=a.score) for a in annotations]
    gts = [EvalBox(g.pano_id, g.x, g.y, g.w, g.h, g.category)
           for g in scene.gt_boxes]
    return annotations, preds, gts, {m.pano_id: m.width for m in scene.metas}


def contested_cases(rng):
    """Ground truth boxes 100 x 100 with an exact and shifted copies as
    predictions: a copy shifted by d has IoU (100 - d) / (100 + d), so its
    ground truth is contested at the thresholds up to that IoU and not
    above; at a 60 px spacing a copy also reaches the next box."""
    spacing = rng.choice([150.0, 60.0])
    gts, preds = [], []
    for k in range(rng.randint(1, 8)):
        g = EvalBox(rng.choice("ab"), spacing * k, 0.0, 100.0, 100.0,
                    rng.choice([1, 2]))
        gts.append(g)
        for d in [0.0] + [rng.choice([0.0, 5.0, 10.0, 20.0, 30.0,
                                      rng.uniform(0.0, 40.0)])
                          for _ in range(rng.randint(0, 3))]:
            preds.append(replace(g, x=g.x + d, score=rng.choice(
                [None, 0.5, 0.9, round(rng.random(), 2)])))
    rng.shuffle(preds)
    return preds, gts, rng.choice([None, {"a": 2048.0, "b": 2048.0}])


def wanted_by(preds, gts, t):
    """For each ground truth box, the predictions of its category and
    panorama with IoU >= ``t``."""
    return [sum(p.category == g.category and p.pano_id == g.pano_id
                and iou_2d(p, g) >= t for p in preds) for g in gts]


def eval_reports(preds, gts, widths):
    """Every evaluator's report, as canonical JSON."""
    return canonical_json({
        "accuracy": coarse_accuracy(preds, gts, 0.8, widths).to_dict(),
        "recall": coarse_accuracy(gts, preds, 0.5, widths).to_dict(),
        "ap": coco_summary(preds, gts, widths),
        "ap_at": [average_precision(preds, gts, t, widths).to_dict()
                  for t in (0.3, 0.75)]})


def assert_columns_as_rows(preds, gts, widths=None):
    """Every evaluator reports the same on rows as on column sets, on the
    prediction side, the ground-truth side and both."""
    want = eval_reports(preds, gts, widths)
    cols_p, cols_g = EvalBoxSet.of(preds), EvalBoxSet.of(gts)
    assert cols_p == preds and cols_g == gts
    for p, g in ((cols_p, gts), (preds, cols_g), (cols_p, cols_g)):
        assert eval_reports(p, g, widths) == want


class TestColumnsMatchRows:
    """The evaluators read column sets as they read rows."""

    def test_reference_seeds(self):
        for preds, gts, widths in ap_reference_cases():
            assert_columns_as_rows(preds, gts, widths)

    def test_acceptance_scene(self):
        annotations, preds, gts, widths = acceptance_scene_boxes()
        assert_columns_as_rows(preds, gts, widths)
        # an AnnotationSet, another kind of column set, reads as its rows
        assert eval_reports(annotations, gts, widths) == eval_reports(
            preds, gts, widths)

    def test_contested_at_some_thresholds(self):
        rng = random.Random(17)
        seen = Counter()
        for _ in range(60):
            preds, gts, widths = contested_cases(rng)
            assert_same_as_reference(preds, gts, widths)
            assert_columns_as_rows(preds, gts, widths)
            for low, high in zip(wanted_by(preds, gts, 0.5),
                                 wanted_by(preds, gts, 0.9)):
                seen[low > 1, high > 1] += 1
        # contested at 0.5 only, at both, and at neither
        assert min(seen[True, False], seen[True, True],
                   seen[False, False]) > 10


def test_batched_ap_equals_the_reference_bit_for_bit():
    rng = random.Random(41)
    for _ in range(400):
        curves = []
        for _ in range(rng.randint(0, 6)):
            hit = rng.choice([0.0, 0.3, 0.7, 1.0])
            flags = [rng.random() < hit for _ in range(rng.choice(
                [0, 1, 2, 7, rng.randint(0, 60)]))]
            # 20 and 50 ground truth put recall on the 101-point grid
            n_gt = max(1, sum(flags) + rng.choice([0, 0, 1, 5]))
            curves.append((flags, rng.choice([n_gt, n_gt, 20, 50])
                           if sum(flags) <= 20 else n_gt))
        got = metrics._batched_ap(
            np.array([f for flags, _ in curves for f in flags], bool),
            np.array([len(flags) for flags, _ in curves], np.int64),
            np.array([n for _, n in curves], np.int64))
        want = [_reference_ap_from_flags(range(len(flags)), flags, n)
                for flags, n in curves]
        assert got.tolist() == want
