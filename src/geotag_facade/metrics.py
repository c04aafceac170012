"""Evaluation: 1D/2D IoU with seam wrap, annotation accuracy, and AP.

Horizontal pixel intervals live on a circle of circumference ``width``.
A wrapped interval is written (lo, hi) with hi < lo, or equivalently as
an overflowing (lo, hi) with hi > width; both are accepted and unrolled
onto a shared linear domain before measuring.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

AP_RECALL_POINTS = np.linspace(0.0, 1.0, 101)
COCO_IOU_GRID = [round(0.50 + 0.05 * i, 2) for i in range(10)]
SMALL_AREA = 32.0 ** 2
MEDIUM_AREA = 96.0 ** 2


@dataclass(frozen=True)
class EvalBox:
    """One annotation as the evaluator sees it."""

    pano_id: str
    x: float
    y: float
    w: float
    h: float
    category: int
    score: float | None = None

    @property
    def area(self) -> float:
        return self.w * self.h


def _interval_pieces(lo: float, hi: float, width: float) -> list:
    """Unroll a circular interval into 1 or 2 linear [start, end) pieces."""
    start = lo % width
    raw = hi - lo
    if raw < 0:
        raw %= width
    length = min(raw, width)
    if length == 0.0:
        return []
    end = start + length
    if end <= width:
        return [(start, end)]
    return [(start, width), (0.0, end - width)]


def _interval_length(lo: float, hi: float, width: float) -> float:
    raw = hi - lo
    if raw < 0:
        raw %= width
    return min(raw, width)


def _overlap_1d(a, b) -> float:
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


def wrapped_intersection(a_lo, a_hi, b_lo, b_hi, width) -> float:
    """Total overlap length of two circular intervals (may be 2 pieces)."""
    total = 0.0
    for pa in _interval_pieces(a_lo, a_hi, width):
        for pb in _interval_pieces(b_lo, b_hi, width):
            total += _overlap_1d(pa, pb)
    return total


def iou_1d(a, b, width: float) -> float:
    """Intersection over union of two circular pixel intervals.

    ``a`` and ``b`` are (lo, hi) pairs. Raises on a zero-length union
    (both intervals degenerate).
    """
    inter = wrapped_intersection(a[0], a[1], b[0], b[1], width)
    union = (_interval_length(a[0], a[1], width)
             + _interval_length(b[0], b[1], width) - inter)
    if union <= 0.0:
        raise ValueError("degenerate intervals: zero-length union")
    return inter / union


def iou_2d(box_a, box_b, width: float | None = None) -> float:
    """Axis-aligned rectangle IoU; horizontal wrap when ``width`` given.

    Boxes are (x, y, w, h) tuples or EvalBox-like objects.
    """
    ax, ay, aw, ah = _as_xywh(box_a)
    bx, by, bw, bh = _as_xywh(box_b)
    if aw <= 0 or ah <= 0 or bw <= 0 or bh <= 0:
        raise ValueError("boxes must have positive area")
    v_over = _overlap_1d((ay, ay + ah), (by, by + bh))
    if width is None:
        h_over = _overlap_1d((ax, ax + aw), (bx, bx + bw))
        area_a, area_b = aw * ah, bw * bh
    else:
        h_over = wrapped_intersection(ax, ax + aw, bx, bx + bw, width)
        area_a = min(aw, width) * ah
        area_b = min(bw, width) * bh
    inter = h_over * v_over
    return inter / (area_a + area_b - inter)


def _as_xywh(box):
    if hasattr(box, "w"):
        return box.x, box.y, box.w, box.h
    return tuple(float(v) for v in box)


# ---------------------------------------------------------------------------
# Coarse-annotation accuracy
# ---------------------------------------------------------------------------

@dataclass
class AccuracyReport:
    """Share of annotations that localize (IoU >= thr) and label correctly.

    ``accuracy`` is None when there are no annotations to score: an
    empty set has undefined accuracy, which is reported, not coerced
    to a number.
    """

    total: int
    correct: int
    iou_thr: float
    per_category: dict = field(default_factory=dict)  # cat -> [correct, total]

    @property
    def accuracy(self) -> float | None:
        if self.total == 0:
            return None
        return self.correct / self.total

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "correct": self.correct,
            "accuracy": self.accuracy,
            "iou_thr": self.iou_thr,
            "per_category": {
                str(c): {"correct": v[0], "total": v[1]}
                for c, v in sorted(self.per_category.items())
            },
        }


def _greedy_pairs(rows, cols, iou_fn):
    """One-to-one assignment by descending IoU; returns {row_i: (col_j, iou)}."""
    scored = []
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            v = iou_fn(r, c)
            if v > 0.0:
                scored.append((v, i, j))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_r, used_c = set(), set()
    out = {}
    for v, i, j in scored:
        if i in used_r or j in used_c:
            continue
        used_r.add(i)
        used_c.add(j)
        out[i] = (j, v)
    return out


def coarse_accuracy(coarse, gt, iou_thr: float = 0.8,
                    width_by_pano: dict | None = None) -> AccuracyReport:
    """Score coarse annotations against ground truth, one panorama at a time.

    An annotation counts as correct when its greedy one-to-one partner
    in the same panorama overlaps with IoU >= ``iou_thr`` and carries
    the same category. Both conditions must hold.
    """
    by_pano_c: dict = {}
    for a in coarse:
        by_pano_c.setdefault(a.pano_id, []).append(a)
    by_pano_g: dict = {}
    for g in gt:
        by_pano_g.setdefault(g.pano_id, []).append(g)

    report = AccuracyReport(total=len(coarse), correct=0, iou_thr=iou_thr)
    for a in coarse:
        report.per_category.setdefault(a.category, [0, 0])[1] += 1
    for pano_id in sorted(by_pano_c):
        anns = by_pano_c[pano_id]
        gts = by_pano_g.get(pano_id, [])
        width = (width_by_pano or {}).get(pano_id)
        pairs = _greedy_pairs(anns, gts, lambda a, g: iou_2d(a, g, width))
        for i, (j, v) in pairs.items():
            if v >= iou_thr and anns[i].category == gts[j].category:
                report.correct += 1
                report.per_category[anns[i].category][0] += 1
    return report


# ---------------------------------------------------------------------------
# Average precision
# ---------------------------------------------------------------------------

def _match_category(preds, gts, thresholds, width_by_pano) -> dict:
    """COCO-style greedy matching of one category at each threshold.

    Predictions in descending score order grab the best still-free
    ground truth in their panorama with IoU >= thr; an IoU tie goes to
    the later ground truth. The ranking and every IoU are computed once
    and shared by all thresholds. Returns {thr: matched}, ``matched``
    holding the ground-truth index per rank, -1 for a false positive.
    """
    gt_by_pano: dict = {}
    for j, g in enumerate(gts):
        gt_by_pano.setdefault(g.pano_id, []).append(j)
    order = sorted(range(len(preds)),
                   key=lambda i: (-(preds[i].score or 0.0), i))
    min_thr = min(thresholds)
    candidates = []  # per rank: (gt index, IoU) in ground-truth order
    for i in order:
        p = preds[i]
        width = (width_by_pano or {}).get(p.pano_id)
        ious = [(j, iou_2d(p, gts[j], width))
                for j in gt_by_pano.get(p.pano_id, [])]
        candidates.append([(j, v) for j, v in ious if v >= min_thr])
    out = {}
    for t in thresholds:
        taken = [False] * len(gts)
        matched = np.full(len(candidates), -1, np.int64)
        for k, cands in enumerate(candidates):
            best_j, best_v = -1, t
            for j, v in cands:
                if not taken[j] and v >= best_v:
                    best_v, best_j = v, j
            if best_j >= 0:
                taken[best_j] = True
                matched[k] = best_j
        out[t] = matched
    return out


def _match_categories(preds, gts, thresholds, width_by_pano):
    """Match every category once per threshold.

    Returns ({category: (its ground truth, {thr: matched})}, excluded)
    in sorted category order; ``excluded`` lists the categories with no
    ground truth.
    """
    preds_of: dict = {}
    for p in preds:
        preds_of.setdefault(p.category, []).append(p)
    gts_of: dict = {}
    for g in gts:
        gts_of.setdefault(g.category, []).append(g)
    out = {}
    excluded = []
    for c in sorted(gts_of.keys() | preds_of.keys()):
        if c not in gts_of:
            excluded.append(c)
            continue
        out[c] = (gts_of[c], _match_category(preds_of.get(c, []), gts_of[c],
                                             thresholds, width_by_pano))
    return out, excluded


def _ap_from_flags(is_tp: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP of ranked true-positive flags."""
    if len(is_tp) == 0:
        return 0.0
    tp = np.cumsum(is_tp, dtype=float)
    fp = np.cumsum(~is_tp, dtype=float)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    # best precision at or after each rank; recall never decreases, so
    # the ranks with recall >= r are those from searchsorted(recall, r) on
    best = np.maximum.accumulate(precision[::-1])[::-1]
    starts = np.searchsorted(recall, AP_RECALL_POINTS - 1e-12)
    ap = 0.0
    for k in starts:  # in order: np.sum adds pairwise and moves the last bits
        ap += best[k] if k < len(best) else 0.0
    return ap / len(AP_RECALL_POINTS)


@dataclass
class APReport:
    iou_thr: float
    per_category: dict  # cat -> AP
    excluded: list      # categories with no ground truth

    @property
    def mean(self) -> float | None:
        vals = list(self.per_category.values())
        if not vals:
            return None
        return float(np.mean(vals))

    def to_dict(self) -> dict:
        return {
            "iou_thr": self.iou_thr,
            "mAP": self.mean,
            "per_category": {str(c): v for c, v in
                             sorted(self.per_category.items())},
            "excluded_categories": self.excluded,
        }


def average_precision(preds, gts, iou_thr: float = 0.5,
                      width_by_pano: dict | None = None) -> APReport:
    """101-point interpolated AP per category at one IoU threshold.

    Categories with zero ground truth are excluded from the mean and
    listed. Scores matter only through their ranking.
    """
    matches, excluded = _match_categories(preds, gts, [iou_thr],
                                          width_by_pano)
    return _ap_report(matches, excluded, iou_thr)


def _ap_report(matches, excluded, iou_thr) -> APReport:
    per_cat = {c: _ap_from_flags(matched[iou_thr] >= 0, len(c_gts))
               for c, (c_gts, matched) in matches.items()}
    return APReport(iou_thr=iou_thr, per_category=per_cat, excluded=excluded)


def _bucket_map(matches, iou_thr, area_lo, area_hi):
    """Mean AP over categories, restricted to ground truth in one area
    bucket; None when no category has ground truth there.

    Predictions matched to out-of-bucket ground truth are ignored
    rather than counted as false positives.
    """
    vals = []
    for c_gts, matched in matches.values():
        in_bucket = np.array([area_lo <= g.area < area_hi for g in c_gts])
        n_gt = int(in_bucket.sum())
        if n_gt == 0:
            continue
        m = matched[iou_thr]
        is_tp = m >= 0
        keep = ~is_tp | in_bucket[m]
        vals.append(_ap_from_flags(is_tp[keep], n_gt))
    if not vals:
        return None
    return float(np.mean(vals))


def coco_summary(preds, gts, width_by_pano: dict | None = None,
                 size_buckets: bool = True) -> dict:
    """COCO-flavored summary: mAP over 0.50:0.05:0.95, 0.50/0.75 slices,
    per-category AP at 0.50, and optional small/medium/large buckets.

    Each (category, IoU threshold) matching runs once and serves the
    plain AP and every area bucket.
    """
    matches, excluded = _match_categories(preds, gts, COCO_IOU_GRID,
                                          width_by_pano)
    reports = {t: _ap_report(matches, excluded, t) for t in COCO_IOU_GRID}
    grid_means = [rep.mean for rep in reports.values() if rep.mean is not None]
    ap50, ap75 = reports[0.5], reports[0.75]
    out = {
        "mAP": float(np.mean(grid_means)) if grid_means else None,
        "mAP50": ap50.mean,
        "mAP75": ap75.mean,
        "per_category_ap50": {str(c): v for c, v in
                              sorted(ap50.per_category.items())},
        "excluded_categories": ap50.excluded,
    }
    if size_buckets:
        buckets = {"small": (0.0, SMALL_AREA),
                   "medium": (SMALL_AREA, MEDIUM_AREA),
                   "large": (MEDIUM_AREA, float("inf"))}
        for name, (lo, hi) in buckets.items():
            vals = []
            for t in COCO_IOU_GRID:
                v = _bucket_map(matches, t, lo, hi)
                if v is not None:
                    vals.append(v)
            out[f"mAP_{name}"] = float(np.mean(vals)) if vals else None
    return out
