"""Evaluation: 1D/2D IoU with seam wrap, annotation accuracy, and AP.

Horizontal pixel intervals live on a circle of circumference ``width``.
A wrapped interval is written (lo, hi) with hi < lo, or equivalently as
an overflowing (lo, hi) with hi > width; both are accepted and unrolled
onto a shared linear domain before measuring.

The evaluators score boxes as arrays: ``coarse_accuracy`` computes the
IoU of every same-panorama pair in one call of the kernel
``_pair_ious``, and ``coco_summary`` in one call per category. Only the
greedy assignment walks run per pair in Python, with the tie rules of
the scalar code they replaced. ``iou_2d`` is the kernel's one-pair
case, so the 2-D formula exists once. ``iou_1d_arrays``, the matcher's
1-D IoU, is the only one, and it shares the wrapped overlap with the
2-D kernel. The scalar forms of both kernels are test references in
``tests/oracle_utils.py``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

AP_RECALL_POINTS = np.linspace(0.0, 1.0, 101)
COCO_IOU_GRID = [round(0.50 + 0.05 * i, 2) for i in range(10)]
SMALL_AREA = 32.0 ** 2
MEDIUM_AREA = 96.0 ** 2


@dataclass(frozen=True, slots=True)
class EvalBox:
    """One annotation as the evaluator sees it."""

    pano_id: str
    x: float
    y: float
    w: float
    h: float
    category: int
    score: float | None = None


def iou_1d_arrays(a_lo, a_hi, b_lo, b_hi, width) -> np.ndarray:
    """1D IoU of each aligned pair of circular pixel intervals
    ``(a_lo[i], a_hi[i])`` and ``(b_lo[i], b_hi[i])`` on a circle of
    ``width[i]``: the overlap summed onto 0.0 over the piece pairs
    (:func:`_wrapped_overlap`), over the two lengths less the overlap.
    These are the float operations, in order, of the scalar ``iou_1d``
    in ``tests/oracle_utils.py``. Raises on a zero-length union.
    """
    inter = _wrapped_overlap(a_lo, a_hi, b_lo, b_hi, width)
    union = (_length_arrays(a_lo, a_hi, width)
             + _length_arrays(b_lo, b_hi, width) - inter)
    if (union <= 0.0).any():
        raise ValueError("degenerate intervals: zero-length union")
    return inter / union


def iou_2d(box_a, box_b, width: float | None = None) -> float:
    """Axis-aligned rectangle IoU; horizontal wrap when ``width`` given.

    Boxes are (x, y, w, h) tuples or EvalBox-like objects. This is the
    one-pair case of the array kernel the evaluators use.
    """
    a = np.array([_as_xywh(box_a)], dtype=float)
    b = np.array([_as_xywh(box_b)], dtype=float)
    w = np.array([np.nan if width is None else width], dtype=float)
    return float(_pair_ious(a, b, w)[0])


def _as_xywh(box):
    if hasattr(box, "w"):
        return box.x, box.y, box.w, box.h
    return tuple(float(v) for v in box)


def _pair_ious(a: np.ndarray, b: np.ndarray, width: np.ndarray) -> np.ndarray:
    """IoU of each aligned pair of (x, y, w, h) rows of ``a`` and ``b``.

    ``width`` holds each pair's panorama width, NaN for no wrap. The
    float operations and their order are those of the scalar formula:
    the vertical overlap; the wrapped horizontal overlap as the sum,
    onto 0.0, of the overlaps of the pieces (a1, b1), (a1, b2), (a2, b1),
    (a2, b2) that :func:`_piece_arrays` gives; ``min(w, width) * h`` for
    the areas. ``reference_iou_2d`` in ``tests/oracle_utils.py`` is that
    formula. Raises when any pair holds a box without positive area
    or has a width that is not positive.
    """
    ax, ay, aw, ah = a.T
    bx, by, bw, bh = b.T
    if ((aw <= 0) | (ah <= 0) | (bw <= 0) | (bh <= 0)).any():
        raise ValueError("boxes must have positive area")
    if (width <= 0).any():  # np.mod would give NaN and every IoU read 0
        raise ValueError("panorama width must be positive")
    v_over = np.maximum(0.0, np.minimum(ay + ah, by + bh) - np.maximum(ay, by))
    flat = np.isnan(width)
    wrap = np.where(flat, 1.0, width)
    h_over = _wrapped_overlap(ax, ax + aw, bx, bx + bw, wrap)
    plain = np.maximum(0.0, np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx))
    h_over = np.where(flat, plain, h_over)
    area_a = np.where(flat, aw, np.minimum(aw, wrap)) * ah
    area_b = np.where(flat, bw, np.minimum(bw, wrap)) * bh
    inter = h_over * v_over
    return inter / (area_a + area_b - inter)


def _length_arrays(lo, hi, width):
    """Circular interval lengths (``_interval_length`` in
    ``tests/oracle_utils.py``, over arrays)."""
    raw = hi - lo
    return np.minimum(np.where(raw < 0, np.mod(raw, width), raw), width)


def _piece_arrays(lo, hi, width):
    """The two (start, end, present) linear pieces of each circular
    interval, the second present only on a wrap (``_interval_pieces``
    in ``tests/oracle_utils.py``, over arrays)."""
    start = np.mod(lo, width)
    length = _length_arrays(lo, hi, width)
    end = start + length
    some = length != 0.0
    return ((start, np.minimum(end, width), some),
            (0.0, end - width, some & (end > width)))


def _wrapped_overlap(a_lo, a_hi, b_lo, b_hi, width):
    """Total overlap of each aligned pair of circular intervals: the
    overlaps of the pieces (a1, b1), (a1, b2), (a2, b1), (a2, b2) summed
    onto 0.0 in that order, an absent piece adding 0.0, as
    ``wrapped_intersection`` in ``tests/oracle_utils.py`` sums them."""
    pieces_b = _piece_arrays(b_lo, b_hi, width)
    total = np.zeros(len(width))
    for lo_a, hi_a, has_a in _piece_arrays(a_lo, a_hi, width):
        for lo_b, hi_b, has_b in pieces_b:
            over = np.maximum(0.0, np.minimum(hi_a, hi_b)
                              - np.maximum(lo_a, lo_b))
            total += np.where(has_a & has_b, over, 0.0)
    return total


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


def _same_pano_pairs(rows, cols, width_by_pano):
    """Every same-panorama (row, col) pair and its IoU.

    Returns index arrays (i, j) and the IoUs, with the rows in their
    order and each row's columns in theirs; one kernel call scores all
    pairs. Panoramas are grouped with CSR offsets, not per-pair lists.
    """
    code: dict = {}
    col_code = np.array([code.setdefault(c.pano_id, len(code)) for c in cols],
                        dtype=np.int64)
    none = len(code)  # a code with no columns, for rows of other panoramas
    row_code = np.array([code.get(r.pano_id, none) for r in rows],
                        dtype=np.int64)
    counts = np.bincount(col_code, minlength=none + 1)
    by_code = np.argsort(col_code, kind="stable")
    starts = np.cumsum(counts) - counts  # each code's first slot in by_code
    per_row = counts[row_code]
    i = np.repeat(np.arange(len(rows)), per_row)
    # pair k of row r takes slot starts[code of r] + (k - first pair of r)
    shift = starts[row_code] - (np.cumsum(per_row) - per_row)
    j = by_code[np.repeat(shift, per_row) + np.arange(len(i))]
    widths = width_by_pano or {}
    row_width = np.array([widths.get(r.pano_id) for r in rows], dtype=float)
    return i, j, _pair_ious(_box_array(rows)[i], _box_array(cols)[j],
                            row_width[i])


def _box_array(boxes) -> np.ndarray:
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes],
                    dtype=float).reshape(-1, 4)


def coarse_accuracy(coarse, gt, iou_thr: float = 0.8,
                    width_by_pano: dict | None = None) -> AccuracyReport:
    """Score coarse annotations against ground truth, one panorama at a time.

    An annotation counts as correct when its greedy one-to-one partner
    in the same panorama overlaps with IoU >= ``iou_thr`` and carries
    the same category. Both conditions must hold.

    One array pass computes the IoU of every same-panorama pair. The
    pairs with IoU > 0 are then assigned greedily, in descending IoU
    with ties to the lower annotation index, then the lower ground-truth
    index. The indices are input positions, which keep input order
    within a panorama, and no pair crosses panoramas, so one sort over
    all panoramas gives each panorama's own assignment.
    """
    report = AccuracyReport(total=len(coarse), correct=0, iou_thr=iou_thr)
    for a in coarse:
        report.per_category.setdefault(a.category, [0, 0])[1] += 1
    i, j, v = _same_pano_pairs(coarse, gt, width_by_pano)
    hit = v > 0.0
    i, j, v = i[hit], j[hit], v[hit]
    order = np.lexsort((j, i, -v))
    used_a = [False] * len(coarse)
    used_g = [False] * len(gt)
    for a, g, val in zip(i[order].tolist(), j[order].tolist(),
                         v[order].tolist()):
        if used_a[a] or used_g[g]:
            continue
        used_a[a] = used_g[g] = True
        cat = coarse[a].category
        if val >= iou_thr and cat == gt[g].category:
            report.correct += 1
            report.per_category[cat][0] += 1
    return report


# ---------------------------------------------------------------------------
# Average precision
# ---------------------------------------------------------------------------

def _match_category(preds, gts, thresholds, width_by_pano) -> dict:
    """COCO-style greedy matching of one category at each threshold.

    Predictions in descending score order grab the best still-free
    ground truth in their panorama with IoU >= thr; an IoU tie goes to
    the later ground truth. The ranking is computed once, and one array
    pass computes the IoU of every (rank, same-panorama ground truth)
    pair; the pairs at or above the lowest threshold, split per rank in
    ground-truth order, serve every threshold's greedy walk. Returns
    {thr: matched}, ``matched`` holding the ground-truth index per rank,
    -1 for a false positive.
    """
    order = sorted(range(len(preds)),
                   key=lambda i: (-(preds[i].score or 0.0), i))
    ranks, js, vs = _same_pano_pairs([preds[i] for i in order], gts,
                                     width_by_pano)
    keep = vs >= min(thresholds)
    candidates = [[] for _ in order]  # per rank: (gt index, IoU) in gt order
    for k, j, v in zip(ranks[keep].tolist(), js[keep].tolist(),
                       vs[keep].tolist()):
        candidates[k].append((j, v))
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


def _bucket_map(matches, in_buckets, iou_thr):
    """Mean AP over categories, restricted to ground truth in one area
    bucket (``in_buckets``: per category, a flag per ground truth); None
    when no category has ground truth there.

    Predictions matched to out-of-bucket ground truth are ignored
    rather than counted as false positives.
    """
    vals = []
    for (_, matched), in_bucket in zip(matches.values(), in_buckets):
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


def coco_summary(preds, gts, width_by_pano: dict | None = None) -> dict:
    """COCO-flavored summary: mAP over 0.50:0.05:0.95, 0.50/0.75 slices,
    per-category AP at 0.50, and small/medium/large area buckets.

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
    buckets = {"small": (0.0, SMALL_AREA),
               "medium": (SMALL_AREA, MEDIUM_AREA),
               "large": (MEDIUM_AREA, float("inf"))}
    areas = [np.array([g.w * g.h for g in c_gts], dtype=float)
             for c_gts, _ in matches.values()]
    for name, (lo, hi) in buckets.items():
        in_buckets = [(lo <= a) & (a < hi) for a in areas]
        vals = []
        for t in COCO_IOU_GRID:
            v = _bucket_map(matches, in_buckets, t)
            if v is not None:
                vals.append(v)
        out[f"mAP_{name}"] = float(np.mean(vals)) if vals else None
    return out
