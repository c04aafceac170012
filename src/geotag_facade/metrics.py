"""Evaluation: 1D/2D IoU with seam wrap, annotation accuracy, and AP.

Horizontal pixel intervals live on a circle of circumference ``width``.
A wrapped interval is written (lo, hi) with hi < lo, or equivalently as
an overflowing (lo, hi) with hi > width; both are accepted and unrolled
onto a shared linear domain before measuring.

The evaluators read boxes as columns, an :class:`EvalBoxSet`: the one
``read_coco`` returns, or one read from another column set (such as an
``AnnotationSet``) or from rows. Panoramas and categories become
integer codes, and one call of the kernel ``_pair_ious`` scores the
pairs: for accuracy, those of a panorama whose horizontal spans overlap,
found by a sort and sweep (``_overlapping``); for AP, every pair that
shares a panorama and a category. The greedy assignments keep the tie
rules of the scalar code they replaced. Accuracy walks its pairs in
Python; the AP matching walks only the ranked predictions that want a
ground truth another one also wants, and the rest take their best
candidate in one array pass. Every (category, IoU threshold, area
bucket) AP curve is then scored in one batched array pass; runs laid
end to end (a key's columns, a curve's ranks) expand by ``ingest.ranges``.
``iou_2d`` is the kernel's one-pair case, so the 2-D formula exists
once; ``_piece_arrays``, the one seam cut of a pixel span, serves it,
``_overlapping``, ``render``'s strip and ``synth``'s false-positive
gaps. ``iou_1d_arrays``, the matcher's 1-D IoU, is the only one, and it
shares the wrapped overlap with the 2-D kernel. The scalar forms of
the kernels, the matching and the AP are test references in
``tests/oracle_utils.py``.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .ingest import ranges

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


@dataclass(eq=False)
class EvalBoxSet:
    """Eval boxes as columns: ``pano_id`` and ``category`` lists, and
    float64 ``x``, ``y``, ``w``, ``h`` and ``score`` arrays, NaN where a
    box has no score. Iterating or indexing gives :class:`EvalBox` rows,
    derived once; the set equals any sequence of the same rows.
    """

    pano_id: list
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    h: np.ndarray
    category: list
    score: np.ndarray

    @classmethod
    def of(cls, boxes) -> "EvalBoxSet":
        """``boxes`` as a set: a set as it is; else the columns of a column
        set (anything with a ``pano_id`` column, such as an
        ``AnnotationSet``) or of rows, read one list per field. A missing
        ``score`` reads None."""
        if isinstance(boxes, cls):
            return boxes
        if not hasattr(boxes, "pano_id"):
            rows = list(boxes)
            boxes = SimpleNamespace(
                pano_id=[b.pano_id for b in rows], x=[b.x for b in rows],
                y=[b.y for b in rows], w=[b.w for b in rows],
                h=[b.h for b in rows], category=[b.category for b in rows],
                score=[getattr(b, "score", None) for b in rows])
        score = getattr(boxes, "score", [None] * len(boxes.pano_id))
        return cls(list(boxes.pano_id),
                   *(np.array(getattr(boxes, k), float) for k in "xywh"),
                   list(boxes.category), np.array(score, float))

    @cached_property
    def rows(self) -> list:
        score = [None if s != s else s for s in self.score.tolist()]
        return [*map(EvalBox, self.pano_id, self.x.tolist(), self.y.tolist(),
                     self.w.tolist(), self.h.tolist(), self.category, score)]

    def __len__(self):
        return len(self.pano_id)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        return self.rows == list(other)

    @property
    def xywh(self) -> np.ndarray:
        return np.column_stack((self.x, self.y, self.w, self.h))


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
    in ``tests/oracle_utils.py``, over arrays or scalars): the package's
    one cut of a span at the seam. A span at least ``width`` long is the
    whole circle."""
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
# Pairs by code
# ---------------------------------------------------------------------------

def _codes(a: EvalBoxSet, b: EvalBoxSet, column: str, ordered=False):
    """Codes of ``column`` over both sets in one numbering: (a's codes,
    b's codes, the values by code), the values sorted when ``ordered``."""
    values = [*getattr(a, column), *getattr(b, column)]
    distinct = [*dict.fromkeys(values)]
    if ordered:
        distinct.sort()
    code = dict(zip(distinct, range(len(distinct))))
    codes = np.fromiter(map(code.__getitem__, values), np.int64, len(values))
    return codes[:len(a)], codes[len(a):], distinct


def _pairs(row_key: np.ndarray, col_key: np.ndarray, n_keys: int):
    """Every (row, col) pair with equal keys in ``range(n_keys)``, as
    index arrays (i, j): the rows in order, and each row's columns in
    theirs. Keys are grouped with CSR offsets, not per-pair lists."""
    counts = np.bincount(col_key, minlength=n_keys)
    by_key = np.argsort(col_key, kind="stable")
    starts = np.cumsum(counts) - counts  # each key's first slot in by_key
    i, slot = ranges(starts[row_key], counts[row_key])
    return i, by_key[slot]


def _pano_widths(panos, width_by_pano) -> np.ndarray:
    """The width of each of ``panos``, NaN (no wrap) where none is given."""
    widths = width_by_pano or {}
    return np.array([widths.get(p) for p in panos], float)


def _ious(rows: EvalBoxSet, cols: EvalBoxSet, i, j, row_pano, panos,
          width_by_pano):
    """IoU of each pair (rows[i], cols[j]), at the width of the row's
    panorama, ``panos[row_pano[i]]``."""
    width = _pano_widths(panos, width_by_pano)[row_pano[i]]
    return _pair_ious(rows.xywh[i], cols.xywh[j], width)


def _overlapping(rows: EvalBoxSet, cols: EvalBoxSet, row_pano, col_pano,
                 width):
    """Every pair (rows[i], cols[j]) of one panorama whose horizontal
    overlap, as :func:`_pair_ious` measures it, is positive: index arrays
    (i, j) sorted by i, then j. ``width`` holds each panorama's width by
    code, NaN for no wrap. Raises as the kernel would on the pairs of
    every panorama both sides share.

    Each box becomes the kernel's linear pieces: its two
    :func:`_piece_arrays` pieces at its panorama's width, or its plain
    span where there is none. The kernel's overlap is positive exactly
    when two of the pair's pieces overlap. So the pieces of both sides
    are sorted together by (panorama, start), and one
    ``np.searchsorted`` per piece finds the pieces after it that start
    before it ends: each overlapping pair of pieces once.
    """
    n = len(width)
    shared = (np.bincount(row_pano, minlength=n) > 0) \
        & (np.bincount(col_pano, minlength=n) > 0)
    for boxes, pano in ((rows, row_pano), (cols, col_pano)):
        if (shared[pano] & ((boxes.w <= 0) | (boxes.h <= 0))).any():
            raise ValueError("boxes must have positive area")
    if (width[shared] <= 0).any():
        raise ValueError("panorama width must be positive")
    # the boxes of both sides as one set, rows first
    pano = np.concatenate((row_pano, col_pano))
    x = np.concatenate((rows.x, cols.x))
    x_hi = x + np.concatenate((rows.w, cols.w))
    w, use = width[pano], shared[pano]
    flat = np.isnan(w)
    # the kernel's wrap of 1.0 where there is no width, and where no pair
    # is measured, whose width may be anything
    (lo1, hi1, has1), (_, hi2, has2) = _piece_arrays(
        x, x_hi, np.where(flat | ~use, 1.0, w))
    lo = np.concatenate((np.where(flat, x, lo1), np.zeros(len(x))))
    hi = np.concatenate((np.where(flat, x_hi, hi1), hi2))
    box = np.tile(np.arange(len(x)), 2)
    keep = np.flatnonzero(np.concatenate((flat | has1, ~flat & has2))
                          & (hi > lo))
    key = _complex(pano[box[keep]], lo[keep])
    order = np.argsort(key)  # by panorama, then start
    key, hi, box = key[order], hi[keep][order], box[keep][order]
    # each piece meets the pieces after it that start before it ends
    after = np.arange(1, len(key) + 1)
    piece, other = ranges(after, np.searchsorted(
        key, _complex(key.real, hi)) - after)
    a, b = box[piece], box[other]
    is_row = a < len(rows)
    cross = np.flatnonzero(is_row != (b < len(rows)))
    i = np.where(is_row, a, b)[cross]
    j = np.where(is_row, b, a)[cross] - len(rows)
    return np.divmod(np.unique(i * len(cols) + j), max(len(cols), 1))


def _complex(real, imag) -> np.ndarray:
    """Complex numbers from their parts, which sort by ``real``, then
    ``imag``; made without arithmetic, in which an infinite ``imag``
    would give a NaN."""
    return np.stack((real.astype(float), imag), axis=-1).view(complex)[:, 0]


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


def coarse_accuracy(coarse, gt, iou_thr: float = 0.8,
                    width_by_pano: dict | None = None) -> AccuracyReport:
    """Score coarse annotations against ground truth, one panorama at a time.

    An annotation counts as correct when its greedy one-to-one partner
    in the same panorama overlaps with IoU >= ``iou_thr`` and carries
    the same category. Both conditions must hold. Either side is an
    :class:`EvalBoxSet`, another column set or rows.

    One array pass computes the IoU of every same-panorama pair whose
    horizontal spans overlap (:func:`_overlapping`), which are the pairs
    that can score above 0. The pairs with IoU > 0 are then assigned
    greedily, in descending IoU with ties to the lower annotation index,
    then the lower ground-truth index. The indices are input positions,
    which keep input order within a panorama, and no pair crosses
    panoramas, so one sort over all panoramas gives each panorama's own
    assignment.
    """
    coarse, gt = EvalBoxSet.of(coarse), EvalBoxSet.of(gt)
    report = AccuracyReport(total=len(coarse), correct=0, iou_thr=iou_thr)
    report.per_category = {c: [0, n] for c, n in
                           Counter(coarse.category).items()}
    a_pano, g_pano, panos = _codes(coarse, gt, "pano_id")
    i, j = _overlapping(coarse, gt, a_pano, g_pano,
                        _pano_widths(panos, width_by_pano))
    v = _ious(coarse, gt, i, j, a_pano, panos, width_by_pano)
    hit = v > 0.0
    order = np.lexsort((j[hit], i[hit], -v[hit]))
    i, j, v = i[hit][order], j[hit][order], v[hit][order]
    used_a, used_g, kept = set(), set(), []
    for k, a, g in zip(range(len(i)), i.tolist(), j.tolist()):
        if a not in used_a and g not in used_g:
            used_a.add(a)
            used_g.add(g)
            kept.append(k)
    i, j, v = i[kept], j[kept], v[kept]
    a_cat, g_cat, _ = _codes(coarse, gt, "category")
    for a in i[(v >= iou_thr) & (a_cat[i] == g_cat[j])].tolist():
        report.correct += 1
        report.per_category[coarse.category[a]][0] += 1
    return report


# ---------------------------------------------------------------------------
# Average precision
# ---------------------------------------------------------------------------

def _match(preds: EvalBoxSet, gts: EvalBoxSet, thresholds,
           width_by_pano) -> tuple:
    """COCO-style greedy matching of every category at each threshold.

    Each category's predictions, in descending score order (no score
    ranks as 0.0), grab the best still-free ground truth of their
    category in their panorama with IoU >= thr; an IoU tie goes to the
    later ground truth. One array pass computes the IoU of every (rank,
    same-panorama, same-category ground truth) pair. At each threshold
    a rank none of whose candidates another rank wants takes its best
    candidate; only the other ranks are walked, in rank order.

    Returns (cats, p_cat, g_cat, ranked, {thr: matched}): the categories
    in sorted order, each prediction's and ground truth's index into
    them, the predictions in rank order (by category, then score, then
    input order), and per threshold the ground-truth index matched by
    each rank, -1 for a false positive.
    """
    p_cat, g_cat, cats = _codes(preds, gts, "category", ordered=True)
    p_pano, g_pano, panos = _codes(preds, gts, "pano_id")
    ranked = np.lexsort((-np.nan_to_num(preds.score, nan=0.0), p_cat))
    n_cat = len(cats)
    i, j = _pairs((p_pano * n_cat + p_cat)[ranked], g_pano * n_cat + g_cat,
                  len(panos) * n_cat)
    v = _ious(preds, gts, ranked[i], j, p_pano, panos, width_by_pano)
    out = {}
    for t in thresholds:
        cand = v >= t
        ci, cj, cv = i[cand], j[cand], v[cand]
        contested = np.zeros(len(ranked), bool)
        contested[ci[np.bincount(cj, minlength=len(gts))[cj] > 1]] = True
        walk = contested[ci]
        matched = np.full(len(ranked), -1, np.int64)
        # the best candidate, the later ground truth on a tie: the last
        # of a rank's candidates (in ground-truth order) at its top IoU
        ui, uj, uv = ci[~walk], cj[~walk], cv[~walk]
        firsts = np.flatnonzero(np.diff(ui, prepend=-1))
        top = np.repeat(np.maximum.reduceat(uv, firsts),
                        np.diff(firsts, append=len(ui)))
        at = np.where(uv == top, np.arange(len(ui)), -1)
        matched[ui[firsts]] = uj[np.maximum.reduceat(at, firsts)]
        wk = ci[walk]
        firsts = np.flatnonzero(np.diff(wk, prepend=-1))
        js, vs = cj[walk].tolist(), cv[walk].tolist()
        taken = set()
        for k, lo, hi in zip(wk[firsts].tolist(), firsts.tolist(),
                             [*firsts[1:].tolist(), len(js)]):
            best_j, best_v = -1, t
            for jj, vv in zip(js[lo:hi], vs[lo:hi]):
                if jj not in taken and vv >= best_v:
                    best_v, best_j = vv, jj
            if best_j >= 0:
                taken.add(best_j)
                matched[k] = best_j
        out[t] = matched
    return cats, p_cat, g_cat, ranked, out


def _batched_ap(flags: np.ndarray, lengths: np.ndarray,
                n_gt: np.ndarray) -> np.ndarray:
    """101-point interpolated AP of curves of ranked true-positive
    ``flags`` laid end to end, curve c of ``lengths[c]`` flags and
    ``n_gt[c]`` >= 1 ground truth, each with the float operations, in
    order, of ``_reference_ap_from_flags`` in ``tests/oracle_utils.py``:
    the 101 points' best precisions summed in point order, over 101."""
    n_curves = len(lengths)
    ends = np.cumsum(lengths)
    base = ends - lengths
    cum = np.append(0, np.cumsum(flags))  # true positives before each flag
    tp_before, n_tp = cum[base], cum[ends] - cum[base]
    curve, rank = ranges(np.zeros(n_curves, np.int64), lengths)
    # tp + fp is rank + 1 exactly, as integers held in floats are
    precision = (cum[1:] - tp_before[curve]).astype(float) / (rank + 1)
    # a rank's recall reaches a point once its tp reaches the least
    # count whose recall does; that is at the count-th true positive
    need = np.empty((n_curves, len(AP_RECALL_POINTS)), np.int64)
    for n in np.unique(n_gt).tolist():
        need[n_gt == n] = np.searchsorted(np.arange(n + 1) / n,
                                          AP_RECALL_POINTS - 1e-12)
    tp_at = np.append(np.flatnonzero(flags), 0)
    nth = tp_at[np.minimum(tp_before[:, None] + need - 1, len(tp_at) - 1)]
    start = np.where(need == 0, 0, np.where(need <= n_tp[:, None],
                                            nth - base[:, None],
                                            lengths[:, None]))
    # the best precision from each point's first rank on: the maximum of
    # each block between consecutive first ranks, then a running maximum
    # from the last point back; 0.0 past a curve's end
    idx = (base[:, None] + start).ravel()
    ext = np.append(precision, 0.0)
    block = np.maximum.reduceat(ext, idx)
    block[idx == np.append(idx[1:], len(ext))] = 0.0
    best = np.maximum.accumulate(block.reshape(need.shape)[:, ::-1],
                                 axis=1)[:, ::-1]
    return np.cumsum(best, axis=1)[:, -1] / len(AP_RECALL_POINTS)


def _category_aps(match, gt_masks) -> list:
    """Per threshold of ``match`` (:func:`_match`), per ground-truth
    mask of ``gt_masks``: {category: AP} over the categories, sorted,
    with ground truth in the mask, all curves scored in one batch.
    Predictions matched to ground truth outside the mask are ignored
    rather than counted as false positives."""
    cats, p_cat, g_cat, ranked, matched = match
    rank_cat = p_cat[ranked]
    matched, masks = np.array([*matched.values()]), np.array(gt_masks)
    n_t, n_m, n_c = len(matched), len(masks), len(cats)
    # n_gt[b, c]: ground truth of category c in mask b
    n_gt = np.array([np.bincount(g_cat[m], minlength=n_c) for m in masks])
    tp = matched >= 0
    # (threshold, mask, rank): a false positive, or matched in the mask
    # (-1 reads the padding column), of a category with ground truth there
    in_mask = np.append(masks, np.zeros((n_m, 1), bool), axis=1)[:, matched]
    keep = ((~tp[:, None] | in_mask.transpose(1, 0, 2))
            & (n_gt[:, rank_cat] > 0)[None])
    flags = np.broadcast_to(tp[:, None], keep.shape)[keep]
    curve = (np.arange(n_t * n_m)[:, None] * n_c
             + rank_cat[None]).reshape(keep.shape)
    lengths = np.bincount(curve[keep], minlength=n_t * n_m * n_c)
    has = np.broadcast_to(n_gt > 0, (n_t, n_m, n_c)).ravel()
    aps = _batched_ap(flags, lengths[has],
                      np.broadcast_to(n_gt, (n_t, n_m, n_c)).ravel()[has])
    out = [[{} for _ in range(n_m)] for _ in range(n_t)]
    for k, ap in zip(np.flatnonzero(has).tolist(), aps.tolist()):
        t, rest = divmod(k, n_m * n_c)
        out[t][rest // n_c][cats[rest % n_c]] = ap
    return out


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
    preds, gts = EvalBoxSet.of(preds), EvalBoxSet.of(gts)
    match = _match(preds, gts, [iou_thr], width_by_pano)
    [[per_cat]] = _category_aps(match, [np.ones(len(gts), bool)])
    return APReport(iou_thr=iou_thr, per_category=per_cat,
                    excluded=[c for c in match[0] if c not in per_cat])


def coco_summary(preds, gts, width_by_pano: dict | None = None) -> dict:
    """COCO-flavored summary: mAP over 0.50:0.05:0.95, 0.50/0.75 slices,
    per-category AP at 0.50, and small/medium/large area buckets.

    One matching of every category at every IoU threshold serves the
    plain AP and every area bucket, and one batched pass scores all
    their curves.
    """
    preds, gts = EvalBoxSet.of(preds), EvalBoxSet.of(gts)
    match = _match(preds, gts, COCO_IOU_GRID, width_by_pano)
    with np.errstate(over="ignore"):  # an area past the float range is large
        area = gts.w * gts.h
    buckets = {"small": (0.0, SMALL_AREA),
               "medium": (SMALL_AREA, MEDIUM_AREA),
               "large": (MEDIUM_AREA, float("inf"))}
    masks = [np.ones(len(gts), bool)]
    masks += [(lo <= area) & (area < hi) for lo, hi in buckets.values()]
    aps = _category_aps(match, masks)
    excluded = [c for c in match[0] if c not in aps[0][0]]
    reports = {t: APReport(t, per_t[0], excluded)
               for t, per_t in zip(COCO_IOU_GRID, aps)}
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
    for b, name in enumerate(buckets, start=1):
        vals = [float(np.mean([*per_t[b].values()])) for per_t in aps
                if per_t[b]]
        out[f"mAP_{name}"] = float(np.mean(vals)) if vals else None
    return out
