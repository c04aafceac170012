"""Assign GIS categories to detector boxes via visibility intervals.

Detector output enters decoupled: only boxes and scores, any predicted
category was dropped at ingest. A box earns a category when

* its horizontal midpoint lies strictly inside a building's pixel
  interval, and
* the 1D IoU of box extent vs interval extent exceeds the floor
  (default 0.3, strict).

Score filtering runs per batch, at the threshold :func:`fit_threshold`
computes from the run config and the scores the previous batch kept,
in value order, so that the order of the boxes moves no threshold:
in adaptive mode a single Gaussian fit, mu - 0.5 sigma, clamped; 0.3
for the first batch. Batches are a deterministic seeded shuffle of the
panoramas in the order they are given, so a run is reproducible end to
end; in adaptive mode, where a batch's threshold depends on the batch
before, the annotations depend on that order too.

Annotate runs in three passes. :func:`trace_run` traces the shuffled
run into one :class:`IntervalTable`: one clip, sweep and run split per
group of at most ``GROUP_CAMERAS`` cameras, then one pixel mapping for
the run, whose interval columns are held whole. A group's clip and
sweep arrays grow with its cameras' walls and stretches, not with the
rays of the step, and the sweep tests the rays no stretch fill decides
in slices of a bounded size (``raytrace.sweep_pieces``); so the cap
counts cameras, against the fixed cost each group pays, and a
0.1-degree street of 200 cameras traces in 3 groups.
Then the boxes, rows of the :class:`DetectionSet`'s columns,
are checked and score-filtered batch by batch as array masks; a
batch's threshold depends on the scores the previous batch kept, never
on a match. Last, one array pass (:func:`match_intervals`) runs the
rule above over every (kept box, interval) pair of the run. The matches
come back as an :class:`AnnotationSet`, columns whose
:class:`CoarseAnnotation` rows are built only if read. No interval row
is built for annotation; :func:`match_box` is the rule's one-box case,
over interval rows. The ``trace`` command writes the same table as it
is (``cocoio.write_trace``), and :func:`held_panoramas` names the
cameras that both skip.
"""
from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field, fields

import numpy as np

from .config import RunConfig
from .ingest import DetectionBox, DetectionSet, FootprintSet, ranges
from .metrics import _RowView, iou_1d_arrays
from .projection import (MAX_LOCAL_RANGE_M, FootprintIndex, clip_group,
                         id_ranks, pixel_span)
from .raytrace import IntervalTable, run_table, sweep_grid, sweep_pieces

log = logging.getLogger(__name__)

DEFAULT_FIRST_THRESHOLD = 0.3
SIGMA_FACTOR = 0.5
# Cameras traced together. The cap bounds a group's clip arrays and its
# sweep's walls and stretches, about 44 walls and 70 to 80 stretches a
# camera on the benchmark's streets at any step; each group pays a fixed
# cost of about 1 ms in clipping, the sweep's set-up and the run split.
GROUP_CAMERAS = 96


@dataclass(frozen=True, slots=True)
class CoarseAnnotation:
    """A detector box labeled with a GIS-derived category.

    ``category`` always comes from the matched visibility interval,
    never from the detector; ``building_id`` records the provenance.
    """

    pano_id: str
    x: float
    y: float
    w: float
    h: float
    category: int
    building_id: str
    iou_x: float
    score: float

    def to_dict(self) -> dict:
        return {
            "pano_id": self.pano_id,
            "bbox": [self.x, self.y, self.w, self.h],
            "category": self.category,
            "building_id": self.building_id,
            "iou_x": self.iou_x,
            "score": self.score,
        }


@dataclass(eq=False)
class AnnotationSet(_RowView):
    """Annotations in emit order, one list per :class:`CoarseAnnotation`
    field, read as :class:`CoarseAnnotation` rows. Setting a row writes
    its fields into the lists.
    """

    pano_id: list
    x: list
    y: list
    w: list
    h: list
    category: list
    building_id: list
    iou_x: list
    score: list

    @classmethod
    def of(cls, rows) -> "AnnotationSet":
        """The set of ``rows``, anything with the fields; a field a row
        lacks, as a ground-truth box lacks ``score``, reads None."""
        rows = list(rows)
        return cls(*([getattr(a, f.name, None) for a in rows]
                     for f in fields(cls)))

    def _rows(self) -> list:
        return [*map(CoarseAnnotation, *(getattr(self, f.name)
                                          for f in fields(self)))]

    def __setitem__(self, i, row):
        for f in fields(self):
            getattr(self, f.name)[i] = getattr(row, f.name)
        self.__dict__.pop("rows", None)


def fit_threshold(scores, config: RunConfig) -> float:
    """A batch's score threshold, from the scores the previous one kept:
    ``config.fixed_threshold`` in fixed mode; else mu - 0.5 sigma of the
    scores (sample std, 0 for one score) clamped to ``[config.clip_lo,
    config.clip_hi]``, or the default when there are none, as at first.
    """
    if config.threshold_mode == "fixed":
        return config.fixed_threshold
    if len(scores) == 0:
        return DEFAULT_FIRST_THRESHOLD
    mu = float(np.mean(scores))
    sigma = float(np.std(scores, ddof=1)) if len(scores) > 1 else 0.0
    return min(max(mu - SIGMA_FACTOR * sigma, config.clip_lo),
               config.clip_hi)


def filter_detections(boxes, threshold: float) -> list:
    """Keep boxes scoring at or above ``threshold``, order kept."""
    return [b for b in boxes if b.score >= threshold]


@dataclass(frozen=True)
class MatchResult:
    building_id: str
    category: int
    iou_x: float


def match_box(box: DetectionBox, intervals, iou_min: float,
              width: float) -> MatchResult | None:
    """Match one box against a panorama's visibility interval rows, as
    the one-box case of :func:`match_intervals`: ties go to the smaller
    building id (:func:`projection.id_ranks`), then the earlier row.
    None when nothing qualifies."""
    ivs = list(intervals)
    won, row, iou = match_intervals(
        np.array([box.x], float), np.array([box.w], float),
        np.array([width], float), np.zeros(1, np.int64), np.array([len(ivs)]),
        np.array([iv.px_lo for iv in ivs], float),
        np.array([iv.px_hi for iv in ivs], float),
        id_ranks([iv.building_id for iv in ivs]), iou_min)
    if not len(won):
        return None
    iv = ivs[row[0]]
    return MatchResult(building_id=iv.building_id, category=iv.category,
                       iou_x=float(iou[0]))


def match_intervals(x, w, width, first, count, px_lo, px_hi, rank,
                    iou_min: float):
    """The matching rule, for many boxes at once in one array pass.

    Box ``i`` spans ``x[i]`` to ``x[i] + w[i]`` on a panorama of
    ``width[i]`` pixels, and its panorama's intervals are rows
    ``first[i]`` to ``first[i] + count[i] - 1`` of the ``px_lo``,
    ``px_hi`` and ``rank`` columns. A pair's interval must strictly
    contain the box's midpoint on the wrapped pixel axis, and an empty
    span (ends equal modulo the width) holds nothing; the pairs inside
    take their 1D IoU (:func:`metrics.iou_1d_arrays`), so an empty span
    is never divided by. Each box keeps its pair of highest IoU above
    ``iou_min`` (strict), ties to the smaller building rank (id order)
    and then the earlier row. ``reference_match_box`` in
    ``tests/oracle_utils.py`` is the scalar form the tests hold it to.

    Returns (box, row, iou) arrays of the winners, in box order; a box
    without one is absent.
    """
    box, row = ranges(first, count)
    pano_w = width[box]
    mid = np.mod(x + w / 2.0, width)[box]
    lo = np.mod(px_lo[row], pano_w)
    hi = np.mod(px_hi[row], pano_w)
    inside = np.where(lo < hi, (lo < mid) & (mid < hi),
                      (mid > lo) | (mid < hi))
    keep = np.flatnonzero(inside & (lo != hi))
    box, row = box[keep], row[keep]
    iou = iou_1d_arrays(x[box], x[box] + w[box], px_lo[row], px_hi[row],
                        pano_w[keep])
    keep = np.flatnonzero(iou > iou_min)
    box, row, iou = box[keep], row[keep], iou[keep]
    order = np.lexsort((rank[row], -iou, box))
    box, row, iou = box[order], row[order], iou[order]
    won = np.flatnonzero(np.diff(box, prepend=-1))
    return box[won], row[won], iou[won]


# ---------------------------------------------------------------------------
# Batch pipeline
# ---------------------------------------------------------------------------

@dataclass
class BatchReport:
    batch_index: int
    threshold: float
    n_panoramas: int
    input_boxes: int = 0
    filtered_out: int = 0
    unmatched: int = 0
    annotated: int = 0
    dropped: int = 0  # degenerate scene or invalid box

    def to_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass
class RunReport:
    config: dict
    batches: list = field(default_factory=list)
    skipped_panoramas: list = field(default_factory=list)  # (pano_id, reason)
    missing_meta: dict = field(default_factory=dict)  # pano_id -> n boxes

    @property
    def totals(self) -> dict:
        keys = ("input_boxes", "filtered_out", "unmatched", "annotated",
                "dropped")
        tot = {k: sum(getattr(b, k) for b in self.batches) for k in keys}
        tot["dropped_missing_meta"] = sum(self.missing_meta.values())
        return tot

    @property
    def threshold_history(self) -> list:  # (batch_index, threshold) pairs
        return [(b.batch_index, b.threshold) for b in self.batches]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "totals": self.totals,
            "batches": [b.to_dict() for b in self.batches],
            "threshold_history": [list(t) for t in self.threshold_history],
            "skipped_panoramas": [list(s) for s in self.skipped_panoramas],
            "missing_meta": dict(sorted(self.missing_meta.items())),
        }


def trace_run(index: FootprintIndex, metas, config: RunConfig
              ) -> IntervalTable:
    """Trace a run's panoramas into one :class:`IntervalTable`, camera
    ``c`` being ``metas[c]``; the package's one per-panorama trace, which
    annotation matches and the ``trace`` command writes.

    The cameras are clipped (:func:`clip_group`), swept into pieces of
    one owner (:func:`sweep_pieces`) and split into runs
    (:func:`run_table`) in groups of ``GROUP_CAMERAS`` cameras, the last
    group holding the rest; then one pass maps every run onto its
    panorama's pixels. No per-ray column and no interval
    row is built. One WARNING counts the candidate (camera, footprint)
    pairs skipped because the ring reaches past the flat-plane range.
    """
    metas = list(metas)
    grid = sweep_grid(config.step_deg)
    n = len(grid.thetas)
    size = GROUP_CAMERAS
    containing, out_of_range = [], 0
    # each run's first and last sample in the run's sweep, owning
    # footprint and distance, after the columns' empty seed
    runs = [(np.zeros(0, np.int64),) * 4]
    for i in range(0, len(metas), size):
        group = metas[i:i + size]
        clip = clip_group(index, group, config.radius_m)
        containing += clip.containing
        out_of_range += clip.out_of_range
        # unbound, the sweep's pieces are freed before the next clip
        start, end, own, low = run_table(*sweep_pieces(
            clip.walls, grid, len(group), config.radius_m), n)
        runs.append((start + i * n, end + i * n,
                     clip.owner_fp(start // n, own), low))
    if out_of_range:
        log.warning("skipped %d (camera, footprint) pairs: the footprint "
                    "has a vertex beyond the %.0f m flat-plane range",
                    out_of_range, MAX_LOCAL_RANGE_M)
    start, end, owner, low = map(np.concatenate, zip(*runs))
    cam = start // n
    angle_lo, angle_hi = grid.thetas[start % n], grid.thetas[end % n]
    north = np.array([m.north_px for m in metas], float)[cam]
    width = np.array([m.width for m in metas], float)[cam]
    px_lo, px_hi = pixel_span(angle_lo, angle_hi, north, width,
                              config.flip_heading)
    return IntervalTable(
        containing=containing,
        offsets=np.searchsorted(cam, np.arange(len(metas) + 1)),
        owner=owner, angle_lo=angle_lo, angle_hi=angle_hi, min_distance=low,
        px_lo=px_lo, px_hi=px_hi)


def held_panoramas(metas, containing) -> list:
    """``(pano_id, reason)`` of each camera of ``metas`` that a footprint
    holds (``containing``): the panoramas a run skips, in order."""
    return [(m.pano_id, f"camera inside footprint {blocker}")
            for m, blocker in zip(metas, containing) if blocker is not None]


def generate_coarse_annotations(metas, footprints: FootprintSet,
                                dets: DetectionSet, config: RunConfig):
    """Run the full pipeline; returns (annotations, run report), the
    annotations as an :class:`AnnotationSet`.

    Panoramas are shuffled with the run seed, traced as one table
    (:func:`trace_run`) and chunked into batches. A box is dropped when
    its camera is held by a footprint or its vertical extent leaves the
    image. Batch by batch, strictly in order, the rest are filtered at
    the threshold :func:`fit_threshold` fits to the scores the previous
    batch kept, sorted. Every kept box of the run is then matched in one
    :func:`match_intervals` pass. Detections whose panorama has no
    metadata are dropped and reported.
    """
    order = list(metas)
    meta_ids = {m.pano_id for m in order}
    report = RunReport(config=config.to_dict())
    off = dets.offsets.tolist()  # each panorama's first row and box count
    span = {p: (i, j - i) for p, i, j in zip(dets.pano_ids, off, off[1:])}
    report.missing_meta = {p: n for p, (_, n) in sorted(span.items())
                           if p not in meta_ids}

    random.Random(config.seed).shuffle(order)
    index = FootprintIndex(footprints)
    table = trace_run(index, order, config)
    report.skipped_panoramas = held_panoramas(order, table.containing)

    # each box of the run, camera by camera: its row of dets and camera
    first, n = np.array([span.get(m.pano_id, (0, 0)) for m in order],
                        np.int64).reshape(-1, 2).T
    cam, rows = ranges(first, n)
    held = np.array([b is not None for b in table.containing], bool)
    limit = np.array([m.height for m in order], float) + 1e-9
    # a box's vertical extent must stay in the image
    valid = ~(held[cam] | (dets.y[rows] + dets.h[rows] > limit[cam]))
    score = dets.score[rows]
    kept = valid.copy()
    size = config.batch_size
    # each batch's first box
    bounds = [*(np.cumsum(n) - n)[::size].tolist(), len(cam)]
    thresholds, scores = [], score[:0]  # those the previous batch kept
    for lo, hi in zip(bounds, bounds[1:]):
        thresholds.append(fit_threshold(scores, config))
        kept[lo:hi] &= score[lo:hi] >= thresholds[-1]
        # in value order, so that the fit's sums do not hang on box order
        scores = np.sort(score[lo:hi][kept[lo:hi]])

    rows, on = rows[kept], cam[kept]
    box, row, iou = match_intervals(
        dets.x[rows], dets.w[rows],
        np.array([m.width for m in order], float)[on], table.offsets[on],
        np.diff(table.offsets)[on], table.px_lo, table.px_hi,
        index.rank[table.owner], config.iou_x_min)

    def per_batch(cams):  # a count per batch, of cameras or their boxes
        return np.bincount(cams // size, minlength=len(thresholds)).tolist()
    annotated = per_batch(on[box])
    report.batches = [  # the counts in BatchReport's field order
        BatchReport(k, *c) for k, c in enumerate(zip(
            thresholds, per_batch(np.arange(len(order))), per_batch(cam),
            per_batch(cam[valid & ~kept]),
            np.subtract(per_batch(on), annotated).tolist(), annotated,
            per_batch(cam[~valid])))]
    rows, on, owners = rows[box], on[box], table.owner[row].tolist()
    ids, categories = footprints.building_ids, footprints.categories
    return AnnotationSet(
        [order[c].pano_id for c in on.tolist()],
        *(c[rows].tolist() for c in (dets.x, dets.y, dets.w, dets.h)),
        [categories[f] for f in owners], [ids[f] for f in owners],
        iou.tolist(), dets.score[rows].tolist()), report
