"""Assign GIS categories to detector boxes via visibility intervals.

Detector output enters decoupled: only boxes and scores, any predicted
category was dropped at ingest. A box earns a category when

* its horizontal midpoint lies strictly inside a building's pixel
  interval, and
* the 1D IoU of box extent vs interval extent exceeds the floor
  (default 0.3, strict).

Score filtering runs per batch, at the threshold :func:`fit_threshold`
computes from the run config and the scores the previous batch kept:
in adaptive mode a single Gaussian fit, mu - 0.5 sigma, clamped; 0.3
for the first batch. Batches are a deterministic seeded shuffle of the
panoramas, so a run is reproducible end to end.

A run's panoramas are traced as one stream in groups of cameras
(:func:`trace_panoramas`): one clip, one sweep and one run split per
group, a group holding as many cameras as fit in ``GROUP_RAYS`` rays,
which bounds its memory. Tracing does not depend on the threshold, so
groups fill across batch boundaries. The cap weighs the fixed cost each
group pays (about 0.7 ms) against the sweep's cache footprint. At 32,768
rays a 0.1-degree group holds 9 cameras and a 1-degree group 91.
Tracing a 200-panorama street at 0.1 degrees, each 64-panorama batch on
its own, took, in ms (2 vCPU, medians of 15, before back-face culling):

=======  ==========  ====  =====  ===========  =====
cap      candidates  clip  sweep  runs + rows  total
=======  ==========  ====  =====  ===========  =====
8,192    15.5        27.1  135.6  39.2         220
32,768   7.4         10.2  127.6  23.0         171
65,536   5.3         6.8   141.8  19.9         176
=======  ==========  ====  =====  ===========  =====

Past 32,768 rays the sweep slows again, and at 65,536 the process's
peak memory grew by 8 %. Capping by candidate (ray, wall) pairs instead
of rays would pick the same groups: a 1-degree city and a 0.1-degree
street both yield about 1.2 pairs per ray (2.4 to 2.6 with back faces).
"""
from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig, rays_per_turn
from .ingest import DetectionBox, DetectionSet, FootprintSet
from .metrics import iou_1d
from .projection import MAX_LOCAL_RANGE_M, FootprintIndex, clip_group
from .raytrace import sweep_grid, trace_group

log = logging.getLogger(__name__)

DEFAULT_FIRST_THRESHOLD = 0.3
SIGMA_FACTOR = 0.5
# Rays traced together: a group holds this many rays' worth of cameras,
# and at least one. Each group pays a fixed cost of about 0.7 ms in
# clipping, the sweep's set-up and the run split, and the sweep's arrays
# grow with the group: see the module docstring for why this size.
GROUP_RAYS = 1 << 15


@dataclass(frozen=True)
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


def _midpoint_inside(lo: float, hi: float, mid: float, width: float) -> bool:
    """Strict containment on the wrapped pixel axis; empty spans hold nothing."""
    lo, hi = lo % width, hi % width
    if lo == hi:
        return False
    if lo < hi:
        return lo < mid < hi
    return mid > lo or mid < hi


def match_box(box: DetectionBox, intervals, iou_min: float,
              width: float) -> MatchResult | None:
    """Match one box against the panorama's visibility intervals.

    Candidates are intervals strictly containing the box midpoint; the
    winner is the candidate with the highest 1D IoU above ``iou_min``
    (strict), ties to the smaller building id. None when nothing
    qualifies.
    """
    mid = (box.x + box.w / 2.0) % width
    best = None
    best_key = None
    for iv in intervals:
        if not _midpoint_inside(iv.px_lo, iv.px_hi, mid, width):
            continue
        iou = iou_1d((box.x, box.x + box.w), (iv.px_lo, iv.px_hi), width)
        if iou <= iou_min:
            continue
        key = (-iou, iv.building_id)
        if best_key is None or key < best_key:
            best_key = key
            best = MatchResult(building_id=iv.building_id,
                               category=iv.category, iou_x=iou)
    return best


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


def trace_panoramas(index: FootprintIndex, metas, config: RunConfig):
    """Trace panoramas in groups of cameras into pixel-space visibility
    intervals; the package's one per-panorama trace.

    Yields one result per panorama, in order, as its group finishes:
    ``(intervals, None)``, or ``(None, building_id)`` when the camera
    sits inside that building's footprint. A group holds
    ``GROUP_RAYS // rays_per_turn`` cameras (at least one) and is
    clipped, swept and split into runs with one set of array operations
    (:func:`clip_group`, :func:`trace_group`). Once the last group is
    clipped, and before its results are yielded, one WARNING counts the
    candidate (camera, footprint) pairs skipped because the ring reaches
    past the flat-plane range.
    """
    metas = list(metas)
    size = max(1, GROUP_RAYS // rays_per_turn(config.step_deg))
    grid = sweep_grid(config.step_deg, min(size, len(metas)))
    out_of_range = 0
    for i in range(0, len(metas), size):
        group = metas[i:i + size]
        clip = clip_group(index, group, config.radius_m)
        out_of_range += clip.out_of_range
        if out_of_range and i + size >= len(metas):
            log.warning("skipped %d (camera, footprint) pairs: the footprint "
                        "has a vertex beyond the %.0f m flat-plane range",
                        out_of_range, MAX_LOCAL_RANGE_M)
        yield from trace_group(clip, group, grid, config.flip_heading)


def generate_coarse_annotations(metas, footprints: FootprintSet,
                                dets: DetectionSet, config: RunConfig):
    """Run the full per-batch pipeline; returns (annotations, run report).

    Panoramas are shuffled with the run seed and chunked into batches.
    The shuffled run is traced as one stream (:func:`trace_panoramas`),
    whose groups do not stop at batch boundaries; the threshold update
    is strictly sequential across batches. Detections whose panorama has
    no metadata are dropped and reported.
    """
    metas = list(metas)
    index = FootprintIndex(footprints)
    meta_ids = {m.pano_id for m in metas}
    report = RunReport(config=config.to_dict())
    for pano_id, boxes in sorted(dets.by_pano.items()):
        if pano_id not in meta_ids:
            report.missing_meta[pano_id] = len(boxes)

    order = list(metas)
    random.Random(config.seed).shuffle(order)

    annotations = []
    scores: list = []  # those the previous batch kept
    # one trace stream for the run, so groups fill across batches; zip
    # draws from the batch first, so each batch takes exactly len(batch)
    # results and leaves the next batch's first one in the stream
    traced = trace_panoramas(index, order, config)
    size = config.batch_size
    for k, i in enumerate(range(0, len(order), size)):
        batch = order[i:i + size]
        br = BatchReport(batch_index=k,
                         threshold=fit_threshold(scores, config),
                         n_panoramas=len(batch))
        scores = []
        for meta, (intervals, blocker) in zip(batch, traced):
            boxes = dets.boxes_for(meta.pano_id)
            br.input_boxes += len(boxes)
            if intervals is None:
                report.skipped_panoramas.append(
                    (meta.pano_id, f"camera inside footprint {blocker}"))
                br.dropped += len(boxes)
                continue
            valid = []
            for b in boxes:
                if b.y + b.h > meta.height + 1e-9:
                    br.dropped += 1  # vertical extent leaves the image
                else:
                    valid.append(b)
            retained = filter_detections(valid, br.threshold)
            br.filtered_out += len(valid) - len(retained)
            for b in retained:
                scores.append(b.score)
                m = match_box(b, intervals, config.iou_x_min, meta.width)
                if m is None:
                    br.unmatched += 1
                    continue
                br.annotated += 1
                annotations.append(CoarseAnnotation(
                    pano_id=b.pano_id, x=b.x, y=b.y, w=b.w, h=b.h,
                    category=m.category, building_id=m.building_id,
                    iou_x=m.iou_x, score=b.score))
        report.batches.append(br)
    return annotations, report
