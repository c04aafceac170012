"""Independent reference computations the tests check against.

These deliberately avoid the package's own arithmetic: haversine instead
of the flat-plane model, shift-enumeration instead of piece
decomposition for circular overlap. They stay simple and slow.

The rest are former package code kept as references for the code that
replaced it: ``linear_clip_scene``, the scalar clip of one camera that
projects every footprint one vertex at a time, with its per-ring helpers
(``_point_in_ring``, ``_ring_min_distance``); the scalar ray-wall
distance and the per-sample sweep view (``RayHit``, ``RaySample``); the
arrays a scene's segment list gave the sweep (``reference_arrays``); the
dense sweep that tests every ray against every segment
(``reference_nearest_hits``); the loop form of the run split
(``reference_runs``); the one-camera trace built from these
(``reference_trace_panorama``); the scalar 2-D IoU of one box pair
(``reference_iou_2d``) and the per-panorama accuracy built on it
(``reference_coarse_accuracy``); and the AP path that reran the greedy
matching for every AP value (``reference_average_precision``,
``reference_coco_summary``), which scores pairs with the scalar IoU.

Last come former exports that only tests used: the heading helpers
``normalize_angle`` and ``pixel_to_angle``; ``trace_panorama``, the
package's one-camera trace (``clip_scene``, ``trace_sweep``,
``intervals_from_sweep``, ``intervals_to_pixel``), which
``trace_panoramas`` replaced; ``reference_annotations``, the annotate
driver that traced each panorama on its own and matched box by box with
``match_box``, which the batch pass replaced; and ``_runs``, the run
split of ``run_table`` as a list of ``[start, end, index]``.
"""
import math
import random
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from geotag_facade.config import RunConfig
from geotag_facade.ingest import PanoramaMeta
from geotag_facade.matcher import (BatchReport, CoarseAnnotation, RunReport,
                                   filter_detections, fit_threshold,
                                   match_box)
from geotag_facade.metrics import (AP_RECALL_POINTS, COCO_IOU_GRID,
                                   MEDIUM_AREA, SMALL_AREA, AccuracyReport,
                                   APReport, _as_xywh, _overlap_1d,
                                   wrapped_intersection)
from geotag_facade.projection import (MAX_LOCAL_RANGE_M, METERS_PER_DEGREE,
                                      FootprintIndex, LocalScene, WallSegment,
                                      _wrap_lon, clip_scene)
from geotag_facade.raytrace import (PARALLEL_EPS, TIE_EPS_M, RaySweep,
                                    VisibilityInterval, intervals_from_sweep,
                                    intervals_to_pixel, run_table,
                                    trace_sweep)

EARTH_RADIUS_M = 6371.393 * 1000.0


def haversine_m(origin, point):
    """Great-circle distance on the same sphere the package assumes."""
    lat1, lon1 = math.radians(origin[0]), math.radians(origin[1])
    lat2, lon2 = math.radians(point[0]), math.radians(point[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = (math.sin(dlat / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def _norm_interval(lo, hi, width):
    start = lo % width
    raw = hi - lo
    if raw < 0:
        raw %= width
    return start, min(raw, width)


def brute_overlap_1d(a_lo, a_hi, b_lo, b_hi, width):
    """Circular overlap by laying copies of b along the unrolled axis."""
    a_start, a_len = _norm_interval(a_lo, a_hi, width)
    b_start, b_len = _norm_interval(b_lo, b_hi, width)
    total = 0.0
    for k in (-2, -1, 0, 1, 2):
        lo = max(a_start, b_start + k * width)
        hi = min(a_start + a_len, b_start + b_len + k * width)
        total += max(0.0, hi - lo)
    return total


def brute_iou_1d(a_lo, a_hi, b_lo, b_hi, width):
    a_len = _norm_interval(a_lo, a_hi, width)[1]
    b_len = _norm_interval(b_lo, b_hi, width)[1]
    inter = brute_overlap_1d(a_lo, a_hi, b_lo, b_hi, width)
    return inter / (a_len + b_len - inter)


def brute_midpoint_inside(lo, hi, mid, width):
    """Strict containment via unrolled-axis enumeration."""
    start, length = _norm_interval(lo, hi, width)
    m = mid % width
    for k in (-2, -1, 0, 1, 2):
        if start < m + k * width < start + length:
            return True
    return False


def brute_iou_2d(box_a, box_b, width=None):
    ax, ay, aw, ah = box_a
    bx, by, bw, bh = box_b
    v = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    if width is None:
        hseg = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    else:
        hseg = brute_overlap_1d(ax, ax + aw, bx, bx + bw, width)
    inter = hseg * v
    return inter / (aw * ah + bw * bh - inter)


def _point_in_ring(px: float, py: float, xs, ys) -> bool:
    """Even-odd test. Points on the boundary are not 'strictly inside'."""
    inside = False
    n = len(xs)
    for i in range(n):
        x1, y1 = xs[i], ys[i]
        x2, y2 = xs[(i + 1) % n], ys[(i + 1) % n]
        if (y1 > py) != (y2 > py):
            t = (py - y1) / (y2 - y1)
            if px < x1 + t * (x2 - x1):
                inside = not inside
    return inside


def _ring_min_distance(xs, ys) -> float:
    """Distance from the local origin to the nearest point of a ring."""
    best = math.inf
    n = len(xs)
    for i in range(n):
        ax, ay = xs[i], ys[i]
        bx, by = xs[(i + 1) % n], ys[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        len2 = ex * ex + ey * ey
        if len2 == 0.0:
            d = math.hypot(ax, ay)
        else:
            t = max(0.0, min(1.0, -(ax * ex + ay * ey) / len2))
            d = math.hypot(ax + t * ex, ay + t * ey)
        best = min(best, d)
    return best


def linear_clip_scene(footprints, meta, radius_m):
    """Scene for one camera from a scan of every footprint."""
    if radius_m <= 0:
        raise ValueError("radius_m must be positive")
    origin = (meta.lat, meta.lon)
    cos_lat = math.cos(math.radians(meta.lat))
    segments = []
    buildings = []
    seen = set()
    containing = None
    for fp in footprints:
        xs, ys, ok = [], [], True
        for (lat, lon) in fp.ring[:-1]:
            x = _wrap_lon(lon - meta.lon) * cos_lat * METERS_PER_DEGREE
            y = (lat - meta.lat) * METERS_PER_DEGREE
            if math.hypot(x, y) > MAX_LOCAL_RANGE_M:
                ok = False
                break
            xs.append(x)
            ys.append(y)
        if not ok:
            continue
        if _point_in_ring(0.0, 0.0, xs, ys) and _ring_min_distance(xs, ys) > 1e-9:
            if containing is None:
                containing = fp.building_id
            continue
        if _ring_min_distance(xs, ys) > radius_m:
            continue
        if fp.building_id not in seen:
            seen.add(fp.building_id)
            buildings.append((fp.building_id, fp.category))
        n = len(xs)
        for i in range(n):
            ax, ay = xs[i], ys[i]
            bx, by = xs[(i + 1) % n], ys[(i + 1) % n]
            if math.hypot(bx - ax, by - ay) <= 1e-9:
                continue
            segments.append(WallSegment(ax=ax, ay=ay, bx=bx, by=by,
                                        building_id=fp.building_id,
                                        category=fp.category))
    return LocalScene(pano_id=meta.pano_id, origin=origin, radius_m=radius_m,
                      segments=segments, buildings=tuple(buildings),
                      containing_building=containing)


def heading_direction(theta_deg: float) -> tuple:
    """Unit vector (east, north) of a clockwise-from-north heading."""
    rad = math.radians(theta_deg)
    return (math.sin(rad), math.cos(rad))


def ray_wall_distance(origin, direction, seg: WallSegment) -> float | None:
    """Distance along a single ray to one wall segment, or None.

    ``direction`` must be a unit vector (checked to 1e-9). Returns the
    positive ray parameter in meters when the ray meets the closed
    segment; parallel and collinear configurations count as no hit.
    """
    dx, dy = direction
    if abs(math.hypot(dx, dy) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    ex, ey = seg.bx - seg.ax, seg.by - seg.ay
    length = math.hypot(ex, ey)
    nx, ny = ey / length, -ex / length
    denom = dx * nx + dy * ny
    if abs(denom) < PARALLEL_EPS:
        return None
    t = ((seg.ax - origin[0]) * nx + (seg.ay - origin[1]) * ny) / denom
    if t <= 0.0:
        return None
    px = origin[0] + t * dx - seg.ax
    py = origin[1] + t * dy - seg.ay
    s = (px * ex + py * ey) / (length * length)
    if s < 0.0 or s > 1.0:
        return None
    return t


@dataclass(frozen=True)
class RayHit:
    building_id: str
    category: int
    distance: float


@dataclass(frozen=True)
class RaySample:
    theta: float  # degrees clockwise from north, grid point
    hit: RayHit | None


def sweep_samples(sweep) -> list:
    """Per-sample view of a sweep, one RaySample per grid heading."""
    out = []
    for theta, bi, d in zip(sweep.thetas, sweep.building_idx,
                             sweep.distances):
        hit = None
        if bi >= 0:
            bid, cat = sweep.buildings[bi]
            hit = RayHit(building_id=bid, category=cat, distance=float(d))
        out.append(RaySample(theta=float(theta), hit=hit))
    return out


def sweep_from_samples(samples) -> RaySweep:
    """A RaySweep built from per-sample hits, buildings in first-seen order."""
    table: dict = {}
    bidx = np.full(len(samples), -1, np.int64)
    dist = np.full(len(samples), np.inf)
    for i, s in enumerate(samples):
        if s.hit is None:
            continue
        key = (s.hit.building_id, s.hit.category)
        if key not in table:
            table[key] = len(table)
        bidx[i] = table[key]
        dist[i] = s.hit.distance
    thetas = np.asarray([s.theta for s in samples], float)
    return RaySweep(thetas=thetas, building_idx=bidx, distances=dist,
                    buildings=tuple(table))


_ANGLE_CHUNK = 4096


def reference_arrays(scene: LocalScene):
    """The per-segment arrays the sweep used, built from the segment list."""
    segs = scene.segments
    n = len(segs)
    ax = np.fromiter((s.ax for s in segs), float, n)
    ay = np.fromiter((s.ay for s in segs), float, n)
    bx = np.fromiter((s.bx for s in segs), float, n)
    by = np.fromiter((s.by for s in segs), float, n)
    ex, ey = bx - ax, by - ay
    length = np.hypot(ex, ey)
    nx, ny = ey / length, -ex / length
    id_of = {bid: i for i, (bid, _) in enumerate(scene.buildings)}
    bidx = np.fromiter((id_of[s.building_id] for s in segs), np.int64, n)
    order = sorted(range(len(scene.buildings)),
                   key=lambda i: scene.buildings[i][0])
    rank_of = np.empty(max(len(scene.buildings), 1), np.int64)
    for r, i in enumerate(order):
        rank_of[i] = r
    return SimpleNamespace(
        ax=ax, ay=ay, ex=ex, ey=ey, nx=nx, ny=ny,
        a_dot_n=ax * nx + ay * ny, len2=length * length,
        rank=rank_of[bidx] if n else np.empty(0, np.int64),
        rank_to_bidx=np.asarray(order, np.int64))


def reference_nearest_hits(scene: LocalScene, thetas: np.ndarray):
    """Vectorized nearest-wall query at each heading of ``thetas``.

    Returns (building_idx, distances) with -1/inf on miss. Ties inside
    TIE_EPS_M go to the lexicographically smallest building id.
    """
    n = len(thetas)
    bidx = np.full(n, -1, np.int64)
    dist = np.full(n, np.inf)
    arr = reference_arrays(scene)
    if len(scene.segments) == 0:
        return bidx, dist
    big_rank = len(scene.buildings)
    rad = np.radians(thetas)
    dirs_x, dirs_y = np.sin(rad), np.cos(rad)
    for lo in range(0, n, _ANGLE_CHUNK):
        hi = min(lo + _ANGLE_CHUNK, n)
        dx = dirs_x[lo:hi, None]
        dy = dirs_y[lo:hi, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = dx * arr.nx + dy * arr.ny
            ok = np.abs(denom) >= PARALLEL_EPS
            t = np.where(ok, arr.a_dot_n / denom, np.inf)
            np.logical_and(ok, t > 0.0, out=ok)
            np.logical_and(ok, t <= scene.radius_m, out=ok)
            t = np.where(ok, t, np.inf)
            s = ((t * dx - arr.ax) * arr.ex
                 + (t * dy - arr.ay) * arr.ey) / arr.len2
            np.logical_and(ok, (s >= 0.0) & (s <= 1.0), out=ok)
            t = np.where(ok, t, np.inf)
        dmin = t.min(axis=1)
        tie = t <= (dmin + TIE_EPS_M)[:, None]
        ranks = np.where(tie, arr.rank, big_rank)
        best_rank = ranks.min(axis=1)
        t_best = np.where(ranks == best_rank[:, None], t, np.inf)
        d = t_best.min(axis=1)
        hit = np.isfinite(dmin)
        dist[lo:hi] = np.where(hit, d, np.inf)
        bidx[lo:hi] = np.where(hit, arr.rank_to_bidx[np.minimum(
            best_rank, big_rank - 1)], -1)
    return bidx, dist


def reference_runs(building_idx: np.ndarray):
    """Maximal runs of equal hit index, merged across the 0-degree seam."""
    n = len(building_idx)
    runs = []
    i = 0
    while i < n:
        b = building_idx[i]
        if b < 0:
            i += 1
            continue
        j = i
        while j + 1 < n and building_idx[j + 1] == b:
            j += 1
        runs.append([i, j, int(b)])
        i = j + 1
    if (len(runs) >= 2 and runs[0][0] == 0 and runs[-1][1] == n - 1
            and runs[0][2] == runs[-1][2]):
        first = runs.pop(0)
        runs[-1][1] = first[1]  # wrapped run: start stays, end crosses seam
    return runs


def reference_trace_panorama(footprints, meta, config):
    """One panorama traced as the per-camera code did it: the scalar clip
    of every footprint, the dense sweep, the loop run split, the interval
    merge and the scalar pixel mapping. Returns ``(intervals, None)`` or
    ``(None, building_id)`` like ``trace_panorama``."""
    scene = linear_clip_scene(footprints, meta, config.radius_m)
    if scene.degenerate:
        return None, scene.containing_building
    n = round(360.0 / config.step_deg)
    thetas = np.arange(n, dtype=float) * config.step_deg
    bidx, dist = reference_nearest_hits(scene, thetas)
    out = []
    for start, end, b in reference_runs(bidx):
        if end >= start:
            idx = np.arange(start, end + 1)
        else:
            idx = np.concatenate([np.arange(start, n), np.arange(0, end + 1)])
        bid, cat = scene.buildings[b]
        out.append(VisibilityInterval(
            building_id=bid, category=cat, angle_lo=float(thetas[start]),
            angle_hi=float(thetas[end]),
            min_distance=float(dist[idx].min())))
    out.sort(key=lambda iv: (iv.angle_lo, iv.building_id))
    flip = config.flip_heading

    def px(theta):
        span = theta / 360.0 * meta.width
        p = meta.north_px - span if flip else meta.north_px + span
        return float(p % meta.width)

    return [VisibilityInterval(
        building_id=iv.building_id, category=iv.category,
        angle_lo=iv.angle_lo, angle_hi=iv.angle_hi,
        min_distance=iv.min_distance,
        px_lo=px(iv.angle_hi if flip else iv.angle_lo),
        px_hi=px(iv.angle_lo if flip else iv.angle_hi)) for iv in out], None


def reference_iou_2d(box_a, box_b, width=None) -> float:
    """Axis-aligned rectangle IoU of one pair; horizontal wrap when
    ``width`` given."""
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


def _reference_greedy_pairs(rows, cols, iou_fn):
    """One-to-one assignment by descending IoU; returns
    {row_i: (col_j, iou)}."""
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


def reference_coarse_accuracy(coarse, gt, iou_thr: float = 0.8,
                              width_by_pano: dict | None = None):
    """Annotation accuracy, one panorama and one scalar IoU at a time."""
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
        pairs = _reference_greedy_pairs(
            anns, gts, lambda a, g: reference_iou_2d(a, g, width))
        for i, (j, v) in pairs.items():
            if v >= iou_thr and anns[i].category == gts[j].category:
                report.correct += 1
                report.per_category[anns[i].category][0] += 1
    return report


def _reference_match_predictions(preds, gts, iou_thr, width_by_pano):
    """COCO-style greedy matching for one category.

    Predictions in descending score order grab the best still-free
    ground truth in their panorama with IoU >= thr. Returns a bool
    array: True where the prediction is a true positive.
    """
    gt_by_pano: dict = {}
    for j, g in enumerate(gts):
        gt_by_pano.setdefault(g.pano_id, []).append(j)
    order = sorted(range(len(preds)),
                   key=lambda i: (-(preds[i].score or 0.0), i))
    taken = [False] * len(gts)
    is_tp = np.zeros(len(preds), bool)
    matched_gt = np.full(len(preds), -1, np.int64)
    for i in order:
        p = preds[i]
        width = (width_by_pano or {}).get(p.pano_id)
        best_j, best_v = -1, iou_thr
        for j in gt_by_pano.get(p.pano_id, []):
            if taken[j]:
                continue
            v = reference_iou_2d(p, gts[j], width)
            if v >= best_v:
                best_v, best_j = v, j
        if best_j >= 0:
            taken[best_j] = True
            is_tp[i] = True
            matched_gt[i] = best_j
    return order, is_tp, matched_gt


def _reference_ap_from_flags(order, is_tp, n_gt) -> float:
    if n_gt == 0:
        return float("nan")
    tp = np.cumsum([1.0 if is_tp[i] else 0.0 for i in order])
    fp = np.cumsum([0.0 if is_tp[i] else 1.0 for i in order])
    if len(tp) == 0:
        return 0.0
    recall = tp / n_gt
    precision = tp / (tp + fp)
    ap = 0.0
    for r in AP_RECALL_POINTS:
        mask = recall >= r - 1e-12
        ap += precision[mask].max() if mask.any() else 0.0
    return ap / len(AP_RECALL_POINTS)


def reference_average_precision(preds, gts, iou_thr: float = 0.5,
                                width_by_pano: dict | None = None) -> APReport:
    """101-point interpolated AP per category at one IoU threshold.

    Categories with zero ground truth are excluded from the mean and
    listed. Scores matter only through their ranking.
    """
    cats = sorted({g.category for g in gts} | {p.category for p in preds})
    per_cat = {}
    excluded = []
    for c in cats:
        c_gts = [g for g in gts if g.category == c]
        c_preds = [p for p in preds if p.category == c]
        if not c_gts:
            excluded.append(c)
            continue
        order, is_tp, _ = _reference_match_predictions(
            c_preds, c_gts, iou_thr, width_by_pano)
        per_cat[c] = _reference_ap_from_flags(order, is_tp, len(c_gts))
    return APReport(iou_thr=iou_thr, per_category=per_cat, excluded=excluded)


def _reference_bucket_ap(preds, gts, iou_thr, width_by_pano, area_lo,
                         area_hi):
    """AP restricted to ground truth in one area bucket.

    Predictions matched to out-of-bucket ground truth are ignored
    rather than counted as false positives.
    """
    cats = sorted({g.category for g in gts})
    vals = []
    for c in cats:
        c_gts = [g for g in gts if g.category == c]
        c_preds = [p for p in preds if p.category == c]
        in_bucket = [area_lo <= g.w * g.h < area_hi for g in c_gts]
        n_gt = sum(in_bucket)
        if n_gt == 0:
            continue
        order, is_tp, matched = _reference_match_predictions(
            c_preds, c_gts, iou_thr, width_by_pano)
        keep_order = [i for i in order
                      if not (is_tp[i] and not in_bucket[matched[i]])]
        vals.append(_reference_ap_from_flags(keep_order, is_tp, n_gt))
    if not vals:
        return None
    return float(np.mean(vals))


def reference_coco_summary(preds, gts,
                           width_by_pano: dict | None = None) -> dict:
    """COCO-flavored summary: mAP over 0.50:0.05:0.95, 0.50/0.75 slices,
    per-category AP at 0.50, and small/medium/large buckets."""
    grid_means = []
    ap50 = reference_average_precision(preds, gts, 0.5, width_by_pano)
    for t in COCO_IOU_GRID:
        rep = (ap50 if t == 0.5
               else reference_average_precision(preds, gts, t,
                                                width_by_pano))
        if rep.mean is not None:
            grid_means.append(rep.mean)
    ap75 = reference_average_precision(preds, gts, 0.75, width_by_pano)
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
    for name, (lo, hi) in buckets.items():
        vals = []
        for t in COCO_IOU_GRID:
            v = _reference_bucket_ap(preds, gts, t, width_by_pano, lo,
                                     hi)
            if v is not None:
                vals.append(v)
        out[f"mAP_{name}"] = float(np.mean(vals)) if vals else None
    return out


def normalize_angle(theta_deg: float) -> float:
    """Normalize a heading into [0, 360). Idempotent."""
    return theta_deg % 360.0


def pixel_to_angle(x: float, meta: PanoramaMeta,
                   flip_heading: bool = False) -> float:
    """Heading seen by pixel column ``x``. Inverse of angle_to_pixel."""
    turns = (x - meta.north_px) / meta.width
    if flip_heading:
        turns = -turns
    return (turns * 360.0) % 360.0


def trace_panorama(index: FootprintIndex, meta, config: RunConfig):
    """Trace one panorama into pixel-space visibility intervals.

    Returns ``(intervals, None)``, or ``(None, building_id)`` when the
    camera sits inside that building's footprint.
    """
    scene = clip_scene(index, meta, config.radius_m)
    if scene.degenerate:
        return None, scene.containing_building
    sweep = trace_sweep(scene, config.step_deg)
    ivs = intervals_from_sweep(sweep)
    return intervals_to_pixel(ivs, meta, config.flip_heading), None


def reference_annotations(metas, footprints, dets, config: RunConfig):
    """``generate_coarse_annotations`` box by box: each panorama traced on
    its own (:func:`trace_panorama`) and each retained box matched by
    ``match_box`` over its interval rows. Returns (annotations, run
    report)."""
    index = FootprintIndex(footprints)
    meta_ids = {m.pano_id for m in metas}
    report = RunReport(config=config.to_dict())
    for pano_id, boxes in sorted(dets.by_pano.items()):
        if pano_id not in meta_ids:
            report.missing_meta[pano_id] = len(boxes)
    order = list(metas)
    random.Random(config.seed).shuffle(order)
    annotations, scores = [], []
    size = config.batch_size
    for k, i in enumerate(range(0, len(order), size)):
        batch = order[i:i + size]
        br = BatchReport(batch_index=k,
                         threshold=fit_threshold(scores, config),
                         n_panoramas=len(batch))
        scores = []
        for meta in batch:
            intervals, blocker = trace_panorama(index, meta, config)
            boxes = dets.boxes_for(meta.pano_id)
            br.input_boxes += len(boxes)
            if intervals is None:
                report.skipped_panoramas.append(
                    (meta.pano_id, f"camera inside footprint {blocker}"))
                br.dropped += len(boxes)
                continue
            valid = [b for b in boxes if b.y + b.h <= meta.height + 1e-9]
            br.dropped += len(boxes) - len(valid)
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


def _runs(building_idx: np.ndarray):
    """Maximal runs of equal hit index, merged across the 0-degree seam."""
    n = len(building_idx)
    start, end, own, _ = run_table(building_idx, np.zeros(n), n)
    return [list(r) for r in zip(start.tolist(), end.tolist(), own.tolist())]
