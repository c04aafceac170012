"""Independent reference computations the tests check against.

These deliberately avoid the package's own arithmetic: haversine instead
of the flat-plane model, shift-enumeration instead of piece
decomposition for circular overlap, a run-by-run loop
(``reference_ranges``) for ``ingest.ranges``. They stay simple and slow.

The rest are former package code kept as references for the code that
replaced it: ``linear_clip_scene``, the scalar clip of one camera that
projects every footprint one vertex at a time, with its own longitude
wrap (``_wrap_lon``) and its per-ring helpers (``_point_in_ring``,
``_ring_min_distance``); the candidate mask over
every (camera, footprint) pair (``reference_candidate_pairs``), which
the cell lookup of ``FootprintIndex.candidate_pairs`` replaced; the
scalar ray-wall distance and the per-sample sweep view (``RayHit``,
``RaySample``); the arrays a scene's segment list gave the sweep
(``reference_arrays``); the dense sweep that tests every ray against
every segment (``reference_nearest_hits``); the loop form of the run
split (``reference_runs``); the one-camera trace built from these
(``reference_trace_panorama``); the scalar 2-D IoU of one box pair
(``reference_iou_2d``) and the per-panorama accuracy built on it
(``reference_coarse_accuracy``); the accuracy that scored every
same-panorama pair in one kernel call (``all_pairs_coarse_accuracy``),
which the sweep over overlapping spans replaced; the AP path that
reran the greedy matching for every AP value
(``reference_average_precision``, ``reference_coco_summary``), which
scores pairs with the scalar IoU; and the scalar 1-D IoU chain
(``iou_1d``, ``wrapped_intersection``, ``_interval_pieces``,
``_interval_length``, ``_overlap_1d``), which ``iou_1d_arrays``
replaced and ``reference_iou_2d`` builds on.

Last come former exports that only tests used: the heading helpers
``normalize_angle``, ``angle_to_pixel`` (over ``heading_px``) and
``pixel_to_angle``; ``trace_panorama``, the
package's one-camera trace (``clip_scene``, ``trace_sweep``,
``intervals_from_sweep``, ``intervals_to_pixel``), which
``trace_run`` replaced; the rows of ``trace_run``'s table
(``table_rows``, the former ``IntervalTable.panoramas``, and
``trace_rows``), with the trace file writer that went through them
(``reference_write_trace``, over ``interval_dict``, the former
``VisibilityInterval.to_dict``), which ``cocoio.write_trace``
replaced; the per-box matching rule
(``reference_match_box``, the former ``match_box``, with
``_midpoint_inside``), which ``match_intervals`` replaced, so that the
package's ``match_box`` is now its one-box case;
``reference_annotations``, the annotate pipeline that traced each
panorama on its own and matched box by box with
``reference_match_box``, which the batch pass replaced; ``_runs``, the run
split of ``run_table`` as a list of ``[start, end, index]``; and the
scalar ring checks (``_normalize_ring``, ``_shoelace``, ``_orient``,
``_on_segment``, ``_segments_intersect``, ``_is_simple``,
``_validate_ring``) with the loader that ran them one ring at a time
(``reference_load_footprints``), which the array pass over every ring
replaced; the detection loader that built one ``DetectionBox`` per
record (``reference_load_detections``), which the columns replaced,
with ``load_detections_as_reference``, which checks ``load_detections``
against it; the COCO writer that built one dict per annotation for
``json`` to indent (``reference_write_coco``), which the templates
replaced; and the COCO reader that built one ``EvalBox`` per annotation
(``reference_read_coco``), which the box columns replaced.
"""
import json
import math
import random
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from geotag_facade.cocoio import (coco_categories, coco_images,
                                  write_json)
from geotag_facade.config import RunConfig
from geotag_facade.errors import GeotagFacadeError, LoadError
from geotag_facade.ingest import (_MIN_RING_AREA_DEG2, BuildingFootprint,
                                  DetectionBox, LoadReport, PanoramaMeta,
                                  _bbox, _FieldError, _integers, _key,
                                  _numbers, _ok, _outer_rings, _read_json,
                                  load_detections)
from geotag_facade.matcher import (BatchReport, CoarseAnnotation,
                                   MatchResult, RunReport, filter_detections,
                                   fit_threshold, trace_run)
from geotag_facade.metrics import (AP_RECALL_POINTS, COCO_IOU_GRID,
                                   MEDIUM_AREA, SMALL_AREA, AccuracyReport,
                                   APReport, EvalBox, EvalBoxSet, _as_xywh,
                                   _codes, _ious, _pairs)
from geotag_facade.projection import (_MASK_CELLS, CLIP_SLACK_M,
                                      MAX_LOCAL_RANGE_M, METERS_PER_DEGREE,
                                      FootprintIndex, LocalScene, WallSegment,
                                      _camera_arrays, _wrap_lons, clip_scene,
                                      footprint_names, heading_px)
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


def _wrap_lon(dlon: float) -> float:
    """A longitude difference wrapped by a turn into [-180, 180]."""
    if dlon > 180.0:
        return dlon - 360.0
    if dlon < -180.0:
        return dlon + 360.0
    return dlon


def reference_ranges(first, count):
    """The (owner, index) lists of ``ingest.ranges``, run by run."""
    owner, index = [], []
    for k, (f, n) in enumerate(zip(first, count)):
        owner += [k] * n
        index += range(f, f + n)
    return owner, index


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


def reference_candidate_pairs(index: FootprintIndex, metas, radius_m: float):
    """(camera, footprint) index arrays of the footprints that may
    come within ``radius_m`` of each camera or hold it, camera by
    camera, footprints in their original order.

    The camera's projection is monotone in lat and in lon, so a
    ring's vertices land inside the projection of its box, and its
    edges with them. A box farther than ``radius_m`` (plus a rounding
    slack) therefore holds a ring beyond the radius that cannot
    contain the camera. Longitude differences wrap as in
    :func:`_wrap_lon`, which is monotone only between its +-180
    degree breaks: a box whose two edges fall on different sides of
    a break, such as a ring straddling the antimeridian seen from
    near it, is kept unless its north-south gap alone puts it out
    of reach. That gap is tested first, over at most
    ``_MASK_CELLS`` (camera, footprint) cells at a time; the rest of
    the test runs on the pairs it passes.
    """
    lat, lon, cos_lat = _camera_arrays(metas)
    reach = radius_m + CLIP_SLACK_M
    pairs = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    step = max(1, _MASK_CELLS // max(len(index), 1))
    for c0 in range(0, len(metas), step):
        c = lat[c0:c0 + step, None]
        gy = np.maximum((index.lat_lo - c) * METERS_PER_DEGREE,
                        (c - index.lat_hi) * METERS_PER_DEGREE)
        cam, fp = np.nonzero(gy <= reach)
        pairs.append((cam + c0, fp, gy[cam, fp]))
    cam, fp, gy = (np.concatenate(a) for a in zip(*pairs))
    dlo = index.lon_lo[fp] - lon[cam]
    dhi = index.lon_hi[fp] - lon[cam]
    broken = (((dlo < -180.0) != (dhi < -180.0))
              | ((dlo > 180.0) != (dhi > 180.0)))
    gx = np.maximum(_wrap_lons(dlo) * cos_lat[cam] * METERS_PER_DEGREE,
                    -_wrap_lons(dhi) * cos_lat[cam] * METERS_PER_DEGREE)
    gap = np.hypot(np.maximum(gx, 0.0), np.maximum(gy, 0.0))
    keep = np.flatnonzero(broken | (gap <= reach))
    return cam[keep], fp[keep]


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


def all_pairs_coarse_accuracy(coarse, gt, iou_thr: float = 0.8,
                              width_by_pano: dict | None = None
                              ) -> AccuracyReport:
    """``coarse_accuracy`` as it scored every same-panorama pair, before
    it handed the kernel only the pairs whose spans overlap.

    One array pass computes the IoU of every same-panorama pair. The
    pairs with IoU > 0 are then assigned greedily, in descending IoU
    with ties to the lower annotation index, then the lower ground-truth
    index. The indices are input positions, which keep input order
    within a panorama, and no pair crosses panoramas, so one sort over
    all panoramas gives each panorama's own assignment.
    """
    coarse, gt = EvalBoxSet.of(coarse), EvalBoxSet.of(gt)
    report = AccuracyReport(total=len(coarse), correct=0, iou_thr=iou_thr)
    report.per_category = {c: [0, n] for c, n in
                           Counter(coarse.category).items()}
    a_pano, g_pano, panos = _codes(coarse, gt, "pano_id")
    i, j = _pairs(a_pano, g_pano, len(panos))
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
    recall = (tp / n_gt).tolist()
    precision = (tp / (tp + fp)).tolist()
    ap = 0.0
    for r in AP_RECALL_POINTS.tolist():
        r -= 1e-12
        ap += max([p for q, p in zip(recall, precision) if q >= r] or [0.0])
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


def angle_to_pixel(theta_deg: float, meta: PanoramaMeta,
                   flip_heading: bool = False) -> float:
    """Pixel column looking along heading ``theta_deg``. Fractional."""
    return heading_px(theta_deg, meta.north_px, meta.width, flip_heading)


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


def table_rows(table, footprints) -> list:
    """Per camera of an ``IntervalTable``, ``(intervals, None)`` with the
    intervals as rows, or ``(None, building_id)`` when the camera sits
    inside that building's footprint; ``footprints`` is the run's set,
    which names each row's owner."""
    rows = [VisibilityInterval(bid, cat, a, b, d, p, q)
            for (bid, cat), a, b, d, p, q in zip(
                footprint_names(footprints, table.owner),
                table.angle_lo.tolist(), table.angle_hi.tolist(),
                table.min_distance.tolist(), table.px_lo.tolist(),
                table.px_hi.tolist())]
    bounds = table.offsets.tolist()
    return [(rows[bounds[c]:bounds[c + 1]], None) if blocker is None
            else (None, blocker)
            for c, blocker in enumerate(table.containing)]


def trace_rows(index: FootprintIndex, metas, config: RunConfig) -> list:
    """``trace_run``'s table as rows, camera by camera (:func:`table_rows`)."""
    return table_rows(trace_run(index, metas, config), index.footprints)


def interval_dict(iv) -> dict:
    """One interval row as the trace file records it."""
    return {"building_id": iv.building_id, "category": iv.category,
            "angle_lo": iv.angle_lo, "angle_hi": iv.angle_hi,
            "px_lo": iv.px_lo, "px_hi": iv.px_hi,
            "min_distance": iv.min_distance}


def reference_write_trace(out, metas, table, footprints, config: dict,
                          input_hashes: dict) -> None:
    """``write_trace`` through rows: each traced camera's rows
    (:func:`table_rows`), one dict each (:func:`interval_dict`), written
    by ``write_json``."""
    for meta, (ivs, _) in zip(metas, table_rows(table, footprints)):
        if ivs is not None:
            write_json(Path(out) / f"intervals_{meta.pano_id}.json", {
                "pano_id": meta.pano_id, "config": config,
                "input_hashes": input_hashes,
                "intervals": [interval_dict(iv) for iv in ivs]})


def _midpoint_inside(lo: float, hi: float, mid: float, width: float) -> bool:
    """Strict containment on the wrapped pixel axis; empty spans hold nothing."""
    lo, hi = lo % width, hi % width
    if lo == hi:
        return False
    if lo < hi:
        return lo < mid < hi
    return mid > lo or mid < hi


def reference_match_box(box: DetectionBox, intervals, iou_min: float,
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


def reference_annotations(metas, footprints, dets, config: RunConfig):
    """``generate_coarse_annotations`` box by box: each panorama traced on
    its own (:func:`trace_panorama`) and each retained box matched by
    :func:`reference_match_box` over its interval rows; each batch's
    threshold fitted to the scores the previous batch retained, sorted.
    Returns (annotations, run report)."""
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
                         threshold=fit_threshold(sorted(scores), config),
                         n_panoramas=len(batch))
        scores = []
        for meta in batch:
            intervals, blocker = trace_panorama(index, meta, config)
            boxes = dets.by_pano.get(meta.pano_id, [])
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
                m = reference_match_box(b, intervals, config.iou_x_min,
                                        meta.width)
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
    ray = np.arange(n)
    start, end, own, _ = run_table(ray, ray, building_idx, np.zeros(n), n)
    return [list(r) for r in zip(start.tolist(), end.tolist(), own.tolist())]


def _normalize_ring(coords):
    """GeoJSON [lon, lat] positions -> closed (lat, lon) ring, or reason."""
    if not isinstance(coords, list):
        return None, "ring is not a list of positions"
    pts = []
    for pos in coords:
        if not isinstance(pos, (list, tuple)) or len(pos) < 2:
            return None, "ring vertex is not a coordinate pair"
        try:
            lon, lat = _numbers(pos[0], pos[1])
        except _FieldError as e:
            return None, f"{e.kind} coordinate"
        if pts and pts[-1] == (lat, lon):
            continue  # drop consecutive duplicates
        pts.append((lat, lon))
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts.pop()
    if len(pts) < 3:
        return None, "ring has fewer than 3 distinct vertices"
    return pts, None


def _shoelace(pts):
    area2 = 0.0
    for (y1, x1), (y2, x2) in zip(pts, pts[1:] + pts[:1]):
        area2 += x1 * y2 - x2 * y1
    return 0.5 * area2


def _orient(p, q, r):
    v = (q[1] - p[1]) * (r[0] - p[0]) - (q[0] - p[0]) * (r[1] - p[1])
    return (v > 0) - (v < 0)


def _on_segment(p, q, r):
    return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))


def _segments_intersect(a1, a2, b1, b2):
    o1, o2 = _orient(a1, a2, b1), _orient(a1, a2, b2)
    o3, o4 = _orient(b1, b2, a1), _orient(b1, b2, a2)
    return ((o1 != o2 and o3 != o4)
            or (o1 == 0 and _on_segment(a1, a2, b1))
            or (o2 == 0 and _on_segment(a1, a2, b2))
            or (o3 == 0 and _on_segment(b1, b2, a1))
            or (o4 == 0 and _on_segment(b1, b2, a2)))


def _is_simple(pts):
    """True when no two non-adjacent ring edges intersect or touch."""
    n = len(pts)
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        # edges i + 1 and, for edge 0, n - 1 share a vertex with edge i
        for j in range(i + 2, n - (i == 0)):
            if _segments_intersect(a1, a2, pts[j], pts[(j + 1) % n]):
                return False
    return True


def _validate_ring(coords):
    pts, reason = _normalize_ring(coords)
    if pts is None:
        return None, reason
    if abs(_shoelace(pts)) < _MIN_RING_AREA_DEG2:
        return None, "ring has zero area"
    if not _is_simple(pts):
        return None, "ring is self-intersecting"
    return tuple(pts + [pts[0]]), None


def reference_load_footprints(path, mapping):
    """``load_footprints`` one record at a time, each ring checked by
    ``_validate_ring`` as it comes. Returns (footprints, report)."""
    doc = json.loads(Path(path).read_bytes())
    report = LoadReport(path=str(path))
    out = []
    for fidx, feat in enumerate(doc["features"]):
        if not isinstance(feat, dict):
            report.n_input += 1
            report.reject(f"feature[{fidx}]", "feature is not an object")
            continue
        props = feat.get("properties")
        props = props if isinstance(props, dict) else {}
        building_id = props.get("building_id")
        label = props.get("label")
        key, bad = f"feature[{fidx}]", None
        try:
            key = _key(building_id)
            raw_label = _key(label)
        except _FieldError:
            bad = ("missing building_id or label property"
                   if building_id is None or label is None else
                   "building_id and label must be strings or numbers")
        geometry = feat.get("geometry")
        geometry = geometry if isinstance(geometry, dict) else {}
        rings = _outer_rings(geometry)
        if rings is None:
            report.n_input += 1
            report.reject(key, f"unsupported geometry type "
                               f"{geometry.get('type')!r}")
            continue
        if not rings:
            report.n_input += 1
            report.reject(key, "feature has no coordinates")
            continue
        multi = len(rings) > 1
        for ridx, ring_coords in enumerate(rings, start=1):
            report.n_input += 1
            rkey = f"{key}#{ridx}" if multi else key
            if bad:
                report.reject(rkey, bad)
                continue
            ring, reason = _validate_ring(ring_coords)
            if ring is None:
                report.reject(rkey, reason)
                continue
            category = mapping.resolve(raw_label)
            if category is None:
                report.reject(rkey,
                              f"label {label!r} not in mapping and no default")
                continue
            out.append(BuildingFootprint(building_id=rkey, ring=ring,
                                         raw_label=raw_label,
                                         category=category))
    return out, report


def reference_load_detections(path):
    """``load_detections`` building one ``DetectionBox`` per accepted
    record, grouped by panorama as it comes. Returns (by_pano, report)."""
    doc = _read_json(path)
    report = LoadReport(path=str(path))
    if not isinstance(doc, list):
        raise LoadError(f"{path}: expected a JSON array of detection results")
    by_pano: dict = {}
    for idx, rec in enumerate(doc):
        report.n_input += 1
        key = f"result[{idx}]"
        if not isinstance(rec, dict):
            report.reject(key, "not an object")
            continue
        pano_id = rec.get("pano_id", rec.get("image_id"))
        bbox = rec.get("bbox")
        score = rec.get("score")
        if pano_id is None or bbox is None or score is None:
            report.reject(key, "missing pano_id/image_id, bbox, or score")
            continue
        if not _ok(_key, pano_id):
            report.reject(key, "pano_id/image_id must be a string or a number")
            continue
        try:
            x, y, w, h, score = _bbox(bbox, score)
        except _FieldError as e:
            report.reject(key, "bbox must be [x, y, w, h]"
                          if e.kind == "non-box" else
                          f"{e.kind} bbox or score")
            continue
        if w <= 0 or h <= 0:
            report.reject(key, f"non-positive box size {w}x{h}")
            continue
        if not (0.0 <= score <= 1.0):
            report.reject(key, f"score {score} outside [0, 1]")
            continue
        if y < 0:
            report.reject(key, f"box top {y} above the image")
            continue
        box = DetectionBox(pano_id=_key(pano_id), x=x, y=y, w=w, h=h,
                           score=score)
        by_pano.setdefault(box.pano_id, []).append(box)
    return by_pano, report


def load_detections_as_reference(path):
    """``load_detections``, checked against the reference loader: the
    same error, or equal columns, derived rows and report."""
    try:
        want, report = reference_load_detections(path)
    except GeotagFacadeError as e:
        with pytest.raises(type(e)) as got:
            load_detections(path)
        assert str(got.value) == str(e)
        raise
    ds = load_detections(path)
    assert ds.report.to_dict() == report.to_dict()
    assert list(ds.by_pano.items()) == list(want.items())
    assert ds.pano_ids == list(want)
    assert ds.offsets.tolist() == np.cumsum(
        [0, *map(len, want.values())]).tolist()
    rows = [b for boxes in want.values() for b in boxes]
    for col in ("x", "y", "w", "h", "score"):
        assert getattr(ds, col).dtype == np.float64
        assert repr(getattr(ds, col).tolist()) == repr(
            [getattr(b, col) for b in rows])
    return ds


def reference_write_coco(path, metas, annotations, mapping,
                         info: dict | None = None) -> None:
    """``write_coco`` building one dict per annotation, written by
    ``write_json``: anything with pano_id/x/y/w/h/category, with the
    optional ``score``, ``building_id`` and ``iou_x`` carried through
    when present."""
    images = coco_images(metas)
    image_id = {img["pano_id"]: img["id"] for img in images}
    anns = []
    for j, a in enumerate(annotations):
        rec = {
            "id": j + 1,
            "image_id": image_id[a.pano_id],
            "bbox": [a.x, a.y, a.w, a.h],
            "area": a.w * a.h,
            "iscrowd": 0,
            "category_id": a.category,
        }
        for opt in ("score", "building_id", "iou_x"):
            v = getattr(a, opt, None)
            if v is not None:
                rec[opt] = v
        anns.append(rec)
    write_json(path, {
        "info": info or {},
        "images": images,
        "annotations": anns,
        "categories": coco_categories(mapping),
    })


def reference_read_coco(path):
    """Read a COCO file into eval boxes plus per-panorama sizes, one
    ``EvalBox`` per annotation (the former ``read_coco``).

    Returns (boxes, width_by_pano, height_by_pano, info). Raises
    ``ParseError`` when the file is not JSON, and ``LoadError`` naming
    the entry whose field ``ingest``'s field readers reject, whose id
    repeats an earlier image's, or whose ``image_id`` names no image.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise LoadError(f"{path}: expected a COCO object")
    images, annotations = doc.get("images", []), doc.get("annotations", [])
    if not (isinstance(images, list) and isinstance(annotations, list)):
        raise LoadError(f"{path}: images and annotations must be lists")

    def fail(where, what, value):
        raise LoadError(f"{path}: {where}: {what}, got {value!r}")

    pano_of, width_by_pano, height_by_pano = {}, {}, {}
    for i, img in enumerate(images):
        where = f"images[{i}]"
        if not isinstance(img, dict) or "id" not in img:
            fail(where, "expected an object with an id", img)
        if not _ok(_key, img["id"]):
            fail(where, "id must be a number or a string", img["id"])
        image = _key(img["id"])  # 1 and "1" name one image, 1.0 another
        if image in pano_of:
            fail(where, "id must be unique", img["id"])
        width = img.get("width")
        if not (width is None or _ok(_integers, width) and width > 0):
            fail(where, "width must be null or a positive whole number",
                 width)
        pano = img.get("pano_id")
        if not pano:
            pano = img.get("file_name", "")
            if not isinstance(pano, str):
                fail(where, "file_name must be a string", pano)
            pano = Path(pano).stem
        elif not _ok(_key, pano):
            fail(where, "pano_id must be a number or a string", pano)
        pano = _key(pano)  # a number by its str(), as the loaders key it
        pano_of[image] = pano
        width_by_pano[pano] = width
        height_by_pano[pano] = img.get("height")
    boxes = []
    for i, a in enumerate(annotations):
        with suppress(KeyError, TypeError, _FieldError):  # all at once
            image_id, bbox, score = a["image_id"], a["bbox"], a.get("score")
            image_id = _key(image_id)
            _bbox(bbox, *(() if score is None else (score,)))
            category, = _integers(a["category_id"])
            if bbox[2] > 0 and bbox[3] > 0:
                boxes.append(EvalBox(pano_of[image_id], *bbox,
                                     category=category, score=score))
                continue
        where = f"annotations[{i}]"  # a bad one: name its first bad field
        if not isinstance(a, dict):
            fail(where, "expected an object", a)
        image_id, bbox = a.get("image_id"), a.get("bbox")
        if not (_ok(_key, image_id) and _key(image_id) in pano_of):
            raise LoadError(f"{path}: {where}: image_id {image_id!r} names "
                            "no image")
        if not (_ok(_bbox, bbox) and bbox[2] > 0 and bbox[3] > 0):
            fail(where, "bbox must be 4 finite numbers with w > 0 and h > 0",
                 bbox)
        if "category_id" not in a:
            raise LoadError(f"{path}: {where}: no category_id")
        if not _ok(_integers, a["category_id"]):
            fail(where, "category_id must be a number with an exact whole "
                 "value", a["category_id"])
        fail(where, "score must be null or a finite number", a.get("score"))
    return boxes, width_by_pano, height_by_pano, doc.get("info", {})
