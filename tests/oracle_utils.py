"""Independent reference computations the tests check against.

These deliberately avoid the package's own arithmetic: haversine instead
of the flat-plane model, shift-enumeration instead of piece
decomposition for circular overlap. They stay simple and slow.

``linear_clip_scene`` is the exception: it is ``clip_scene`` as it was
before the footprint index, projecting every footprint for every camera,
and shares the package's per-ring helpers. It checks which footprints
the index lets through, not the projection arithmetic.
"""
import math

from geotag_facade.projection import (MAX_LOCAL_RANGE_M, METERS_PER_DEGREE,
                                      LocalScene, WallSegment,
                                      _point_in_ring, _ring_min_distance,
                                      _wrap_lon)

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


def linear_clip_scene(footprints, meta, radius_m):
    """Scene for one camera from a scan of every footprint."""
    if radius_m <= 0:
        raise ValueError("radius_m must be positive")
    origin = (meta.lat, meta.lon)
    cos_lat = math.cos(math.radians(meta.lat))
    segments = []
    buildings = []
    seen = set()
    degenerate = False
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
            degenerate = True
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
                      degenerate=degenerate, containing_building=containing)
