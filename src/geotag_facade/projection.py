"""Coordinate conversions between map space, camera space, and pixel space.

Three frames are involved:

* geodetic WGS84 (lat, lon) degrees
* the camera-centered local plane: x meters east, y meters north, built
  with a small-angle spherical model (one cosine per camera, sphere
  radius 6371.393 km)
* the panorama's horizontal pixel axis, where heading is linear in the
  pixel column and ``north_px`` is the column that looks at true north

Headings are degrees clockwise from true north in [0, 360). By default
clockwise equals increasing pixel x; ``flip_heading`` reverses it. Both
conventions live only in :func:`heading_px`, which :func:`angle_to_pixel`
applies to one panorama.

Clipping works on a group of cameras at once (:func:`clip_group`);
:func:`clip_scene` is its one-camera view, a :class:`LocalScene` of
wall segments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import OutOfRangeError
from .ingest import PanoramaMeta

EARTH_RADIUS_KM = 6371.393
METERS_PER_DEGREE = math.pi * EARTH_RADIUS_KM * 1000.0 / 180.0
MAX_LOCAL_RANGE_M = 10_000.0  # beyond this the flat-plane model degrades
# candidate_pairs keeps footprint boxes up to this much farther than the
# radius: it covers rounding in the per-edge distance, not any geometry
CLIP_SLACK_M = 1e-6


class LocalXY(NamedTuple):
    x: float  # meters east of the camera
    y: float  # meters north of the camera


def _wrap_lon(dlon: float) -> float:
    if dlon > 180.0:
        return dlon - 360.0
    if dlon < -180.0:
        return dlon + 360.0
    return dlon


def _local_xy(lat, lon, lat0, lon0, cos_lat0):
    """(x, y) meters of (lat, lon) on the plane centered at (lat0, lon0);
    ``cos_lat0`` is ``cos(radians(lat0))``, computed once per origin."""
    return (_wrap_lon(lon - lon0) * cos_lat0 * METERS_PER_DEGREE,
            (lat - lat0) * METERS_PER_DEGREE)


def geodetic_to_local(origin, point) -> LocalXY:
    """Project ``point`` onto the local plane centered at ``origin``.

    Both arguments are (lat, lon) degrees. Raises
    :class:`OutOfRangeError` when the result exceeds 10 km, where the
    small-angle model is no longer trustworthy.
    """
    x, y = _local_xy(point[0], point[1], origin[0], origin[1],
                     math.cos(math.radians(origin[0])))
    if math.hypot(x, y) > MAX_LOCAL_RANGE_M:
        raise OutOfRangeError(
            f"point is {math.hypot(x, y):.0f} m from origin, "
            f"beyond the {MAX_LOCAL_RANGE_M:.0f} m approximation range")
    return LocalXY(x, y)


def local_to_geodetic(origin, p) -> tuple:
    """Inverse of :func:`geodetic_to_local` at the same origin."""
    x, y = p
    if math.hypot(x, y) > MAX_LOCAL_RANGE_M:
        raise OutOfRangeError(
            f"local point is {math.hypot(x, y):.0f} m from origin, "
            f"beyond the {MAX_LOCAL_RANGE_M:.0f} m approximation range")
    lat = origin[0] + y / METERS_PER_DEGREE
    lon = origin[1] + x / (math.cos(math.radians(origin[0])) * METERS_PER_DEGREE)
    if lon > 180.0:
        lon -= 360.0
    elif lon <= -180.0:
        lon += 360.0
    return (lat, lon)


def angle_to_pixel(theta_deg: float, meta: PanoramaMeta,
                   flip_heading: bool = False) -> float:
    """Pixel column looking along heading ``theta_deg``. Fractional."""
    return heading_px(theta_deg, meta.north_px, meta.width, flip_heading)


def heading_px(theta_deg, north_px, width, flip_heading: bool = False):
    """:func:`angle_to_pixel` from the anchor and width; takes floats or
    arrays alike, with the same operations in the same order."""
    span = theta_deg / 360.0 * width
    px = north_px - span if flip_heading else north_px + span
    return px % width


# ---------------------------------------------------------------------------
# Scene clipping
# ---------------------------------------------------------------------------

# np.hypot and math.hypot may differ in the last bit. A distance this
# close to a threshold, relative to it, is recomputed with math.hypot, so
# that every threshold decision matches the scalar form exactly.
_HYPOT_BAND = 1e-12
# (camera, footprint) cells of one candidate mask, which bounds its memory
_MASK_CELLS = 1 << 14
# a back face's side test, relative to |x * by| + |bx * y|: far above
# that cross product's rounding, so a wall seen edge-on stays a front face
_FACE_MARGIN = 1e-9


@dataclass(frozen=True)
class WallSegment:
    """One building wall in the local plane, endpoints a and b."""

    ax: float
    ay: float
    bx: float
    by: float
    building_id: str
    category: int

    @property
    def length(self) -> float:
        return math.hypot(self.bx - self.ax, self.by - self.ay)


@dataclass
class SceneArrays:
    """Walls of one camera, or of a group of cameras, for the sweep kernels.

    ``cam`` is each wall's camera within its group (0 in a one-camera
    scene); coordinates are in that camera's local plane. ``rank``
    orders a camera's buildings by id, lexicographically; distance ties
    between buildings break toward the smaller rank for determinism.
    ``ex`` is ``bx - ax``: ``ax + ex`` need not equal ``bx``. ``front``
    is False for a back face, which the sweep skips (:func:`clip_group`).
    """

    cam: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    bx: np.ndarray
    by: np.ndarray
    ex: np.ndarray  # b - a
    ey: np.ndarray
    nx: np.ndarray  # unit normal of the supporting line
    ny: np.ndarray
    a_dot_n: np.ndarray  # (a - origin) . n, origin is the camera
    len2: np.ndarray
    rank: np.ndarray
    front: np.ndarray

    def __len__(self) -> int:
        return len(self.ax)


def wall_arrays(cam, ax, ay, bx, by, rank, front) -> SceneArrays:
    """:class:`SceneArrays` from wall endpoints, the rest derived."""
    ex, ey = bx - ax, by - ay
    length = np.hypot(ex, ey)
    nx, ny = ey / length, -ex / length
    return SceneArrays(cam=cam, ax=ax, ay=ay, bx=bx, by=by, ex=ex, ey=ey,
                       nx=nx, ny=ny, a_dot_n=ax * nx + ay * ny,
                       len2=length * length, rank=rank, front=front)


def _segment_arrays(segments, buildings):
    """(arrays, rank_to_bidx) of a WallSegment list: the one place a
    scene's buildings are ranked, lexicographically by id."""
    n = len(segments)
    ax = np.fromiter((s.ax for s in segments), float, n)
    ay = np.fromiter((s.ay for s in segments), float, n)
    bx = np.fromiter((s.bx for s in segments), float, n)
    by = np.fromiter((s.by for s in segments), float, n)
    id_of = {bid: i for i, (bid, _) in enumerate(buildings)}
    bidx = np.fromiter((id_of[s.building_id] for s in segments), np.int64, n)
    order = np.array(sorted(range(len(buildings)),
                            key=lambda i: buildings[i][0]), np.int64)
    rank = np.argsort(order)[bidx]  # the inverse permutation of order
    return (wall_arrays(np.zeros(n, np.int64), ax, ay, bx, by, rank,
                        np.ones(n, bool)), order)


class LocalScene:
    """All wall segments within reach of one camera, in its local plane.

    Never modified after construction. ``buildings`` lists each
    (building_id, category) once, and every segment's building is among
    them. ``arrays`` holds the segments for the sweep kernels, and
    ``rank_to_bidx`` maps a wall's building rank (its place in id order)
    to the building's index in ``buildings``; both are derived from the
    segments on construction, as is ``degenerate``: the camera is strictly
    inside footprint ``containing_building``, and the sweep refuses it.
    """

    def __init__(self, pano_id: str, origin: tuple, radius_m: float,
                 segments=(), buildings: tuple = (),
                 containing_building: str | None = None):
        self.pano_id = pano_id
        self.origin = origin  # (lat, lon) of the camera
        self.radius_m = radius_m
        self.segments = list(segments)
        self.buildings = tuple(buildings)  # (building_id, category)
        self.containing_building = containing_building
        self.arrays, self.rank_to_bidx = _segment_arrays(self.segments,
                                                         self.buildings)

    @property
    def degenerate(self) -> bool:
        return self.containing_building is not None


class FootprintIndex:
    """A footprint collection as flat arrays, for clipping.

    Built once per run from any iterable of footprints. Holds every outer
    ring's vertices (the closing one dropped) in one lat and one lon
    array, with each ring's first vertex and vertex count, each ring's
    lat/lon bounding box, and each footprint's building rank under
    lexicographic id order (footprints sharing an id share a rank).
    Never modified after construction.
    """

    def __init__(self, footprints):
        self.footprints = tuple(footprints)
        fps = self.footprints
        self.ring_len = np.fromiter((len(fp.ring) - 1 for fp in fps),
                                    np.int64, len(fps))
        self.ring_start = np.cumsum(self.ring_len) - self.ring_len
        size = int(self.ring_len.sum())
        self.lat = np.fromiter((p[0] for fp in fps for p in fp.ring[:-1]),
                               float, size)
        self.lon = np.fromiter((p[1] for fp in fps for p in fp.ring[:-1]),
                               float, size)
        if fps:
            self.lat_lo = np.minimum.reduceat(self.lat, self.ring_start)
            self.lat_hi = np.maximum.reduceat(self.lat, self.ring_start)
            self.lon_lo = np.minimum.reduceat(self.lon, self.ring_start)
            self.lon_hi = np.maximum.reduceat(self.lon, self.ring_start)
        else:
            self.lat_lo = self.lat_hi = self.lon_lo = self.lon_hi = self.lat
        rank_of = {b: r for r, b in
                   enumerate(sorted({fp.building_id for fp in fps}))}
        self.rank = np.fromiter((rank_of[fp.building_id] for fp in fps),
                                np.int64, len(fps))

    def __len__(self) -> int:
        return len(self.footprints)

    def candidate_pairs(self, metas, radius_m: float):
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
        step = max(1, _MASK_CELLS // max(len(self), 1))
        for c0 in range(0, len(metas), step):
            c = lat[c0:c0 + step, None]
            gy = np.maximum((self.lat_lo - c) * METERS_PER_DEGREE,
                            (c - self.lat_hi) * METERS_PER_DEGREE)
            cam, fp = np.nonzero(gy <= reach)
            pairs.append((cam + c0, fp, gy[cam, fp]))
        cam, fp, gy = (np.concatenate(a) for a in zip(*pairs))
        dlo = self.lon_lo[fp] - lon[cam]
        dhi = self.lon_hi[fp] - lon[cam]
        broken = (((dlo < -180.0) != (dhi < -180.0))
                  | ((dlo > 180.0) != (dhi > 180.0)))
        gx = np.maximum(_wrap_lons(dlo) * cos_lat[cam] * METERS_PER_DEGREE,
                        -_wrap_lons(dhi) * cos_lat[cam] * METERS_PER_DEGREE)
        gap = np.hypot(np.maximum(gx, 0.0), np.maximum(gy, 0.0))
        keep = np.flatnonzero(broken | (gap <= reach))
        return cam[keep], fp[keep]


def _wrap_lons(dlon: np.ndarray) -> np.ndarray:
    """:func:`_wrap_lon` over an array."""
    return np.where(dlon > 180.0, dlon - 360.0,
                    np.where(dlon < -180.0, dlon + 360.0, dlon))


def _camera_arrays(metas):
    """(lat, lon, cos(lat)) of each camera; the cosine as math.cos gives
    it, the one the scalar projection uses."""
    return (np.array([m.lat for m in metas], float),
            np.array([m.lon for m in metas], float),
            np.array([math.cos(math.radians(m.lat)) for m in metas], float))


def _exact_hypot(x, y, *thresholds):
    """``np.hypot(x, y)`` with every value within ``_HYPOT_BAND`` of a
    threshold recomputed by ``math.hypot``, so that comparing the result
    with the thresholds decides as the scalar form does."""
    d = np.hypot(x, y)
    near = np.zeros(len(d), bool)
    for thr in thresholds:
        near |= np.abs(d - thr) <= _HYPOT_BAND * thr
    for i in np.flatnonzero(near).tolist():
        d[i] = math.hypot(x[i], y[i])
    return d


def footprint_names(footprints, fp) -> list:
    """(building_id, category) of ``footprints[f]`` for each ``f`` of the
    index array ``fp``."""
    return [(footprints[f].building_id, footprints[f].category)
            for f in fp.tolist()]


@dataclass
class ClipGroup:
    """The walls of a group of cameras, clipped together.

    ``walls`` holds every camera's walls, camera by camera, with the
    index's building ranks. ``kept_cam`` and ``kept_fp`` list the
    (camera, footprint) pairs whose rings were clipped, in order.
    ``containing`` gives, per camera, the id of the first footprint
    strictly holding it, or None. ``out_of_range`` counts the candidate
    (camera, footprint) pairs skipped because a vertex of the ring lies
    beyond the flat-plane range.
    """

    index: FootprintIndex
    radius_m: float
    walls: SceneArrays
    kept_cam: np.ndarray
    kept_fp: np.ndarray
    containing: list
    out_of_range: int

    def owner_fp(self, cam, rank) -> np.ndarray:
        """The footprint that names building ``rank`` as camera ``cam``
        sees it, per element: the first of the building's footprints
        that the camera keeps."""
        stride = len(self.index) + 1
        keys, first = np.unique(
            self.kept_cam * stride + self.index.rank[self.kept_fp],
            return_index=True)
        return self.kept_fp[first[np.searchsorted(keys,
                                                  cam * stride + rank)]]

    def owners(self, cam, rank) -> list:
        """(building_id, category) of each :meth:`owner_fp`."""
        return footprint_names(self.index.footprints,
                               self.owner_fp(cam, rank))


def clip_group(index: FootprintIndex, metas, radius_m: float) -> ClipGroup:
    """Clip the footprints around a group of cameras in one array pass.

    Every (camera, candidate ring) pair is projected onto the camera's
    local plane and tested at once. A ring contributes all its edges of
    nonzero length when it comes within ``radius_m`` of the camera
    (intersects or lies inside the disc). Rings with any vertex beyond
    the flat-plane range are too far to matter and are skipped (and
    counted). A camera strictly inside a ring keeps the rest of its
    scene but is marked as held by it. The projection and each threshold
    decision are those of the one-ring scalar form, value for value.
    A wall is a back face (``front`` False) when its ring is strictly
    convex and the camera lies clearly on the ring's inner side of its
    line: a ray meets one of the ring's front faces no farther away, so
    the sweep skips back faces with the same result. A ring keeps every
    wall a front face when it lies within 1e-9 m of the camera, dropped
    an edge, or has a vertex on the camera's axes, where a grid ray can
    slip between two front faces by rounding and meet the far side (off
    the axes that needs a vertex within about 1e-15 of a grid heading).
    """
    if radius_m <= 0:
        raise ValueError("radius_m must be positive")
    cam, fp = index.candidate_pairs(metas, radius_m)
    count = index.ring_len[fp]
    first = np.cumsum(count) - count  # each pair's first vertex
    size = int(count.sum())
    vertex = np.repeat(index.ring_start[fp] - first, count) + np.arange(size)
    pair = np.repeat(np.arange(len(fp)), count)
    lat0, lon0, cos_lat = (v[cam[pair]] for v in _camera_arrays(metas))
    x = _wrap_lons(index.lon[vertex] - lon0) * cos_lat * METERS_PER_DEGREE
    y = (index.lat[vertex] - lat0) * METERS_PER_DEGREE
    nxt = np.arange(1, size + 1)
    nxt[first + count - 1] = first
    bx, by = x[nxt], y[nxt]
    ex, ey = bx - x, by - y
    wall = _exact_hypot(ex, ey, 1e-9) > 1e-9
    p, q = x * by, bx * y  # p - q: twice the signed area of (camera, a, b)
    if size:
        far = np.logical_or.reduceat(
            _exact_hypot(x, y, MAX_LOCAL_RANGE_M) > MAX_LOCAL_RANGE_M, first)
        # nearest point of each edge to the camera, then of each ring
        len2 = ex * ex + ey * ey
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(len2 == 0.0, 0.0,
                         np.clip(-(x * ex + y * ey) / len2, 0.0, 1.0))
            # even-odd test of the camera, the origin, against each ring
            t = (0.0 - y) / (by - y)
            crossing = ((y > 0.0) != (by > 0.0)) & (0.0 < x + t * (bx - x))
        dmin = np.minimum.reduceat(
            _exact_hypot(x + u * ex, y + u * ey, 1e-9, radius_m), first)
        inside = np.logical_xor.reduceat(crossing, first)
        # strictly convex: every turn on the side of the signed area, and
        # one turn in all
        sense = np.sign(np.add.reduceat(p - q, first))[pair]
        turn = ex * ey[nxt] - ey * ex[nxt]
        cull = (dmin > 1e-9) & np.logical_and.reduceat(
            (turn * sense > 0.0) & wall & (x != 0.0) & (y != 0.0), first)
        cull &= np.abs(np.add.reduceat(np.arctan2(
            turn, ex * ex[nxt] + ey * ey[nxt]), first)) < 3.0 * np.pi
    else:
        far = inside = cull = np.zeros(0, bool)
        dmin = sense = np.zeros(0)
    holds = ~far & (dmin > 1e-9) & inside
    kept = ~far & ~holds & ~(dmin > radius_m)
    containing = [None] * len(metas)
    for c, f in zip(cam[holds].tolist(), fp[holds].tolist()):
        if containing[c] is None:
            containing[c] = index.footprints[f].building_id
    back = cull[pair] & ((p - q) * sense > _FACE_MARGIN * (abs(p) + abs(q)))
    edge = np.flatnonzero(kept[pair] & wall)
    walls = wall_arrays(cam[pair[edge]], x[edge], y[edge], bx[edge],
                        by[edge], index.rank[fp[pair[edge]]], ~back[edge])
    return ClipGroup(index=index, radius_m=radius_m, walls=walls,
                     kept_cam=cam[kept], kept_fp=fp[kept],
                     containing=containing, out_of_range=int(far.sum()))


def clip_scene(index: FootprintIndex, meta: PanoramaMeta,
               radius_m: float) -> LocalScene:
    """Build the local wall-segment scene for one camera.

    The one-camera view of :func:`clip_group`: a footprint contributes
    all its edges when its outer ring comes within ``radius_m`` of the
    camera. Footprints with any vertex beyond the flat-plane range are
    skipped. A camera strictly inside a ring marks the scene degenerate.
    Segments come in wall order; buildings in the order their first
    footprint was kept, named by that footprint.
    """
    group = clip_group(index, [meta], radius_m)
    walls = group.walls
    segments = [WallSegment(ax, ay, bx, by, bid, cat)
                for ax, ay, bx, by, (bid, cat)
                in zip(walls.ax.tolist(), walls.ay.tolist(),
                       walls.bx.tolist(), walls.by.tolist(),
                       group.owners(walls.cam, walls.rank))]
    rank = index.rank[group.kept_fp]
    first = np.sort(np.unique(rank, return_index=True)[1])
    buildings = group.owners(np.zeros(len(first), np.int64), rank[first])
    return LocalScene(pano_id=meta.pano_id, origin=(meta.lat, meta.lon),
                      radius_m=radius_m, segments=segments,
                      buildings=buildings,
                      containing_building=group.containing[0])
