"""Coordinate conversions between map space, camera space, and pixel space.

Three frames are involved:

* geodetic WGS84 (lat, lon) degrees
* the camera-centered local plane: x meters east, y meters north, built
  with a small-angle spherical model (one cosine per camera, sphere
  radius 6371.393 km) by :func:`_local_xy` alone, for floats and arrays
* the panorama's horizontal pixel axis, where heading is linear in the
  pixel column and ``north_px`` is the column that looks at true north

Headings are degrees clockwise from true north in [0, 360). By default
clockwise equals increasing pixel x; ``flip_heading`` reverses it. Both
conventions live only in :func:`heading_px` and :func:`pixel_span`,
which maps a run of headings onto a span of increasing pixel x.

Clipping works on a group of cameras at once (:func:`clip_group`);
:func:`clip_scene` is its one-camera view, a :class:`LocalScene` of
wall segments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import ne
from typing import NamedTuple

import numpy as np

from .errors import OutOfRangeError
from .ingest import FootprintSet, PanoramaMeta, ranges

EARTH_RADIUS_KM = 6371.393
METERS_PER_DEGREE = math.pi * EARTH_RADIUS_KM * 1000.0 / 180.0
MAX_LOCAL_RANGE_M = 10_000.0  # beyond this the flat-plane model degrades
# candidate_pairs keeps footprint boxes up to this much farther than the
# radius: it covers rounding in the per-edge distance, not any geometry
CLIP_SLACK_M = 1e-6


class LocalXY(NamedTuple):
    x: float  # meters east of the camera
    y: float  # meters north of the camera


def _wrap_lons(dlon):
    """Longitude differences wrapped by a turn into [-180, 180]."""
    return np.where(dlon > 180.0, dlon - 360.0,
                    np.where(dlon < -180.0, dlon + 360.0, dlon))


def _local_xy(lat, lon, lat0, lon0, cos_lat0):
    """(x, y) meters of (lat, lon), floats or arrays, on the plane centered
    at (lat0, lon0); ``cos_lat0`` is ``cos(radians(lat0))``."""
    return (_wrap_lons(lon - lon0) * cos_lat0 * METERS_PER_DEGREE,
            (lat - lat0) * METERS_PER_DEGREE)


def geodetic_to_local(origin, point) -> LocalXY:
    """Project ``point`` onto the local plane centered at ``origin``.

    Both arguments are (lat, lon) degrees. Raises
    :class:`OutOfRangeError` when the result exceeds 10 km, where the
    small-angle model is no longer trustworthy.
    """
    x, y = map(float, _local_xy(point[0], point[1], origin[0], origin[1],
                                math.cos(math.radians(origin[0]))))
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


def heading_px(theta_deg, north_px, width, flip_heading: bool = False):
    """Fractional pixel column looking along heading ``theta_deg``, floats
    or arrays alike, with the same operations in the same order."""
    span = theta_deg / 360.0 * width
    px = north_px - span if flip_heading else north_px + span
    return px % width


def pixel_span(angle_lo, angle_hi, north_px, width,
               flip_heading: bool = False):
    """(px_lo, px_hi): the headings ``angle_lo`` to ``angle_hi`` as a
    span of increasing pixel x, by :func:`heading_px`; a flipped heading
    runs the other way, so its ends swap. Floats or arrays alike."""
    lo = heading_px(angle_lo, north_px, width, flip_heading)
    hi = heading_px(angle_hi, north_px, width, flip_heading)
    return (hi, lo) if flip_heading else (lo, hi)


# ---------------------------------------------------------------------------
# Scene clipping
# ---------------------------------------------------------------------------

# np.hypot and math.hypot may differ in the last bit. A distance this
# close to a threshold, relative to it, is recomputed with math.hypot, so
# that every threshold decision matches the scalar form exactly.
_HYPOT_BAND = 1e-12
# (camera, footprint) cells of one candidate mask, which bounds its memory
_MASK_CELLS = 1 << 14
# The candidate lookup's grid, in degrees of latitude and of longitude: a
# box is filed under the cell of its south-west corner.
_CELL_DEG = 2.5e-4
_CELL_COLS = int(360.0 / _CELL_DEG) + 2  # a row's columns, and a spare
# A box taller or wider than this, or reaching past +-90 or +-180 degrees,
# is filed under no cell, and every camera tests it by the mask: the bound
# keeps the cells a camera looks up few.
_CELL_BOX_DEG = 4 * _CELL_DEG
# A camera whose longitude reach, with the widest filed box, comes to
# this, or whose reach runs past +-180 degrees, tests every box by the
# mask: near a pole the reach has no bound, and across +-180 the wrap
# breaks the columns' order. Below it the camera's antipodal meridian,
# where a box's wrapped longitudes break, lies far outside its reach.
_CELL_REACH_DEG = 1.0
# A cell range reaches this much past its bounds in degrees: many times
# the rounding of those bounds and of the exact test (about 1e-13).
_CELL_SLACK_DEG = 1e-9
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


def id_ranks(ids) -> np.ndarray:
    """The str-order rank of each id of the sequence ``ids``, equal ids
    sharing one: the one rank of building ids, which breaks distance
    ties, for :class:`FootprintIndex`, :class:`LocalScene` and
    ``matcher.match_box``.
    One sort as str, not through a numpy <U array, which drops trailing
    NULs and so would merge "a" and "a\\x00"."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    ordered = [*map(ids.__getitem__, order)]
    rank = np.zeros(len(ids), np.int64)
    rank[order[1:]] = np.cumsum(np.fromiter(
        map(ne, ordered[1:], ordered), np.int64, max(len(ids) - 1, 0)))
    return rank


def _segment_arrays(segments, buildings):
    """(arrays, rank_to_bidx) of a WallSegment list, its buildings
    ranked by :func:`id_ranks`."""
    n = len(segments)
    ax = np.fromiter((s.ax for s in segments), float, n)
    ay = np.fromiter((s.ay for s in segments), float, n)
    bx = np.fromiter((s.bx for s in segments), float, n)
    by = np.fromiter((s.by for s in segments), float, n)
    id_of = {bid: i for i, (bid, _) in enumerate(buildings)}
    bidx = np.fromiter((id_of[s.building_id] for s in segments), np.int64, n)
    # each building is listed once, so the ranks are a permutation
    rank = id_ranks([bid for bid, _ in buildings])
    return (wall_arrays(np.zeros(n, np.int64), ax, ay, bx, by, rank[bidx],
                        np.ones(n, bool)), np.argsort(rank))


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
    """A footprint set's rings, ready for clipping.

    Built once per run from a :class:`FootprintSet`, whose flat vertex
    arrays it takes as they are: every outer ring's vertices (the
    closing one dropped) in one lat and one lon array, with each ring's
    first vertex and vertex count. Adds each ring's lat/lon bounding box
    and each footprint's building rank (:func:`id_ranks`; footprints
    sharing an id share a rank). Files each box that fits a
    cell of ``_CELL_DEG`` degrees under the cell of its south-west
    corner: ``cell_key`` is the boxes' cell keys (row, then column),
    sorted, and ``cell_fp`` their footprints, which
    :meth:`candidate_pairs` searches; ``unfiled`` lists the rest. Never
    modified after construction.
    """

    def __init__(self, footprints: FootprintSet):
        self.footprints = footprints
        self.lat, self.lon = footprints.lat, footprints.lon
        self.ring_len = footprints.ring_len
        self.ring_start = np.cumsum(self.ring_len) - self.ring_len
        if len(footprints):
            self.lat_lo = np.minimum.reduceat(self.lat, self.ring_start)
            self.lat_hi = np.maximum.reduceat(self.lat, self.ring_start)
            self.lon_lo = np.minimum.reduceat(self.lon, self.ring_start)
            self.lon_hi = np.maximum.reduceat(self.lon, self.ring_start)
        else:
            self.lat_lo = self.lat_hi = self.lon_lo = self.lon_hi = self.lat
        self.rank = id_ranks(footprints.building_ids)
        # each box that fits, filed under the cell of its south-west corner
        height, width = self.lat_hi - self.lat_lo, self.lon_hi - self.lon_lo
        filed = ((height <= _CELL_BOX_DEG) & (width <= _CELL_BOX_DEG)
                 & (self.lat_lo >= -90.0) & (self.lat_hi <= 90.0)
                 & (self.lon_lo >= -180.0) & (self.lon_hi <= 180.0))
        self.unfiled = np.flatnonzero(~filed)
        fp = np.flatnonzero(filed)
        col = _cell(self.lon_lo[fp] + 180.0)
        key = _cell(self.lat_lo[fp] + 90.0) * _CELL_COLS + col
        order = np.argsort(key, kind="stable")
        self.cell_key, self.cell_fp = key[order], fp[order]
        # the tallest and the widest filed box, and the columns filed in
        self.box_h = float(height[fp].max(initial=0.0))
        self.box_w = float(width[fp].max(initial=0.0))
        self.cols = (int(col.min(initial=_CELL_COLS)),
                     int(col.max(initial=-1)))

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
        :func:`_wrap_lons`, which is monotone only between its +-180
        degree breaks: a box whose two edges fall on different sides of
        a break, such as a ring straddling the antimeridian seen from
        near it, is kept unless its north-south gap alone puts it out
        of reach. That gap is tested first, on the pairs the cells name
        (:meth:`_cell_pairs`); the rest of the test runs on the pairs it
        passes. Every pair the test can keep is tested, so the result
        equals ``reference_candidate_pairs`` in ``tests/oracle_utils.py``,
        the mask over every pair, which the tests hold it to.
        """
        lat, lon, cos_lat = _camera_arrays(metas)
        reach = radius_m + CLIP_SLACK_M
        cam, fp, gy = map(np.concatenate,
                          zip(*self._cell_pairs(lat, lon, cos_lat, reach)))
        dlo = self.lon_lo[fp] - lon[cam]
        dhi = self.lon_hi[fp] - lon[cam]
        broken = (((dlo < -180.0) != (dhi < -180.0))
                  | ((dlo > 180.0) != (dhi > 180.0)))
        gx = np.maximum(_wrap_lons(dlo) * cos_lat[cam] * METERS_PER_DEGREE,
                        -_wrap_lons(dhi) * cos_lat[cam] * METERS_PER_DEGREE)
        gap = np.hypot(np.maximum(gx, 0.0), np.maximum(gy, 0.0))
        keep = np.flatnonzero(broken | (gap <= reach))
        order = keep[np.argsort(cam[keep] * len(self) + fp[keep])]
        return cam[order], fp[order]

    def _cell_pairs(self, lat, lon, cos_lat, reach: float) -> list:
        """[(cam, fp, gy)] chunks, as :meth:`_mask_pairs` gives them, of
        the cameras at ``lat`` and ``lon`` and the boxes within ``reach``
        of them north to south, in no particular order.

        A camera within the cells' bounds (``_CELL_REACH_DEG``) looks its
        filed boxes up with one ``np.searchsorted`` range per cell row,
        over the columns its reach, the widest box and a slack span, and
        one more over the few columns about its antipodal meridian, where
        a box's wrapped longitudes break; a box filed under no cell is
        tested by the mask. Any other camera tests every box by the mask.
        """
        # a box whose corner lies west of a reach spans up to this into it
        pad = self.box_w + _CELL_SLACK_DEG
        reach_lat = reach / METERS_PER_DEGREE
        reach_lon = min(reach_lat, _CELL_REACH_DEG) / cos_lat
        # in degrees east of -180 and north of -90, as the cells count them
        west = lon + 180.0 - reach_lon - pad
        east = lon + 180.0 + reach_lon + _CELL_SLACK_DEG
        filed = ((np.abs(lat) <= 90.0) & (west > 0.0) & (east < 360.0)
                 & (reach_lon < _CELL_REACH_DEG - pad))
        cams = np.flatnonzero(filed)
        anti = lon % 360.0  # the antipodal meridian
        south = lat + 90.0 - (reach_lat + self.box_h + _CELL_SLACK_DEG)
        north = lat + 90.0 + (reach_lat + _CELL_SLACK_DEG)
        edge = _cell(np.stack((west, anti - pad, east, anti + _CELL_SLACK_DEG,
                               south, north))[:, cams])
        # each (side, camera) range of columns: the reach, then the antipode
        lo = np.maximum(edge[:2].ravel(), self.cols[0])
        hi = np.minimum(edge[2:4].ravel(), self.cols[1])
        side = np.flatnonzero(lo <= hi)
        c = side % len(cams)
        # each cell row of each range, then each box filed in it
        r, row = ranges(edge[4][c], (edge[5] - edge[4] + 1)[c])
        key = row * _CELL_COLS
        start, end = np.searchsorted(self.cell_key, np.concatenate((
            key + lo[side][r], key + hi[side][r] + 1))).reshape(2, -1)
        k, slot = ranges(start, end - start)
        cam = cams[c[r[k]]]
        fp = self.cell_fp[slot]
        gy = np.maximum((self.lat_lo[fp] - lat[cam]) * METERS_PER_DEGREE,
                        (lat[cam] - self.lat_hi[fp]) * METERS_PER_DEGREE)
        near = np.flatnonzero(gy <= reach)
        return [(cam[near], fp[near], gy[near]),
                *self._mask_pairs(lat, cams, reach, self.unfiled),
                *self._mask_pairs(lat, np.flatnonzero(~filed), reach)]

    def _mask_pairs(self, lat, cams, reach: float, fps=None) -> list:
        """[(cam, fp, gy)] chunks of the (camera, footprint) pairs of
        ``cams`` x ``fps`` (every footprint if None), in that order, whose
        north-south gap ``gy`` is within ``reach``: one mask per chunk of
        at most ``_MASK_CELLS`` cells."""
        if not len(cams):
            return []
        if fps is None:
            fps = np.arange(len(self))
        lat_lo, lat_hi = self.lat_lo[fps], self.lat_hi[fps]
        step = max(1, _MASK_CELLS // max(len(fps), 1))
        pairs = []
        for c0 in range(0, len(cams) if len(fps) else 0, step):
            c = lat[cams[c0:c0 + step], None]
            gy = np.maximum((lat_lo - c) * METERS_PER_DEGREE,
                            (c - lat_hi) * METERS_PER_DEGREE).ravel()
            at = np.flatnonzero(gy <= reach)
            cam, fp = np.divmod(at, len(fps))
            pairs.append((cams[c0 + cam], fps[fp], gy[at]))
        return pairs


def _cell(deg) -> np.ndarray:
    """The cell row of each of ``deg`` degrees north of -90, or its
    column if east of -180; monotone in ``deg``."""
    return np.floor(deg / _CELL_DEG).astype(np.int64)


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


def footprint_names(footprints: FootprintSet, fp) -> list:
    """(building_id, category) of footprint ``f`` for each ``f`` of the
    index array ``fp``."""
    ids, categories = footprints.building_ids, footprints.categories
    return [(ids[f], categories[f]) for f in fp.tolist()]


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


def clip_group(index: FootprintIndex, metas, radius_m: float) -> ClipGroup:
    """Clip the footprints around a group of cameras in one array pass.

    Every (camera, candidate ring) pair is projected onto the camera's
    local plane and tested at once. A ring contributes all its edges of
    nonzero length when it comes within ``radius_m`` of the camera
    (intersects or lies inside the disc). Rings with any vertex beyond
    the flat-plane range are too far to matter and are skipped (and
    counted). A camera strictly inside a ring keeps the rest of its
    scene but is marked as held by it, and all its walls are back faces,
    so the sweep gives it no rays and no intervals. The projection and
    each threshold decision are those of the one-ring scalar form, value
    for value.
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
    pair, vertex = ranges(index.ring_start[fp], count)
    first = np.cumsum(count) - count  # each pair's first vertex
    x, y = _local_xy(index.lat[vertex], index.lon[vertex],
                     *(v[cam[pair]] for v in _camera_arrays(metas)))
    nxt = np.arange(1, len(vertex) + 1)
    nxt[first + count - 1] = first
    bx, by = x[nxt], y[nxt]
    ex, ey = bx - x, by - y
    wall = _exact_hypot(ex, ey, 1e-9) > 1e-9
    p, q = x * by, bx * y  # p - q: twice the signed area of (camera, a, b)
    if len(vertex):
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
            containing[c] = index.footprints.building_ids[f]
    back = cull[pair] & ((p - q) * sense > _FACE_MARGIN * (abs(p) + abs(q)))
    back |= np.isin(cam, cam[holds])[pair]  # a held camera is not swept
    edge = np.flatnonzero(kept[pair] & wall)
    walls = wall_arrays(cam[pair[edge]], x[edge], y[edge], bx[edge],
                        by[edge], index.rank[fp[pair[edge]]], ~back[edge])
    return ClipGroup(index=index, walls=walls, kept_cam=cam[kept],
                     kept_fp=fp[kept], containing=containing,
                     out_of_range=int(far.sum()))


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
                       footprint_names(index.footprints, group.owner_fp(
                           walls.cam, walls.rank)))]
    # each building's first kept footprint, which owner_fp names it by
    first = np.unique(index.rank[group.kept_fp], return_index=True)[1]
    buildings = footprint_names(index.footprints,
                                group.kept_fp[np.sort(first)])
    return LocalScene(pano_id=meta.pano_id, origin=(meta.lat, meta.lon),
                      radius_m=radius_m, segments=segments,
                      buildings=buildings,
                      containing_building=group.containing[0])
