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
conventions live only in :func:`angle_to_pixel` / :func:`pixel_to_angle`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import OutOfRangeError
from .ingest import PanoramaMeta

EARTH_RADIUS_KM = 6371.393
METERS_PER_DEGREE = math.pi * EARTH_RADIUS_KM * 1000.0 / 180.0
MAX_LOCAL_RANGE_M = 10_000.0  # beyond this the flat-plane model degrades
# clip_scene's candidate boxes may sit this much farther than the radius:
# it covers rounding in the per-edge distance, not any geometry
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


def normalize_angle(theta_deg: float) -> float:
    """Normalize a heading into [0, 360). Idempotent."""
    return theta_deg % 360.0


def angle_to_pixel(theta_deg: float, meta: PanoramaMeta,
                   flip_heading: bool = False) -> float:
    """Pixel column looking along heading ``theta_deg``. Fractional."""
    span = theta_deg / 360.0 * meta.width
    px = meta.north_px - span if flip_heading else meta.north_px + span
    return px % meta.width


def pixel_to_angle(x: float, meta: PanoramaMeta,
                   flip_heading: bool = False) -> float:
    """Heading seen by pixel column ``x``. Inverse of angle_to_pixel."""
    turns = (x - meta.north_px) / meta.width
    if flip_heading:
        turns = -turns
    return (turns * 360.0) % 360.0


# ---------------------------------------------------------------------------
# Scene clipping
# ---------------------------------------------------------------------------

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
    """Per-segment numpy views used by the sweep kernels.

    ``rank`` is the segment's building rank under lexicographic id
    order; distance ties between buildings break toward the smaller
    rank for determinism.
    """

    ax: np.ndarray
    ay: np.ndarray
    ex: np.ndarray  # b - a
    ey: np.ndarray
    nx: np.ndarray  # unit normal of the supporting line
    ny: np.ndarray
    a_dot_n: np.ndarray  # (a - origin) . n, origin is (0, 0)
    len2: np.ndarray
    rank: np.ndarray
    rank_to_bidx: np.ndarray


@dataclass
class LocalScene:
    """All wall segments within reach of one camera, in its local plane.

    Immutable after construction; safe to share read-only across
    workers. ``degenerate`` marks a camera strictly inside a footprint;
    the sweep refuses such scenes.
    """

    pano_id: str
    origin: tuple  # (lat, lon) of the camera
    radius_m: float
    segments: list
    buildings: tuple  # (building_id, category) per building index
    degenerate: bool = False
    containing_building: str | None = None

    @cached_property
    def arrays(self) -> SceneArrays:
        n = len(self.segments)
        ax = np.fromiter((s.ax for s in self.segments), float, n)
        ay = np.fromiter((s.ay for s in self.segments), float, n)
        bx = np.fromiter((s.bx for s in self.segments), float, n)
        by = np.fromiter((s.by for s in self.segments), float, n)
        ex, ey = bx - ax, by - ay
        length = np.hypot(ex, ey)
        nx, ny = ey / length, -ex / length
        id_of = {bid: i for i, (bid, _) in enumerate(self.buildings)}
        bidx = np.fromiter((id_of[s.building_id] for s in self.segments),
                           np.int64, n)
        order = sorted(range(len(self.buildings)),
                       key=lambda i: self.buildings[i][0])
        rank_of = np.empty(max(len(self.buildings), 1), np.int64)
        for r, i in enumerate(order):
            rank_of[i] = r
        return SceneArrays(
            ax=ax, ay=ay, ex=ex, ey=ey, nx=nx, ny=ny,
            a_dot_n=ax * nx + ay * ny, len2=length * length,
            rank=rank_of[bidx] if n else np.empty(0, np.int64),
            rank_to_bidx=np.asarray(order, np.int64))


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


class FootprintIndex:
    """Lat/lon bounding boxes of a footprint collection, for clip_scene.

    Built once per run from any iterable of footprints; holds each outer
    ring's box as flat arrays so that one vectorised mask per camera
    picks the few footprints that can reach it. Never modified after
    construction, so workers may share it.
    """

    def __init__(self, footprints):
        self.footprints = tuple(footprints)
        lats = [[p[0] for p in fp.ring[:-1]] for fp in self.footprints]
        lons = [[p[1] for p in fp.ring[:-1]] for fp in self.footprints]
        self.lat_lo = np.array([min(v) for v in lats], float)
        self.lat_hi = np.array([max(v) for v in lats], float)
        self.lon_lo = np.array([min(v) for v in lons], float)
        self.lon_hi = np.array([max(v) for v in lons], float)

    def __len__(self) -> int:
        return len(self.footprints)

    def candidates(self, meta: PanoramaMeta, radius_m: float) -> list:
        """Footprints that may come within ``radius_m`` of the camera or
        hold it, in their original order.

        The camera's projection is monotone in lat and in lon, so a
        ring's vertices land inside the projection of its box, and its
        edges with them. A box farther than ``radius_m`` (plus a rounding
        slack) therefore holds a ring beyond the radius that cannot
        contain the camera. Longitude differences wrap as in
        :func:`_wrap_lon`, which is monotone only between its +-180
        degree breaks: a box whose two edges fall on different sides of
        a break, such as a ring straddling the antimeridian seen from
        near it, is always kept.
        """
        cos_lat = math.cos(math.radians(meta.lat))
        dlo = self.lon_lo - meta.lon
        dhi = self.lon_hi - meta.lon
        broken = (((dlo < -180.0) != (dhi < -180.0))
                  | ((dlo > 180.0) != (dhi > 180.0)))
        gx = np.maximum(_wrap_lons(dlo) * cos_lat * METERS_PER_DEGREE,
                        -_wrap_lons(dhi) * cos_lat * METERS_PER_DEGREE)
        gy = np.maximum((self.lat_lo - meta.lat) * METERS_PER_DEGREE,
                        (meta.lat - self.lat_hi) * METERS_PER_DEGREE)
        gap = np.hypot(np.maximum(gx, 0.0), np.maximum(gy, 0.0))
        keep = broken | (gap <= radius_m + CLIP_SLACK_M)
        return [self.footprints[i] for i in np.flatnonzero(keep)]


def _wrap_lons(dlon: np.ndarray) -> np.ndarray:
    """:func:`_wrap_lon` over an array."""
    return np.where(dlon > 180.0, dlon - 360.0,
                    np.where(dlon < -180.0, dlon + 360.0, dlon))


def clip_scene(index: FootprintIndex, meta: PanoramaMeta,
               radius_m: float) -> LocalScene:
    """Build the local wall-segment scene for one camera.

    A footprint contributes all its edges when its outer ring comes
    within ``radius_m`` of the camera (intersects or lies inside the
    disc). Only the index's candidates are projected; the rest lie
    beyond the radius. Footprints with any vertex beyond the flat-plane
    range are too far to matter and are skipped. A camera strictly
    inside a ring marks the scene degenerate.
    """
    if radius_m <= 0:
        raise ValueError("radius_m must be positive")
    origin = (meta.lat, meta.lon)
    cos_lat = math.cos(math.radians(meta.lat))
    segments = []
    buildings = []
    seen = set()
    degenerate = False
    containing = None
    for fp in index.candidates(meta, radius_m):
        xs, ys, ok = [], [], True
        for (lat, lon) in fp.ring[:-1]:
            x, y = _local_xy(lat, lon, meta.lat, meta.lon, cos_lat)
            if math.hypot(x, y) > MAX_LOCAL_RANGE_M:
                ok = False
                break
            xs.append(x)
            ys.append(y)
        if not ok:
            continue
        dmin = _ring_min_distance(xs, ys)
        if dmin > 1e-9 and _point_in_ring(0.0, 0.0, xs, ys):
            degenerate = True
            if containing is None:
                containing = fp.building_id
            continue
        if dmin > radius_m:
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
