"""Per-panorama visibility: ray sweep over wall segments and intervals.

The camera shoots one ray per grid heading (default step 1 degree, so
360 rays). Each ray keeps the nearest wall within the scene radius. The
distance to a wall's supporting line comes from projecting onto the
wall's unit normal:

    d = ((a - o) . n_hat) / (s_hat . n_hat)

with ``o`` the camera, ``a`` a point on the line, ``s_hat`` the ray
direction, and ``n_hat`` the unit normal; the hit point is then checked
to lie within the segment. Rays parallel to a wall never hit it.

A back face (see ``projection.clip_group``) gets no rays, as one of its
ring's front faces is met no farther away. Every other wall is tested
only against the rays inside the short arc between its two endpoint
headings, widened by one grid ray on each side; a wall that passes
within rounding reach of the camera (an arc near 180 degrees, or a wall
through the camera) gets every ray. On a street at 0.1 degrees that is
about 2.5 % of the rays x walls product (5 % with the back faces). The
(ray, wall) pairs are evaluated in blocks of at most ``_PAIR_BLOCK``,
which bounds memory, with the same per-pair arithmetic and the same tie
rule as a dense sweep, so the result is bit-identical to testing every
ray against every wall.

Consecutive grid samples hitting the same building merge into runs,
visibility intervals, which are finally mapped onto the panorama's pixel
axis by :func:`projection.heading_px`, the one home of the heading
conventions.

The kernels work on a group of cameras at once: ray ``k`` of the group's
camera ``c`` is ray ``c * n + k`` of one sweep, runs are cut at camera
boundaries and merged across each camera's seam. ``matcher.trace_run``
traces a run's cameras that way, group by group, into one
:class:`IntervalTable`, one array per interval field, which annotation
matches and ``cocoio.write_trace`` writes as it is.
:func:`trace_sweep`, :func:`intervals_from_sweep` and
:func:`intervals_to_pixel` are one-camera views of the same kernels
(:func:`nearest_walls`, :func:`run_table`, :func:`projection.pixel_span`)
on a :class:`LocalScene`; they, and ``cocoio.read_trace``, are where
:class:`VisibilityInterval` rows are built.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .config import rays_per_turn
from .errors import DegenerateSceneError
from .ingest import PanoramaMeta
from .projection import LocalScene, SceneArrays, pixel_span

PARALLEL_EPS = 1e-12  # |s_hat . n_hat| below this counts as parallel
TIE_EPS_M = 1e-9      # distance ties within this window break by building id
# candidate (ray, segment) pairs evaluated at once, which bounds the
# sweep's per-block arrays to about 1 MB; a full group (matcher.GROUP_RAYS
# rays, about 1.2 pairs each with back faces given none) takes about five
# blocks. Blocks twice this size swept full groups 20 % slower and used
# 1.2 MB more, measured when a ray had about 2.5 pairs.
_PAIR_BLOCK = 1 << 13
# A computed hit lies within about 10 * 2**-52 * (far-end distance + radius)
# of its segment; this relative reach is over 400 times that.
_ROUNDING_REACH = 1e-12


@dataclass
class RaySweep:
    """All grid samples of one panorama, plus the building lookup table.

    ``building_idx[i]`` is -1 for a miss, else an index into
    ``buildings``; ``distances[i]`` is inf on miss.
    """

    thetas: np.ndarray
    building_idx: np.ndarray
    distances: np.ndarray
    buildings: tuple  # (building_id, category) per index

    def __len__(self):
        return len(self.thetas)


@dataclass(frozen=True)
class VisibilityInterval:
    """A maximal run of headings over which one building is nearest.

    ``angle_lo``/``angle_hi`` are the first and last hit grid angles of
    the run on the wrapped circle (``angle_hi < angle_lo`` means the run
    crosses 0 degrees). Pixel fields are populated by
    :func:`intervals_to_pixel`, or read from a trace file
    (``cocoio.read_trace``); ``px_hi < px_lo`` likewise means the pixel
    span crosses the image seam.
    """

    building_id: str
    category: int
    angle_lo: float
    angle_hi: float
    min_distance: float
    px_lo: float | None = None
    px_hi: float | None = None

    @property
    def width_deg(self) -> float:
        return (self.angle_hi - self.angle_lo) % 360.0


@dataclass(frozen=True, eq=False)
class IntervalTable:
    """The pixel-space visibility intervals of a run's cameras, one array
    per field.

    Camera ``c``'s intervals are rows ``offsets[c]`` to ``offsets[c + 1]
    - 1``, in angle order. Per row, ``rank`` is the building's rank in
    id order (which breaks ties) and ``owner`` the index, in the run's
    footprint set, of the footprint that names the building and its
    category (:meth:`ClipGroup.owner_fp`;
    :func:`projection.footprint_names` gives the names); the other
    columns are the :class:`VisibilityInterval` fields. ``containing``
    gives, per camera, the id of the footprint strictly holding it, or
    None; a held camera is not swept and has no rows.
    """

    containing: list
    offsets: np.ndarray
    rank: np.ndarray
    owner: np.ndarray
    angle_lo: np.ndarray
    angle_hi: np.ndarray
    min_distance: np.ndarray
    px_lo: np.ndarray
    px_hi: np.ndarray


def _ray_runs(arr, radius_m: float, n: int):
    """Candidate rays of each front-face segment on the grid of ``n``
    headings; a back face (``arr.front`` False) gets none.

    A segment not through the camera is seen over the short arc between
    its endpoint headings, so no ray outside that arc can meet it with
    ``t > 0`` and ``0 <= s <= 1``. The rays inside the arc are widened
    by one grid ray on each side: a computed hit lies within rounding
    reach of the segment, which moves its heading by far less than a
    step while the camera is farther than ``reach / sin(step)`` from the
    segment. A segment nearer the camera than that gets every ray. This
    covers every arc near 180 degrees (the camera nearly on the line
    between the endpoints, where rounding may put it on either side and
    the short arc is ill defined), a wall through or ending at the
    camera, and a zero-length segment.

    Returns (seg, first, count): segment ``seg[k]`` is tested against
    rays ``first[k]`` to ``first[k] + count[k] - 1``, all inside
    ``[0, n)``; an arc across the 0-degree seam is split into two runs.
    """
    step = 360.0 / n
    bx, by = arr.ax + arr.ex, arr.ay + arr.ey
    head_a = np.degrees(np.arctan2(arr.ax, arr.ay))
    head_b = np.degrees(np.arctan2(bx, by))
    span = (head_b - head_a) % 360.0
    short = span <= 180.0
    start = np.where(short, head_a, head_b)
    width = np.where(short, span, 360.0 - span)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.clip(-(arr.ax * arr.ex + arr.ay * arr.ey) / arr.len2, 0.0, 1.0)
    near = np.hypot(arr.ax + u * arr.ex, arr.ay + u * arr.ey)
    far = np.maximum(np.hypot(arr.ax, arr.ay), np.hypot(bx, by))
    culled = (near * np.sin(np.radians(step))
              > _ROUNDING_REACH * (far + radius_m))
    first = np.where(culled, np.ceil(start / step) - 1.0, 0.0)
    last = np.floor((start + width) / step) + 1.0
    count = np.where(culled, np.minimum(last - first + 1.0, n), n)
    seg = np.flatnonzero(arr.front)  # back faces get no rays
    first = first[seg].astype(np.int64) % n
    count = count[seg].astype(np.int64)
    head = np.minimum(count, n - first)
    seam = np.flatnonzero(count > head)
    return (np.concatenate((seg, seg[seam])),
            np.concatenate((first, np.zeros(len(seam), np.int64))),
            np.concatenate((head, count[seam] - head[seam])))


class SweepGrid(NamedTuple):
    """The sweep's grid headings, and their unit directions repeated once
    per camera of a group."""

    thetas: np.ndarray
    dirs_x: np.ndarray
    dirs_y: np.ndarray


def sweep_grid(step_deg: float, cameras: int = 1) -> SweepGrid:
    """Headings ``k * step_deg`` for ``k < 360 / step_deg``, and the
    direction table for ``cameras`` cameras."""
    n = rays_per_turn(step_deg)
    if not n:
        raise ValueError(f"step_deg {step_deg} does not divide 360")
    thetas = np.arange(n, dtype=float) * step_deg
    rad = np.radians(thetas)
    return SweepGrid(thetas, np.tile(np.sin(rad), cameras),
                     np.tile(np.cos(rad), cameras))


def _pair_hits(grid: SweepGrid, ray, walls, radius_m: float):
    """(hit, t): the pairs ``(ray[i], walls[:, i])`` that hit their wall,
    and the distance of each. The block's temporaries, about 1 MB, are
    freed on return, before its hits are kept."""
    dx, dy = grid.dirs_x[ray], grid.dirs_y[ray]
    nx, ny, a_dot_n, ax, ay, ex, ey, len2 = walls
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = dx * nx + dy * ny
        t = a_dot_n / denom
        s = ((t * dx - ax) * ex + (t * dy - ay) * ey) / len2
    ok = np.abs(denom) >= PARALLEL_EPS
    ok &= t > 0.0
    ok &= t <= radius_m
    ok &= s >= 0.0
    ok &= s <= 1.0
    hit = np.flatnonzero(ok)
    return hit, t[hit]


def nearest_walls(arr: SceneArrays, grid: SweepGrid, cameras: int,
                  radius_m: float):
    """Nearest-wall query at each grid heading of each camera of a group.

    ``arr`` holds the walls of ``cameras`` cameras, and ``grid`` their
    direction table; ray ``k`` of camera ``c`` is ray ``c * n + k``. Each
    front face is tested only against its camera's rays in its angular
    span, and a back face against none (see :func:`_ray_runs`). The (ray,
    segment) candidate pairs are laid out flat and evaluated in blocks of
    at most ``_PAIR_BLOCK`` pairs, so memory stays bounded whatever the
    step, group and segment count.
    Each pair runs the same elementwise ``denom``, ``t``, parallel,
    ``t > 0``, radius and ``s`` expressions as a dense rays x segments
    sweep, and each block keeps only the hits that may still tie. The
    kept hits are joined and filtered one column at a time, so each is
    held once.

    Returns (rank, distances) per ray, with -1/inf on miss. The tie rule
    is unchanged: every hit within TIE_EPS_M of the nearest is tied, the
    tie goes to the smallest building rank (the lexicographically
    smallest id), and the distance is the nearest tied hit of that
    building. Only minima are taken, so the result does not depend on
    the order pairs are visited.
    """
    n = len(grid.thetas)
    size = n * cameras
    seg, first, count = _ray_runs(arr, radius_m, n)
    if len(seg) == 0:
        return np.full(size, -1, np.int64), np.full(size, np.inf)
    first = first + arr.cam[seg] * n
    walls = np.stack((arr.nx, arr.ny, arr.a_dot_n, arr.ax, arr.ay, arr.ex,
                      arr.ey, arr.len2))[:, seg]
    rank = arr.rank[seg]
    ends = np.cumsum(count)
    starts = ends - count
    total = int(ends[-1])
    dmin = np.full(size, np.inf)
    rays, ts, ranks = [], [], []  # per block: the hits that may still tie
    for p0 in range(0, total, _PAIR_BLOCK):
        p1 = min(p0 + _PAIR_BLOCK, total)
        j0 = int(np.searchsorted(ends, p0, side="right"))
        j1 = int(np.searchsorted(starts, p1, side="left"))
        c = np.minimum(ends[j0:j1], p1) - np.maximum(starts[j0:j1], p0)
        # np.repeat: an ingest.ranges gather slowed annotate 9.7 % on 2 vCPU
        ray = (np.repeat(first[j0:j1] - starts[j0:j1], c)
               + np.arange(p0, p1))
        hit, t = _pair_hits(grid, ray, np.repeat(walls[:, j0:j1], c, axis=1),
                            radius_m)
        ray = ray[hit]
        np.minimum.at(dmin, ray, t)
        # dmin only falls: drop hits that can no longer tie
        keep = np.flatnonzero(t <= dmin[ray] + TIE_EPS_M)
        rays.append(ray[keep])
        ts.append(t[keep])
        ranks.append(np.repeat(rank[j0:j1], c)[hit[keep]])
    del walls
    t = np.concatenate(ts)
    del ts
    ray = np.concatenate(rays)
    del rays
    tie = t <= dmin[ray] + TIE_EPS_M
    t = t[tie]
    ray = ray[tie]
    rank = np.concatenate(ranks)[tie]
    del ranks
    top = np.full(size, np.iinfo(np.int64).max)
    np.minimum.at(top, ray, rank)
    won = np.flatnonzero(rank == top[ray])
    dist = np.full(size, np.inf)
    np.minimum.at(dist, ray[won], t[won])
    top[np.isinf(dmin)] = -1
    return top, dist


def trace_sweep(scene: LocalScene, step_deg: float = 1.0) -> RaySweep:
    """Sweep the full circle at ``step_deg`` and keep nearest hits.

    ``step_deg`` must divide 360 so the grid tiles the circle exactly.
    Refuses degenerate scenes (camera inside a building).
    """
    if scene.degenerate:
        raise DegenerateSceneError(
            f"camera of {scene.pano_id} is inside footprint "
            f"{scene.containing_building}")
    grid = sweep_grid(step_deg)
    rank, dist = nearest_walls(scene.arrays, grid, 1, scene.radius_m)
    bidx = np.full(len(rank), -1, np.int64)
    hit = rank >= 0
    bidx[hit] = scene.rank_to_bidx[rank[hit]]
    return RaySweep(thetas=grid.thetas, building_idx=bidx, distances=dist,
                    buildings=scene.buildings)


def run_table(owner: np.ndarray, distances: np.ndarray, n: int):
    """Maximal runs of equal ``owner >= 0`` within each camera's samples.

    ``owner`` and ``distances`` hold ``n`` samples per camera, camera
    after camera. Runs are cut at camera boundaries, and a camera's
    first and last runs merge across its 0-degree seam when they have
    the same owner. Returns (start, end, owner, min_distance) arrays in
    sample order; a merged run keeps its later part's start and its
    first part's end, so its ``end < start``.
    """
    total = len(owner)
    empty = np.zeros(0, np.int64)
    if total == 0:
        return empty, empty, empty, np.zeros(0)
    cuts = np.union1d(np.flatnonzero(np.diff(owner)) + 1,
                      np.arange(n, total, n))
    start = np.concatenate(([0], cuts))
    end = np.concatenate((cuts - 1, [total - 1]))
    low = np.minimum.reduceat(distances, start)
    own = owner[start]
    hit = np.flatnonzero(own >= 0)
    start, end, own, low = start[hit], end[hit], own[hit], low[hit]
    if len(start) == 0:
        return start, end, own, low
    cam = start // n
    head = np.flatnonzero(np.diff(cam, prepend=-1))  # each camera's first
    tail = np.append(head[1:], len(start)) - 1  # and last run
    base = cam[head] * n
    wrap = ((head < tail) & (start[head] == base)
            & (end[tail] == base + n - 1) & (own[head] == own[tail]))
    head, tail = head[wrap], tail[wrap]
    end[tail] = end[head]
    low[tail] = np.minimum(low[tail], low[head])
    keep = np.ones(len(start), bool)
    keep[head] = False
    return start[keep], end[keep], own[keep], low[keep]


def intervals_from_sweep(sweep: RaySweep) -> list:
    """Merge consecutive same-building samples into visibility intervals.

    A building split by an occluder yields several intervals. Endpoints
    are the first and last hit grid angles of each run, not half-step
    extensions. Intervals come in ascending ``angle_lo``, the sample
    order :func:`run_table` returns them in.
    """
    start, end, own, low = run_table(sweep.building_idx, sweep.distances,
                                     len(sweep))
    return [VisibilityInterval(bid, cat, a, b, d)
            for (bid, cat), a, b, d in zip(
                [sweep.buildings[b] for b in own.tolist()],
                sweep.thetas[start].tolist(), sweep.thetas[end].tolist(),
                low.tolist())]


def intervals_to_pixel(intervals, meta: PanoramaMeta,
                       flip_heading: bool = False) -> list:
    """Populate pixel spans (:func:`projection.pixel_span`); the span
    always runs in increasing pixel x."""
    out = []
    for iv in intervals:
        a, b = pixel_span(iv.angle_lo, iv.angle_hi, meta.north_px,
                          meta.width, flip_heading)
        out.append(replace(iv, px_lo=float(a), px_hi=float(b)))
    return out
