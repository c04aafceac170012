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
ring's front faces is met no farther away. Every other wall is a
candidate only for the rays inside the short arc between its two
endpoint headings, widened by one grid ray on each side; a wall that
passes within rounding reach of the camera (an arc near 180 degrees, or
a wall through the camera) is a candidate for every ray. On a street at
0.1 degrees that is about 2.5 % of the rays x walls product (5 % with
the back faces).

:func:`nearest_walls` is the one per-ray test: it evaluates (ray, wall)
candidate pairs in blocks of at most ``_PAIR_BLOCK``, which bounds
memory, with the same per-pair arithmetic and the same tie rule as a
dense sweep, so its result is bit-identical to testing every ray
against every wall. :func:`trace_sweep` runs it on every ray of one
camera, and the tests hold every other path to it.

A group's sweep (:func:`sweep_pieces`) need not test every ray. It cuts
each camera's circle into stretches, runs of rays that one set of front
faces covers: the cuts are each candidate run's ends and the rays next
to them, the two rays either side of each point where a face crosses
the radius circle, and each camera's first ray. Only the two end rays
of a stretch go through :func:`nearest_walls`. The rays between are
filled without a pair test when every covering line lies beyond the
radius at both ends (a miss), or when one face W is the nearest hit at
both ends and every other covering face V lies beyond the radius at
both ends or stays more than ``_GAP_M`` behind W there, scaled as
``(t_V - t_W) * |denom_V| * |denom_W|``. That scaled gap is ``d_V *
cos_W - d_W * cos_V``, a sinusoid in the heading. The stretch lies
inside W's span, as W's run ends are cuts, and so spans under 180
degrees; on such an arc the sinusoid cannot reach zero inside once it
has the same sign at both ends, and its least value is at an end. So W
owns every ray between, and its least distance, at the ends or beside
its perpendicular foot, is the same distance expression evaluated
there. Any other stretch sends its inner rays to :func:`nearest_walls`,
a slice of at most ``_FALLBACK_RAYS`` rays at a time, laid out as its
pair blocks are (:func:`_blocks`); each slice's rays are joined into
pieces before the next slice is tested. So the sweep's per-ray arrays
stay within a few MB whatever a group's cameras and step, even when
every camera stands on a wall and no stretch is filled. On a street at
0.1 degrees the end rays take about 5 % of the candidate pairs; on a
city at 1 degree, where a front face averages about 22 candidate rays,
the stretch sweep costs about what testing every ray does.

Consecutive grid samples, or pieces of them, owned by the same building
merge into runs (:func:`run_table`), visibility intervals, which are
finally mapped onto the panorama's pixel axis by
:func:`projection.heading_px`, the one home of the heading conventions.

The kernels work on a group of cameras at once. Ray ``k`` of the
group's camera ``c`` is group ray ``c * n + k``, numbered once, by
:func:`_ray_runs`; the grid (:class:`SweepGrid`) holds one turn of
headings, and every kernel reads group ray ``r``'s direction at ``r %
n``; :func:`sweep_grid` is the one heading grid, for ``trace_run``,
:func:`trace_sweep` and the ``synth`` oracle. Runs are cut at camera
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
from .ingest import PanoramaMeta, ranges
from .projection import LocalScene, SceneArrays, pixel_span

PARALLEL_EPS = 1e-12  # |s_hat . n_hat| below this counts as parallel
TIE_EPS_M = 1e-9      # distance ties within this window break by building id
# candidate (ray, segment) pairs evaluated at once, which bounds the
# sweep's per-block arrays to about 1 MB; a city group's stretch ends at
# 1 degree (about 13,000 pairs) take two blocks, and a street group's at
# 0.1 degrees (about 1,700) one. Blocks twice this size swept full groups
# 20 % slower and used 1.2 MB more, measured when every ray of a group
# was tested, at about 2.5 pairs a ray.
_PAIR_BLOCK = 1 << 13
# fallback rays tested at once (sweep_pieces), which bounds a group's
# per-ray arrays whatever its cameras and step: 96 cameras each on a
# wall, where no stretch is filled, trace at 0.05 degrees with a
# tracemalloc peak of about 4.4 MB, against 58 MB in one slice
_FALLBACK_RAYS = 1 << 15
# A computed hit lies within about 10 * 2**-52 * (far-end distance + radius)
# of its segment; this relative reach is over 400 times that.
_ROUNDING_REACH = 1e-12
# A filled stretch's other faces stay this far (scaled, m) behind its
# nearest one, far above TIE_EPS_M and any rounding of the distances.
_GAP_M = 1e-6


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
    group rays ``first[k]`` to ``first[k] + count[k] - 1``, all of its
    own camera's: ray ``k`` of the group's camera ``c`` is group ray
    ``c * n + k``, numbered here once for every kernel. An arc across
    the 0-degree seam is split into two runs.
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
    seg = np.concatenate((seg, seg[seam]))
    first = np.concatenate((first, np.zeros(len(seam), np.int64)))
    return (seg, first + arr.cam[seg] * n,
            np.concatenate((head, count[seam] - head[seam])))


def _rays_beside(x, y, base, n: int):
    """The two grid rays either side of the heading of each point ``(x,
    y)``, the one at or before it and the next, as group rays of the
    camera whose first ray is ``base``."""
    k = np.floor(np.degrees(np.arctan2(x, y)) % 360.0 / (360.0 / n)
                 ).astype(np.int64)
    return base + k % n, base + (k + 1) % n


class SweepGrid(NamedTuple):
    """The sweep's grid headings over one turn, and their unit
    directions. Every camera of a group shares them: group ray ``r``
    points along heading ``r % n`` (:meth:`dirs`)."""

    thetas: np.ndarray
    dirs_x: np.ndarray
    dirs_y: np.ndarray

    def dirs(self, ray):
        """The unit directions (x, y) of group rays ``ray``."""
        k = ray % len(self.thetas)
        return self.dirs_x[k], self.dirs_y[k]


def sweep_grid(step_deg: float) -> SweepGrid:
    """Headings ``k * step_deg`` for ``k < 360 / step_deg``, and their
    unit directions."""
    n = rays_per_turn(step_deg)
    if not n:
        raise ValueError(f"step_deg {step_deg} does not divide 360")
    thetas = np.arange(n, dtype=float) * step_deg
    rad = np.radians(thetas)
    return SweepGrid(thetas, np.sin(rad), np.cos(rad))


def _distance(dx, dy, nx, ny, a_dot_n):
    """(denom, t): the cosine of rays of directions ``(dx, dy)`` with a
    wall's unit normal, and their distance to the wall's line, the
    sweep's one distance expression."""
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = dx * nx + dy * ny
        return denom, a_dot_n / denom


def _pair_hits(dirs, ray, walls, radius_m: float):
    """(hit, t): the pairs ``(ray[i], walls[:, i])`` that hit their wall,
    and the distance of each, ray ``r`` having direction ``(dirs[0][r],
    dirs[1][r])``. The block's temporaries, about 1 MB, are freed on
    return, before its hits are kept."""
    nx, ny, a_dot_n, ax, ay, ex, ey, len2 = walls
    dx, dy = dirs[0][ray], dirs[1][ray]
    denom, t = _distance(dx, dy, nx, ny, a_dot_n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = ((t * dx - ax) * ex + (t * dy - ay) * ey) / len2
    ok = np.abs(denom) >= PARALLEL_EPS
    ok &= t > 0.0
    ok &= t <= radius_m
    ok &= s >= 0.0
    ok &= s <= 1.0
    hit = np.flatnonzero(ok)
    return hit, t[hit]


def _blocks(first, count, size: int):
    """Runs of items laid out flat and cut into blocks of at most
    ``size`` items, run ``j`` holding items ``first[j]`` to ``first[j] +
    count[j] - 1``. Yields (j0, j1, c, item) per block: runs ``j0`` to
    ``j1 - 1`` reach into it with ``c`` items each, and ``item`` holds
    the block's items in run order. No array longer than a block is
    built."""
    ends = np.cumsum(count)
    starts = ends - count
    total = int(ends[-1]) if len(ends) else 0
    for p0 in range(0, total, size):
        p1 = min(p0 + size, total)
        j0 = int(np.searchsorted(ends, p0, side="right"))
        j1 = int(np.searchsorted(starts, p1, side="left"))
        c = np.minimum(ends[j0:j1], p1) - np.maximum(starts[j0:j1], p0)
        # np.repeat: an ingest.ranges gather slowed annotate 9.7 % on 2 vCPU
        yield j0, j1, c, (np.repeat(first[j0:j1] - starts[j0:j1], c)
                          + np.arange(p0, p1))


def nearest_walls(arr: SceneArrays, grid: SweepGrid, radius_m: float,
                  runs, rays):
    """Nearest-wall query at group rays ``rays`` (sorted) of a group of
    cameras: the sweep's one per-ray test.

    ``arr`` holds the walls of the group's cameras, and ``runs``
    (:func:`_ray_runs`) the group rays each front face is tested
    against, those of its own camera in its angular span; a back face
    is tested against none. Only the runs' rays in ``rays`` are tested.
    The (ray, segment) candidate pairs are laid out flat and evaluated
    in blocks of at most ``_PAIR_BLOCK`` pairs (:func:`_blocks`), so
    memory stays bounded whatever the step, group and segment count.
    Each pair runs the same elementwise ``denom``, ``t``, parallel,
    ``t > 0``, radius and ``s`` expressions as a dense rays x segments
    sweep, and each block keeps only the hits that may still tie. The
    kept hits are joined and filtered one column at a time, so each is
    held once.

    Returns (rank, distances) per ray of ``rays``, with -1/inf on miss.
    The tie rule is unchanged: every hit within TIE_EPS_M of the nearest
    is tied, the tie goes to the smallest building rank (the
    lexicographically smallest id), and the distance is the nearest tied
    hit of that building. Only minima are taken, so the result does not
    depend on the order pairs are visited.
    """
    seg, first, count = runs
    at = np.searchsorted(rays, first)  # each run's rays' places in ``rays``
    first, count = at, np.searchsorted(rays, first + count) - at
    dirs = grid.dirs(rays)
    size = len(rays)
    if not count.any():
        return np.full(size, -1, np.int64), np.full(size, np.inf)
    walls = np.stack((arr.nx, arr.ny, arr.a_dot_n, arr.ax, arr.ay, arr.ex,
                      arr.ey, arr.len2))[:, seg]
    rank = arr.rank[seg]
    dmin = np.full(size, np.inf)
    rays, ts, ranks = [], [], []  # per block: the hits that may still tie
    for j0, j1, c, ray in _blocks(first, count, _PAIR_BLOCK):
        hit, t = _pair_hits(dirs, ray, np.repeat(walls[:, j0:j1], c, axis=1),
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


def _stretch_cuts(arr, runs, n: int, cameras: int, radius_m: float):
    """The first ray of each stretch of a group, sorted: the group's rays
    cut wherever the set of front faces covering them may change, and
    around every place where that set's hits may change without it.

    The cuts are each candidate run's ends and the rays beside them
    (``first``, ``first + 1``, ``last``, ``last + 1``), so a face's
    stretches inside its span start one grid ray past its endpoint
    headings; the two rays either side of each point where a face
    crosses the radius circle; and each camera's first ray, so that no
    stretch leaves its camera. A stretch with rays between its ends that
    a face covers lies inside that face's span, which is under 180
    degrees; one no face covers is a miss however long it is.
    """
    seg, first, count = runs
    stop = first + count
    face = np.flatnonzero(arr.front)
    ax, ay, ex, ey = (v[face] for v in (arr.ax, arr.ay, arr.ex, arr.ey))
    len2, dist = arr.len2[face], np.abs(arr.a_dot_n[face])
    # where the line meets the circle: the foot of the perpendicular
    # plus or minus half the chord, in units of the wall; a line just
    # beyond the radius counts as tangent, where rounding may let a ray
    # through
    foot = -(ax * ex + ay * ey) / len2
    half = np.sqrt(np.maximum(radius_m * radius_m - dist * dist, 0.0) / len2)
    u = np.concatenate((foot - half, foot + half))
    on = (np.tile(dist <= radius_m * (1.0 + 1e-9), 2)
          & (u >= -1e-6) & (u <= 1.0 + 1e-6))
    k = np.tile(np.arange(len(face)), 2)[on]
    u = u[on]
    cross = _rays_beside(ax[k] + u * ex[k], ay[k] + u * ey[k],
                         arr.cam[face[k]] * n, n)
    cuts = np.sort(np.concatenate((first, first + 1, stop - 1, stop, *cross,
                                   np.arange(cameras) * n)))
    # np.unique's hashing took 12 % of a street's trace
    return cuts[(np.diff(cuts, prepend=-1) != 0) & (cuts < n * cameras)]


def _join(ray, owner, dist):
    """(start, end, owner, low) pieces of the sorted rays ``ray``: each
    piece a run of consecutive rays of one ``owner``, ``low`` the least
    of their ``dist``."""
    cut = np.empty(len(ray), bool)
    cut[0] = True
    np.not_equal(ray[1:], ray[:-1] + 1, out=cut[1:])
    cut[1:] |= owner[1:] != owner[:-1]
    head = np.flatnonzero(cut)
    return (ray[head], ray[np.append(head[1:], len(ray)) - 1], owner[head],
            np.minimum.reduceat(dist, head))


def sweep_pieces(arr: SceneArrays, grid: SweepGrid, cameras: int,
                 radius_m: float):
    """The nearest wall at every ray of a group, as pieces: (start, end,
    owner, low) arrays in ray order, each piece a run of rays ``start``
    to ``end`` of one owner (building rank, -1 on miss) whose least
    distance is ``low``, the pieces tiling the group's rays.

    The group's rays are cut into stretches (:func:`_stretch_cuts`). A
    stretch's two end rays take :func:`nearest_walls`, and the rays
    between them are filled when the ends show what they hold.

    * **Miss fill.** Every covering face's line lies beyond the radius
      at both ends. No radius crossing lies between, so none is hit.
    * **Face fill.** One covering face W is the nearest hit at both
      ends, and every other covering face V either lies beyond the
      radius at both ends or has its line in front of the camera with
      the scaled gap ``(t_V - t_W) * |denom_V| * |denom_W|`` above
      ``_GAP_M`` at both ends. That gap is ``d_V * cos_W - d_W * cos_V``,
      a sinusoid in the heading. The stretch lies inside W's span, so
      it spans under 180 degrees, and on it the gap, positive at both
      ends, is concave and least at an end. So V stays more than
      ``_GAP_M`` beyond W, never tied, and W, hit at both ends of an
      arc inside its span, is hit between them. Its least distance is
      at the rays nearest its perpendicular foot or at an end of the
      run, where the same distance expression is evaluated.

    The cuts keep every radius crossing and every endpoint heading of a
    covering face at least a grid ray from the rays between the ends,
    where rounding cannot move them across. A stretch neither fill takes
    sends its inner rays to :func:`nearest_walls`, and so does every
    stretch of a camera with a full-turn face (:func:`_ray_runs`), whose
    span does not bound where it is hit. These rays go in slices of at
    most ``_FALLBACK_RAYS``, cut across stretches and cameras alike
    (:func:`_blocks`), and each slice's rays are joined into pieces of
    consecutive rays of one owner (:func:`_join`) before the next slice
    is tested, so no per-ray array outgrows a slice. The (rank,
    distance) of every ray, and so every run of :func:`run_table`, which
    joins pieces of one owner and takes their least distance, is bit for
    bit that of :func:`nearest_walls`, wherever the slices are cut.
    """
    n = len(grid.thetas)
    runs = _ray_runs(arr, radius_m, n)
    start = _stretch_cuts(arr, runs, n, cameras, radius_m)
    end = np.append(start[1:], n * cameras) - 1
    ends = np.stack((start, end), axis=1).ravel()  # in order, and
    ends = ends[np.append(True, ends[1:] != ends[:-1])]  # each ray once
    top, dist = nearest_walls(arr, grid, radius_m, runs, ends)
    seg, first, count = runs
    whole = np.zeros(cameras, bool)
    whole[arr.cam[seg[count == n]]] = True
    # the stretches with rays between their ends, and each (candidate
    # run, stretch) pair where the run covers the stretch
    inner = np.flatnonzero((end - start > 1) & ~whole[start // n])
    lo, hi = start[inner], end[inner]
    at = np.searchsorted(lo, first)
    pair, j = ranges(at, np.searchsorted(lo, first + count) - at)
    face = seg[pair]
    nx, ny, a_dot_n = arr.nx[face], arr.ny[face], arr.a_dot_n[face]
    cos_l, t_l = _distance(*grid.dirs(lo[j]), nx, ny, a_dot_n)
    cos_r, t_r = _distance(*grid.dirs(hi[j]), nx, ny, a_dot_n)
    cos_l, cos_r = np.abs(cos_l), np.abs(cos_r)
    at_l, at_r = np.searchsorted(ends, lo)[j], np.searchsorted(ends, hi)[j]
    rank = arr.rank[face]
    won = ((rank == top[at_l]) & (t_l == dist[at_l])
           & (rank == top[at_r]) & (t_r == dist[at_r]))
    m = len(inner)
    w = np.full(m, -1, np.int64)
    tw_l, tw_r, cw_l, cw_r = np.full((4, m), np.nan)
    w[j[won]], tw_l[j[won]], tw_r[j[won]] = face[won], t_l[won], t_r[won]
    cw_l[j[won]], cw_r[j[won]] = cos_l[won], cos_r[won]
    beyond = (t_l > radius_m) & (t_r > radius_m)
    with np.errstate(invalid="ignore"):  # inf - inf, 0 * inf
        clear = ((t_l > 0.0) & (t_r > 0.0)
                 & ((t_l - tw_l[j]) * cos_l * cw_l[j] > _GAP_M)
                 & ((t_r - tw_r[j]) * cos_r * cw_r[j] > _GAP_M))
    miss = np.bincount(j[~beyond], minlength=m) == 0
    fill = ((np.bincount(j[won], minlength=m) == 1)
            & (np.bincount(j[~(beyond | clear | won)], minlength=m) == 0))
    # a filled run's least distance: at its ends or beside W's foot,
    # as the distance falls toward the foot and rises past it
    k = np.flatnonzero(fill)
    wall = w[k]
    f_lo, f_hi = lo[k] + 1, hi[k] - 1
    foot = _rays_beside(arr.a_dot_n[wall] * arr.nx[wall],
                        arr.a_dot_n[wall] * arr.ny[wall], lo[k] - lo[k] % n, n)
    probe = np.clip(np.stack((f_lo, f_hi, *foot)), f_lo, f_hi)
    low = _distance(*grid.dirs(probe), arr.nx[wall], arr.ny[wall],
                    arr.a_dot_n[wall])[1].min(axis=0)
    redo = np.ones(len(start), bool)
    redo[inner[miss | fill]] = False
    redo = np.flatnonzero(redo & (end - start > 1))
    miss = np.flatnonzero(miss)
    pieces = [(ends, ends, top, dist),
              (lo[miss] + 1, hi[miss] - 1, np.full(len(miss), -1, np.int64),
               np.full(len(miss), np.inf)),
              (f_lo, f_hi, arr.rank[wall], low)]
    # the other inner rays take the per-ray test a slice at a time, and
    # each slice is joined into pieces before the next is tested; a
    # stretch's end rays lie between its inner rays and the next's, so
    # no joined piece leaves its stretch, and so its camera
    for *_, ray in _blocks(start[redo] + 1, end[redo] - start[redo] - 1,
                           _FALLBACK_RAYS):
        pieces.append(_join(ray, *nearest_walls(arr, grid, radius_m, runs,
                                                ray)))
    start, end, owner, low = map(np.concatenate, zip(*pieces))
    order = np.argsort(start, kind="stable")
    return start[order], end[order], owner[order], low[order]


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
    arr, ray = scene.arrays, np.arange(len(grid.thetas))
    rank, dist = nearest_walls(arr, grid, scene.radius_m,
                               _ray_runs(arr, scene.radius_m, len(ray)), ray)
    bidx = np.full(len(rank), -1, np.int64)
    hit = rank >= 0
    bidx[hit] = scene.rank_to_bidx[rank[hit]]
    return RaySweep(thetas=grid.thetas, building_idx=bidx, distances=dist,
                    buildings=scene.buildings)


def run_table(start: np.ndarray, end: np.ndarray, owner: np.ndarray,
              low: np.ndarray, n: int):
    """Maximal runs of equal ``owner >= 0`` within each camera's samples.

    The pieces, samples ``start[i]`` to ``end[i]`` of owner ``owner[i]``
    and least distance ``low[i]``, tile ``n`` samples per camera, camera
    after camera, in order; a piece never spans two cameras. A run joins
    consecutive pieces of one owner. Runs are cut at camera boundaries,
    and a camera's first and last runs merge across its 0-degree seam
    when they have the same owner. Returns (start, end, owner,
    min_distance) arrays in sample order; a merged run keeps its later
    part's start and its first part's end, so its ``end < start``.
    """
    if len(start) == 0:
        empty = np.zeros(0, np.int64)
        return empty, empty, empty, np.zeros(0)
    head = np.empty(len(start), bool)
    head[0] = True
    np.not_equal(owner[1:], owner[:-1], out=head[1:])
    head[np.searchsorted(start, np.arange(n, end[-1] + 1, n))] = True
    head = np.flatnonzero(head)  # each run's first piece
    low = np.minimum.reduceat(low, head)
    own = owner[head]
    end = end[np.append(head[1:], len(start)) - 1]
    start = start[head]
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
    ray = np.arange(len(sweep))
    start, end, own, low = run_table(ray, ray, sweep.building_idx,
                                     sweep.distances, len(sweep))
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
