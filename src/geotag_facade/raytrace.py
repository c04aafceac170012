"""Per-panorama visibility: ray sweep over wall segments and intervals.

The camera shoots one ray per grid heading (default step 1 degree, so
360 rays). Each ray keeps the nearest wall within the scene radius. The
distance to a wall's supporting line comes from projecting onto the
wall's unit normal:

    d = ((a - o) . n_hat) / (s_hat . n_hat)

with ``o`` the camera, ``a`` a point on the line, ``s_hat`` the ray
direction, and ``n_hat`` the unit normal; the hit point is then checked
to lie within the segment. Rays parallel to a wall never hit it.

Consecutive grid samples hitting the same building merge into
:class:`VisibilityInterval` runs, which are finally mapped onto the
panorama's pixel axis.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import rays_per_turn
from .errors import DegenerateSceneError
from .ingest import PanoramaMeta
from .projection import LocalScene, angle_to_pixel

PARALLEL_EPS = 1e-12  # |s_hat . n_hat| below this counts as parallel
TIE_EPS_M = 1e-9      # distance ties within this window break by building id
_ANGLE_CHUNK = 4096


@dataclass
class RaySweep:
    """All grid samples of one panorama, plus the building lookup table.

    ``building_idx[i]`` is -1 for a miss, else an index into
    ``buildings``; ``distances[i]`` is inf on miss.
    """

    step_deg: float
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
    :func:`intervals_to_pixel`; ``px_hi < px_lo`` likewise means the
    pixel span crosses the image seam.
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

    def to_dict(self) -> dict:
        return {
            "building_id": self.building_id,
            "category": self.category,
            "angle_lo": self.angle_lo,
            "angle_hi": self.angle_hi,
            "px_lo": self.px_lo,
            "px_hi": self.px_hi,
            "min_distance": self.min_distance,
        }


def _nearest_hits(scene: LocalScene, thetas: np.ndarray):
    """Vectorized nearest-wall query at each heading of ``thetas``.

    Returns (building_idx, distances) with -1/inf on miss. Ties inside
    TIE_EPS_M go to the lexicographically smallest building id.
    """
    n = len(thetas)
    bidx = np.full(n, -1, np.int64)
    dist = np.full(n, np.inf)
    arr = scene.arrays
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


def trace_sweep(scene: LocalScene, step_deg: float = 1.0) -> RaySweep:
    """Sweep the full circle at ``step_deg`` and keep nearest hits.

    ``step_deg`` must divide 360 so the grid tiles the circle exactly.
    Refuses degenerate scenes (camera inside a building).
    """
    if scene.degenerate:
        raise DegenerateSceneError(
            f"camera of {scene.pano_id} is inside footprint "
            f"{scene.containing_building}")
    n = rays_per_turn(step_deg)
    if not n:
        raise ValueError(f"step_deg {step_deg} does not divide 360")
    thetas = np.arange(n, dtype=float) * step_deg
    bidx, dist = _nearest_hits(scene, thetas)
    return RaySweep(step_deg=step_deg, thetas=thetas, building_idx=bidx,
                    distances=dist, buildings=scene.buildings)


def _runs(building_idx: np.ndarray):
    """Maximal runs of equal hit index, merged across the 0-degree seam."""
    n = len(building_idx)
    if n == 0:
        return []
    cuts = np.flatnonzero(np.diff(building_idx)) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts - 1, [n - 1]))
    owners = building_idx[starts]
    hit = owners >= 0
    runs = [[int(i), int(j), int(b)]
            for i, j, b in zip(starts[hit], ends[hit], owners[hit])]
    if (len(runs) >= 2 and runs[0][0] == 0 and runs[-1][1] == n - 1
            and runs[0][2] == runs[-1][2]):
        first = runs.pop(0)
        runs[-1][1] = first[1]  # wrapped run: start stays, end crosses seam
    return runs


def intervals_from_sweep(sweep: RaySweep) -> list:
    """Merge consecutive same-building samples into visibility intervals.

    A building split by an occluder yields several intervals. Endpoints
    are the first and last hit grid angles of each run, not half-step
    extensions.
    """
    n = len(sweep)
    out = []
    for start, end, b in _runs(sweep.building_idx):
        if end >= start:
            idx = np.arange(start, end + 1)
        else:  # run wraps past the last sample
            idx = np.concatenate([np.arange(start, n), np.arange(0, end + 1)])
        bid, cat = sweep.buildings[b]
        out.append(VisibilityInterval(
            building_id=bid, category=cat,
            angle_lo=float(sweep.thetas[start]),
            angle_hi=float(sweep.thetas[end]),
            min_distance=float(sweep.distances[idx].min())))
    out.sort(key=lambda iv: (iv.angle_lo, iv.building_id))
    return out


def intervals_to_pixel(intervals, meta: PanoramaMeta,
                       flip_heading: bool = False) -> list:
    """Populate pixel spans; the span always runs in increasing pixel x."""
    out = []
    for iv in intervals:
        a = float(angle_to_pixel(iv.angle_lo, meta, flip_heading))
        b = float(angle_to_pixel(iv.angle_hi, meta, flip_heading))
        if flip_heading:
            a, b = b, a
        out.append(replace(iv, px_lo=a, px_hi=b))
    return out
