"""Procedural street scenes with exact ground truth.

Scenes are corridors: buildings (axis-aligned rectangles, some with a
chamfered street corner) line both sides of a straight street, cameras
sit on the street. Everything derives from one seed, so a scene is
bit-reproducible.

The visibility oracle here is deliberately a second implementation: it
intersects rays with segments in parametric form (2x2 cross products),
not via the normal-projection distance the sweep engine uses, so the
two derivations cross-validate each other. Oracle intervals are swept
densely (default 0.01 degree) and their endpoints refined by bisection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import rays_per_turn
from .errors import ConfigError
from .ingest import (BuildingFootprint, CategoryMapping, DetectionBox,
                     DetectionSet, FootprintSet, PanoramaMeta)
from .projection import (FootprintIndex, LocalScene, clip_scene,
                         local_to_geodetic)
from .raytrace import (PARALLEL_EPS, TIE_EPS_M, VisibilityInterval,
                       intervals_to_pixel, run_table)

_ORACLE_CHUNK = 4096
BISECTION_TOL_DEG = 1e-4


@dataclass(frozen=True)
class SceneConfig:
    """Knobs of the procedural generator."""

    n_buildings: int = 12
    corridor_width: float = 12.0
    category_count: int = 5
    radius_m: float = 50.0
    n_cameras: int = 4
    image_width: int = 2048
    image_height: int = 1024
    min_facade_deg: float = 5.0  # narrower intervals get no ground-truth box
    category_weights: tuple | None = None
    oracle_resolution_deg: float = 0.01
    with_ground_truth: bool = True

    def __post_init__(self):
        # scene.json and gt.json echo the config, and JSON has no NaN or
        # Infinity
        if not 6.0 <= self.corridor_width < math.inf:
            raise ConfigError("corridor_width must be a finite number of at "
                              f"least 6 m, got {self.corridor_width}")
        if not 0.0 < self.radius_m < math.inf:
            raise ConfigError("radius_m must be a positive finite number, "
                              f"got {self.radius_m}")
        if self.n_buildings < 0 or self.n_cameras < 1:
            raise ConfigError("need n_buildings >= 0 and n_cameras >= 1")
        if self.category_count < 1:
            raise ConfigError("category_count must be >= 1")
        if self.category_weights is not None and \
                len(self.category_weights) != self.category_count:
            raise ConfigError("category_weights length must equal category_count")
        res = self.oracle_resolution_deg
        if not (res > 0 and rays_per_turn(res)):
            raise ConfigError(f"oracle_resolution_deg {res} does not divide "
                              "360")


@dataclass(frozen=True)
class GroundTruthBox:
    pano_id: str
    x: float
    y: float
    w: float
    h: float
    category: int
    building_id: str


@dataclass
class SyntheticScene:
    seed: int
    config: SceneConfig
    origin: tuple  # (lat, lon) of the local frame
    footprints: list = field(default_factory=list)
    mapping: CategoryMapping = None
    metas: list = field(default_factory=list)
    gt_intervals: dict = field(default_factory=dict)  # pano_id -> intervals
    gt_boxes: list = field(default_factory=list)

    @property
    def footprint_set(self) -> FootprintSet:
        return FootprintSet.of(self.footprints)


# ---------------------------------------------------------------------------
# Parametric ray-segment oracle
# ---------------------------------------------------------------------------

def oracle_hits(scene: LocalScene, thetas):
    """Nearest building per heading via parametric ray-segment solves.

    Same contract as the sweep engine's query (indices into
    ``scene.buildings``, -1/inf on miss) but an independent derivation:
    the ray O + t*d meets A + s*e where t and s come from 2x2 cross
    products, accepted for 0 <= s <= 1 and 0 < t <= radius. Only the
    wall endpoints and the scene's building ranks are shared with the
    engine.
    """
    thetas = np.asarray(thetas, float)
    n = len(thetas)
    bidx = np.full(n, -1, np.int64)
    dist = np.full(n, np.inf)
    if not scene.segments:
        return bidx, dist
    arr, rank_to_bidx = scene.arrays, scene.rank_to_bidx
    ax, ay, ex, ey, rank = arr.ax, arr.ay, arr.ex, arr.ey, arr.rank
    length = np.hypot(ex, ey)
    n_rank = len(rank_to_bidx)
    rad = np.radians(thetas)
    dir_x, dir_y = np.sin(rad), np.cos(rad)
    for lo in range(0, n, _ORACLE_CHUNK):
        hi = min(lo + _ORACLE_CHUNK, n)
        dx = dir_x[lo:hi, None]
        dy = dir_y[lo:hi, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            det = dx * ey - dy * ex
            ok = np.abs(det) >= PARALLEL_EPS * length
            t = np.where(ok, (ax * ey - ay * ex) / det, np.inf)
            s = (ax * dy - ay * dx) / det
            ok &= (s >= 0.0) & (s <= 1.0) & (t > 0.0) & (t <= scene.radius_m)
            t = np.where(ok, t, np.inf)
        dmin = t.min(axis=1)
        tie = t <= (dmin + TIE_EPS_M)[:, None]
        ranks = np.where(tie, rank, n_rank)
        best = ranks.min(axis=1)
        d = np.where(ranks == best[:, None], t, np.inf).min(axis=1)
        hit = np.isfinite(dmin)
        dist[lo:hi] = np.where(hit, d, np.inf)
        bidx[lo:hi] = np.where(hit, rank_to_bidx[np.minimum(best, n_rank - 1)],
                               -1)
    return bidx, dist


def _oracle_hit_at(scene: LocalScene, theta: float) -> int:
    b, _ = oracle_hits(scene, np.array([theta % 360.0]))
    return int(b[0])


def _refine_boundary(scene, theta_out, theta_in, target) -> float:
    """Bisect the transition where ``target`` starts/stops being nearest."""
    lo, hi = theta_out, theta_in
    while abs(hi - lo) > BISECTION_TOL_DEG:
        mid = 0.5 * (lo + hi)
        if _oracle_hit_at(scene, mid) == target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi) % 360.0


def oracle_intervals_for_scene(scene: LocalScene,
                               resolution_deg: float = 0.01) -> list:
    """Dense sweep plus bisection-refined interval endpoints."""
    n = rays_per_turn(resolution_deg)
    if not n:
        raise ValueError(f"resolution {resolution_deg} does not divide 360")
    thetas = np.arange(n, dtype=float) * resolution_deg
    bidx, dist = oracle_hits(scene, thetas)
    out = []
    ray = np.arange(n)
    for start, end, b, low in zip(*(a.tolist() for a in run_table(
            ray, ray, bidx, dist, n))):
        n_run = (end - start) % n + 1
        if n_run >= n:  # the whole circle, nothing to refine
            angle_lo, angle_hi = 0.0, (n - 1) * resolution_deg
        else:
            # neighbors stay unwrapped so the bisection bracket is contiguous
            angle_lo = _refine_boundary(
                scene, thetas[start] - resolution_deg, thetas[start], b)
            angle_hi = _refine_boundary(
                scene, thetas[end] + resolution_deg, thetas[end], b)
        bid, cat = scene.buildings[b]
        out.append(VisibilityInterval(
            building_id=bid, category=cat, angle_lo=float(angle_lo),
            angle_hi=float(angle_hi), min_distance=low))
    out.sort(key=lambda iv: (iv.angle_lo, iv.building_id))
    return out


def oracle_visibility(scene: SyntheticScene) -> dict:
    """Exact per-camera intervals for a synthetic scene (pixel-populated)."""
    res = scene.config.oracle_resolution_deg
    index = FootprintIndex(scene.footprint_set)
    out = {}
    for meta in scene.metas:
        local = clip_scene(index, meta, scene.config.radius_m)
        ivs = oracle_intervals_for_scene(local, res)
        out[meta.pano_id] = intervals_to_pixel(ivs, meta)
    return out


# ---------------------------------------------------------------------------
# Scene generation
# ---------------------------------------------------------------------------

def _make_ring(rng, x0, x1, y_near, y_far, chamfer: bool):
    """Building outline in local meters, counterclockwise, street side near.

    ``y_near`` is the street-facing edge. A chamfer cuts the leading
    street corner, producing a convex pentagon.
    """
    going_up = y_far > y_near
    if not chamfer:
        if going_up:
            return [(x0, y_near), (x1, y_near), (x1, y_far), (x0, y_far)]
        return [(x0, y_far), (x1, y_far), (x1, y_near), (x0, y_near)]
    c = min(x1 - x0, abs(y_far - y_near)) * rng.uniform(0.2, 0.45)
    if going_up:
        return [(x0 + c, y_near), (x1, y_near), (x1, y_far), (x0, y_far),
                (x0, y_near + c)]
    return [(x0, y_far), (x1, y_far), (x1, y_near), (x0 + c, y_near),
            (x0, y_near - c)]


def generate_scene(seed: int, config: SceneConfig | None = None) -> SyntheticScene:
    """Build one deterministic corridor scene, ground truth included.

    Buildings never overlap (disjoint slots per street side) and never
    contain a camera (cameras stay near the centerline).
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    config = config or SceneConfig()
    rng = np.random.default_rng(seed)
    k = config.category_count
    weights = None
    if config.category_weights is not None:
        w = np.asarray(config.category_weights, float)
        weights = w / w.sum()

    half_street = config.corridor_width / 2.0
    cursors = {1: 0.0, -1: 0.0}  # per-side x cursor, north=+1 south=-1
    footprints = []
    for i in range(config.n_buildings):
        side = 1 if i % 2 == 0 else -1
        gap = rng.uniform(2.0, 8.0)
        width = rng.uniform(8.0, 25.0)
        depth = rng.uniform(6.0, 20.0)
        setback = rng.uniform(0.5, 4.0)
        chamfer = rng.random() < 0.3
        x0 = cursors[side] + gap
        x1 = x0 + width
        cursors[side] = x1
        y_near = side * (half_street + setback)
        y_far = side * (half_street + setback + depth)
        local_ring = _make_ring(rng, x0, x1, y_near, y_far, chamfer)
        category = int(rng.choice(np.arange(1, k + 1), p=weights))
        footprints.append((f"b{i:03d}", local_ring, category))

    x_max = max(cursors.values())
    lat0 = rng.uniform(-60.0, 60.0)
    lon0 = rng.uniform(-170.0, 170.0)
    origin = (lat0, lon0)

    mapping = CategoryMapping(
        city="synthetic",
        entries={f"cat_{c}": c for c in range(1, k + 1)})
    fp_objs = []
    for bid, ring, cat in footprints:
        geo = [local_to_geodetic(origin, p) for p in ring]
        fp_objs.append(BuildingFootprint(
            building_id=bid, ring=tuple(geo + [geo[0]]),
            raw_label=f"cat_{cat}", category=cat))

    metas = []
    span_lo, span_hi = (5.0, max(x_max - 5.0, 6.0)) if x_max > 12 else (0.0, 30.0)
    base = np.linspace(span_lo, span_hi, config.n_cameras)
    for i in range(config.n_cameras):
        cx = float(base[i] + rng.uniform(-2.0, 2.0))
        cy = float(rng.uniform(-config.corridor_width / 6.0,
                               config.corridor_width / 6.0))
        lat, lon = local_to_geodetic(origin, (cx, cy))
        metas.append(PanoramaMeta(
            pano_id=f"s{seed:05d}_c{i:02d}", lat=lat, lon=lon,
            north_px=float(rng.uniform(0.0, config.image_width)),
            width=config.image_width, height=config.image_height))

    scene = SyntheticScene(seed=seed, config=config, origin=origin,
                           footprints=fp_objs, mapping=mapping, metas=metas)
    if config.with_ground_truth:
        scene.gt_intervals = oracle_visibility(scene)
        scene.gt_boxes = _ground_truth_boxes(scene, rng)
    return scene


def _ground_truth_boxes(scene: SyntheticScene, rng) -> list:
    """One facade box per wide-enough interval: the interval's pixel span
    with a synthesized vertical extent (the trace has no vertical bounds)."""
    cfg = scene.config
    out = []
    for meta in scene.metas:
        for iv in scene.gt_intervals[meta.pano_id]:
            if iv.width_deg < cfg.min_facade_deg:
                continue
            w = (iv.px_hi - iv.px_lo) % meta.width
            if w <= 0:
                continue
            y_top = float(rng.uniform(0.12, 0.35)) * meta.height
            y_bot = float(rng.uniform(0.55, 0.85)) * meta.height
            out.append(GroundTruthBox(
                pano_id=meta.pano_id, x=float(iv.px_lo), y=y_top, w=float(w),
                h=y_bot - y_top, category=iv.category,
                building_id=iv.building_id))
    return out


# ---------------------------------------------------------------------------
# Detector simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseConfig:
    """Jitter and score model applied to ground-truth boxes."""

    shift_frac: float = 0.0
    scale_frac: float = 0.0
    fp_rate: float = 0.0
    true_score_mu: float = 0.9
    true_score_sigma: float = 0.05
    fp_score_mu: float = 0.15
    fp_score_sigma: float = 0.07

    def __post_init__(self):
        for name in ("shift_frac", "scale_frac"):
            v = getattr(self, name)
            if not (0.0 <= v <= 0.5):
                raise ConfigError(f"{name} must be in [0, 0.5]")
        if not 0.0 <= self.fp_rate < math.inf:
            raise ConfigError(
                f"fp_rate must be a finite number >= 0, got {self.fp_rate}")


def _pixel_gaps(intervals, width, margin=12.0):
    """Linear [lo, hi] stretches of the pixel circle no interval covers."""
    pieces = []
    for iv in intervals:
        start = iv.px_lo % width
        length = (iv.px_hi - iv.px_lo) % width
        end = start + length
        if end <= width:
            pieces.append((start, end))
        else:
            pieces.append((start, width))
            pieces.append((0.0, end - width))
    pieces.sort()
    gaps = []
    cursor = 0.0
    for s, e in pieces:
        if s > cursor:
            gaps.append((cursor, s))
        cursor = max(cursor, e)
    if cursor < width:
        gaps.append((cursor, width))
    out = []
    for lo, hi in gaps:
        lo, hi = lo + margin, hi - margin
        if hi - lo >= 40.0:
            out.append((lo, hi))
    return out


def perturb_detections(scene: SyntheticScene, noise: NoiseConfig,
                       seed: int) -> DetectionSet:
    """Simulate detector output: jittered true boxes plus stray boxes.

    True boxes keep their source's rough extent (uniform center shift
    and scale) and draw high scores; false positives land with their
    midpoints in no-building pixel gaps and draw low scores. Zero noise
    reproduces the ground truth with scores 1.0.
    """
    rng = np.random.default_rng(seed)
    H = scene.config.image_height
    W = scene.config.image_width
    zero = (noise.shift_frac == 0.0 and noise.scale_frac == 0.0)
    by_pano = {m.pano_id: [] for m in scene.metas}
    n_true = 0
    for g in scene.gt_boxes:
        n_true += 1
        if zero:
            x, y, w, h = g.x, g.y, g.w, g.h
            score = 1.0
        else:
            w = g.w * (1.0 + float(rng.uniform(-noise.scale_frac,
                                               noise.scale_frac)))
            h = min(g.h * (1.0 + float(rng.uniform(-noise.scale_frac,
                                                   noise.scale_frac))), H)
            cx = g.x + g.w / 2.0 + float(rng.uniform(
                -noise.shift_frac, noise.shift_frac)) * g.w
            cy = g.y + g.h / 2.0 + float(rng.uniform(
                -noise.shift_frac, noise.shift_frac)) * g.h
            x = (cx - w / 2.0) % W
            y = min(max(cy - h / 2.0, 0.0), H - h)
            score = float(min(max(rng.normal(noise.true_score_mu,
                                             noise.true_score_sigma), 0.0), 1.0))
        by_pano[g.pano_id].append(DetectionBox(
            pano_id=g.pano_id, x=x, y=y, w=w, h=h, score=score))

    n_fp = round(noise.fp_rate * n_true)
    gaps_by_pano = {
        m.pano_id: _pixel_gaps(scene.gt_intervals.get(m.pano_id, []), W)
        for m in scene.metas}
    usable = [m.pano_id for m in scene.metas if gaps_by_pano[m.pano_id]]
    placed = 0
    while placed < n_fp and usable:
        pano_id = usable[placed % len(usable)]
        gaps = gaps_by_pano[pano_id]
        g_lo, g_hi = gaps[int(rng.integers(len(gaps)))]
        w = float(rng.uniform(30.0, 140.0))
        mid = float(rng.uniform(g_lo, g_hi))
        y_top = float(rng.uniform(0.2, 0.5)) * H
        h = float(rng.uniform(0.15, 0.35)) * H
        score = float(min(max(rng.normal(noise.fp_score_mu,
                                         noise.fp_score_sigma), 0.0), 1.0))
        by_pano[pano_id].append(DetectionBox(
            pano_id=pano_id, x=(mid - w / 2.0) % W, y=float(y_top),
            w=w, h=float(min(h, H - y_top)), score=score))
        placed += 1

    return DetectionSet.of(b for boxes in by_pano.values() for b in boxes)
