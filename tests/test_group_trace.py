"""Group tracing equals the per-camera trace it replaced.

``matcher.trace_run`` clips, sweeps and splits runs for a group of
cameras with one set of array operations, and maps the whole run onto
pixels in one pass. Every test here compares the rows of its table
(``trace_rows`` in ``oracle_utils``), under several group caps, with
``reference_trace_panorama`` (the scalar clip, the dense sweep and the
loop run split, one camera at a time) and with the one-camera path,
``trace_panorama`` in ``oracle_utils``: intervals, distances and pixel
spans must be equal bit for bit. ``test_run_table_columns_under_every_cap``
compares the table itself, column by column, across caps.
"""
import logging
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from geotag_facade import (FootprintIndex, PanoramaMeta, RunConfig,
                           clip_scene, local_to_geodetic, matcher,
                           trace_run, trace_sweep)
from geotag_facade.config import rays_per_turn
from geotag_facade.ingest import BuildingFootprint, FootprintSet
from geotag_facade.projection import (METERS_PER_DEGREE, _exact_hypot,
                                      clip_group)
from geotag_facade.raytrace import _ray_runs
from geotag_facade.synth import SceneConfig, generate_scene

from oracle_utils import (_ring_min_distance, reference_trace_panorama,
                          trace_panorama, trace_rows)


def cam(x=0.0, y=0.0, pano_id=None, north_px=300.0, width=2048):
    """A camera ``x`` m east and ``y`` m north of (0, 0)."""
    lat, lon = local_to_geodetic((0.0, 0.0), (x, y))
    return PanoramaMeta(pano_id=pano_id or f"c{x:+.0f}{y:+.0f}", lat=lat,
                        lon=lon, north_px=north_px, width=width,
                        height=width // 2)


def fp_geo(ring, building_id, category=1):
    """A footprint from (lat, lon) vertices."""
    return BuildingFootprint(building_id=building_id,
                             ring=tuple(ring) + (ring[0],), raw_label="x",
                             category=category)


def fp_local(pts, building_id, category=1):
    """A footprint from vertices in meters east/north of (0, 0)."""
    return fp_geo([local_to_geodetic((0.0, 0.0), p) for p in pts],
                  building_id, category)


def square(cx, cy, side, building_id, category=1):
    h = side / 2.0
    return fp_local([(cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h),
                     (cx - h, cy + h)], building_id, category)


def lat_at(meters):
    """The latitude that projects exactly ``meters`` north of a camera on
    the equator, and the next one up, which projects one ulp past it."""
    lat = meters / METERS_PER_DEGREE
    for _ in range(64):
        y = lat * METERS_PER_DEGREE
        if y == meters:
            break
        lat = math.nextafter(lat, math.inf if y < meters else -math.inf)
    beyond = math.nextafter(lat, math.inf)
    assert lat * METERS_PER_DEGREE == meters
    assert beyond * METERS_PER_DEGREE == math.nextafter(meters, math.inf)
    return lat, beyond


def caps():
    """Group caps: one camera per group, three, nine, the whole run, and
    the default."""
    return (1, 3, 9, 1 << 40, matcher.GROUP_CAMERAS)


def out_of_range_count(caplog):
    """The pair count of the run's one out-of-range WARNING, 0 without
    one."""
    found = [r for r in caplog.records if "flat-plane" in r.getMessage()]
    assert len(found) <= 1
    assert all(r.levelno == logging.WARNING for r in found)
    return (int(re.match(r"skipped (\d+) ", found[0].getMessage())[1])
            if found else 0)


def assert_groups_match(group_cameras, caplog, footprints, metas, config):
    """trace_run's rows under every cap equal both one-camera paths;
    returns the out-of-range count its WARNING gives."""
    index = FootprintIndex(FootprintSet.of(footprints))
    want = [reference_trace_panorama(footprints, m, config) for m in metas]
    assert [trace_panorama(index, m, config) for m in metas] == want
    seen = set()
    for cap in caps():
        group_cameras(cap)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger=matcher.__name__):
            assert trace_rows(index, metas, config) == want
        seen.add(out_of_range_count(caplog))
    assert len(seen) == 1
    return seen.pop()


@pytest.mark.parametrize("step, flip", [(1.0, False), (0.5, True),
                                        (7.5, False), (0.1, False)])
def test_synthetic_streets(group_cameras, caplog, step, flip):
    # groups of 9 hold 9 of the 10 cameras, and at 0.1 degrees their
    # candidate pairs span many sweep blocks
    footprints, metas = [], []
    for seed in (3, 4):
        sc = generate_scene(seed, SceneConfig(n_buildings=14, n_cameras=5,
                                              with_ground_truth=False))
        footprints += sc.footprints
        metas += sc.metas
    config = RunConfig(step_deg=step, flip_heading=flip)
    assert assert_groups_match(group_cameras, caplog, footprints, metas,
                               config) == 0


TABLE_COLUMNS = ("offsets", "rank", "owner", "angle_lo", "angle_hi",
                 "min_distance", "px_lo", "px_hi")


@pytest.mark.parametrize("step, flip", [(1.0, False), (1.0, True),
                                        (0.1, False), (0.1, True)])
def test_run_table_columns_under_every_cap(group_cameras, step, flip):
    # the columns the rows leave out (offsets, rank) too: the table is
    # the same, column by column, whatever the groups
    footprints, metas = [], []
    for seed in (5, 6):
        sc = generate_scene(seed, SceneConfig(n_buildings=14, n_cameras=5,
                                              with_ground_truth=False))
        footprints += sc.footprints
        metas += sc.metas
    lat, lon = np.mean(footprints[0].ring[:-1], axis=0)
    metas.insert(3, replace(metas[0], pano_id="held", lat=lat, lon=lon))
    index = FootprintIndex(FootprintSet.of(footprints))
    config = RunConfig(step_deg=step, flip_heading=flip)
    tables = []
    for cap in (1, 2, 1 << 40):
        group_cameras(cap)
        tables.append(trace_run(index, metas, config))
    want = tables[-1]
    assert want.containing[3] == footprints[0].building_id
    assert want.containing.count(None) == len(metas) - 1
    assert len(want.offsets) == len(metas) + 1 and len(want.rank) > 50
    for got in tables[:-1]:
        assert got.containing == want.containing
        for name in TABLE_COLUMNS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_random_layouts(group_cameras, caplog):
    rng = random.Random(29)
    for trial in range(4):
        fps = []
        for i in range(30):
            cx, cy = rng.uniform(-90, 90), rng.uniform(-90, 90)
            pts = []
            for a in sorted(rng.uniform(0, 2 * math.pi)
                            for _ in range(rng.randint(3, 6))):
                r = rng.uniform(2.0, 12.0)
                pts.append((cx + r * math.cos(a), cy + r * math.sin(a)))
            fps.append(fp_local(pts, f"b{rng.randint(0, 12):02d}",
                                rng.randint(1, 4)))
        metas = [cam(rng.uniform(-80, 80), rng.uniform(-80, 80),
                     pano_id=f"t{trial}c{k}",
                     north_px=rng.uniform(0, 2048))
                 for k in range(9)]
        config = RunConfig(radius_m=rng.choice((30.0, 50.0, 80.0)),
                           step_deg=rng.choice((0.5, 1.0, 2.0)),
                           flip_heading=bool(trial % 2))
        assert_groups_match(group_cameras, caplog, fps, metas, config)


def test_degenerate_and_empty_cameras_inside_a_group(group_cameras, caplog):
    fps = [square(0, 25, 10, "north"), square(0, 0, 6, "trap"),
           square(60, 0, 8, "east"), square(60, 30, 8, "east2", 2)]
    metas = [cam(-20, 5, "a"), cam(0, 0, "inside"), cam(3000, 0, "empty"),
             cam(60, 12, "b"), cam(60, 0, "inside2"), cam(-3000, 0, "nil"),
             cam(30, 10, "c")]
    config = RunConfig()
    assert_groups_match(group_cameras, caplog, fps, metas, config)
    got = trace_rows(FootprintIndex(FootprintSet.of(fps)), metas,
                     config)
    assert got[1] == (None, "trap") and got[4] == (None, "east")
    assert got[2] == ([], None) and got[5] == ([], None)
    assert all(got[k][0] for k in (0, 3, 6))


def test_runs_across_the_seam_at_group_boundaries(group_cameras, caplog):
    # one long wall due north of every camera: each camera's run wraps
    # across 0 degrees, and each camera's last ray and the next camera's
    # first ray hit the same building, so runs must be cut between them
    fps = [fp_local([(-200, 20), (200, 20), (200, 30), (-200, 30)], "wall"),
           square(15, -20, 8, "south")]
    metas = [cam(x, 0, f"s{i}") for i, x in enumerate(range(-40, 41, 10))]
    for step in (1.0, 0.5):
        config = RunConfig(step_deg=step)
        assert_groups_match(group_cameras, caplog, fps, metas, config)
        for ivs, _ in trace_rows(FootprintIndex(FootprintSet.of(fps)), metas,
                                 config):
            wall = [iv for iv in ivs if iv.building_id == "wall"]
            assert len(wall) == 1 and wall[0].angle_hi < wall[0].angle_lo


def test_shared_building_id_takes_each_cameras_first_footprint(group_cameras,
                                                                caplog):
    # "dup" names two footprints with different categories: the west
    # camera keeps both and labels "dup" with the first one's category,
    # the east camera keeps only the second
    fps = [square(-30, 10, 8, "dup", 1), square(40, 20, 8, "other", 3),
           square(30, -15, 8, "dup", 2)]
    metas = [cam(0, 0, "west"), cam(60, 0, "east"), cam(-10, 0, "w2")]
    config = RunConfig()
    assert_groups_match(group_cameras, caplog, fps, metas, config)
    got = dict(zip((m.pano_id for m in metas),
                   trace_rows(FootprintIndex(FootprintSet.of(fps)), metas,
                              config)))
    assert {iv.category for iv in got["west"][0]
            if iv.building_id == "dup"} == {1}
    assert {iv.category for iv in got["east"][0]
            if iv.building_id == "dup"} == {2}


def test_ring_exactly_at_the_radius(group_cameras, caplog):
    fps = [square(10, 40, 8, "rim"), square(-20, 0, 6, "near")]
    metas = [cam(0, 0, "a"), cam(5, -5, "b")]
    pts = [local_to_geodetic((0.0, 0.0), p)
           for p in [(6, 36), (14, 36), (14, 44), (6, 44)]]
    xs, ys = zip(*((lon * METERS_PER_DEGREE, lat * METERS_PER_DEGREE)
                   for lat, lon in pts))
    d = _ring_min_distance(xs, ys)
    for radius, kept in ((d, True), (math.nextafter(d, 0.0), False)):
        config = RunConfig(radius_m=radius)
        assert_groups_match(group_cameras, caplog, fps, metas, config)
        scene = clip_scene(FootprintIndex(FootprintSet.of(fps)), metas[0],
                           radius)
        assert (("rim", 1) in scene.buildings) is kept


def test_ring_reaching_exactly_to_the_flat_plane_range(group_cameras,
                                                        caplog):
    # a thin ring from 20 m to exactly 10 km north of the camera at (0, 0)
    # is kept; one ulp farther it is skipped and counted
    near = 20.0 / METERS_PER_DEGREE
    for lat, skipped in zip(lat_at(10_000.0), (0, 1)):
        fps = [fp_geo([(near, -1e-4), (near, 1e-4), (lat, 0.0)], "long"),
               square(-20, -10, 6, "near")]
        metas = [cam(0, 0, "a"), cam(-20, 10, "b")]
        config = RunConfig()
        assert assert_groups_match(group_cameras, caplog, fps, metas,
                                   config) == skipped
        ivs = trace_rows(FootprintIndex(FootprintSet.of(fps)), metas,
                         config)[0][0]
        assert ("long" in {iv.building_id for iv in ivs}) is not skipped


def test_ring_exactly_one_nanometre_from_the_camera(group_cameras, caplog):
    # the camera at (0, 0) lies inside a ring whose north edge runs
    # exactly 1e-9 m north of it: not strictly inside, so it is traced;
    # one ulp farther the camera is inside and skipped
    x = 10.0 / METERS_PER_DEGREE
    south = -20.0 / METERS_PER_DEGREE
    for lat, inside in zip(lat_at(1e-9), (False, True)):
        fps = [fp_geo([(south, -x), (south, x), (lat, x), (lat, -x)],
                      "shell"),
               square(30, 30, 6, "other")]
        metas = [cam(30, 10, "a"), cam(0, 0, "o"), cam(30, 50, "b")]
        assert_groups_match(group_cameras, caplog, fps, metas, RunConfig())
        got = trace_rows(FootprintIndex(FootprintSet.of(fps)), metas,
                         RunConfig())[1]
        assert (got == (None, "shell")) is inside


def test_edge_exactly_one_nanometre_long(group_cameras, caplog):
    # two vertices 1e-9 m apart make a zero-length edge, which is dropped;
    # one ulp longer it is a wall
    lon = 20.0 / METERS_PER_DEGREE
    top = 10.0 / METERS_PER_DEGREE
    for lat in lat_at(1e-9):
        fps = [fp_geo([(0.0, lon), (lat, lon), (top, lon + top)], "tri")]
        metas = [cam(0, 0, "a"), cam(10, -10, "b")]
        assert_groups_match(group_cameras, caplog, fps, metas, RunConfig())


def test_exact_hypot_decides_like_math_hypot():
    # pick pairs on which np.hypot and math.hypot differ, and put the
    # threshold exactly on math.hypot's value, or one ulp to either side
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(2, 200_000)) * 40.0
    differ = np.flatnonzero(np.hypot(x, y) != np.array(
        [math.hypot(a, b) for a, b in zip(x, y)]))
    assert len(differ) > 10
    for i in differ[:200]:
        h = math.hypot(x[i], y[i])
        for thr in (h, math.nextafter(h, 0.0), math.nextafter(h, math.inf)):
            got = _exact_hypot(x[i:i + 1], y[i:i + 1], thr)[0]
            assert (got > thr) == (h > thr)
            assert (got <= thr) == (h <= thr)


# ---------------------------------------------------------------------------
# Back faces: walls that can never be a ray's nearest hit get no rays
# ---------------------------------------------------------------------------

def front_walls(footprints, meta, radius_m=50.0):
    """(front flags, (ax, ay, bx, by) per wall) of one camera's clip."""
    walls = clip_group(FootprintIndex(FootprintSet.of(footprints)), [meta],
                       radius_m).walls
    return walls.front.tolist(), list(zip(walls.ax.tolist(),
                                          walls.ay.tolist(),
                                          walls.bx.tolist(),
                                          walls.by.tolist()))


def test_square_seen_head_on_has_one_front_wall(group_cameras, caplog):
    fps = [square(0, 25, 10, "sq"), square(-30, -5, 6, "side", 2)]
    front, ends = front_walls(fps[:1], cam(0, 0))
    assert front.count(True) == 1
    (ax, ay, bx, by), = [e for e, f in zip(ends, front) if f]
    assert ay == by < 21.0  # the south wall, facing the camera
    metas = [cam(0, 0, "o"), cam(-12, 40, "nw"), cam(30, 25, "e")]
    for step in (1.0, 0.1):
        assert_groups_match(group_cameras, caplog, fps, metas,
                            RunConfig(step_deg=step))


@pytest.mark.parametrize("pts", [
    # an L: camera "in-l" stands in its notch, facing its inner corner
    [(-10, 20), (10, 20), (10, 25), (1, 25), (1, 35), (-10, 35)],
    # a five-pointed star drawn in one stroke: every turn is to the same
    # side, but it turns twice
    [(8 * math.sin(math.radians(a)) + 1, 8 * math.cos(math.radians(a)) + 30)
     for a in range(0, 720, 144)],
    # a square with a vertex on its south side, where the ring goes straight
    [(-5, 20), (2, 20), (5, 20), (5, 30), (-5, 30)],
], ids=["l-shape", "star", "collinear"])
def test_rings_that_are_not_strictly_convex_keep_every_wall(group_cameras,
                                                            caplog, pts):
    fps = [fp_local(pts, "ring"), square(25, 0, 6, "east", 3)]
    metas = [cam(0, 0, "o"), cam(4, 28, "in-l"), cam(-20, 45, "nw")]
    # a camera inside the ring keeps none of its walls
    kept = [f for f in (front_walls(fps[:1], m)[0] for m in metas) if f]
    assert len(kept) >= 2
    assert all(f == [True] * len(pts) for f in kept)
    assert_groups_match(group_cameras, caplog, fps, metas, RunConfig())


def test_ring_straddling_the_antimeridian_from_both_sides(group_cameras,
                                                          caplog):
    lat, lon = 20.0 / METERS_PER_DEGREE, 5.0 / METERS_PER_DEGREE
    fps = [fp_geo([(lat, 180.0 - lon), (lat, lon - 180.0),
                   (2 * lat, 2 * lon - 180.0), (2 * lat, 180.0 - lon)],
                  "dateline")]
    metas = [PanoramaMeta(f"c{k}", lat=0.0, lon=side * (180.0 - 3 * lon),
                          north_px=100.0, width=2048, height=1024)
             for k, side in enumerate((1, -1))]
    for meta in metas:
        front, _ = front_walls(fps, meta)
        assert len(front) == 4 and 1 <= front.count(True) <= 2
    for step in (1.0, 0.5):
        assert_groups_match(group_cameras, caplog, fps, metas,
                            RunConfig(step_deg=step))


def test_cameras_on_and_inside_rings_in_one_group(group_cameras, caplog):
    # "edge" has its first wall through the camera at (0, 0): every wall
    # is a front face there, since from the camera's spot on the ring the
    # rays that enter it meet its far walls first
    fps = [fp_local([(-4, -2), (6, 3), (2, 11), (-8, 6)], "edge"),
           square(40, 0, 10, "held"), square(20, 20, 6, "other", 2)]
    metas = [cam(20, 0, "a"), cam(0, 0, "on-edge"), cam(40, 0, "inside"),
             cam(-15, 20, "b")]
    front, _ = front_walls(fps[:1], metas[1])
    assert front == [True] * 4
    assert_groups_match(group_cameras, caplog, fps, metas, RunConfig())
    got = trace_rows(FootprintIndex(FootprintSet.of(fps)), metas,
                     RunConfig())
    assert got[2] == (None, "held")
    assert "edge" in {iv.building_id for iv in got[1][0]}


def test_overlapping_rings_of_one_building(group_cameras, caplog):
    fps = [square(0, 25, 10, "dup"), square(4, 29, 10, "dup", 2),
           square(-20, 25, 6, "west", 3)]
    metas = [cam(0, 0, "s"), cam(15, 45, "ne"), cam(-8, 32, "gap"),
             cam(20, 10, "e")]
    assert_groups_match(group_cameras, caplog, fps, metas, RunConfig())


def _gap(theta_deg, r, half):
    """Two points ``2 * half`` m apart across the ray at ``theta_deg``,
    ``r`` m from the camera at (0, 0)."""
    th = math.radians(theta_deg)
    x, y, dx, dy = (r * math.sin(th), r * math.cos(th),
                    half * math.cos(th), -half * math.sin(th))
    return [(x - dx, y - dy), (x + dx, y + dy)]


@pytest.mark.parametrize("fp, ray", [
    # the 0-degree ray passes exactly through the vertex between the two
    # south walls and slips between them by rounding
    (fp_geo([(0.00017147116216552233, -4.7685269620120773e-05),
             (0.0001695, 0.0),
             (0.0001886754946160956, 3.9535484564431766e-05),
             (0.0002377888755364802, 3.3389783943557736e-05),
             (0.0002377888755364802, -4.186100846055718e-05)], "north"), 0),
    # the 30-degree ray passes through a 0.8 nm edge, which is dropped
    (fp_local([(2, 24), *_gap(30.0, 20.0, 0.4e-9), (18, 14), (22, 26),
               (8, 34)], "gap"), 30),
], ids=["vertex-due-north", "dropped-edge"])
def test_ring_a_ray_slips_into_keeps_every_wall(group_cameras, caplog, fp,
                                                ray):
    # the sweep of every wall meets the ring's far wall on that ray, well
    # beyond its neighbour's hit on the near walls, so a convex ring with
    # a vertex on the camera's axes or a dropped edge keeps its back faces
    meta = cam(0, 0, "o")
    sweep = trace_sweep(clip_scene(FootprintIndex(FootprintSet.of([fp])), meta,
                                   50.0), 1.0)
    assert sweep.distances[ray] > 1.3 * sweep.distances[ray + 1]
    front, _ = front_walls([fp], meta)
    assert all(front)
    assert_groups_match(group_cameras, caplog, [fp], [meta, cam(5, -3, "b")],
                        RunConfig())


def test_back_faces_halve_the_pairs_of_a_street():
    # at 0.1 degrees, as the benchmark's street-fine workload sweeps
    sc = generate_scene(3, SceneConfig(n_buildings=14, n_cameras=5,
                                       with_ground_truth=False))
    walls = clip_group(FootprintIndex(sc.footprint_set), sc.metas, 50.0).walls
    n = rays_per_turn(0.1)
    culled = int(_ray_runs(walls, 50.0, n)[2].sum())
    every = replace(walls, front=np.ones(len(walls), bool))
    assert culled <= 0.55 * int(_ray_runs(every, 50.0, n)[2].sum())
