"""The stretch sweep equals the per-ray test it stands in for.

``raytrace.sweep_pieces`` takes a group's rays by stretches: only the two
end rays of each stretch run the per-ray test (``nearest_walls``), and
the rays between are filled when the ends show what they hold. Here its
``trace_run`` table is held, column by column, to the table of a sweep
that runs ``nearest_walls`` on every ray, under three group caps, small
fallback slices and small pair blocks, at four steps, on the scenes
where a fill could go wrong: walls through and tangent to the radius
circle, walls whose line crosses it just past their ends, shared,
collinear, nearly parallel and crossing walls, vertices on grid
headings, overlapping and non-convex rings, and a wall through the
camera; and three scenes a seeded search found, where the sweep needs
its radius cuts' tangent tolerance, its full-turn exclusion and the
right end of its beyond-the-radius test.
"""
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from geotag_facade import (FootprintIndex, PanoramaMeta, RunConfig,
                           local_to_geodetic, matcher, raytrace, trace_run)
from geotag_facade.config import rays_per_turn
from geotag_facade.ingest import BuildingFootprint, FootprintSet
from geotag_facade.projection import clip_group
from geotag_facade.raytrace import (_ray_runs, nearest_walls, run_table,
                                    sweep_grid, sweep_pieces)
from geotag_facade.synth import SceneConfig, generate_scene

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import citygen  # noqa: E402
import run as bench  # noqa: E402

STEPS = (1.0, 0.2, 0.1, 0.05)
CAPS = (1, 2, 1 << 40)  # cameras a group
# module settings each also traced under, with the whole run in one
# group: fallback slices of 1 and 7 rays, and pair blocks of 97 pairs,
# which cut the end rays' pair tests into many blocks
SETTINGS = (("_FALLBACK_RAYS", 1), ("_FALLBACK_RAYS", 7), ("_PAIR_BLOCK", 97))
COLUMNS = ("offsets", "owner", "angle_lo", "angle_hi", "min_distance",
           "px_lo", "px_hi")


def cam(x=0.0, y=0.0, pano_id="o"):
    """A camera ``x`` m east and ``y`` m north of (0, 0)."""
    lat, lon = local_to_geodetic((0.0, 0.0), (x, y))
    return PanoramaMeta(pano_id=pano_id, lat=lat, lon=lon, north_px=300.0,
                        width=2048, height=1024)


def fp_local(pts, building_id, category=1):
    """A footprint from vertices in meters east/north of (0, 0)."""
    ring = [local_to_geodetic((0.0, 0.0), p) for p in pts]
    return BuildingFootprint(building_id=building_id,
                             ring=(*ring, ring[0]), raw_label="x",
                             category=category)


def polar(r, heading):
    """The point ``r`` m from (0, 0) at ``heading`` degrees."""
    th = math.radians(heading)
    return r * math.sin(th), r * math.cos(th)


def slab(a, b, building_id, depth=4.0, category=1):
    """A rectangle whose side facing (0, 0) is the wall from ``a`` to
    ``b``, ``depth`` m deep."""
    ex, ey = b[0] - a[0], b[1] - a[1]
    nx, ny = ey / math.hypot(ex, ey), -ex / math.hypot(ex, ey)
    if nx * a[0] + ny * a[1] < 0.0:
        nx, ny = -nx, -ny
    return fp_local([a, b, (b[0] + depth * nx, b[1] + depth * ny),
                     (a[0] + depth * nx, a[1] + depth * ny)], building_id,
                    category)


def tangent_wall(d, heading, half, building_id):
    """A wall whose line lies ``d`` m from (0, 0), its perpendicular foot
    at ``heading``, reaching ``half`` m either side of the foot."""
    fx, fy = polar(d, heading)
    tx, ty = polar(half, heading + 90.0)
    return slab((fx - tx, fy - ty), (fx + tx, fy + ty), building_id)


OTHERS = [cam(-15.0, 5.0, "w"), cam(12.0, -8.0, "s")]

SCENES = {
    # the middle of the wall is inside the 50 m radius, both its ends
    # (52 m away) beyond it: its rays are cut where it crosses the circle
    "through-radius": [slab(polar(45.0 / math.cos(math.radians(30.0)), 15.0),
                            polar(45.0 / math.cos(math.radians(30.0)), 75.0),
                            "through")],
    # lines 1e-7 and 1e-15 (relative) inside the radius: only the ray at
    # the foot, 30 degrees, reaches them
    "grazing-radius": [tangent_wall(50.0 * (1.0 - 1e-7), 30.0, 10.0, "graze"),
                       tangent_wall(50.0 * (1.0 - 1e-15), 120.0, 10.0,
                                    "tangent")],
    # both ends 49.995 m away, half a step off the grid at 0.05 degrees;
    # the line crosses the circle 0.0076 degrees past each end, between
    # the end and the next grid ray, so the ray just outside each end
    # sees the line beyond the radius and the next ray in hits the wall
    "ends-inside-radius": [slab(polar(49.995, 10.025), polar(49.995, 83.775),
                                "inside")],
    # a shared stretch of one line (ties to the smaller id), a shared
    # vertex, and two walls crossing at a 1e-5 m rise over 20 m
    "collinear-and-crossing": [
        slab((-10.0, 20.0), (5.0, 20.0), "a"),
        slab((-5.0, 20.0), (10.0, 20.0), "b"),
        slab((10.0, 20.0), (20.0, 20.0), "c"),
        slab((-25.0, -30.0), (-5.0, -30.0 - 1e-5), "d"),
        slab((-25.0, -30.0 - 1e-5), (-5.0, -30.0), "e"),
    ],
    # "b-near" stands 0.9e-9 m in front of the parallel "a-far": tied
    # (within 1e-9 m) at the foot, where the smaller id wins, but 1.2e-9
    # m apart at the rays 40 degrees off it, where the nearer wins
    "parallel-within-tie": [
        tangent_wall(20.0, 45.0, 20.0 * math.tan(math.radians(40.0)),
                     "b-near"),
        tangent_wall(20.0 + 0.9e-9, 45.0, 20.0 * math.tan(math.radians(40.0)),
                     "a-far"),
    ],
    # vertices on the 0-degree ray and within rounding of the 30-degree
    # one, shared by two walls of a ring and by two rings
    "vertex-on-grid": [
        fp_local([(-6.0, 25.0), (0.0, 20.0), (6.0, 25.0), (0.0, 31.0)], "v"),
        slab(polar(20.0, 20.0), polar(20.0, 30.0), "p"),
        slab(polar(20.0, 30.0), polar(25.0, 40.0), "q"),
    ],
    "overlapping": [
        fp_local([(-5.0, 20.0), (5.0, 20.0), (5.0, 30.0), (-5.0, 30.0)], "x"),
        fp_local([(-1.0, 24.0), (9.0, 24.0), (9.0, 34.0), (-1.0, 34.0)], "y"),
        fp_local([(-3.0, 18.0), (2.0, 18.0), (2.0, 26.0), (-3.0, 26.0)], "x"),
    ],
    # a U open toward the camera: its arms hide parts of its back
    "non-convex": [fp_local([(-10.0, 20.0), (-6.0, 20.0), (-6.0, 30.0),
                             (6.0, 30.0), (6.0, 20.0), (10.0, 20.0),
                             (10.0, 40.0), (-10.0, 40.0)], "u")],
    # the camera stands on the first wall, which gets every ray
    "wall-through-camera": [
        fp_local([(-4.0, -2.0), (6.0, 3.0), (2.0, 11.0), (-8.0, 6.0)], "edge"),
        slab((-20.0, 15.0), (20.0, 15.0), "behind")],
    # The last three scenes were found by a seeded search of scenes where
    # a sweep without one of its conditions differs from the per-ray one.
    # A line one ulp beyond the radius, its foot 1.3e-7 degrees off the
    # 195-degree ray, which rounds to a hit 49.99999999999999 m away: the
    # radius cuts hold it only through their tangent tolerance
    "tangent-just-beyond": [tangent_wall(50.0, 194.9999998735582,
                                         2.844728867461736, "beyond")],
    # a wall 1.5e-9 m from the camera gets every ray, and the camera's
    # stretches span more than its half turn: none may be filled
    "wall-by-camera": [tangent_wall(1.5e-9, 60.0, 30.0, "touch")],
    # a wall through the radius circle on the 134.8-degree ray, where the
    # cut and the ray's distance round to opposite sides of the circle:
    # the next stretch starts beyond the radius and ends inside it
    "radius-on-grid-ray": [slab((29.02809093711828, -40.77510914167483),
                                (43.5408511075804, -28.30310078475267), "on",
                                depth=2.8826291728733184)],
}


def per_ray_pieces(arr, grid, cameras, radius_m):
    """``sweep_pieces`` by ``nearest_walls`` at every ray, one piece each."""
    n = len(grid.thetas)
    ray = np.arange(n * cameras)
    return (ray, ray, *nearest_walls(arr, grid, radius_m,
                                     _ray_runs(arr, radius_m, n), ray))


def tables(monkeypatch, group_cameras, index, metas, config):
    """The per-ray ``trace_run`` table, then the stretch sweep's under
    each group cap, and, with the whole run in one group, under each
    setting of ``SETTINGS``: fallback slices that cut through stretches
    and cameras, and pair blocks that cut through the end rays' pairs."""
    with monkeypatch.context() as m:
        m.setattr(matcher, "sweep_pieces", per_ray_pieces)
        out = [trace_run(index, metas, config)]
    for cap in CAPS:
        group_cameras(cap)
        out.append(trace_run(index, metas, config))
    for name, value in SETTINGS:
        with monkeypatch.context() as m:
            m.setattr(raytrace, name, value)
            out.append(trace_run(index, metas, config))
    return out


def assert_identical(got, want):
    assert got.containing == want.containing
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("scene", sorted(SCENES))
def test_stretch_path_equals_the_per_ray_path(monkeypatch, group_cameras,
                                              scene, step):
    index = FootprintIndex(FootprintSet.of(SCENES[scene]))
    want, *rest = tables(monkeypatch, group_cameras, index,
                         [cam(), *OTHERS], RunConfig(step_deg=step))
    assert len(want.owner) > 0
    for got in rest:
        assert_identical(got, want)


def test_scenes_reach_the_cases_they_name():
    def rows(scene, step=0.1):
        index = FootprintIndex(FootprintSet.of(SCENES[scene]))
        table = trace_run(index, [cam()], RunConfig(step_deg=step))
        ids = index.footprints.building_ids
        return [(ids[o], a, b, d) for o, a, b, d in zip(
            table.owner.tolist(), table.angle_lo.tolist(),
            table.angle_hi.tolist(), table.min_distance.tolist())]
    # one ray reaches the line 1e-7 inside the radius
    (bid, lo, hi, _), = [r for r in rows("grazing-radius") if r[0] == "graze"]
    assert lo == hi == pytest.approx(30.0)
    # the wall with both ends inside the radius is seen from end to end
    (_, lo, hi, _), = rows("ends-inside-radius")
    assert (lo, hi) == pytest.approx((10.1, 83.7))
    # the tie goes to "a-far" about the foot, "b-near" keeps both sides
    got = [r[0] for r in rows("parallel-within-tie")]
    assert got == ["b-near", "a-far", "b-near"]
    # the camera on a wall gives its ring a full-turn candidate run
    walls = clip_group(FootprintIndex(FootprintSet.of(
        SCENES["wall-through-camera"])), [cam()], 50.0).walls
    assert rays_per_turn(1.0) in _ray_runs(walls, 50.0, 360)[2]
    # a line beyond the radius, by the sweep's own distance, hit once
    walls = clip_group(FootprintIndex(FootprintSet.of(
        SCENES["tangent-just-beyond"])), [cam()], 50.0).walls
    assert (np.abs(walls.a_dot_n[walls.front]) > 50.0).all()
    (_, lo, hi, d), = rows("tangent-just-beyond", 1.0)
    assert lo == hi == 195.0 and d <= 50.0
    # a full-turn run, though the wall is seen over less than a half turn
    walls = clip_group(FootprintIndex(FootprintSet.of(
        SCENES["wall-by-camera"])), [cam()], 50.0).walls
    assert _ray_runs(walls, 50.0, 360)[2].tolist() == [360]
    (_, lo, hi, _), = rows("wall-by-camera", 1.0)
    assert (lo, hi) == (331.0, 149.0)


@pytest.mark.parametrize("workload", sorted(bench.SPECS["tiny"]))
def test_stretch_path_on_the_benchmark_inputs(monkeypatch, group_cameras,
                                              tmp_path, workload):
    citygen.generate(bench.SPECS["tiny"][workload], 1, tmp_path)
    inputs = bench.load_inputs(tmp_path)
    index = FootprintIndex(inputs.footprints)
    metas = list(inputs.panos)
    for step in STEPS:
        want, *rest = tables(monkeypatch, group_cameras, index, metas,
                             RunConfig(radius_m=citygen.RADIUS_M,
                                       step_deg=step))
        for got in rest:
            assert_identical(got, want)


def test_stretch_sweep_tests_a_tenth_of_the_pairs_of_a_street(monkeypatch):
    # at 0.1 degrees, as the benchmark's street-fine workload sweeps: the
    # end rays' pairs are all the per-ray test sees, against every
    # candidate pair of a sweep that tests every ray
    sc = generate_scene(3, SceneConfig(n_buildings=14, n_cameras=5,
                                       with_ground_truth=False))
    walls = clip_group(FootprintIndex(sc.footprint_set), sc.metas, 50.0).walls
    cameras = len(sc.metas)
    grid = sweep_grid(0.1)
    n = len(grid.thetas)
    real, tested = raytrace._pair_hits, []

    def counted(dirs, ray, *args):
        tested.append(len(ray))
        return real(dirs, ray, *args)
    monkeypatch.setattr(raytrace, "_pair_hits", counted)
    got = run_table(*sweep_pieces(walls, grid, cameras, 50.0), n)
    candidate = int(_ray_runs(walls, 50.0, n)[2].sum())
    assert 0 < sum(tested) <= 0.1 * candidate
    want = run_table(*per_ray_pieces(walls, grid, cameras, 50.0), n)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def on_edge_cameras(footprints, k):
    """``k`` cameras, camera ``c`` part way along an edge of footprint
    ``c % len(footprints)``: each stands on a wall, which is a candidate
    for every ray, so none of its stretches is filled."""
    first = np.cumsum(footprints.ring_len) - footprints.ring_len
    metas = []
    for c in range(k):
        f, e = c % len(footprints), c // len(footprints)
        a, b = (first[f] + (e + i) % footprints.ring_len[f] for i in (0, 1))
        t = 0.25 + 0.5 * c / k
        lat, lon = (float(v[a] + t * (v[b] - v[a]))
                    for v in (footprints.lat, footprints.lon))
        metas.append(PanoramaMeta(pano_id=f"e{c}", lat=lat, lon=lon,
                                  north_px=100.0, width=2048, height=1024))
    return metas


def test_fallback_memory_does_not_grow_with_the_step(tmp_path):
    # one group of cameras on the walls of a street: every ray of the
    # group goes to the per-ray test, a slice at a time, so the trace's
    # peak stays put as the step halves
    citygen.generate(bench.SPECS["tiny"]["street-fine"], 1, tmp_path)
    footprints = bench.load_inputs(tmp_path).footprints
    index = FootprintIndex(footprints)
    metas = on_edge_cameras(footprints, matcher.GROUP_CAMERAS)
    peaks = {}
    for step in (0.1, 0.05):
        config = RunConfig(radius_m=citygen.RADIUS_M, step_deg=step)
        walls = clip_group(index, metas, config.radius_m).walls
        n = rays_per_turn(step)
        seg, _, count = _ray_runs(walls, config.radius_m, n)
        assert set(walls.cam[seg[count == n]].tolist()) == \
            set(range(len(metas)))
        tracemalloc.start()
        try:
            table = trace_run(index, metas, config)
            peaks[step] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.containing == [None] * len(metas)
        assert len(table.owner) >= len(metas)
    assert peaks[0.05] <= 1.15 * peaks[0.1]
    assert max(peaks.values()) < 8e6


@pytest.mark.parametrize("n", [1, 2, 5, 360])
def test_run_table_joins_pieces_as_samples(n):
    # pieces of random lengths give the runs of the samples they tile
    rng = np.random.default_rng(n)
    for cameras in (1, 3):
        owner = rng.integers(-1, 3, n * cameras)
        dist = rng.uniform(1.0, 50.0, n * cameras)
        ray = np.arange(n * cameras)
        want = run_table(ray, ray, owner, dist, n)
        # cut at every owner change, every camera start and at random
        cut = np.flatnonzero((np.diff(owner, prepend=-2) != 0)
                             | (ray % n == 0) | (rng.random(len(ray)) < 0.3))
        end = np.append(cut[1:], len(ray)) - 1
        low = np.minimum.reduceat(dist, cut)
        got = run_table(cut, end, owner[cut], low, n)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
