import math

import numpy as np
import pytest

from geotag_facade import PanoramaMeta, raytrace
from geotag_facade.projection import LocalScene, WallSegment
from geotag_facade.raytrace import (intervals_from_sweep,
                                    intervals_to_pixel, trace_sweep)
from geotag_facade.synth import oracle_hits

from oracle_utils import (RayHit, RaySample, _runs, heading_direction,
                          ray_wall_distance, reference_nearest_hits,
                          reference_runs, sweep_from_samples, sweep_samples)


def seg(ax, ay, bx, by, building_id="B", category=1):
    return WallSegment(ax=ax, ay=ay, bx=bx, by=by, building_id=building_id,
                       category=category)


def scene_of(segments, radius=50.0, pano_id="p"):
    buildings = []
    seen = set()
    for s in segments:
        if s.building_id not in seen:
            seen.add(s.building_id)
            buildings.append((s.building_id, s.category))
    return LocalScene(pano_id=pano_id, origin=(0.0, 0.0), radius_m=radius,
                      segments=list(segments), buildings=tuple(buildings))


def square_building(cx, cy, side, building_id="B", category=1):
    h = side / 2.0
    corners = [(cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h),
               (cx - h, cy + h)]
    return [seg(*corners[i], *corners[(i + 1) % 4], building_id=building_id,
                category=category) for i in range(4)]


META = PanoramaMeta(pano_id="p", lat=0.0, lon=0.0, north_px=512.0,
                    width=2048, height=1024)


class TestRayWallDistance:
    def test_head_on(self):
        assert ray_wall_distance((0, 0), (0, 1), seg(-5, 15, 5, 15)) == 15.0

    def test_miss(self):
        assert ray_wall_distance((0, 0), (1, 0), seg(-5, 15, 5, 15)) is None

    def test_collinear_is_no_hit(self):
        assert ray_wall_distance((0, 0), (0, 1), seg(0, 10, 0, 20)) is None

    def test_behind_camera(self):
        assert ray_wall_distance((0, 0), (0, -1), seg(-5, 15, 5, 15)) is None

    def test_endpoint_hit_counts(self):
        # ray aimed exactly at segment endpoint (5, 15)
        d = math.hypot(5, 15)
        dirv = (5 / d, 15 / d)
        assert ray_wall_distance((0, 0), dirv, seg(-5, 15, 5, 15)) == \
            pytest.approx(d)

    def test_requires_unit_direction(self):
        with pytest.raises(ValueError):
            ray_wall_distance((0, 0), (0, 2), seg(-5, 15, 5, 15))

    def test_matches_oracle_on_random_rays(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            s = seg(*rng.uniform(-30, 30, 4))
            if math.hypot(s.bx - s.ax, s.by - s.ay) < 1e-6:
                continue
            theta = rng.uniform(0, 360)
            d = ray_wall_distance(
                (0, 0), (math.sin(math.radians(theta)),
                         math.cos(math.radians(theta))), s)
            sc = scene_of([s], radius=1000.0)
            _, od = oracle_hits(sc, np.array([theta]))
            if d is None:
                assert not np.isfinite(od[0])
            else:
                assert od[0] == pytest.approx(d, abs=1e-9)


class TestTraceSweep:
    def test_empty_scene_all_miss(self):
        sweep = trace_sweep(scene_of([]), 1.0)
        assert len(sweep) == 360
        assert (sweep.building_idx == -1).all()
        assert all(s.hit is None for s in sweep_samples(sweep))

    def test_square_due_north(self):
        # 10 m square centered 20 m north: true extent is atan(5/15)
        sweep = trace_sweep(scene_of(square_building(0, 20, 10)), 1.0)
        extent = math.degrees(math.atan(5 / 15))  # 18.4349
        hit_angles = {int(t) for t, b in zip(sweep.thetas, sweep.building_idx)
                      if b >= 0}
        expected = {a % 360 for a in range(-18, 19)}
        assert hit_angles == expected
        assert extent == pytest.approx(18.4349, abs=1e-3)
        assert sweep.distances[0] == pytest.approx(15.0)

    def test_near_building_occludes_far(self):
        segs = (square_building(0, 15, 6, "near") +
                square_building(0, 30, 6, "far"))
        sweep = trace_sweep(scene_of(segs), 1.0)
        near_idx = [i for i, (b, _) in enumerate(sweep.buildings)
                    if b == "near"][0]
        assert sweep.building_idx[0] == near_idx
        # every angle that sees anything in the shared cone sees "near"
        far_idx = 1 - near_idx
        far_angles = sweep.thetas[sweep.building_idx == far_idx]
        near_extent = math.degrees(math.atan(3 / 12))
        for a in far_angles:
            signed = a if a <= 180 else a - 360
            assert abs(signed) > near_extent - 1.0

    def test_step_must_divide_360(self):
        with pytest.raises(ValueError):
            trace_sweep(scene_of([]), 7.0)

    def test_hits_restricted_to_radius(self):
        sweep = trace_sweep(scene_of(square_building(0, 80, 10), radius=50.0))
        assert (sweep.building_idx == -1).all()

    def test_distance_tie_breaks_to_smaller_id(self):
        # two coincident walls from different buildings
        segs = [seg(-5, 10, 5, 10, "zz"), seg(-5, 10, 5, 10, "aa")]
        sweep = trace_sweep(scene_of(segs), 1.0)
        bid, _ = sweep.buildings[sweep.building_idx[0]]
        assert bid == "aa"

    def test_nearest_wall_by_exhaustive_scan(self):
        # every hit is minimal over a per-segment scalar scan
        from geotag_facade.synth import SceneConfig, generate_scene
        from geotag_facade.projection import FootprintIndex, clip_scene
        for s in range(5):
            sc = generate_scene(400 + s, SceneConfig(
                n_buildings=8, n_cameras=1, with_ground_truth=False))
            local = clip_scene(FootprintIndex(sc.footprint_set), sc.metas[0],
                               50.0)
            sweep = trace_sweep(local, 1.0)
            for i, theta in enumerate(sweep.thetas):
                dirv = heading_direction(theta)
                dists = [ray_wall_distance((0.0, 0.0), dirv, g)
                         for g in local.segments]
                within = [d for d in dists if d is not None and d <= 50.0]
                if sweep.building_idx[i] < 0:
                    assert not within
                else:
                    assert within
                    assert sweep.distances[i] == pytest.approx(
                        min(within), abs=1e-9)


def polar(r, theta_deg):
    dx, dy = heading_direction(theta_deg)
    return (r * dx, r * dy)


class TestSweepMatchesReference:
    """The angular-culled sweep against the dense every-ray, every-wall one.

    Equality is exact: both kernels evaluate the same expressions for
    every (ray, segment) pair the culled one keeps, so any pair it drops
    that the dense one counts as a hit shows as a changed bit.
    """

    STEPS = (0.1, 0.5, 1.0, 7.5, 45.0)

    def check(self, segments, step_deg, radius=50.0):
        scene = scene_of(segments, radius=radius)
        sweep = trace_sweep(scene, step_deg)
        bidx, dist = reference_nearest_hits(scene, sweep.thetas)
        assert np.array_equal(sweep.building_idx, bidx)
        assert np.array_equal(sweep.distances, dist)
        return sweep

    def test_empty_scene(self):
        for step in self.STEPS:
            sweep = self.check([], step)
            assert (sweep.building_idx == -1).all()

    def test_seeded_random_scenes(self):
        rng = np.random.default_rng(41)
        for k in range(150):
            segs = [seg(*rng.uniform(-60, 60, 4), f"b{rng.integers(4)}")
                    for _ in range(int(rng.integers(1, 30)))]
            self.check(segs, self.STEPS[k % len(self.STEPS)],
                       radius=float(rng.choice([20.0, 50.0])))

    def test_vertices_on_grid_headings(self):
        # the grid ray through a vertex meets the wall exactly at s = 0
        # or 1, so rounding decides the hit: the arc must keep that ray
        rng = np.random.default_rng(42)
        for step in self.STEPS:
            n = round(360 / step)
            for _ in range(40):
                pts = [polar(float(rng.uniform(2, 60)),
                             int(rng.integers(n)) * step) for _ in range(6)]
                segs = [seg(*pts[i], *pts[i + 1], f"b{i % 3}")
                        for i in range(5)]
                self.check(segs, step)
            # each wall spans a few grid rays, starting and ending on one
            segs = []
            for i in range(0, n, max(1, n // 24)):
                a = polar(float(rng.uniform(5, 40)), i * step)
                b = polar(float(rng.uniform(5, 40)), (i + 3) * step)
                segs.append(seg(*a, *b, f"w{i % 5}"))
            self.check(segs, step)

    def test_walls_crossing_north(self):
        rng = np.random.default_rng(43)
        for step in self.STEPS:
            segs = [seg(-3, 10, 4, 12, "a"), seg(2, -20, -1, -25, "b"),
                    seg(*polar(20, -step), *polar(25, step), "c"),
                    seg(*polar(30, 360 - 2 * step), *polar(30, 0), "d"),
                    seg(*polar(35, 0), *polar(30, 3 * step), "e")]
            for _ in range(10):
                segs.append(seg(*polar(float(rng.uniform(3, 60)),
                                       float(rng.uniform(-40, 0))),
                                *polar(float(rng.uniform(3, 60)),
                                       float(rng.uniform(0, 40))),
                                f"r{rng.integers(3)}"))
            self.check(segs, step)

    def test_walls_through_or_near_the_camera(self):
        # a wall through the camera, ending at it, or missing it by less
        # than rounding: the computed side of the camera is noise, so the
        # dense sweep's hits need not lie in the wall's angular span
        rng = np.random.default_rng(44)
        for step in self.STEPS:
            for _ in range(30):
                theta = float(rng.uniform(0, 360))
                off = float(rng.choice([0.0, 1e-12, -1e-12, 1e-13, 1e-15]))
                side = polar(off, theta + 90.0)
                a, b = polar(float(rng.uniform(1, 40)), theta), polar(
                    float(rng.uniform(1, 40)), theta + 180.0)
                segs = [seg(a[0] + side[0], a[1] + side[1],
                            b[0] + side[0], b[1] + side[1], "through"),
                        seg(*polar(float(rng.uniform(1, 40)),
                                   float(rng.uniform(0, 360))), 0.0, 0.0,
                            "ends"),
                        seg(0.0, 0.0, *polar(float(rng.uniform(1, 40)),
                                             float(rng.uniform(0, 360))),
                            "starts"),
                        seg(*polar(1e-12, float(rng.uniform(0, 360))),
                            *polar(float(rng.uniform(1, 40)),
                                   float(rng.uniform(0, 360))), "near"),
                        seg(*polar(float(rng.uniform(1, 40)), theta),
                            *polar(float(rng.uniform(41, 60)), theta),
                            "radial"),
                        seg(-30, 20, 30, 20, "far")]
                self.check(segs, step)

    def test_shared_wall_breaks_ties_by_id(self):
        wall = (-8.0, 12.0, 9.0, 14.0)
        shifted = (-8.0, 12.0 + 5e-10, 9.0, 14.0 + 5e-10)  # inside the window
        for step in self.STEPS:
            sweep = self.check([seg(*wall, "zz"), seg(*wall, "aa"),
                                seg(*shifted, "mm"),
                                seg(-4, 26, 4, 26, "far")], step)
            assert sweep.buildings[sweep.building_idx[0]][0] == "aa"
            # the winner's distance is its own, not the nearest tied hit
            self.check([seg(*wall, "bb"), seg(*shifted, "aa")], step)

    def test_segments_partly_beyond_radius(self):
        rng = np.random.default_rng(45)
        for step in self.STEPS:
            segs = [seg(-60, 30, 60, 30, "long"), seg(40, -10, 70, 10, "out"),
                    seg(50.0, -5.0, 50.0, 5.0, "rim")]
            for _ in range(10):
                segs.append(seg(*polar(float(rng.uniform(20, 45)),
                                       float(rng.uniform(0, 360))),
                                *polar(float(rng.uniform(50, 90)),
                                       float(rng.uniform(0, 360))),
                                f"x{rng.integers(3)}"))
            self.check(segs, step, radius=50.0)

    def test_pair_blocks_split_segments(self, monkeypatch):
        # a small block splits runs of rays mid-segment and makes later
        # blocks lower a ray's nearest distance after earlier ones kept
        # hits for it
        monkeypatch.setattr(raytrace, "_PAIR_BLOCK", 97)
        rng = np.random.default_rng(46)
        for step in (0.5, 1.0, 7.5):
            # a tie across blocks: the id winner "ab" is 5e-10 m farther
            # than "yy" and comes in a later block (earlier when reversed)
            segs = [seg(-9, -12, 9, -12, "yy"),
                    seg(-9, -12 - 5e-10, 9, -12 - 5e-10, "ab")]
            segs += [seg(*rng.uniform((-40, 5, -40, 5), 40),
                         f"b{rng.integers(3)}")
                     for _ in range(25)]  # north of the camera, clear of them
            # every ray, run across several blocks (it starts at the camera)
            segs += [seg(-5, 10, 5, 10, "zz"), seg(-5, 10, 5, 10, "aa"),
                     seg(0.0, 0.0, 30.0, 5.0, "starts")]
            self.check(segs, step)
            self.check(segs[::-1], step)

    def test_street_corridor_at_fine_step(self):
        from geotag_facade.projection import FootprintIndex, clip_scene
        from geotag_facade.synth import SceneConfig, generate_scene
        sc = generate_scene(7, SceneConfig(n_buildings=24, n_cameras=6,
                                           with_ground_truth=False))
        index = FootprintIndex(sc.footprint_set)
        for meta in sc.metas:
            local = clip_scene(index, meta, 50.0)
            sweep = trace_sweep(local, 0.1)
            bidx, dist = reference_nearest_hits(local, sweep.thetas)
            assert np.array_equal(sweep.building_idx, bidx)
            assert np.array_equal(sweep.distances, dist)
            assert (bidx >= 0).any()
            # the point of the culling: each wall meets a small share of
            # the 3,600 rays
            _, _, count = raytrace._ray_runs(local.arrays, 50.0, 3600)
            assert count.sum() < 0.15 * 3600 * len(local.segments)


def sample(theta, building=None, distance=0.0, category=1):
    hit = None if building is None else RayHit(building, category, distance)
    return RaySample(theta=float(theta), hit=hit)


class TestIntervals:
    def test_wrap_merge(self):
        samples = [sample(t) for t in range(360)]
        for t in list(range(342, 360)) + list(range(0, 19)):
            samples[t] = sample(t, "B", 16.0)
        sweep = sweep_from_samples(samples)
        ivs = intervals_from_sweep(sweep)
        assert len(ivs) == 1
        iv = ivs[0]
        assert (iv.angle_lo, iv.angle_hi) == (342.0, 18.0)
        assert iv.width_deg == pytest.approx(36.0)

    def test_three_runs_two_owners(self):
        samples = [sample(t) for t in range(360)]
        for t in range(10, 20):
            samples[t] = sample(t, "B1", 10.0)
        for t in range(20, 30):
            samples[t] = sample(t, "B2", 12.0)
        for t in range(30, 40):
            samples[t] = sample(t, "B1", 11.0)
        ivs = intervals_from_sweep(sweep_from_samples(samples))
        assert len(ivs) == 3
        assert [iv.building_id for iv in ivs] == ["B1", "B2", "B1"]
        assert ivs[0].min_distance == 10.0

    def test_all_miss(self):
        samples = [sample(t) for t in range(360)]
        assert intervals_from_sweep(sweep_from_samples(samples)) == []

    def test_samples_roundtrip(self):
        samples = [sample(t) for t in range(360)]
        samples[5] = sample(5, "B", 12.5)
        samples[6] = sample(6, "B", 11.0)
        samples[10] = sample(10, "C", 30.0, category=3)
        sweep = sweep_from_samples(samples)
        assert sweep_samples(sweep) == samples

    def test_full_circle_single_building(self):
        samples = [sample(t, "B", 5.0) for t in range(360)]
        ivs = intervals_from_sweep(sweep_from_samples(samples))
        assert len(ivs) == 1
        assert (ivs[0].angle_lo, ivs[0].angle_hi) == (0.0, 359.0)

    def test_partition_property(self):
        # hit angles = union of interval grid angles, intervals disjoint
        rng = np.random.default_rng(9)
        from geotag_facade.synth import SceneConfig, generate_scene
        from geotag_facade.projection import FootprintIndex, clip_scene
        for s in range(20):
            sc = generate_scene(100 + s, SceneConfig(
                n_buildings=int(rng.integers(1, 15)), n_cameras=1,
                with_ground_truth=False))
            local = clip_scene(FootprintIndex(sc.footprint_set), sc.metas[0],
                               50.0)
            sweep = trace_sweep(local, 1.0)
            ivs = intervals_from_sweep(sweep)
            hit = {(float(t), sweep.buildings[b][0])
                   for t, b in zip(sweep.thetas, sweep.building_idx) if b >= 0}
            covered = set()
            for iv in ivs:
                n_steps = int(round(iv.width_deg / 1.0))
                angles = [(iv.angle_lo + k) % 360.0 for k in range(n_steps + 1)]
                for a in angles:
                    key = (a, iv.building_id)
                    assert key not in covered  # disjoint runs
                    covered.add(key)
            assert hit == covered


class TestRuns:
    """The array form of the run split against the former loop."""

    def check(self, bidx):
        bidx = np.asarray(bidx, np.int64)
        assert _runs(bidx) == reference_runs(bidx)

    def test_edge_cases(self):
        n = 360
        self.check([])
        self.check([-1] * n)  # all misses
        self.check([4] * n)  # one building all round
        self.check([2] * 10 + [-1] * (n - 20) + [2] * 10)  # across the seam
        self.check([2] * 10 + [-1] * (n - 20) + [3] * 10)  # two at the seam
        self.check([2] * 10 + [5] * (n - 20) + [2] * 10)  # seam, no misses
        self.check([i % 2 for i in range(n)])  # alternating buildings
        self.check([(i // 3) % 2 for i in range(n)])
        self.check([0] + [-1] * (n - 1))
        self.check([-1] * (n - 1) + [0])
        self.check([7])

    def test_random_arrays(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(1, 60))
            owners = int(rng.integers(1, 5))
            # runs of random length, so long runs and seam runs both occur
            lengths = rng.integers(1, 12, size=n)
            vals = rng.integers(-1, owners, size=n)
            self.check(np.repeat(vals, lengths))


class TestIntervalsToPixel:
    def iv(self, lo, hi, building="B"):
        samples = [sample(t) for t in range(360)]
        span = int((hi - lo) % 360)
        for k in range(span + 1):
            t = int((lo + k) % 360)
            samples[t] = sample(t, building, 10.0)
        ivs = intervals_from_sweep(sweep_from_samples(samples))
        assert len(ivs) == 1
        return ivs[0]

    def test_quarter(self):
        out = intervals_to_pixel([self.iv(0, 90)], META)
        assert (out[0].px_lo, out[0].px_hi) == (512.0, 1024.0)

    def test_wrapping_angles_map_inside_image(self):
        out = intervals_to_pixel([self.iv(342, 18)], META)
        assert out[0].px_lo == pytest.approx(409.6)
        assert out[0].px_hi == pytest.approx(614.4)
        assert out[0].px_lo < out[0].px_hi  # wraps in angle, not pixels

    def test_high_north_px(self):
        meta = PanoramaMeta(pano_id="p", lat=0, lon=0, north_px=2040.0,
                            width=2048, height=1024)
        out = intervals_to_pixel([self.iv(170, 190)], meta)
        assert out[0].px_lo == pytest.approx((2040 + 170 / 360 * 2048) % 2048)
        assert out[0].px_hi == pytest.approx((2040 + 190 / 360 * 2048) % 2048)

    def test_seam_crossing_span(self):
        meta = PanoramaMeta(pano_id="p", lat=0, lon=0, north_px=2040.0,
                            width=2048, height=1024)
        out = intervals_to_pixel([self.iv(350, 10)], meta)
        assert out[0].px_lo > out[0].px_hi  # crosses the image seam

    def test_order_consistent_with_angles(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            lo = int(rng.integers(0, 360))
            hi = int((lo + rng.integers(1, 120)) % 360)
            iv = self.iv(lo, hi)
            out = intervals_to_pixel([iv], META)[0]
            span_px = (out.px_hi - out.px_lo) % META.width
            assert span_px == pytest.approx(
                iv.width_deg / 360.0 * META.width, abs=1e-6)

    def test_flip_heading_keeps_span_increasing(self):
        # flipped mapping reverses direction; the span is still lo -> hi
        # in increasing pixel x and keeps its angular width
        iv = self.iv(10, 30)
        out = intervals_to_pixel([iv], META, flip_heading=True)[0]
        span_px = (out.px_hi - out.px_lo) % META.width
        assert span_px == pytest.approx(20 / 360 * META.width)
        from oracle_utils import angle_to_pixel
        assert out.px_lo == angle_to_pixel(30.0, META, flip_heading=True)
        assert out.px_hi == angle_to_pixel(10.0, META, flip_heading=True)
