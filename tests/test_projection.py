import math
import random

import numpy as np
import pytest

from geotag_facade import (DegenerateSceneError, FootprintIndex,
                           OutOfRangeError, PanoramaMeta, clip_scene,
                           geodetic_to_local, local_to_geodetic)
from geotag_facade import projection
from geotag_facade.ingest import BuildingFootprint, FootprintSet
from geotag_facade.projection import METERS_PER_DEGREE, clip_group
from geotag_facade.synth import SceneConfig, generate_scene

from oracle_utils import (angle_to_pixel, haversine_m, linear_clip_scene,
                          normalize_angle, pixel_to_angle,
                          reference_candidate_pairs)


def meta(north_px=512.0, width=2048, height=1024, lat=0.0, lon=0.0,
         pano_id="p"):
    return PanoramaMeta(pano_id=pano_id, lat=lat, lon=lon, north_px=north_px,
                        width=width, height=height)


class TestGeodeticLocal:
    def test_identity(self):
        assert geodetic_to_local((40.7, -74.0), (40.7, -74.0)) == (0.0, 0.0)

    def test_meridian_step_matches_haversine(self):
        # 0.0009 deg of latitude at the equator
        p = geodetic_to_local((0.0, 0.0), (0.0009, 0.0))
        assert p.x == 0.0
        expected = 0.0009 * METERS_PER_DEGREE
        assert p.y == pytest.approx(expected)
        assert p.y == pytest.approx(100.0816, abs=1e-3)
        oracle = haversine_m((0.0, 0.0), (0.0009, 0.0))
        assert abs(p.y - oracle) / oracle < 1e-4  # < 0.01%

    def test_longitude_step_at_lat60(self):
        p = geodetic_to_local((60.0, 10.0), (60.0, 10.001))
        assert p.y == 0.0
        assert p.x == pytest.approx(55.60, abs=0.01)
        oracle = haversine_m((60.0, 10.0), (60.0, 10.001))
        assert abs(p.x - oracle) / oracle < 1e-4

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            geodetic_to_local((0.0, 0.0), (1.0, 0.0))  # ~111 km

    def test_inverse_identity(self):
        assert local_to_geodetic((40.0, -74.0), (0.0, 0.0)) == (40.0, -74.0)

    def test_inverse_known_offset(self):
        lat, lon = local_to_geodetic((40.0, -74.0), (0.0, 111.195))
        assert lat == pytest.approx(40.001, abs=1e-6)
        assert lon == -74.0

    @pytest.mark.parametrize("lon0, east", [(179.9999, 50.0),
                                            (-179.9999, -50.0)])
    def test_inverse_wraps_across_the_antimeridian(self, lon0, east):
        # 50 m past the antimeridian lands on its far side, in (-180, 180]
        lat, lon = local_to_geodetic((0.0, lon0), (east, 0.0))
        assert lat == 0.0 and -180.0 < lon <= 180.0
        assert math.copysign(1.0, lon) == -math.copysign(1.0, lon0)
        assert geodetic_to_local((0.0, lon0), (lat, lon)).x == \
            pytest.approx(east, abs=1e-6)

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(10_000):
            origin = (rng.uniform(-75, 75), rng.uniform(-179.5, 179.5))
            p = (rng.uniform(-200, 200), rng.uniform(-200, 200))
            lat, lon = local_to_geodetic(origin, p)
            q = geodetic_to_local(origin, (lat, lon))
            # compare in degrees via the inverse map
            dlat = abs(q.y - p[1]) / METERS_PER_DEGREE
            dlon = (abs(q.x - p[0]) / METERS_PER_DEGREE
                    / max(math.cos(math.radians(origin[0])), 1e-6))
            assert dlat < 1e-9 and dlon < 1e-9

    def test_distance_vs_haversine_within_point1_percent(self):
        rng = random.Random(11)
        for _ in range(2_000):
            origin = (rng.uniform(-75, 75), rng.uniform(-179.5, 179.5))
            px, py = rng.uniform(-200, 200), rng.uniform(-200, 200)
            if math.hypot(px, py) < 1.0:
                continue
            point = local_to_geodetic(origin, (px, py))
            q = geodetic_to_local(origin, point)
            d = math.hypot(q.x, q.y)
            oracle = haversine_m(origin, point)
            assert abs(d - oracle) / oracle < 1e-3


class TestAnglePixel:
    def test_north_maps_to_north_px(self):
        assert angle_to_pixel(0.0, meta()) == 512.0

    def test_quarter_turn(self):
        assert angle_to_pixel(90.0, meta()) == 1024.0

    def test_wrap(self):
        assert angle_to_pixel(350.0, meta(north_px=2000)) == pytest.approx(
            1943.1111, abs=1e-3)

    def test_pixel_to_angle_at_north(self):
        assert pixel_to_angle(512.0, meta()) == 0.0

    def test_antipode_pixel(self):
        m = meta()
        x = (m.north_px + m.width / 2) % m.width
        assert pixel_to_angle(x, m) == pytest.approx(180.0)

    def test_round_trip_many(self):
        rng = random.Random(3)
        m = meta(north_px=137.25)
        for _ in range(1000):
            x = rng.uniform(0, m.width)
            x2 = angle_to_pixel(pixel_to_angle(x, m), m)
            assert abs(x2 - x) < 1e-9 or abs(abs(x2 - x) - m.width) < 1e-9

    def test_bijection_monotone(self):
        m = meta(north_px=0.0)
        xs = [angle_to_pixel(t / 10.0, m) for t in range(3600)]
        assert all(b > a for a, b in zip(xs, xs[1:]))
        assert all(0 <= x < m.width for x in xs)

    def test_flip_heading_reverses(self):
        m = meta()
        assert angle_to_pixel(90.0, m, flip_heading=True) == 0.0
        assert pixel_to_angle(0.0, m, flip_heading=True) == pytest.approx(90.0)

    def test_normalize_idempotent(self):
        for t in (-10.0, 0.0, 359.999, 720.5):
            n = normalize_angle(t)
            assert 0.0 <= n < 360.0
            assert normalize_angle(n) == n


def footprint_at(origin, local_ring, building_id="b0", category=1):
    geo = [local_to_geodetic(origin, p) for p in local_ring]
    return BuildingFootprint(building_id=building_id,
                             ring=tuple(geo + [geo[0]]),
                             raw_label="x", category=category)


class TestClipScene:
    origin = (40.0, -74.0)

    def cam(self):
        return meta(lat=self.origin[0], lon=self.origin[1])

    def test_far_building_excluded(self):
        fp = footprint_at(self.origin,
                          [(195, -5), (205, -5), (205, 5), (195, 5)])
        scene = clip_scene(FootprintIndex(FootprintSet.of([fp])), self.cam(),
                           50.0)
        assert scene.segments == []

    def test_rim_building_included(self):
        # one vertex at 49 m, the others at 60 m
        fp = footprint_at(self.origin, [(0, 49), (10, 60), (-10, 60)])
        scene = clip_scene(FootprintIndex(FootprintSet.of([fp])), self.cam(),
                           50.0)
        assert len(scene.segments) == 3

    def test_camera_inside_marks_degenerate(self):
        fp = footprint_at(self.origin, [(-5, -5), (5, -5), (5, 5), (-5, 5)])
        scene = clip_scene(FootprintIndex(FootprintSet.of([fp])), self.cam(),
                           50.0)
        assert scene.degenerate
        assert scene.containing_building == "b0"
        from geotag_facade import trace_sweep
        with pytest.raises(DegenerateSceneError):
            trace_sweep(scene)

    def test_monotone_in_radius(self):
        rng = random.Random(5)
        fps = []
        for i in range(30):
            cx, cy = rng.uniform(-120, 120), rng.uniform(-120, 120)
            s = rng.uniform(3, 12)
            fps.append(footprint_at(
                self.origin,
                [(cx - s, cy - s), (cx + s, cy - s), (cx + s, cy + s),
                 (cx - s, cy + s)], building_id=f"b{i}"))
        cam = self.cam()
        index = FootprintIndex(FootprintSet.of(fps))
        prev = set()
        for r in (30.0, 50.0, 70.0, 100.0):
            scene = clip_scene(index, cam, r)
            if scene.degenerate:
                pytest.skip("random layout covered the camera")
            cur = {(s.building_id, s.ax, s.ay, s.bx, s.by)
                   for s in scene.segments}
            assert prev <= cur
            prev = cur


def geo_far(origin, p):
    """local_to_geodetic without its 10 km refusal, longitude wrapped."""
    lat = origin[0] + p[1] / METERS_PER_DEGREE
    lon = origin[1] + p[0] / (math.cos(math.radians(origin[0]))
                              * METERS_PER_DEGREE)
    return lat, (lon + 180.0) % 360.0 - 180.0


def polygon(rng, cx, cy, size):
    """Star-shaped ring of 3-6 vertices around (cx, cy), in local meters."""
    angles = sorted(rng.uniform(0, 2 * math.pi)
                    for _ in range(rng.randint(3, 6)))
    return [(cx + size * rng.uniform(0.4, 1.0) * math.cos(a),
             cy + size * rng.uniform(0.4, 1.0) * math.sin(a))
            for a in angles]


def ring_fp(geo_ring, building_id, category=1):
    return BuildingFootprint(building_id=building_id,
                             ring=tuple(geo_ring + [geo_ring[0]]),
                             raw_label="x", category=category)


def assert_pairs_match(index, cams, radius_m):
    """candidate_pairs equals reference_candidate_pairs, array for array
    and dtype for dtype: as the group takes it, through the cells
    whatever its size, and through the cells with the masks of unfiled
    boxes and out-of-bounds cameras cut into chunks of 7 cells."""
    want = reference_candidate_pairs(index, cams, radius_m)
    for group_cells, mask_cells in ((projection._MASK_GROUP_CELLS,
                                     projection._MASK_CELLS),
                                    (-1, projection._MASK_CELLS), (-1, 7)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(projection, "_MASK_GROUP_CELLS", group_cells)
            mp.setattr(projection, "_MASK_CELLS", mask_cells)
            got = index.candidate_pairs(cams, radius_m)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    return want


class TestFootprintIndex:
    """clip_scene through the index equals the linear scan it replaced,
    and the candidate lookup equals the mask over every pair."""

    @staticmethod
    def assert_same(fps, cam, radius_m, index=None):
        if index is None:
            index = FootprintIndex(FootprintSet.of(fps))
        assert_pairs_match(index, [cam], radius_m)
        got = clip_scene(index, cam, radius_m)
        want = linear_clip_scene(fps, cam, radius_m)
        assert got.segments == want.segments
        assert got.buildings == want.buildings
        assert got.degenerate == want.degenerate
        assert got.containing_building == want.containing_building
        return got

    def test_len_counts_footprints(self):
        origin = (40.0, -74.0)
        fps = [footprint_at(origin, [(0, 10), (5, 10), (5, 15)], f"b{i}")
               for i in range(7)]
        assert len(FootprintIndex(FootprintSet.of(fps))) == 7
        assert len(FootprintIndex(FootprintSet.of(iter(fps)))) == 7

    def test_rank_is_the_place_in_sorted_distinct_ids(self):
        """The one-sort rank equals a dict over ``sorted(set(ids))`` on
        ids that repeat, are non-ASCII, differ only by a trailing NUL
        (which a numpy ``<U`` array would drop) or prefix one another."""
        pool = ["a", "a\x00", "a\x00\x00", "ab", "abc", "a#1", "a#2", "b",
                "é", "é\x00", "日", "日本", "", "\x00", "9", "10"]
        rng = random.Random(5)
        ring = [(0, 10), (5, 10), (5, 15)]
        for n in (0, 1, 2, 3, 16, 40, 300):
            ids = pool[:n] if n <= len(pool) else rng.choices(pool, k=n)
            rng.shuffle(ids)
            rank_of = {b: r for r, b in enumerate(sorted(set(ids)))}
            index = FootprintIndex(FootprintSet.of(
                footprint_at((40.0, -74.0), ring, bid) for bid in ids))
            assert index.rank.dtype == np.int64
            assert index.rank.tolist() == [rank_of[b] for b in ids]
            assert projection.id_ranks(ids).tolist() == index.rank.tolist()

    def test_seeded_random_scenes(self):
        rng = random.Random(13)
        for _ in range(60):
            origin = (rng.uniform(-80, 80), rng.uniform(-180, 180))
            fps = []
            for i in range(40):
                near = rng.random() < 0.8
                reach = rng.uniform(0, 250) if near else rng.uniform(9e3, 14e3)
                a = rng.uniform(0, 2 * math.pi)
                ring = polygon(rng, reach * math.cos(a), reach * math.sin(a),
                               rng.uniform(2, 40))
                fps.append(ring_fp([geo_far(origin, p) for p in ring],
                                   f"b{i:02d}", i % 5 + 1))
            index = FootprintIndex(FootprintSet.of(fps))
            cams = []
            for _ in range(5):
                lat, lon = local_to_geodetic(
                    origin, (rng.uniform(-150, 150), rng.uniform(-150, 150)))
                cams.append(meta(lat=lat, lon=lon))
                for r in (5.0, 50.0, rng.uniform(1, 300)):
                    self.assert_same(fps, cams[-1], r, index)
            for r in (5.0, 50.0, 300.0):
                assert_pairs_match(index, cams, r)

    def test_near_pole_wide_longitude_rings(self):
        # near a pole a few meters span many degrees of longitude, so
        # rings cross the +-180 wrap as seen from the camera
        rng = random.Random(17)
        for _ in range(30):
            fps = []
            for i in range(25):
                lon0 = rng.uniform(-180, 180)
                span = rng.choice((0.5, 20.0, 170.0, 300.0))
                ring = [(rng.uniform(89.99, 89.9995),
                         (lon0 + rng.uniform(0, span) + 180) % 360 - 180)
                        for _ in range(rng.randint(3, 5))]
                fps.append(ring_fp(ring, f"b{i:02d}"))
            cam = meta(lat=rng.uniform(89.992, 89.999),
                       lon=rng.uniform(-180, 180))
            for r in (20.0, 200.0, 2000.0):
                self.assert_same(fps, cam, r)

    def test_city_grid_of_streets(self):
        # several synthetic streets tiled 100 m apart around one origin
        origin = (35.0, 139.0)
        fps, cams = [], []
        for k in range(5):
            street = generate_scene(700 + k, SceneConfig(
                n_buildings=40, n_cameras=6, with_ground_truth=False))

            def move(p):
                x, y = geodetic_to_local(street.origin, p)
                return local_to_geodetic(origin, (x - 150.0, y + 100.0 * k))

            fps += [ring_fp([move(p) for p in fp.ring[:-1]],
                            f"k{k}_{fp.building_id}", fp.category)
                    for fp in street.footprints]
            for m in street.metas:
                lat, lon = move((m.lat, m.lon))
                cams.append(meta(lat=lat, lon=lon,
                                 pano_id=f"k{k}_{m.pano_id}"))
        index = FootprintIndex(FootprintSet.of(fps))
        kept = 0
        for cam in cams:
            scene = self.assert_same(fps, cam, 50.0, index)
            assert scene.buildings and not scene.degenerate
            kept += len(index.candidate_pairs([cam], 50.0)[1])
        assert kept < 0.1 * len(fps) * len(cams)

    def test_camera_inside_footprint(self):
        origin = (40.0, -74.0)
        fps = [footprint_at(origin, [(-5, -5), (5, -5), (5, 5), (-5, 5)],
                            "trap"),
               footprint_at(origin, [(10, -5), (20, -5), (20, 5), (10, 5)],
                            "next"),
               footprint_at(origin, [(-30, -30), (30, -30), (30, 30),
                                     (-30, 30)], "outer")]
        scene = self.assert_same(fps, meta(lat=origin[0], lon=origin[1]),
                                 50.0)
        assert scene.degenerate and scene.containing_building == "trap"

    def test_ring_exactly_at_radius(self):
        from geotag_facade.projection import _local_xy
        from oracle_utils import _ring_min_distance
        origin = (51.5, -0.12)
        cam = meta(lat=origin[0], lon=origin[1])
        fp = footprint_at(origin, [(-4, 50), (4, 50), (4, 60), (-4, 60)])
        cos_lat = math.cos(math.radians(cam.lat))
        xs, ys = zip(*(_local_xy(lat, lon, cam.lat, cam.lon, cos_lat)
                       for lat, lon in fp.ring[:-1]))
        d = _ring_min_distance(xs, ys)
        assert self.assert_same([fp], cam, d).buildings == (("b0", 1),)
        assert self.assert_same([fp], cam,
                                math.nextafter(d, 0.0)).buildings == ()

    def test_footprints_beyond_flat_plane_range(self):
        origin = (-33.9, 151.2)
        cam = meta(lat=origin[0], lon=origin[1])
        far = ring_fp([geo_far(origin, p) for p in
                       [(12e3, 0), (12.01e3, 0), (12.01e3, 10)]], "far")
        # one vertex past 10 km, one edge passing 20 m from the camera
        long = ring_fp([geo_far(origin, p) for p in
                        [(-100, 20), (10.5e3, 20), (10.5e3, 30)]], "long")
        near = footprint_at(origin, [(0, 10), (5, 10), (5, 15)], "near")
        scene = self.assert_same([far, long, near], cam, 50.0)
        assert scene.buildings == (("near", 1),)

    @pytest.mark.parametrize("cam_lon", [179.9999, -179.9999, 180.0, -180.0])
    def test_antimeridian(self, cam_lon):
        lat = 10.0
        east = ring_fp([(lat + 1e-4, 179.9997), (lat + 1e-4, 179.9998),
                        (lat + 2e-4, 179.9998)], "east")
        west = ring_fp([(lat - 1e-4, -179.9997), (lat - 1e-4, -179.9998),
                        (lat - 2e-4, -179.9998)], "west")
        across = ring_fp([(lat + 3e-4, 179.99995), (lat + 3e-4, -179.99995),
                          (lat + 4e-4, -179.99995), (lat + 4e-4, 179.99995)],
                         "across")
        cam = meta(lat=lat, lon=cam_lon)
        scene = self.assert_same([east, west, across], cam, 80.0)
        assert {b for b, _ in scene.buildings} == {"east", "west", "across"}


class TestCandidateLookup:
    """The cell lookup names the pairs that the mask over every pair
    names, on scenes built to reach the lookup's bounds."""

    def test_random_global_scenes(self):
        # rings anywhere, across the antimeridian, at one camera group's
        # antipodal meridian, too big to file in a cell, and near a pole
        # spanning wide longitudes; cameras by each, radii 1 m to 5 km
        rng = random.Random(37)
        seen = {"broken": 0, "unfiled": 0, "pole": 0}
        for _ in range(25):
            centres = [(rng.uniform(-70, 70), rng.uniform(-180, 180))
                       for _ in range(3)]
            centres.append((rng.uniform(-70, 70),
                            rng.choice((-1.0, 1.0)) * 179.9995))
            lat0, lon0 = centres[0]
            centres.append((lat0, lon0 - math.copysign(180.0, lon0)))
            fps, cams = [], []
            for origin in centres:
                for _ in range(rng.randint(1, 8)):
                    d, a = rng.uniform(0, 300), rng.uniform(0, 2 * math.pi)
                    size = rng.choice((rng.uniform(2, 40),
                                       rng.uniform(100, 3000)))
                    ring = polygon(rng, d * math.cos(a), d * math.sin(a),
                                   size)
                    fps.append(ring_fp([geo_far(origin, p) for p in ring],
                                       f"b{len(fps):03d}"))
                cams += [meta(lat=lat, lon=lon) for lat, lon in (
                    geo_far(origin, (rng.uniform(-200, 200),
                                     rng.uniform(-200, 200)))
                    for _ in range(3))]
            for i in range(5):
                lon = rng.uniform(-180, 180)
                span = rng.choice((0.5, 20.0, 170.0, 300.0))
                fps.append(ring_fp(
                    [(rng.uniform(89.99, 89.9995),
                      (lon + rng.uniform(0, span) + 180) % 360 - 180)
                     for _ in range(4)], f"p{i}"))
            cams.append(meta(lat=rng.uniform(89.992, 89.999),
                             lon=rng.uniform(-180, 180)))
            index = FootprintIndex(FootprintSet.of(fps))
            for r in (1.0, 50.0, 2000.0, 5000.0, rng.uniform(1, 5000)):
                cam, fp = assert_pairs_match(index, cams, r)
                assert_pairs_match(index, rng.sample(cams, 4), r)
                lon_c = np.array([m.lon for m in cams])[cam]
                dlo, dhi = index.lon_lo[fp] - lon_c, index.lon_hi[fp] - lon_c
                seen["broken"] += int((((dlo < -180) != (dhi < -180))
                                       | ((dlo > 180) != (dhi > 180))).sum())
                seen["unfiled"] += int(np.isin(fp, index.unfiled).sum())
                seen["pole"] += int((cam == len(cams) - 1).sum())
        # every case the lookup hands to the exact test or to the mask
        # came up
        assert min(seen.values()) > 0, seen

    def test_empty_index_and_empty_group(self):
        cams = [meta(lat=40.0, lon=-74.0), meta(lat=89.9999, lon=0.0),
                meta(lat=0.0, lon=180.0)]
        empty = FootprintIndex(FootprintSet.of([]))
        origin = (40.0, -74.0)
        one = FootprintIndex(FootprintSet.of(
            [footprint_at(origin, [(0, 10), (5, 10), (5, 15)])]))
        for r in (1.0, 50.0):
            assert len(assert_pairs_match(empty, cams, r)[0]) == 0
            assert len(assert_pairs_match(one, [], r)[0]) == 0
        assert assert_pairs_match(one, cams, 50.0)[0].tolist() == [0]

    def test_many_footprints_in_one_cell(self):
        rng = random.Random(41)
        origin = (40.00001, -74.00001)
        fps = [footprint_at(origin, [(x, y), (x + w, y), (x, y + w)],
                            f"b{i:03d}")
               for i, (x, y, w) in enumerate(
                   (rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(1, 9))
                   for _ in range(400))]
        index = FootprintIndex(FootprintSet.of(fps))
        assert np.unique(index.cell_key, return_counts=True)[1].max() >= 300
        cams = [meta(lat=lat, lon=lon) for lat, lon in (
            local_to_geodetic(origin, (rng.uniform(-80, 80),
                                       rng.uniform(-80, 80)))
            for _ in range(12))]
        for r in (1.0, 10.0, 50.0, 200.0):
            assert_pairs_match(index, cams, r)

    def test_box_corners_and_reaches_on_cell_edges(self):
        # boxes, cameras and reaches on the cells' grid lines near 40 N,
        # 74 W, with radii of whole and half cells
        cell = projection._CELL_DEG
        rng = random.Random(43)

        def corner(i, j):
            return (-90.0 + (520_000 + i) * cell,
                    -180.0 + (424_000 + j) * cell)

        fps = []
        for k in range(150):
            i, j = rng.randrange(-8, 8), rng.randrange(-8, 8)
            h, w = rng.choice((0.5, 1, 2)), rng.choice((0.5, 1, 2))
            (a, b), (c, d) = corner(i, j), corner(i + h, j + w)
            fps.append(ring_fp([(a, b), (a, d), (c, d), (c, b)], f"b{k:03d}"))
        index = FootprintIndex(FootprintSet.of(fps))
        cams = [meta(lat=lat, lon=lon) for lat, lon in
                (corner(rng.randrange(-10, 10) / rng.choice((1, 2)),
                        rng.randrange(-10, 10) / rng.choice((1, 2)))
                 for _ in range(20))]
        for m in (0.5, 1, 2, 3, 5):
            r = m * cell * METERS_PER_DEGREE
            for radius in (r, r - projection.CLIP_SLACK_M):
                assert_pairs_match(index, cams, radius)

    def test_reaches_round_the_globe_and_cameras_past_a_pole(self):
        # a camera 1e-4 degrees east of the prime meridian at 89.9 N whose
        # longitude reach comes within a box's width of 180 degrees, so
        # that its reach would meet its antipodal meridian's boxes; and
        # cameras a little past either pole, whose cosine is negative
        box = [(89.9, -179.9999), (89.9, -179.9996), (89.9003, -179.9996)]
        fps = [ring_fp([(lat, lon + k * 1e-4) for lat, lon in box], f"a{k}")
               for k in range(5)]
        fps += [ring_fp([(s * lat, lon) for lat, lon in
                         [(89.9999, 1.0), (89.9999, 1.0003),
                          (89.9998, 1.0003)]], f"p{s}") for s in (1, -1)]
        index = FootprintIndex(FootprintSet.of(fps))
        cam = meta(lat=89.9, lon=1e-4)
        cos_lat = math.cos(math.radians(cam.lat))
        for reach_lon in np.linspace(179.999, 180.0001, 41).tolist():
            r = (reach_lon * cos_lat * METERS_PER_DEGREE
                 - projection.CLIP_SLACK_M)
            assert_pairs_match(index, [cam], r)
        cams = [meta(lat=s * (90.0 + d), lon=1.0) for s in (1, -1)
                for d in (1e-5, 1e-4, 1e-3)]
        for r in (5.0, 50.0, 500.0):
            assert_pairs_match(index, cams, r)

    def test_tiled_city_grid(self):
        # synthetic streets tiled 4 x 3, 400 m apart east-west and 100 m
        # north-south, looked up in groups of 1, 7 and all cameras
        origin = (35.0, 139.0)
        fps, cams = [], []
        for k in range(12):
            street = generate_scene(800 + k, SceneConfig(
                n_buildings=30, n_cameras=5, with_ground_truth=False))
            dx, dy = 400.0 * (k % 4) - 600.0, 100.0 * (k // 4)

            def move(p):
                x, y = geodetic_to_local(street.origin, p)
                return local_to_geodetic(origin, (x + dx, y + dy))

            fps += [ring_fp([move(p) for p in fp.ring[:-1]],
                            f"k{k}_{fp.building_id}", fp.category)
                    for fp in street.footprints]
            cams += [meta(lat=lat, lon=lon) for lat, lon in
                     (move((m.lat, m.lon)) for m in street.metas)]
        index = FootprintIndex(FootprintSet.of(fps))
        for r in (1.0, 50.0, 200.0, 2000.0):
            for size in (1, 7, len(cams)):
                for i in range(0, len(cams), size):
                    assert_pairs_match(index, cams[i:i + size], r)


class TestOneSceneForm:
    """clip_scene's arrays are that camera's clip_group walls, and its
    building ranks follow building-id order."""

    FIELDS = ("ax", "ay", "bx", "by", "ex", "ey", "nx", "ny", "a_dot_n",
              "len2")

    def assert_one_form(self, index, cam, radius_m):
        scene = clip_scene(index, cam, radius_m)
        walls = clip_group(index, [cam], radius_m).walls
        for name in self.FIELDS:
            assert np.array_equal(getattr(scene.arrays, name),
                                  getattr(walls, name)), name
        ranked = [scene.buildings[b][0] for b in scene.rank_to_bidx.tolist()]
        assert ranked == sorted(set(ranked))
        assert sorted(scene.rank_to_bidx.tolist()) == list(
            range(len(scene.buildings)))
        # each wall's rank names its segment's building, the one the
        # index ranks it as
        index_ids = sorted({fp.building_id for fp in index.footprints})
        owners = [s.building_id for s in scene.segments]
        assert [ranked[r] for r in scene.arrays.rank.tolist()] == owners
        assert [index_ids[r] for r in walls.rank.tolist()] == owners
        return scene

    def test_seeded_random_scenes(self):
        rng = random.Random(29)
        walls = 0
        for _ in range(20):
            origin = (rng.uniform(-70, 70), rng.uniform(-180, 180))
            fps = [ring_fp([local_to_geodetic(origin, p) for p in polygon(
                rng, rng.uniform(-120, 120), rng.uniform(-120, 120),
                rng.uniform(2, 30))], f"b{rng.randrange(25):02d}",
                rng.randint(1, 5)) for _ in range(30)]
            index = FootprintIndex(FootprintSet.of(fps))
            for _ in range(4):
                cam = meta(lat=origin[0] + rng.uniform(-5e-4, 5e-4),
                           lon=origin[1] + rng.uniform(-5e-4, 5e-4))
                for r in (20.0, 60.0, 150.0):
                    walls += len(self.assert_one_form(index, cam, r).segments)
        assert walls > 1000

    def test_corridor(self):
        street = generate_scene(41, SceneConfig(
            n_buildings=30, n_cameras=6, with_ground_truth=False))
        index = FootprintIndex(street.footprint_set)
        for cam in street.metas:
            scene = self.assert_one_form(index, cam, 50.0)
            assert len(scene.buildings) > 2

    def test_id_shared_by_two_categories(self):
        origin = (40.0, -74.0)
        fps = [footprint_at(origin, [(10, 10), (20, 10), (20, 20), (10, 20)],
                            "zeta", 3),
               footprint_at(origin, [(-5, 10), (5, 10), (5, 20), (-5, 20)],
                            "shared", 2),
               footprint_at(origin, [(-20, -5), (-10, -5), (-10, 5),
                                     (-20, 5)], "alpha", 1),
               footprint_at(origin, [(-5, -20), (5, -20), (5, -10),
                                     (-5, -10)], "shared", 4)]
        scene = self.assert_one_form(
            FootprintIndex(FootprintSet.of(fps)),
            meta(lat=origin[0], lon=origin[1]), 50.0)
        # first kept order; the shared id is named by its first footprint
        assert scene.buildings == (("zeta", 3), ("shared", 2), ("alpha", 1))
        assert [s.category for s in scene.segments
                if s.building_id == "shared"] == [2] * 8
        assert scene.rank_to_bidx.tolist() == [2, 1, 0]



class TestOneProjection:
    """``_local_xy`` is one rule for floats and for arrays, and
    clip_group's walls are ``_local_xy`` of their rings' vertices, bit
    for bit."""

    @staticmethod
    def assert_walls_project_rings(index, cams, radius_m):
        """Returns the (camera, footprint) pairs kept."""
        group = clip_group(index, cams, radius_m)
        want = []
        for c, f in zip(group.kept_cam.tolist(), group.kept_fp.tolist()):
            cam, lo = cams[c], int(index.ring_start[f])
            lat = index.lat[lo:lo + int(index.ring_len[f])]
            lon = index.lon[lo:lo + len(lat)]
            cos_lat = math.cos(math.radians(cam.lat))
            xy = [tuple(map(float, projection._local_xy(
                a, o, cam.lat, cam.lon, cos_lat)))
                for a, o in zip(lat.tolist(), lon.tolist())]
            x, y = projection._local_xy(lat, lon, cam.lat, cam.lon, cos_lat)
            assert np.array_equal(np.column_stack((x, y)).view(np.int64),
                                  np.array(xy).view(np.int64))
            want += [(c, *a, *b) for a, b in zip(xy, xy[1:] + xy[:1])
                     if math.hypot(b[0] - a[0], b[1] - a[1]) > 1e-9]
        want = np.array(want, float).reshape(-1, 5)
        w = group.walls
        assert w.cam.tolist() == want[:, 0].tolist()
        assert np.array_equal(  # the bits, so that -0.0 is not 0.0
            np.column_stack((w.ax, w.ay, w.bx, w.by)).view(np.int64),
            want[:, 1:].view(np.int64))
        return list(zip(group.kept_cam.tolist(), group.kept_fp.tolist()))

    def test_seeded_scenes(self):
        kept = 0
        for seed in (3, 41, 2003):
            street = generate_scene(seed, SceneConfig(
                n_buildings=30, n_cameras=6, with_ground_truth=False))
            index = FootprintIndex(street.footprint_set)
            for r in (20.0, 50.0, 150.0):
                kept += len(self.assert_walls_project_rings(
                    index, street.metas, r))
        rng = random.Random(37)
        for _ in range(10):
            origin = (rng.uniform(-70, 70), rng.uniform(-180, 180))
            fps = [ring_fp([geo_far(origin, p) for p in polygon(
                rng, rng.uniform(-120, 120), rng.uniform(-120, 120),
                rng.uniform(2, 30))], f"b{i:02d}") for i in range(30)]
            cams = [meta(lat=origin[0] + rng.uniform(-5e-4, 5e-4),
                         lon=origin[1] + rng.uniform(-5e-4, 5e-4))
                    for _ in range(4)]
            kept += len(self.assert_walls_project_rings(
                FootprintIndex(FootprintSet.of(fps)), cams, 100.0))
        assert kept > 300

    def test_rings_across_the_antimeridian(self):
        # about 55 m of longitude lie between the camera and 180 degrees
        cam = meta(lat=10.0, lon=179.9995)
        rng = random.Random(41)
        fps = [ring_fp([geo_far((cam.lat, cam.lon), p) for p in polygon(
            rng, rng.uniform(20, 90), rng.uniform(-60, 60),
            rng.uniform(5, 20))], f"b{i:02d}") for i in range(20)]
        index = FootprintIndex(FootprintSet.of(fps))
        kept = self.assert_walls_project_rings(index, [cam], 100.0)
        across = {i for i, fp in enumerate(fps)
                  if len({lon > 0 for _, lon in fp.ring}) == 2}
        assert len(across) >= 5
        # every ring across 180 degrees lies within 200 m of the camera
        assert across <= {f for _, f in kept}
