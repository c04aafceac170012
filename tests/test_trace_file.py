"""The ``trace`` command's files.

``cocoio.write_trace`` writes each traced panorama's
``intervals_<pano>.json`` straight from ``trace_run``'s interval columns.
Its files must be, byte for byte, what the rows-based writer it replaced
(``reference_write_trace``: the table's rows, one dict each, then
``write_json``) writes, on the ``trace`` command's runs and on
hand-built tables whose ids and values stress the encoder; the command
must build no interval row on the way, and walk only the run's config
and hashes in json's pure-Python encoder; ``cocoio.read_trace`` must
read back exactly the rows the table holds; and a camera that a
footprint holds must not be swept.
"""
import json
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from geotag_facade import cocoio, raytrace
from geotag_facade.cli import main
from geotag_facade.config import RunConfig
from geotag_facade.ingest import (load_category_mapping, load_footprints,
                                  load_panorama_meta)
from geotag_facade.matcher import trace_run
from geotag_facade.projection import (FootprintIndex, clip_group,
                                      local_to_geodetic)
from geotag_facade.raytrace import IntervalTable

from oracle_utils import reference_write_trace, table_rows

SETTINGS = [(1.0, False), (1.0, True), (0.1, False), (0.1, True)]


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A seeded street whose third camera stands inside the first
    footprint, and whose last sees nothing within the radius."""
    d = tmp_path_factory.mktemp("scene")
    assert run(["synth", "--seed", 4, "--n-buildings", 12, "--n-cameras", 4,
                "--out", d]) == 0
    ring = json.loads((d / "footprints.geojson").read_text())[
        "features"][0]["geometry"]["coordinates"][0][:-1]
    lines = (d / "metas.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    held = dict(first, pano_id="held",
                lon=sum(p[0] for p in ring) / len(ring),
                lat=sum(p[1] for p in ring) / len(ring))
    lat, lon = local_to_geodetic((first["lat"], first["lon"]), (0.0, 3000.0))
    empty = dict(first, pano_id="empty", lat=lat, lon=lon)
    lines[2:2] = [json.dumps(held)]
    lines.append(json.dumps(empty))
    (d / "metas.jsonl").write_text("\n".join(lines) + "\n")
    return d


def trace(scene, out, step, flip):
    """Run the ``trace`` command; returns its exit code."""
    return run(["trace", "--footprints", scene / "footprints.geojson",
                "--metas", scene / "metas.jsonl",
                "--mapping", scene / "mapping.json", "--out", out,
                "--step-deg", step, *(["--flip-heading"] if flip else [])])


def traced(scene, step, flip):
    """(metas, table, footprints, config) of the run the command traces."""
    footprints = load_footprints(scene / "footprints.geojson",
                                 load_category_mapping(scene / "mapping.json"))
    metas = load_panorama_meta(scene / "metas.jsonl").metas
    config = RunConfig(step_deg=step, flip_heading=flip)
    return (metas, trace_run(FootprintIndex(footprints), metas, config),
            footprints, config)


@pytest.mark.parametrize("step, flip", SETTINGS)
def test_trace_files_equal_the_rows_writer(scene, tmp_path, step, flip):
    assert trace(scene, tmp_path / "got", step, flip) == 2  # one held
    metas, table, footprints, config = traced(scene, step, flip)
    hashes = cocoio.hash_inputs({
        "footprints": scene / "footprints.geojson",
        "metas": scene / "metas.jsonl", "mapping": scene / "mapping.json"})
    want = tmp_path / "want"
    want.mkdir()
    reference_write_trace(want, metas, table, footprints, config.to_dict(),
                          hashes)
    names = sorted(p.name for p in want.iterdir())
    assert len(names) == len(metas) - 1
    assert "intervals_held.json" not in names
    assert "intervals_empty.json" in names
    assert sorted(p.name for p in (tmp_path / "got").glob(
        "intervals_*.json")) == names
    for name in names:
        assert (tmp_path / "got" / name).read_bytes() == \
            (want / name).read_bytes(), name


def test_trace_builds_no_interval_row(scene, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("trace went through interval rows")
    for module in (raytrace, cocoio):
        monkeypatch.setattr(module, "VisibilityInterval", refuse)
    assert trace(scene, tmp_path / "t", 1.0, False) == 2
    assert len(list((tmp_path / "t").glob("intervals_*.json"))) == 5


@pytest.mark.parametrize("step, flip", SETTINGS)
def test_read_trace_reads_back_what_the_writer_wrote(scene, tmp_path, step,
                                                     flip):
    metas, table, footprints, config = traced(scene, step, flip)
    cocoio.write_trace(tmp_path, metas, table, footprints, config.to_dict(),
                       {"footprints": "x"})
    rows = table_rows(table, footprints)
    assert sum(ivs is None for ivs, _ in rows) == 1
    assert sum(ivs == [] for ivs, _ in rows) == 1
    for meta, (ivs, _) in zip(metas, rows):
        path = tmp_path / f"intervals_{meta.pano_id}.json"
        if ivs is None:
            assert not path.exists()
            continue
        assert cocoio.read_trace(path) == (
            meta.pano_id, ivs, config.radius_m, config.to_dict())


def test_write_trace_of_an_empty_run_writes_nothing(scene, tmp_path):
    metas, table, footprints, config = traced(scene, 1.0, False)
    empty = trace_run(FootprintIndex(footprints), [], config)
    cocoio.write_trace(tmp_path, [], empty, footprints, config.to_dict(), {})
    assert list(tmp_path.iterdir()) == []


def test_a_held_camera_is_not_swept(scene):
    # its walls are back faces, so the sweep gives it no ray
    for step, flip in SETTINGS:
        metas, table, footprints, config = traced(scene, step, flip)
        c = [m.pano_id for m in metas].index("held")
        assert table.containing[c] == footprints.building_ids[0]
        assert table.offsets[c] == table.offsets[c + 1]
        assert len(table.owner) > 0
    walls = clip_group(FootprintIndex(footprints), metas,
                       config.radius_m).walls
    held = walls.cam == c
    assert held.any() and not walls.front[held].any()
    assert walls.front[~held].any()


# ---------------------------------------------------------------------------
# The template writer against the rows writer, on hand-built tables
# ---------------------------------------------------------------------------

# a pano id names a file, so these hold no NUL and no "/"
NAMES = ['q"uote', "back\\slash", "été", "\U0001f3e0", "line\u2028sep",
         "para\u2029sep", "tab\tnew\nline\x1f\x7f", "", "7", "<b>&amp;"]
FLOATS = [1e-7, 1e16, -0.0, 0.0, 5e-324, 1e22, 1.5e300, -2.5e-300, 1 / 3,
          359.99999999999994, 2048.0, 123456789.123, 1e-05, 1e15]
CONFIGS = [RunConfig().to_dict(), {},
           {"z": [1, 2.5e-8, None, True], "é\u2028": {"y": {}, "x": []}}]
HASHES = [{"footprints": "ab", "metas": "cd", "mapping": "ef"}, {},
          {"\x00": "\U0001f3e0"}]


def hand_run(cameras):
    """(metas, table, footprints) of a run whose camera ``c`` is
    ``cameras[c]``: a pano id and either its rows, each (building_id,
    category, angle_lo, angle_hi, min_distance, px_lo, px_hi), or None
    when a footprint holds it. Each row is its own owner, and
    ``footprints`` names the rows as a footprint set does."""
    rows = [r for _, rs in cameras for r in rs or ()]
    footprints = SimpleNamespace(building_ids=[r[0] for r in rows],
                                 categories=[r[1] for r in rows])

    def column(k):
        return np.array([r[k] for r in rows], float)
    table = IntervalTable(
        containing=[None if rs is not None else "holder"
                    for _, rs in cameras],
        offsets=np.cumsum([0] + [len(rs or ()) for _, rs in cameras]),
        owner=np.arange(len(rows)),
        angle_lo=column(2), angle_hi=column(3), min_distance=column(4),
        px_lo=column(5), px_hi=column(6))
    metas = [SimpleNamespace(pano_id=p) for p, _ in cameras]
    return metas, table, footprints


def row(building_id="B", category=1, *values):
    return (building_id, category,
            *(values + (10.0, 350.0, 12.5, 28.0, 2020.0))[:5])


def assert_writers_agree(tmp_path, cameras, config=CONFIGS[0],
                         hashes=HASHES[0]):
    """Both writers, on the run of ``cameras``; returns the file names."""
    metas, table, footprints = hand_run(cameras)
    got, want = tmp_path / "got", tmp_path / "want"
    got.mkdir()
    want.mkdir()
    cocoio.write_trace(got, metas, table, footprints, config, hashes)
    reference_write_trace(want, metas, table, footprints, config, hashes)
    names = sorted(p.name for p in want.iterdir())
    assert sorted(p.name for p in got.iterdir()) == names
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name
    return names


HAND_RUNS = {
    "ids": [(p, [row(b, k), row(b[::-1], k + 2)])
            for k, (p, b) in enumerate(zip(NAMES, reversed(NAMES)))],
    "control-ids": [("c", [row("\x00\x01\x1b", 3), row("\ud800", 4),
                           row("\\u0041", 5), row("</script>", 6)])],
    "floats": [(f"f{k}", [row("B", k, *FLOATS[k:k + 5]),
                          row("C", -k, *FLOATS[-k - 5:len(FLOATS) - k])])
               for k in range(len(FLOATS) - 4)],
    "not-finite": [("n", [row("B", 1, math.inf, -math.inf, math.nan)])],
    "empty-first": [("e", []), ("a", [row()]), ("b", [row("C", 2)])],
    "empty-last": [("a", [row()]), ("b", [row("C", 2)]), ("e", [])],
    "all-empty": [("a", []), ("b", [])],
    "held-ends": [("h0", None), ("a", [row()]), ("e", []),
                  ("b", [row("C", 2), row()]), ("h1", None)],
    "all-held": [("a", None), ("b", None)],  # writes nothing
    "numpy-values": [("np", [row(np.str_("Bé"), np.int64(7)),
                             row("C", np.int8(-3))])],
}


@pytest.mark.parametrize("cameras", HAND_RUNS.values(), ids=HAND_RUNS)
@pytest.mark.parametrize("config, hashes", zip(CONFIGS, HASHES),
                         ids=["run-config", "empty", "odd-keys"])
def test_template_writer_equals_the_rows_writer(tmp_path, cameras, config,
                                                hashes):
    names = assert_writers_agree(tmp_path, cameras, config, hashes)
    assert len(names) == sum(rs is not None for _, rs in cameras)


@pytest.mark.parametrize("seed", range(6))
def test_seeded_runs_equal_the_rows_writer(tmp_path, seed):
    rng = random.Random(seed)

    def value():
        return rng.choice([rng.uniform(0, 360), rng.choice(FLOATS),
                           rng.random() * 10.0 ** rng.randint(-320, 300)])
    cameras = [(f"{rng.choice(NAMES)}{k}",
                None if rng.random() < 0.15 else
                [row(rng.choice(NAMES), rng.randint(-5, 10**12),
                     *(value() for _ in range(5)))
                 for _ in range(rng.choice([0, 1, 2, 7, 40]))])
               for k in range(rng.randint(1, 30))]
    assert_writers_agree(tmp_path, cameras)


@pytest.mark.parametrize("n", [1, 40])
def test_write_trace_walks_json_in_python_at_most_once(tmp_path, monkeypatch,
                                                       n):
    # json's pure-Python encoder lays out only the run's config and hashes
    calls = []
    make = json.encoder._make_iterencode

    def counted(*args, **kwargs):
        calls.append(args)
        return make(*args, **kwargs)
    monkeypatch.setattr(json.encoder, "_make_iterencode", counted)
    metas, table, footprints = hand_run(
        [(f"p{k}", [row(f"B{j}", j) for j in range(k % 4)])
         for k in range(n)])
    cocoio.write_trace(tmp_path, metas, table, footprints, CONFIGS[0],
                       HASHES[0])
    assert len(list(tmp_path.iterdir())) == n
    assert len(calls) <= 1
