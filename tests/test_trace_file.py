"""The ``trace`` command's files.

``cocoio.write_trace`` writes each traced panorama's
``intervals_<pano>.json`` straight from ``trace_run``'s interval columns.
Its files must be, byte for byte, what the rows-based writer it replaced
(``reference_write_trace``: the table's rows, one dict each, then
``write_json``) writes; the command must build no interval row on the
way; and ``cocoio.read_trace`` must read back exactly the rows the table
holds.
"""
import json

import pytest

from geotag_facade import cocoio, raytrace
from geotag_facade.cli import main
from geotag_facade.config import RunConfig
from geotag_facade.ingest import (load_category_mapping, load_footprints,
                                  load_panorama_meta)
from geotag_facade.matcher import trace_run
from geotag_facade.projection import FootprintIndex, local_to_geodetic

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
