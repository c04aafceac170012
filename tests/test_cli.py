import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from geotag_facade.cli import main
from geotag_facade.cocoio import canonical_json, read_coco


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("scene")
    rc = run(["synth", "--seed", 3, "--n-buildings", 10, "--n-cameras", 3,
              "--out", d])
    assert rc == 0
    return d


def test_synth_emits_all_files(scene_dir):
    names = {p.name for p in scene_dir.iterdir()}
    assert {"footprints.geojson", "metas.jsonl", "gt.json",
            "detections.json", "mapping.json", "scene.json"} <= names


def test_trace_writes_one_file_per_camera(scene_dir, tmp_path):
    out = tmp_path / "trace"
    rc = run(["trace", "--footprints", scene_dir / "footprints.geojson",
              "--metas", scene_dir / "metas.jsonl",
              "--mapping", scene_dir / "mapping.json", "--out", out])
    assert rc == 0
    files = sorted(out.glob("intervals_*.json"))
    assert len(files) == 3
    doc = json.loads(files[0].read_text())
    assert doc["config"]["radius_m"] == 50.0
    assert doc["input_hashes"]
    for iv in doc["intervals"]:
        assert set(iv) == {"building_id", "category", "angle_lo", "angle_hi",
                           "px_lo", "px_hi", "min_distance"}


def test_trace_deterministic_bytes(scene_dir, tmp_path):
    outs = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        run(["trace", "--footprints", scene_dir / "footprints.geojson",
             "--metas", scene_dir / "metas.jsonl",
             "--mapping", scene_dir / "mapping.json", "--out", out])
        outs.append(b"".join(p.read_bytes()
                             for p in sorted(out.glob("*.json"))))
    assert outs[0] == outs[1]


def trace_argv(scene, out, footprints=None, *flags):
    return ["trace", "--footprints",
            footprints or scene / "footprints.geojson",
            "--metas", scene / "metas.jsonl",
            "--mapping", scene / "mapping.json", "--out", out, *flags]


def artifacts(out):
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.json"))}


def test_log_level_sends_log_lines_to_stderr_only(scene_dir, tmp_path,
                                                  capsys):
    assert run(["--log-level", "error",
                *trace_argv(scene_dir, tmp_path / "quiet")]) == 0
    quiet = capsys.readouterr()
    assert run(["-v", *trace_argv(scene_dir, tmp_path / "loud")]) == 0
    loud = capsys.readouterr()
    assert quiet.err == ""
    assert "INFO geotag_facade.ingest: loaded 10 footprints" in loud.err
    assert loud.out == quiet.out.replace("quiet", "loud")
    assert artifacts(tmp_path / "loud") == artifacts(tmp_path / "quiet")
    # eval writes its result to stdout, which log lines never enter
    evals = []
    for flags in (["--log-level", "DEBUG"], []):
        assert run([*flags, "eval", "--gt", scene_dir / "gt.json",
                    "--pred", scene_dir / "gt.json"]) == 0
        evals.append(capsys.readouterr().out)
    assert evals[0] == evals[1]
    json.loads(evals[0])


def test_footprints_beyond_flat_plane_range_warn_once(scene_dir, tmp_path,
                                                      capsys, group_cameras):
    # with a 12 km radius, a copy of the street 11 km north is a candidate
    # for every camera but lies past the 10 km flat-plane range
    from geotag_facade.projection import METERS_PER_DEGREE
    doc = json.loads((scene_dir / "footprints.geojson").read_text())
    near = doc["features"]
    shift = 11_000.0 / METERS_PER_DEGREE
    far = [{"type": "Feature",
            "properties": {"building_id": f["properties"]["building_id"]
                           + "_far",
                           "label": f["properties"]["label"]},
            "geometry": {"type": "Polygon", "coordinates": [
                [[lon, lat + shift] for lon, lat in ring]
                for ring in f["geometry"]["coordinates"]]}}
           for f in near]
    both = tmp_path / "both.geojson"
    both.write_text(json.dumps({"type": "FeatureCollection",
                                "features": near + far}))
    warning = (f"WARNING geotag_facade.matcher: skipped {3 * len(far)} "
               "(camera, footprint) pairs: the footprint has a vertex "
               "beyond the 10000 m flat-plane range")
    outs = {}
    for name, fps in (("alone", None), ("both", both)):
        for level in ("WARNING", "ERROR"):
            out = tmp_path / f"{name}-{level}"
            assert run(["--log-level", level, *trace_argv(
                scene_dir, out, fps, "--radius", 12_000)]) == 0
            outs[name, level] = out
            err = capsys.readouterr().err
            lines = [ln for ln in err.splitlines() if "flat-plane" in ln]
            assert lines == ([warning] if name == "both"
                             and level == "WARNING" else [])
    assert artifacts(outs["both", "WARNING"]) == \
        artifacts(outs["both", "ERROR"])
    for name, data in artifacts(outs["alone", "WARNING"]).items():
        if name.startswith("intervals_"):
            got = artifacts(outs["both", "WARNING"])[name]
            assert json.loads(got)["intervals"] == \
                json.loads(data)["intervals"]
    # annotate says it once per run too, with the run's total, in one
    # batch or three and in one group or three, and labels the same boxes
    anns = []
    default = group_cameras.default
    for fps, batch_size, cap in ((None, 1, default), (both, 64, default),
                                 (both, 1, default), (both, 1, 1)):
        group_cameras(cap)
        out = tmp_path / f"ann-{len(anns)}"
        argv = trace_argv(scene_dir, out, fps, "--radius", 12_000,
                          "--batch-size", batch_size)
        assert run(["annotate", *argv[1:], "--detections",
                    scene_dir / "detections.json"]) == 0
        lines = [ln for ln in capsys.readouterr().err.splitlines()
                 if "flat-plane" in ln]
        assert lines == ([] if fps is None else [warning])
        anns.append(json.loads((out / "coarse_annotations.json")
                               .read_text())["annotations"])
    assert anns[0] and all(a == anns[0] for a in anns[1:])


def test_a_mapping_that_maps_no_footprint_warns(scene_dir, tmp_path,
                                                capsys):
    # the synth labels (cat_1 to cat_5) are not New York's
    mapping = Path(__file__).resolve().parent.parent / "configs" \
        / "new_york.json"
    outs, rcs = {}, {}
    for level in ("WARNING", "ERROR"):
        out = outs[level] = tmp_path / level
        argv = trace_argv(scene_dir, out)
        argv[argv.index("--mapping") + 1] = mapping
        rcs[level] = run(["--log-level", level, "annotate", *argv[1:],
                          "--detections", scene_dir / "detections.json"])
        err = capsys.readouterr().err
        if level == "WARNING":
            assert err.splitlines() == [
                f"WARNING geotag_facade.ingest: loaded 0 footprints from "
                f"{scene_dir / 'footprints.geojson'}: all 10 rejected, the "
                f"first (b000) for: label 'cat_4' not in mapping and no "
                f"default"]
        else:
            assert err == ""
    assert rcs == {"WARNING": 0, "ERROR": 0}
    assert artifacts(outs["WARNING"]) == artifacts(outs["ERROR"])


def test_panoramas_none_of_which_is_read_warn(scene_dir, tmp_path, capsys):
    # every metas.jsonl record has a negative width: annotate says so on
    # stderr, and exits and writes as it did without the line
    metas = tmp_path / "metas.jsonl"
    metas.write_text("".join(
        json.dumps({**json.loads(line), "width": -5}) + "\n"
        for line in (scene_dir / "metas.jsonl").read_text().splitlines()))
    outs, rcs = {}, {}
    for level in ("WARNING", "ERROR"):
        out = outs[level] = tmp_path / level
        argv = trace_argv(scene_dir, out)
        argv[argv.index("--metas") + 1] = metas
        rcs[level] = run(["--log-level", level, "annotate", *argv[1:],
                          "--detections", scene_dir / "detections.json"])
        err = capsys.readouterr().err
        if level == "WARNING":
            assert err.splitlines() == [
                f"WARNING geotag_facade.ingest: loaded 0 panoramas from "
                f"{metas}: all 3 rejected, the first (s00003_c00) for: "
                f"non-positive size -5x1024"]
        else:
            assert err == ""
    assert rcs == {"WARNING": 0, "ERROR": 0}
    assert artifacts(outs["WARNING"]) == artifacts(outs["ERROR"])


def test_importing_the_cli_leaves_network_and_sax_modules_out():
    # xml.sax.saxutils pulls urllib.request and ssl, about 3 MB of peak
    # RSS in every command
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, geotag_facade.cli; print(sorted(m for m in "
             "('ssl', 'urllib.request', 'xml.sax') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_trace_missing_input_fatal(tmp_path):
    rc = run(["trace", "--footprints", tmp_path / "nope.geojson",
              "--metas", tmp_path / "nope.jsonl",
              "--mapping", tmp_path / "nope.json",
              "--out", tmp_path / "o"])
    assert rc == 1


@pytest.mark.parametrize("command, flags, needle", [
    ("annotate", ["--radius", -1], "radius_m"),
    ("annotate", ["--batch-size", 0], "batch_size"),
    ("trace", ["--step-deg", 7], "does not divide 360"),
    ("annotate", ["--iou-x", 1.5], "iou_x_min"),
    ("trace", ["--radius", "inf"], "radius_m"),
    ("annotate", ["--threshold-mode", "fixed", "--fixed-threshold", "nan"],
     "fixed_threshold"),
], ids=["radius", "batch-size", "step-deg", "iou-x", "radius-inf",
        "fixed-threshold-nan"])
def test_bad_config_is_a_one_line_error(scene_dir, tmp_path, capsys, command,
                                        flags, needle):
    out = tmp_path / "o"
    args = [command, "--footprints", scene_dir / "footprints.geojson",
            "--metas", scene_dir / "metas.jsonl",
            "--mapping", scene_dir / "mapping.json", "--out", out, *flags]
    if command == "annotate":
        args += ["--detections", scene_dir / "detections.json"]
    rc = run(args)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and needle in err
    assert "Traceback" not in err
    assert not out.exists()  # refused before any input was read


@pytest.mark.parametrize("flags, needle", [
    (["--radius", 0], "radius_m"),
    (["--radius", -5], "radius_m"),
    (["--radius", "nan"], "radius_m"),
    (["--radius", "inf"], "radius_m"),
    (["--corridor-width", "nan"], "corridor_width"),
    (["--fp-rate", "nan"], "fp_rate"),
    (["--fp-rate", "inf"], "fp_rate"),
    (["--seed", -1], "seed"),
], ids=["radius-zero", "radius-negative", "radius-nan", "radius-inf",
        "corridor-width-nan", "fp-rate-nan", "fp-rate-inf", "seed-negative"])
def test_bad_synth_number_is_a_one_line_error(tmp_path, capsys, flags,
                                              needle):
    out = tmp_path / "o"
    rc = run(["synth", "--n-buildings", 2, "--n-cameras", 1, "--out", out,
              *flags])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and needle in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_iou_x_min_range():
    from geotag_facade import ConfigError, RunConfig
    for ok in (0.0, 0.3, 0.999):
        assert RunConfig(iou_x_min=ok).iou_x_min == ok
    for bad in (-0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(ConfigError, match="iou_x_min"):
            RunConfig(iou_x_min=bad)


@pytest.mark.parametrize("fields, needle", [
    (dict(step_deg=0.0), "step_deg must be positive"),
    (dict(step_deg=-1.0), "step_deg must be positive"),
    (dict(step_deg=float("nan")), "step_deg must be positive"),
    (dict(step_deg=0.7), "step_deg 0.7 does not divide 360"),
    (dict(threshold_mode="otsu"), "unknown threshold_mode 'otsu'"),
    (dict(clip_lo=-0.1), "need 0 <= clip_lo <= clip_hi <= 1"),
    (dict(clip_hi=1.5), "need 0 <= clip_lo <= clip_hi <= 1"),
    (dict(clip_lo=0.6, clip_hi=0.5), "need 0 <= clip_lo <= clip_hi <= 1"),
], ids=["step-zero", "step-negative", "step-nan", "step-not-dividing",
        "threshold-mode", "clip-lo", "clip-hi", "clip-crossed"])
def test_run_config_errors(fields, needle):
    from geotag_facade import ConfigError, RunConfig
    with pytest.raises(ConfigError) as e:
        RunConfig(**fields)
    assert needle in str(e.value)


def test_non_finite_radius_and_fixed_threshold():
    """Every artifact echoes the config, and its readers refuse NaN and
    Infinity; a finite threshold outside [0, 1] keeps or drops every box."""
    from geotag_facade import ConfigError, RunConfig
    for ok in (-1.0, 0.0, 1.5):
        assert RunConfig(fixed_threshold=ok).fixed_threshold == ok
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match="fixed_threshold"):
            RunConfig(fixed_threshold=bad)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="radius_m"):
            RunConfig(radius_m=bad)


@pytest.mark.parametrize("iou_thr", [0, -0.5, 1.5, "nan"])
def test_eval_iou_thr_out_of_range(scene_dir, tmp_path, capsys, iou_thr):
    out = tmp_path / "eval.json"
    rc = run(["eval", "--gt", scene_dir / "gt.json",
              "--pred", scene_dir / "gt.json", "--iou-thr", iou_thr,
              "--out", out])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "--iou-thr" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def _bad_image_id(doc):
    doc["annotations"][0]["image_id"] = 10 ** 6


def _bbox(value):
    def breakage(doc):
        doc["annotations"][0]["bbox"] = value
    return breakage


def _no_category(doc):
    del doc["annotations"][0]["category_id"]


def _width(value):
    def breakage(doc):
        doc["images"][0]["width"] = value
    return breakage


def _no_image_id(doc):
    del doc["images"][0]["id"]


def _string_entry(name):
    def breakage(doc):
        doc[name][0] = "entry"
    return breakage


def _annotation_image_id(value):
    def breakage(doc):
        doc["annotations"][0]["image_id"] = value
    return breakage


def _category(value):
    def breakage(doc):
        doc["annotations"][0]["category_id"] = value
    return breakage


def _score(value):
    def breakage(doc):
        doc["annotations"][0]["score"] = value
    return breakage


def _image(**fields):
    def breakage(doc):
        doc["images"][0].update(fields)
    return breakage


def _number_file_name(doc):
    del doc["images"][0]["pano_id"]
    doc["images"][0]["file_name"] = 7


def _duplicate_image_id(doc):
    # image 2 takes image 1's id, which would move image 1's boxes
    assert doc["images"][0]["id"] == 1
    doc["images"][1]["id"] = 1


def _duplicate_pano_id(doc):
    # image 2 takes image 1's panorama, which would merge their boxes
    doc["images"][1]["pano_id"] = doc["images"][0]["pano_id"]


def _duplicate_file_name_stem(doc):
    doc["images"][1]["pano_id"] = None
    doc["images"][1]["file_name"] = f"{doc['images'][0]['pano_id']}.png"


HUGE = 10 ** 400  # an integer too large for a float


@pytest.mark.parametrize("breakage, needle", [
    (None, "byte offset"),
    (_bad_image_id, "names no image"),
    (_bbox([10, 10, 0, 50]), "bbox"),
    (_bbox([10, 10, 50]), "bbox"),
    (_bbox([10, float("nan"), 50, 50]), "bbox"),
    (_no_category, "category_id"),
    (_width("wide"), "images[0]: width"),
    (_width(0), "images[0]: width"),
    (_no_image_id, "images[0]: expected an object with an id"),
    (_string_entry("images"), "images[0]: expected an object"),
    (_string_entry("annotations"), "annotations[0]: expected an object"),
    (_bbox([10, 10, HUGE, 50]), "bbox"),
    (_annotation_image_id([1]), "annotations[0]: image_id [1] names no "
                                "image"),
    (_number_file_name, "images[0]: file_name must be a string"),
    (_width(HUGE), "images[0]: width"),
    (_image(id=[1]), "images[0]: id must be a number or a string"),
    (_image(pano_id=["p"]), "images[0]: pano_id must be a number or a string"),
    (_category("a"), "annotations[0]: category_id must be a number"),
    (_category([1]), "annotations[0]: category_id must be a number"),
    (_bbox([True, True, True, True]), "bbox"),
    (_image(id=True), "images[0]: id must be a number or a string"),
    (_image(pano_id=True), "images[0]: pano_id must be a number or a string"),
    (_annotation_image_id(True), "annotations[0]: image_id True names no "
                                 "image"),
    (_score("high"), "annotations[0]: score must be null or a finite number"),
    (_score(True), "annotations[0]: score must be null or a finite number"),
    (_score(float("nan")), "annotations[0]: score must be null or a finite "
                           "number"),
    (_score(HUGE), "annotations[0]: score must be null or a finite number"),
    (_category(1.5), "annotations[0]: category_id must be a number"),
    (_category(float("nan")), "annotations[0]: category_id must be a number"),
    (_category(1e30), "annotations[0]: category_id must be a number"),
    (_width(1.5), "images[0]: width"),
    (_duplicate_image_id, "images[1]: id must be unique, got 1"),
    (_duplicate_pano_id, "images[1]: pano_id must be unique, got 's00003_c00'"),
    (_duplicate_file_name_stem, "images[1]: pano_id must be unique, got "
                                "'s00003_c00'"),
], ids=["invalid-json", "unknown-image", "bbox-zero-width", "bbox-3-numbers",
        "bbox-nan", "no-category", "width-string", "width-zero",
        "image-without-id", "image-string", "annotation-string",
        "bbox-huge-int", "annotation-image-id-list", "file-name-number",
        "width-huge-int", "image-id-list", "pano-id-list",
        "category-string", "category-list", "bbox-bool", "image-id-bool",
        "pano-id-bool", "annotation-image-id-bool", "score-string",
        "score-bool", "score-nan", "score-huge-int", "category-fraction",
        "category-nan", "category-huge-float", "width-fraction",
        "duplicate-image-id", "duplicate-pano-id",
        "duplicate-file-name-stem"])
def test_eval_bad_coco_is_a_one_line_error(scene_dir, tmp_path, capsys,
                                           breakage, needle):
    text = (scene_dir / "gt.json").read_text()
    if breakage is None:
        text = text[:len(text) // 2]  # truncated
    else:
        doc = json.loads(text)
        breakage(doc)
        text = json.dumps(doc)
    pred = tmp_path / "pred.json"
    pred.write_text(text)
    out = tmp_path / "eval.json"
    rc = run(["eval", "--gt", scene_dir / "gt.json", "--pred", pred,
              "--mode", "both", "--out", out])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and needle in err and str(pred) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_eval_reads_an_integer_bbox_as_its_float(scene_dir, tmp_path,
                                                 capsys):
    # a ground-truth box whose area overflows a float, spelled as
    # integers and as floats: both evaluate, to the same bytes
    doc = json.loads((scene_dir / "gt.json").read_text())
    blocks = []
    for name, side in (("int", 10 ** 160), ("float", 1e160)):
        doc["annotations"][0]["bbox"] = [0, 0, side, side]
        gt, out = tmp_path / f"{name}.json", tmp_path / f"eval_{name}.json"
        gt.write_text(json.dumps(doc))
        rc = run(["eval", "--gt", gt, "--pred", scene_dir / "gt.json",
                  "--mode", "both", "--out", out])
        assert rc == 0 and capsys.readouterr().err == ""
        result = json.loads(out.read_text())
        blocks.append(canonical_json({k: result[k] for k in
                                      ("accuracy", "recall", "ap")}))
    assert str(10 ** 160) in (tmp_path / "int.json").read_text()
    assert blocks[0] == blocks[1]


def _trace_copy(scene_dir, tmp_path, name, breakage):
    """Run ``trace`` on copies of the scene's inputs, ``name`` changed by
    ``breakage(text) -> text or bytes``, or ``annotate`` when ``name`` is
    the detections; returns (exit code, output directory)."""
    paths = {}
    for n in ("footprints.geojson", "metas.jsonl", "mapping.json",
              "detections.json"):
        text = (scene_dir / n).read_text()
        paths[n] = tmp_path / n
        text = breakage(text) if n == name else text
        paths[n].write_bytes(text if isinstance(text, bytes)
                             else text.encode())
    out = tmp_path / "o"
    argv = ["trace", "--footprints", paths["footprints.geojson"],
            "--metas", paths["metas.jsonl"],
            "--mapping", paths["mapping.json"], "--out", out]
    if name == "detections.json":
        argv = ["annotate", *argv[1:], "--detections",
                paths["detections.json"]]
    return run(argv), out


def _json_edit(edit):
    def breakage(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return breakage


def _entries(value):
    return _json_edit(lambda doc: doc.update(entries=value))


def _names(value):
    return _json_edit(lambda doc: doc.update(names=value))


@pytest.mark.parametrize("breakage, needle", [
    (_entries(["cat_1", "cat_2"]), "'entries' object"),
    (_entries({"cat_1": 1, "cat_2": "one"}), "integer category ids"),
    (_entries({"cat_1": 1.9, "cat_2": 2}), "integer category ids (got 1.9)"),
    (_json_edit(lambda doc: doc["entries"].update(cat_1=True)),
     "integer category ids (got True)"),
    (_json_edit(lambda doc: doc["entries"].update(cat_1=10 ** 30)),
     "category ids must form a contiguous 1..K set"),
    (_names({"1_0": "first"}), "names must map the decimal digits of a "
                               "category id to a string, got '1_0'"),
    (_names({" 1": "first"}), "names must map the decimal digits of a "
                              "category id to a string, got ' 1'"),
    (_names({"1": ["x"]}), "names must map the decimal digits of a "
                           "category id to a string, got '1': ['x']"),
    (_names({"1": None}), "names must map the decimal digits of a "
                          "category id to a string, got '1': None"),
    (_names({"1": "one", "01": "uno"}), "names key '01' is not a category "
                                        "id 1..5"),
    (_names({"7": "seven"}), "names key '7' is not a category id 1..5"),
], ids=["entries-list", "entry-not-integer", "entry-fraction", "entry-bool",
        "entry-huge", "names-key-underscore", "names-key-space",
        "names-value-list", "names-value-null", "names-key-leading-zero",
        "names-key-unknown-id"])
def test_bad_mapping_is_a_one_line_error(scene_dir, tmp_path, capsys,
                                         breakage, needle):
    rc, out = _trace_copy(scene_dir, tmp_path, "mapping.json", breakage)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and needle in err
    assert str(tmp_path / "mapping.json") in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("breakage", [
    _json_edit(lambda doc: doc.update(type="Feature")),
    _json_edit(lambda doc: doc.update(features=5)),
    _json_edit(lambda doc: doc.update(features=True)),
    _json_edit(lambda doc: doc.update(features=None)),
], ids=["not-a-collection", "features-number", "features-bool",
        "features-null"])
def test_bad_footprints_file_is_a_one_line_error(scene_dir, tmp_path, capsys,
                                                 breakage):
    rc, out = _trace_copy(scene_dir, tmp_path, "footprints.geojson",
                          breakage)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ")
    assert "expected a GeoJSON FeatureCollection" in err
    assert str(tmp_path / "footprints.geojson") in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def _last_pano_id(pano_id):
    def breakage(text):
        *lines, last = text.splitlines()
        return "\n".join([*lines, json.dumps(
            dict(json.loads(last), pano_id=pano_id))]) + "\n"
    return breakage


@pytest.mark.parametrize("pano_id", ["nul\x00byte", "sub/dir",
                                     "lone\ud800surrogate", "x" * 300],
                         ids=["nul", "slash", "lone-surrogate", "too-long"])
def test_pano_id_that_cannot_name_a_file_writes_no_file(scene_dir, tmp_path,
                                                        capsys, pano_id):
    # the last camera's file would be written after the others'
    rc, out = _trace_copy(scene_dir, tmp_path, "metas.jsonl",
                          _last_pano_id(pano_id))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: panorama ") and repr(pano_id) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(out.iterdir()) == []


NOT_UTF8 = b"\xff\xff\xff"


def _second_line_not_utf8(text):
    """The text with byte 10 of its second line made a \\xff byte."""
    first, second, rest = text.encode().split(b"\n", 2)
    return b"\n".join((first, second[:10] + b"\xff" + second[11:], rest))


@pytest.mark.parametrize("name, breakage", [
    ("mapping.json", lambda text: NOT_UTF8),
    ("footprints.geojson", lambda text: NOT_UTF8),
    ("metas.jsonl", _second_line_not_utf8),
    ("detections.json", lambda text: NOT_UTF8),
], ids=["mapping", "footprints", "metas-line", "detections"])
def test_input_that_is_not_utf8_is_a_one_line_error(scene_dir, tmp_path,
                                                    capsys, name, breakage):
    rc, out = _trace_copy(scene_dir, tmp_path, name, breakage)
    err = capsys.readouterr().err
    # a metas.jsonl line reports its start plus the byte's place in it
    offset = 0 if name != "metas.jsonl" else (
        (scene_dir / name).read_bytes().index(b"\n") + 1 + 10)
    assert rc == 1
    assert err.startswith(f"error: {tmp_path / name}: ")
    assert err.endswith(f"not utf-8 text: invalid start byte "
                        f"(byte offset {offset})\n")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "render"])
def test_artifact_that_is_not_utf8_is_a_one_line_error(scene_dir, tmp_path,
                                                       capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"{" + NOT_UTF8 + b"}")
    out = tmp_path / "out"
    scene = ["--footprints", scene_dir / "footprints.geojson",
             "--metas", scene_dir / "metas.jsonl",
             "--mapping", scene_dir / "mapping.json"]
    rc = run(["eval", "--gt", bad, "--pred", scene_dir / "gt.json", "--out",
              out] if command == "eval" else
             ["render", *scene, "--intervals", bad, "--out", out])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"error: {bad}: not utf-8 text: invalid start byte "
                   f"(byte offset 1)\n")
    assert not out.exists()


@pytest.mark.parametrize("name, text, message", [
    # four 2-byte characters come before the stray comma's brace
    ("mapping.json", '{"a": "\u00e9\u00e9\u00e9\u00e9", }',
     "Expecting property name enclosed in double quotes (byte offset 18)"),
    # the line loop strips the line's three leading spaces
    ("metas.jsonl", '   {"pano_id": 1,}',
     "line 1: Expecting property name enclosed in double quotes "
     "(byte offset 17)"),
], ids=["multibyte", "indented-line"])
def test_malformed_json_reports_the_offset_in_bytes(scene_dir, tmp_path,
                                                    capsys, name, text,
                                                    message):
    rc, out = _trace_copy(scene_dir, tmp_path, name,
                          lambda _: text.encode())
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {tmp_path / name}: {message}\n"
    offset = int(message.rsplit(" ", 1)[1].rstrip(")"))
    assert (tmp_path / name).read_bytes()[offset:offset + 1] == b"}"
    assert not out.exists()


def _string_feature(doc):
    doc["features"][0] = "feature"


def _text_vertex(doc):
    doc["features"][0]["geometry"]["coordinates"][0][1] = ["a", "b"]


def _huge_vertex(doc):
    doc["features"][0]["geometry"]["coordinates"][0][1][0] = HUGE


def _bool_vertex(doc):
    doc["features"][0]["geometry"]["coordinates"][0][1] = [True, True]


def _bool_score(doc):
    doc[0]["score"] = True


def _huge_bbox(doc):
    doc[0]["bbox"][2] = HUGE


def _first_feature_properties(**fields):
    def edit(doc):
        doc["features"][0]["properties"].update(fields)
    return _json_edit(edit)


def _first_detection_image_id(value):
    def edit(doc):
        del doc[0]["pano_id"]
        doc[0]["image_id"] = value
    return _json_edit(edit)


def _first_meta(*drop, **fields):
    def breakage(text):
        first, rest = text.split("\n", 1)
        rec = {k: v for k, v in {**json.loads(first), **fields}.items()
               if k not in drop}
        return json.dumps(rec) + "\n" + rest
    return breakage


@pytest.mark.parametrize("name, breakage, report, key, reason", [
    ("footprints.geojson", _json_edit(_string_feature), "footprints",
     "feature[0]", "feature is not an object"),
    ("footprints.geojson", _json_edit(_text_vertex), "footprints",
     "b000", "non-numeric coordinate"),
    ("metas.jsonl", lambda text: "5\n" + text, "metas", "line 1",
     "not an object"),
    ("footprints.geojson", _json_edit(_huge_vertex), "footprints",
     "b000", "non-numeric coordinate"),
    ("detections.json", _json_edit(_huge_bbox), "detections",
     "result[0]", "non-numeric bbox or score"),
    ("metas.jsonl", _first_meta(width=2048.5), "metas", "s00003_c00",
     "non-integer size 2048.5x1024"),
    ("metas.jsonl", _first_meta(width=HUGE), "metas", "s00003_c00",
     "non-numeric field"),
    ("metas.jsonl", _first_meta(width=10 ** 30), "metas", "s00003_c00",
     f"size {10 ** 30}x1024 above 2**53"),
    ("metas.jsonl", _first_meta(width=2 ** 54, height=2 ** 53), "metas",
     "s00003_c00", f"size {2 ** 54}x{2 ** 53} above 2**53"),
    ("footprints.geojson", _json_edit(_bool_vertex), "footprints",
     "b000", "non-numeric coordinate"),
    ("detections.json", _json_edit(_bool_score), "detections",
     "result[0]", "non-numeric bbox or score"),
    ("metas.jsonl", _first_meta(lat=True), "metas", "s00003_c00",
     "non-numeric field"),
    ("metas.jsonl", _first_meta(lat="40.7"), "metas", "s00003_c00",
     "non-numeric field"),
    ("detections.json", _json_edit(lambda doc: doc[0].update(score="0.5")),
     "detections", "result[0]", "non-numeric bbox or score"),
    ("metas.jsonl", _first_meta(pano_id=None), "metas", "line 1",
     "pano_id must be a string or a number"),
    ("metas.jsonl", _first_meta(pano_id=True), "metas", "line 1",
     "pano_id must be a string or a number"),
    ("metas.jsonl", _first_meta(pano_id=[1, 2]), "metas", "line 1",
     "pano_id must be a string or a number"),
    ("metas.jsonl", _first_meta("lat", pano_id=[1, 2]), "metas", "line 1",
     "missing fields ['lat']"),
    ("detections.json", _json_edit(lambda doc: doc[0].update(
        pano_id={"a": 1})), "detections", "result[0]",
     "pano_id/image_id must be a string or a number"),
    ("detections.json", _first_detection_image_id(False), "detections",
     "result[0]", "pano_id/image_id must be a string or a number"),
    ("footprints.geojson", _first_feature_properties(building_id=[1]),
     "footprints", "feature[0]",
     "building_id and label must be strings or numbers"),
    ("footprints.geojson", _first_feature_properties(label={"x": 1}),
     "footprints", "b000", "building_id and label must be strings or "
                           "numbers"),
], ids=["feature-string", "vertex-text", "meta-line-number",
        "vertex-huge-int", "bbox-huge-int", "meta-width-fraction",
        "meta-width-huge-int", "meta-width-above-2-53",
        "meta-size-2-to-1-above-2-53", "vertex-bool", "score-bool",
        "meta-lat-bool",
        "meta-lat-string", "score-string", "meta-pano-id-null",
        "meta-pano-id-bool", "meta-pano-id-list", "meta-pano-id-list-no-lat",
        "detection-pano-id-object",
        "detection-image-id-bool", "feature-building-id-list",
        "feature-label-object"])
def test_bad_record_is_rejected_into_the_report(scene_dir, tmp_path, name,
                                                breakage, report, key,
                                                reason):
    rc, out = _trace_copy(scene_dir, tmp_path, name, breakage)
    assert rc == 0
    report_file = ("run_report.json" if name == "detections.json"
                   else "trace_report.json")
    load = json.loads((out / report_file).read_text())[
        "load_reports"][report]
    assert load["rejected"] == [{"key": key, "reason": reason}]
    assert load["n_accepted"] == load["n_input"] - 1


def test_whole_floats_load_as_integers(scene_dir, tmp_path):
    # a category id of 1.0 and a width of 2048.0 are whole numbers: they
    # load as 1 and 2048 and trace as the integers do
    def traced(sub, name, breakage):
        (tmp_path / sub).mkdir()
        rc, out = _trace_copy(scene_dir, tmp_path / sub, name, breakage)
        assert rc == 0
        docs = {p.name: json.loads(p.read_text())
                for p in sorted(out.glob("*.json"))}
        for doc in docs.values():
            del doc["input_hashes"]
        for load in docs["trace_report.json"]["load_reports"].values():
            del load["path"]
        return docs
    want = traced("plain", None, None)
    assert traced("mapping", "mapping.json", _json_edit(
        lambda doc: doc["entries"].update(cat_1=1.0))) == want
    assert traced("metas", "metas.jsonl", _first_meta(width=2048.0)) == want

    # a COCO category_id of 3.0 is scored as category 3
    def evaluated(name, category):
        doc = json.loads((scene_dir / "gt.json").read_text())
        for a in doc["annotations"]:
            a["category_id"] = category(a["category_id"])
        pred, out = tmp_path / f"{name}.json", tmp_path / f"eval_{name}.json"
        pred.write_text(json.dumps(doc))
        assert run(["eval", "--gt", scene_dir / "gt.json", "--pred", pred,
                    "--mode", "both", "--out", out]) == 0
        result = json.loads(out.read_text())
        del result["pred"], result["input_hashes"]
        return result
    assert evaluated("floats", float) == evaluated("ints", int)


def test_degenerate_scene_partial_exit(tmp_path):
    # camera sits inside the only building
    from geotag_facade.projection import local_to_geodetic
    origin = (40.0, -74.0)
    ring = [local_to_geodetic(origin, p)
            for p in [(-5, -5), (5, -5), (5, 5), (-5, 5)]]
    (tmp_path / "f.geojson").write_text(json.dumps({
        "type": "FeatureCollection",
        "features": [{"type": "Feature",
                      "properties": {"building_id": "t", "label": "cat_1"},
                      "geometry": {"type": "Polygon", "coordinates":
                                   [[[lon, lat] for lat, lon in
                                     ring + [ring[0]]]]}}]}))
    (tmp_path / "m.jsonl").write_text(json.dumps(
        {"pano_id": "in", "lat": origin[0], "lon": origin[1], "north_px": 0,
         "width": 2048, "height": 1024}))
    (tmp_path / "map.json").write_text(json.dumps(
        {"city": "x", "entries": {"cat_1": 1}}))
    rc = run(["trace", "--footprints", tmp_path / "f.geojson",
              "--metas", tmp_path / "m.jsonl",
              "--mapping", tmp_path / "map.json",
              "--out", tmp_path / "o"])
    assert rc == 2
    report = json.loads((tmp_path / "o" / "trace_report.json").read_text())
    assert report["skipped"] == [["in", "camera inside footprint t"]]


def test_annotate_and_eval_flow(scene_dir, tmp_path):
    out = tmp_path / "ann"
    rc = run(["annotate", "--footprints", scene_dir / "footprints.geojson",
              "--metas", scene_dir / "metas.jsonl",
              "--mapping", scene_dir / "mapping.json",
              "--detections", scene_dir / "detections.json",
              "--out", out, "--seed", 17])
    assert rc == 0
    coarse = json.loads((out / "coarse_annotations.json").read_text())
    assert coarse["info"]["config"]["seed"] == 17
    assert coarse["annotations"]
    for a in coarse["annotations"]:
        assert "building_id" in a and "iou_x" in a and "score" in a
    report = json.loads((out / "run_report.json").read_text())
    assert report["threshold_history"][0] == [0, 0.3]
    t = report["totals"]
    assert t["input_boxes"] == (t["filtered_out"] + t["unmatched"]
                                + t["annotated"] + t["dropped"])

    ev = tmp_path / "eval.json"
    rc = run(["eval", "--gt", scene_dir / "gt.json",
              "--pred", out / "coarse_annotations.json",
              "--mode", "both", "--out", ev])
    assert rc == 0
    result = json.loads(ev.read_text())
    assert result["accuracy"]["accuracy"] == 1.0
    assert result["ap"]["mAP50"] == 1.0


def test_synth_deterministic_bytes(tmp_path):
    blobs = []
    for name in ("s1", "s2"):
        d = tmp_path / name
        run(["synth", "--seed", 8, "--n-buildings", 6, "--n-cameras", 2,
             "--fp-rate", 0.2, "--shift-frac", 0.02, "--out", d])
        blobs.append(b"".join(p.read_bytes() for p in sorted(d.iterdir())))
    assert blobs[0] == blobs[1]


def test_annotated_buildings_monotone_in_radius(scene_dir, tmp_path):
    # a wider field of view never loses an annotated building
    sets = {}
    for r in (30, 50):
        out = tmp_path / f"ann_r{r}"
        rc = run(["annotate",
                  "--footprints", scene_dir / "footprints.geojson",
                  "--metas", scene_dir / "metas.jsonl",
                  "--mapping", scene_dir / "mapping.json",
                  "--detections", scene_dir / "detections.json",
                  "--out", out, "--radius", r, "--seed", 17])
        assert rc == 0
        doc = json.loads((out / "coarse_annotations.json").read_text())
        sets[r] = {a["building_id"] for a in doc["annotations"]}
    assert sets[30] <= sets[50]


def test_eval_half_corrupted_labels(scene_dir, tmp_path):
    gt = json.loads((scene_dir / "gt.json").read_text())
    pred = json.loads((scene_dir / "gt.json").read_text())
    k = max(c["id"] for c in gt["categories"])
    for a in pred["annotations"]:
        a["score"] = 1.0
    n = len(pred["annotations"])
    assert n % 2 == 0 or n > 1
    corrupt = n // 2
    for a in pred["annotations"][:corrupt]:
        a["category_id"] = a["category_id"] % k + 1  # always a wrong label
    p = tmp_path / "pred.json"
    p.write_text(json.dumps(pred))
    ev = tmp_path / "ev.json"
    rc = run(["eval", "--gt", scene_dir / "gt.json", "--pred", p,
              "--mode", "accuracy", "--out", ev])
    assert rc == 0
    result = json.loads(ev.read_text())
    assert result["accuracy"]["accuracy"] == pytest.approx(
        (n - corrupt) / n)


def test_eval_recall_drops_for_a_missing_facade(scene_dir, tmp_path):
    pred = json.loads((scene_dir / "gt.json").read_text())
    missing = pred["annotations"].pop(0)
    p = tmp_path / "pred.json"
    p.write_text(json.dumps(pred))
    ev = tmp_path / "ev.json"
    rc = run(["eval", "--gt", scene_dir / "gt.json", "--pred", p,
              "--mode", "accuracy", "--out", ev])
    assert rc == 0
    result = json.loads(ev.read_text())
    n = len(pred["annotations"]) + 1
    assert result["accuracy"]["accuracy"] == 1.0
    assert result["recall"]["total"] == n
    assert result["recall"]["accuracy"] == (n - 1) / n < 1.0
    cat = result["recall"]["per_category"][str(missing["category_id"])]
    assert cat["correct"] == cat["total"] - 1


def test_eval_empty_pred_reports_undefined(scene_dir, tmp_path):
    empty = tmp_path / "empty.json"
    gt = json.loads((scene_dir / "gt.json").read_text())
    gt["annotations"] = []
    empty.write_text(json.dumps(gt))
    ev = tmp_path / "ev.json"
    rc = run(["eval", "--gt", scene_dir / "gt.json", "--pred", empty,
              "--mode", "both", "--out", ev])
    assert rc == 0
    result = json.loads(ev.read_text())
    assert result["accuracy"]["accuracy"] is None
    assert result["recall"]["accuracy"] == 0.0
    assert all(v == 0.0 for v in result["ap"]["per_category_ap50"].values())


def test_eval_joins_a_number_pano_id_to_its_str(tmp_path):
    # the loaders key a number by its str(): gt's panorama 7 is pred's "7"
    def coco(pano_id, **score):
        return {"images": [{"id": 1, "pano_id": pano_id, "width": 2048,
                            "height": 1024}],
                "annotations": [{"image_id": 1, "bbox": [100, 100, 100, 100],
                                 "category_id": 1, **score}]}
    gt, pred, ev = (tmp_path / n for n in ("gt.json", "pred.json", "ev.json"))
    gt.write_text(json.dumps(coco(7)))
    pred.write_text(json.dumps(coco("7", score=0.9)))
    rc = run(["eval", "--gt", gt, "--pred", pred, "--mode", "accuracy",
              "--out", ev])
    assert rc == 0
    result = json.loads(ev.read_text())
    assert result["accuracy"]["accuracy"] == result["recall"]["accuracy"] \
        == 1.0


def test_eval_keys_image_ids_by_their_str(tmp_path, capsys):
    # image_id "1" names image 1, and image 1.0 is another image ("1.0")
    def coco(**score):
        return {"images": [{"id": i, "pano_id": p, "width": 2048,
                            "height": 1024}
                           for i, p in ((1, "a"), (1.0, "b"), ("x", "c"))],
                "annotations": [{"image_id": i, "bbox": [x, 100, 100, 100],
                                 "category_id": c, **score}
                                for i, x, c in (("1", 100, 1), (1.0, 400, 2),
                                                (1, 700, 3), ("x", 900, 1))]}
    gt, pred, ev = (tmp_path / n for n in ("gt.json", "pred.json", "ev.json"))
    gt.write_text(json.dumps(coco()))
    pred.write_text(json.dumps(coco(score=0.9)))
    rc = run(["eval", "--gt", gt, "--pred", pred, "--mode", "accuracy",
              "--out", ev])
    assert rc == 0, capsys.readouterr().err
    boxes = read_coco(gt)[0]
    assert [b.pano_id for b in boxes] == ["a", "b", "a", "c"]
    result = json.loads(ev.read_text())
    assert result["accuracy"]["accuracy"] == result["recall"]["accuracy"] \
        == 1.0
    doc = coco()
    doc["images"][1]["id"] = "1"
    gt.write_text(json.dumps(doc))
    assert run(["eval", "--gt", gt, "--pred", pred, "--mode", "accuracy",
                "--out", ev]) == 1
    assert "images[1]: id must be unique, got '1'" in capsys.readouterr().err


class TestRender:
    def render_args(self, scene_dir, trace_out, svg):
        iv_file = sorted(Path(trace_out).glob("intervals_*.json"))[0]
        return ["render", "--footprints", scene_dir / "footprints.geojson",
                "--metas", scene_dir / "metas.jsonl",
                "--mapping", scene_dir / "mapping.json",
                "--intervals", iv_file, "--out", svg]

    def test_arc_count_matches_intervals(self, scene_dir, tmp_path):
        trace_out = tmp_path / "t"
        run(["trace", "--footprints", scene_dir / "footprints.geojson",
             "--metas", scene_dir / "metas.jsonl",
             "--mapping", scene_dir / "mapping.json", "--out", trace_out])
        svg_path = tmp_path / "o.svg"
        rc = run(self.render_args(scene_dir, trace_out, svg_path))
        assert rc == 0
        svg = svg_path.read_text()
        iv_file = sorted(trace_out.glob("intervals_*.json"))[0]
        n = len(json.loads(iv_file.read_text())["intervals"])
        assert svg.count('class="interval-arc"') == n
        assert svg.count('class="camera"') == 1
        assert svg.count('class="fov"') == 1

    def test_deterministic_bytes(self, scene_dir, tmp_path):
        trace_out = tmp_path / "t"
        run(["trace", "--footprints", scene_dir / "footprints.geojson",
             "--metas", scene_dir / "metas.jsonl",
             "--mapping", scene_dir / "mapping.json", "--out", trace_out])
        s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
        run(self.render_args(scene_dir, trace_out, s1))
        run(self.render_args(scene_dir, trace_out, s2))
        assert s1.read_bytes() == s2.read_bytes()

    def test_svg_parses_with_markup_in_ids_and_dashes_in_config(self):
        import xml.etree.ElementTree as ET
        from geotag_facade.cocoio import json_line
        from geotag_facade.ingest import PanoramaMeta
        from geotag_facade.raytrace import VisibilityInterval
        from geotag_facade.render import render_scene_svg
        ids = ["Smith & Sons", "a<b"]
        meta = PanoramaMeta(pano_id="p&<q>", lat=40.0, lon=-73.0,
                            north_px=0.0, width=2048, height=1024)
        ivs = [VisibilityInterval(b, 1, 10.0 + 40.0 * k, 40.0 + 40.0 * k,
                                  12.0, 100.0 + 300.0 * k, 300.0 + 300.0 * k)
               for k, b in enumerate(ids)]
        comment = json_line({"config": {"note": "a---b--", "end": "-"}})
        svg = render_scene_svg([], meta, ivs, 50.0, comment=comment)
        parser = ET.XMLParser(target=ET.TreeBuilder(insert_comments=True))
        root = ET.fromstring(svg, parser=parser)
        ns = "{http://www.w3.org/2000/svg}"
        assert [t.text for t in root.iter(ns + "title")] == ids
        assert root.find(ns + "text").text.startswith("p&<q> R=50m")
        note, = [c.text for c in root.iter(ET.Comment)]
        assert "--" not in note
        assert note.replace(" ", "") == comment

    @pytest.mark.parametrize("breakage, needle", [
        (lambda text: text[:len(text) // 2], "byte offset"),
        (_json_edit(lambda doc: doc.pop("pano_id")), "string pano_id"),
        (_json_edit(lambda doc: doc["intervals"][0].pop("category")),
         "intervals[0]: expected building_id, category"),
        (_json_edit(lambda doc: doc["intervals"][0].update(angle_lo="n")),
         "intervals[0]: expected building_id, category"),
        (_json_edit(lambda doc: doc["intervals"].append(7)),
         "expected building_id, category, angle_lo, angle_hi and "
         "min_distance, got 7"),
        (_json_edit(lambda doc: doc["config"].update(radius_m="far")),
         "radius_m is a positive finite number"),
        (_json_edit(lambda doc: doc.update(pano_id="elsewhere")),
         "pano_id 'elsewhere' not found in"),
    ], ids=["invalid-json", "no-pano-id", "interval-without-category",
            "angle-string", "interval-number", "radius-string",
            "unknown-pano"])
    def test_bad_intervals_file_is_a_one_line_error(self, scene_dir,
                                                    tmp_path, capsys,
                                                    breakage, needle):
        trace_out = tmp_path / "t"
        assert run(trace_argv(scene_dir, trace_out)) == 0
        iv_file = sorted(trace_out.glob("intervals_*.json"))[0]
        assert json.loads(iv_file.read_text())["intervals"]
        iv_file.write_text(breakage(iv_file.read_text()))
        svg = tmp_path / "o.svg"
        capsys.readouterr()
        rc = run(self.render_args(scene_dir, trace_out, svg))
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and str(iv_file) in err
        assert needle in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not svg.exists()

    def test_svg_parses_with_characters_xml_forbids_in_ids(self):
        # a vertical tab, a lone surrogate (both valid JSON strings), a
        # C0 control and U+FFFF: each becomes U+FFFD, and markup escapes
        import xml.etree.ElementTree as ET
        from geotag_facade.ingest import PanoramaMeta
        from geotag_facade.raytrace import VisibilityInterval
        from geotag_facade.render import render_scene_svg
        ids = ["a\u000bb", "x\ud800y", "c\x01&\uffff"]
        meta = PanoramaMeta(pano_id="p\udfff<q>", lat=40.0, lon=-73.0,
                            north_px=0.0, width=2048, height=1024)
        ivs = [VisibilityInterval(b, 1, 10.0 + 40.0 * k, 40.0 + 40.0 * k,
                                  12.0, 100.0 + 300.0 * k, 300.0 + 300.0 * k)
               for k, b in enumerate(ids)]
        svg = render_scene_svg([], meta, ivs, 50.0)
        root = ET.fromstring(svg.encode("utf-8"))
        ns = "{http://www.w3.org/2000/svg}"
        assert [t.text for t in root.iter(ns + "title")] == [
            "a\ufffdb", "x\ufffdy", "c\ufffd&\ufffd"]
        assert root.find(ns + "text").text.startswith("p\ufffd<q> R=50m")

    def test_seam_cut_of_the_strip(self):
        # a span across the seam is two bands, one from its start to the
        # right edge and one from the left edge; a span of a whole width
        # or more is the whole strip, as eval measures it
        from geotag_facade.ingest import PanoramaMeta
        from geotag_facade.raytrace import VisibilityInterval
        from geotag_facade.render import render_scene_svg
        meta = PanoramaMeta(pano_id="p", lat=40.0, lon=-73.0, north_px=0.0,
                            width=1000, height=500)

        def bands(px_lo, px_hi):
            iv = VisibilityInterval("b", 1, 0.0, 10.0, 5.0, px_lo, px_hi)
            svg = render_scene_svg([], meta, [iv], 10.0)
            return [(float(x), float(w)) for x, w in re.findall(
                r'class="interval-band" x="([^"]+)" y="[^"]+" '
                r'width="([^"]+)"', svg)]
        sx = (2 * (10.0 * 4.0 + 20.0)) / 1000  # the map's width per pixel
        assert bands(900.0, 100.0) == pytest.approx(
            [(900 * sx, 100 * sx), (0.0, 100 * sx)])
        assert bands(900.0, 1100.0) == bands(900.0, 100.0)
        assert bands(200.0, 300.0) == pytest.approx([(200 * sx, 100 * sx)])
        assert bands(200.0, 200.0) == []
        assert bands(200.0, 1200.0) == pytest.approx(
            [(200 * sx, 800 * sx), (0.0, 200 * sx)])

    def test_render_of_a_lone_surrogate_id_exits_0(self, scene_dir,
                                                     tmp_path, capsys):
        doc = json.loads((scene_dir / "footprints.geojson").read_text())
        for f in doc["features"]:
            f["properties"]["building_id"] = \
                "x\ud800y" + f["properties"]["building_id"]
        fps = tmp_path / "f.geojson"
        fps.write_text(json.dumps(doc))  # \ud800 as a JSON escape
        trace_out = tmp_path / "t"
        assert run(trace_argv(scene_dir, trace_out, fps)) == 0
        svg = tmp_path / "o.svg"
        args = self.render_args(scene_dir, trace_out, svg)
        args[args.index("--footprints") + 1] = fps
        capsys.readouterr()
        assert run(args) == 0
        assert capsys.readouterr().err == ""
        import xml.etree.ElementTree as ET
        titles = [t.text for t in ET.parse(svg).getroot().iter(
            "{http://www.w3.org/2000/svg}title")]
        assert titles and all(t.startswith("x\ufffdy") for t in titles)

    def test_empty_scene_renders_camera_and_fov_only(self, tmp_path):
        d = tmp_path / "empty_scene"
        run(["synth", "--seed", 1, "--n-buildings", 0, "--n-cameras", 1,
             "--out", d])
        trace_out = tmp_path / "t"
        run(["trace", "--footprints", d / "footprints.geojson",
             "--metas", d / "metas.jsonl", "--mapping", d / "mapping.json",
             "--out", trace_out])
        svg_path = tmp_path / "e.svg"
        rc = run(self.render_args(d, trace_out, svg_path))
        assert rc == 0
        svg = svg_path.read_text()
        assert svg.count('class="interval-arc"') == 0
        assert svg.count('class="footprint"') == 0
        assert svg.count('class="camera"') == 1
        assert svg.count('class="fov"') == 1
