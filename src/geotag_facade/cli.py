"""Command line front-end: synth | trace | annotate | eval | render.

Exit codes: 0 clean, 2 partial success (some panoramas skipped as
degenerate), 1 fatal. Every artifact embeds the run configuration and
sha256 hashes of its inputs. ``trace`` and ``annotate`` trace panoramas
in groups of cameras in one thread. ``-v`` / ``--log-level`` sends the
package's log lines to stderr, never into an artifact; warnings show by
default.
"""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import cocoio
from .config import RunConfig
from .errors import ConfigError, GeotagFacadeError, LoadError
from .ingest import (load_category_mapping, load_detections,
                     load_footprints, load_panorama_meta)
from .matcher import generate_coarse_annotations, held_panoramas, trace_run
from .metrics import coarse_accuracy, coco_summary
from .projection import FootprintIndex
from .render import render_scene_svg
from .synth import NoiseConfig, SceneConfig, generate_scene, perturb_detections

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")


def _add_trace_args(p):
    p.add_argument("--footprints", required=True)
    p.add_argument("--metas", required=True)
    p.add_argument("--mapping", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--radius", dest="radius_m", metavar="RADIUS",
                   type=float, default=RunConfig.radius_m)
    p.add_argument("--step-deg", type=float, default=RunConfig.step_deg)
    p.add_argument("--flip-heading", action="store_true")


def _config(cls, args):
    """A ``cls`` dataclass from the command's flags, whose destinations
    are its field names; fields without a flag keep their defaults."""
    return cls(**{f.name: getattr(args, f.name)
                  for f in fields(cls) if hasattr(args, f.name)})


def cmd_synth(args) -> int:
    scene = generate_scene(args.seed, _config(SceneConfig, args))
    noise = _config(NoiseConfig, args)
    dets = perturb_detections(scene, noise, seed=args.seed + 1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    features = [{"type": "Feature",
                 "properties": {"building_id": fp.building_id,
                                "label": fp.raw_label},
                 "geometry": {"type": "Polygon", "coordinates": [
                     [[lon, lat] for lat, lon in fp.ring]]}}
                for fp in scene.footprints]
    cocoio.write_json(out / "footprints.geojson",
                      {"type": "FeatureCollection", "features": features})
    with open(out / "metas.jsonl", "w", encoding="utf-8") as fh:
        for m in scene.metas:
            fh.write(cocoio.json_line(asdict(m)) + "\n")
    cocoio.write_json(out / "mapping.json", {
        "city": scene.mapping.city, "entries": scene.mapping.entries})
    cocoio.write_coco(out / "gt.json", scene.metas, scene.gt_boxes,
                      scene.mapping,
                      info={"seed": scene.seed, "origin": list(scene.origin),
                            "config": asdict(scene.config)})
    cocoio.write_detections(out / "detections.json", dets,
                            scene.config.category_count, seed=args.seed + 2)
    cocoio.write_json(out / "scene.json", {
        "seed": scene.seed,
        "origin": list(scene.origin),
        "config": asdict(scene.config),
        "noise": asdict(noise),
        "n_footprints": len(scene.footprints),
        "n_cameras": len(scene.metas),
        "n_gt_boxes": len(scene.gt_boxes),
    })
    print(f"scene {args.seed}: {len(scene.footprints)} footprints, "
          f"{len(scene.metas)} cameras, {len(scene.gt_boxes)} gt boxes, "
          f"{dets.n_boxes} detections -> {out}")
    return EXIT_OK


def cmd_trace(args) -> int:
    config = _config(RunConfig, args)
    mapping = load_category_mapping(args.mapping)
    footprints = load_footprints(args.footprints, mapping)
    panos = load_panorama_meta(args.metas)
    hashes = cocoio.hash_inputs({"footprints": args.footprints,
                                 "metas": args.metas,
                                 "mapping": args.mapping})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    table = trace_run(FootprintIndex(footprints), panos.metas, config)
    cocoio.write_trace(out, panos.metas, table, footprints,
                       config.to_dict(), hashes)
    skipped = held_panoramas(panos.metas, table.containing)
    cocoio.write_json(out / "trace_report.json", {
        "config": config.to_dict(),
        "input_hashes": hashes,
        "n_panoramas": len(panos.metas),
        "n_traced": len(panos.metas) - len(skipped),
        "skipped": [list(s) for s in skipped],
        "load_reports": {
            "footprints": footprints.report.to_dict(),
            "metas": panos.report.to_dict(),
        },
    })
    print(f"traced {len(panos.metas) - len(skipped)}/{len(panos.metas)} "
          f"panoramas -> {out}")
    return EXIT_PARTIAL if skipped else EXIT_OK


def cmd_annotate(args) -> int:
    config = _config(RunConfig, args)
    mapping = load_category_mapping(args.mapping)
    footprints = load_footprints(args.footprints, mapping)
    panos = load_panorama_meta(args.metas)
    dets = load_detections(args.detections)
    hashes = cocoio.hash_inputs({"footprints": args.footprints,
                                 "metas": args.metas,
                                 "mapping": args.mapping,
                                 "detections": args.detections})
    annotations, report = generate_coarse_annotations(
        panos.metas, footprints, dets, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    info = {"config": config.to_dict(), "input_hashes": hashes}
    cocoio.write_coco(out / "coarse_annotations.json", panos.metas,
                      annotations, mapping, info=info)
    run_report = report.to_dict()
    run_report["input_hashes"] = hashes
    run_report["load_reports"] = {
        "footprints": footprints.report.to_dict(),
        "metas": panos.report.to_dict(),
        "detections": dets.report.to_dict(),
    }
    cocoio.write_json(out / "run_report.json", run_report)
    tot = report.totals
    print(f"annotated {tot['annotated']}/{tot['input_boxes']} boxes "
          f"({tot['filtered_out']} filtered, {tot['unmatched']} unmatched, "
          f"{tot['dropped'] + tot['dropped_missing_meta']} dropped) -> {out}")
    return EXIT_PARTIAL if report.skipped_panoramas else EXIT_OK


def cmd_eval(args) -> int:
    if not 0.0 < args.iou_thr <= 1.0:
        raise ConfigError(f"--iou-thr must be in (0, 1], got {args.iou_thr}")
    gt_boxes, widths, _, _ = cocoio.read_coco(args.gt)
    pred_boxes, pw, _, _ = cocoio.read_coco(args.pred)
    widths.update({k: v for k, v in pw.items() if k not in widths})
    result = {"gt": str(args.gt), "pred": str(args.pred),
              "mode": args.mode, "iou_thr": args.iou_thr,
              "input_hashes": cocoio.hash_inputs({"gt": args.gt,
                                                  "pred": args.pred})}
    if args.mode in ("accuracy", "both"):
        result["accuracy"] = coarse_accuracy(
            pred_boxes, gt_boxes, iou_thr=args.iou_thr,
            width_by_pano=widths).to_dict()
        # the same test with the roles swapped: its total is the ground
        # truth count, its per-category figures the coverage
        result["recall"] = coarse_accuracy(
            gt_boxes, pred_boxes, iou_thr=args.iou_thr,
            width_by_pano=widths).to_dict()
    if args.mode in ("ap", "both"):
        result["ap"] = coco_summary(pred_boxes, gt_boxes,
                                    width_by_pano=widths)
    text = cocoio.canonical_json(result)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_render(args) -> int:
    mapping = load_category_mapping(args.mapping)
    footprints = load_footprints(args.footprints, mapping)
    panos = load_panorama_meta(args.metas)
    pano_id, ivs, radius, trace_config = cocoio.read_trace(args.intervals)
    meta = next((m for m in panos.metas if m.pano_id == pano_id), None)
    if meta is None:
        raise LoadError(f"{args.intervals}: pano_id {pano_id!r} not found "
                        f"in {args.metas}")
    shown = {iv.building_id for iv in ivs}
    fps = [fp for fp in footprints if fp.building_id in shown] \
        if args.only_visible else list(footprints)
    provenance = cocoio.json_line({
        "config": trace_config,
        "input_hashes": cocoio.hash_inputs({
            "footprints": args.footprints, "metas": args.metas,
            "intervals": args.intervals})})
    svg = render_scene_svg(fps, meta, ivs, radius, comment=provenance)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"rendered {len(ivs)} intervals -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="geotag-facade",
        description="GIS-driven coarse annotation of street-view facades")
    ap.add_argument("-v", dest="log_level", action="store_const",
                    const="INFO", help="same as --log-level INFO")
    ap.add_argument("--log-level", type=str.upper, choices=LOG_LEVELS,
                    help="send the package's log lines at this level and "
                         "above to stderr (default: WARNING)")
    ap.set_defaults(log_level="WARNING")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene directory")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--n-buildings", type=int, default=SceneConfig.n_buildings)
    p.add_argument("--n-cameras", type=int, default=SceneConfig.n_cameras)
    p.add_argument("--corridor-width", type=float,
                   default=SceneConfig.corridor_width)
    p.add_argument("--category-count", type=int,
                   default=SceneConfig.category_count)
    p.add_argument("--radius", dest="radius_m", metavar="RADIUS",
                   type=float, default=SceneConfig.radius_m)
    p.add_argument("--shift-frac", type=float, default=NoiseConfig.shift_frac)
    p.add_argument("--scale-frac", type=float, default=NoiseConfig.scale_frac)
    p.add_argument("--fp-rate", type=float, default=NoiseConfig.fp_rate)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("trace", help="per-panorama visibility intervals")
    _add_trace_args(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("annotate", help="generate coarse annotations")
    _add_trace_args(p)
    p.add_argument("--detections", required=True)
    p.add_argument("--iou-x", dest="iou_x_min", metavar="IOU_X", type=float,
                   default=RunConfig.iou_x_min)
    p.add_argument("--threshold-mode", choices=("adaptive", "fixed"),
                   default=RunConfig.threshold_mode)
    p.add_argument("--fixed-threshold", type=float,
                   default=RunConfig.fixed_threshold)
    p.add_argument("--batch-size", type=int, default=RunConfig.batch_size)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("eval", help="score annotations against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--mode", choices=("accuracy", "ap", "both"),
                   default="both")
    p.add_argument("--iou-thr", type=float, default=0.8,
                   help="IoU threshold for accuracy and recall")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="SVG diagnostic of one trace")
    p.add_argument("--footprints", required=True)
    p.add_argument("--metas", required=True)
    p.add_argument("--mapping", required=True)
    p.add_argument("--intervals", required=True,
                   help="one intervals_<pano>.json from trace")
    p.add_argument("--only-visible", action="store_true",
                   help="draw only footprints that own an interval")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logger = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: "
                                           "%(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(args.log_level)
    try:
        return args.func(args)
    except (GeotagFacadeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FATAL
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
