"""Seeded benchmark inputs, written in the CLI's file formats.

An input is a grid of parallel corridors tiled around one origin, so a
city-sized input stays inside the flat-plane model's 10 km range. Each
corridor is one ``synth.generate_scene`` street (its building shapes,
categories and camera placement), re-projected from its own random
origin onto the shared grid. One corridor is a single street.

Ground truth always comes from the parametric oracle
(``synth.oracle_intervals_for_scene``), never from the engine under
test: the oracle's per-camera scenes and pixel spans are built here,
not by ``projection.clip_scene`` or ``raytrace.intervals_to_pixel``.
Detections come from ``synth.perturb_detections``.

Run as a script it writes one input directory; ``ensure_inputs`` runs
it in a child process so the generator's memory never shows in the
benchmark's peak RSS, and caches the result by its settings and seed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".perfbench" / "inputs"
GENERATOR_VERSION = 3

RADIUS_M = 50.0  # the run's clip radius as well as the oracle's
ORACLE_RESOLUTION_DEG = 0.1
CORRIDOR_SPACING_M = 100.0


@dataclass(frozen=True)
class InputSpec:
    """What to generate. Every field enters the cache key."""

    corridors: int            # parallel streets
    buildings_per_corridor: int
    cameras_per_corridor: int
    shift_frac: float = 0.0
    scale_frac: float = 0.0
    fp_rate: float = 0.0

    def key(self, seed: int) -> str:
        blob = json.dumps([GENERATOR_VERSION, asdict(self), seed],
                          sort_keys=True)
        return (f"c{self.corridors}-s{seed}-"
                f"{hashlib.sha256(blob.encode()).hexdigest()[:12]}")


def ensure_inputs(spec: InputSpec, seed: int) -> Path:
    """Directory holding the inputs for ``spec`` and ``seed``; builds it
    in a child process on first use."""
    out = CACHE_DIR / spec.key(seed)
    if (out / "sizes.json").is_file():
        return out
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--spec", json.dumps(asdict(spec)), "--seed", str(seed),
           "--out", str(tmp)]
    subprocess.run(cmd, check=True, timeout=600, stdout=subprocess.DEVNULL)
    os.replace(tmp, out)
    return out


# ---------------------------------------------------------------------------
# Generation (runs in the child process)
# ---------------------------------------------------------------------------

def _corridor_scenes(spec: InputSpec, seed: int):
    from geotag_facade.synth import SceneConfig, generate_scene
    cfg = SceneConfig(n_buildings=spec.buildings_per_corridor,
                      n_cameras=spec.cameras_per_corridor,
                      radius_m=RADIUS_M,
                      oracle_resolution_deg=ORACLE_RESOLUTION_DEG,
                      with_ground_truth=False)
    return cfg, [generate_scene(seed * 1000 + k, cfg)
                 for k in range(spec.corridors)]


def _tile(spec: InputSpec, seed: int, scenes):
    """Re-project every corridor onto one grid around a shared origin.

    Returns (origin, footprints, metas); ids gain a corridor prefix.
    Categories cycle along each corridor instead of keeping synth's random
    draw: eval's cost grows with same-category facades per panorama, and
    random runs of one category made it swing by a quarter between seeds.
    """
    import numpy as np
    from geotag_facade.ingest import BuildingFootprint, PanoramaMeta
    from geotag_facade.projection import geodetic_to_local, local_to_geodetic

    rng = np.random.default_rng(seed)
    origin = (float(rng.uniform(-50.0, 50.0)),
              float(rng.uniform(-170.0, 170.0)))
    footprints, metas = [], []
    for k, scene in enumerate(scenes):
        x_mid = 0.5 * max(geodetic_to_local(scene.origin, p).x
                          for fp in scene.footprints for p in fp.ring)
        dy = (k - (len(scenes) - 1) / 2.0) * CORRIDOR_SPACING_M

        def move(p):
            x, y = geodetic_to_local(scene.origin, p)
            return local_to_geodetic(origin, (x - x_mid, y + dy))

        n_cat = len(scene.mapping.entries)
        footprints += [BuildingFootprint(
            building_id=f"k{k:02d}_{fp.building_id}",
            ring=tuple(move(p) for p in fp.ring),
            raw_label=f"cat_{i % n_cat + 1}", category=i % n_cat + 1)
            for i, fp in enumerate(scene.footprints)]
        for m in scene.metas:
            lat, lon = move((m.lat, m.lon))
            metas.append(PanoramaMeta(
                pano_id=f"k{k:02d}_c{m.pano_id.rsplit('_c', 1)[1]}",
                lat=lat, lon=lon, north_px=m.north_px, width=m.width,
                height=m.height))
    return origin, footprints, metas


def _near(footprints, margin_m: float):
    """Per-camera candidate filter: footprints whose lat/lon bounding box
    lies within ``margin_m`` of the camera. Conservative: no footprint
    nearer than ``margin_m`` is left out."""
    import numpy as np
    from geotag_facade.projection import METERS_PER_DEGREE

    boxes = np.array([(min(p[0] for p in fp.ring), max(p[0] for p in fp.ring),
                       min(p[1] for p in fp.ring), max(p[1] for p in fp.ring))
                      for fp in footprints]).reshape(-1, 4)

    def candidates(meta):
        dlat = np.maximum(np.maximum(boxes[:, 0] - meta.lat,
                                     meta.lat - boxes[:, 1]), 0.0)
        dlon = np.maximum(np.maximum(boxes[:, 2] - meta.lon,
                                     meta.lon - boxes[:, 3]), 0.0)
        dy = dlat * METERS_PER_DEGREE
        dx = dlon * METERS_PER_DEGREE * np.cos(np.radians(meta.lat))
        keep = np.flatnonzero(np.hypot(dx, dy) <= margin_m)
        return [footprints[i] for i in keep]
    return candidates


def _oracle_scene(meta, footprints):
    """The oracle's view from one camera: every wall of ``footprints`` in
    the camera's local plane (the flat-plane model, one cosine per
    camera). Buildings beyond the radius may be among them; the oracle
    never hits past it."""
    import math
    from geotag_facade.projection import (METERS_PER_DEGREE, LocalScene,
                                          WallSegment)
    cos_lat = math.cos(math.radians(meta.lat))
    segments, buildings = [], []
    for fp in footprints:
        pts = [((lon - meta.lon) * cos_lat * METERS_PER_DEGREE,
                (lat - meta.lat) * METERS_PER_DEGREE) for lat, lon in fp.ring]
        buildings.append((fp.building_id, fp.category))
        segments += [WallSegment(ax, ay, bx, by, fp.building_id, fp.category)
                     for (ax, ay), (bx, by) in zip(pts, pts[1:])
                     if math.hypot(bx - ax, by - ay) > 1e-9]
    return LocalScene(pano_id=meta.pano_id, origin=(meta.lat, meta.lon),
                      radius_m=RADIUS_M, segments=segments,
                      buildings=tuple(buildings))


def _ground_truth(cfg, footprints, metas, rng):
    """Oracle intervals per panorama, then one box per wide facade."""
    from dataclasses import replace
    from geotag_facade.synth import GroundTruthBox, oracle_intervals_for_scene

    candidates = _near(footprints, RADIUS_M)
    intervals, boxes = {}, []
    for meta in metas:
        def px(angle):
            return (meta.north_px + angle / 360.0 * meta.width) % meta.width
        ivs = [replace(iv, px_lo=px(iv.angle_lo), px_hi=px(iv.angle_hi))
               for iv in oracle_intervals_for_scene(
                   _oracle_scene(meta, candidates(meta)),
                   ORACLE_RESOLUTION_DEG)]
        intervals[meta.pano_id] = ivs
        for iv in ivs:
            w = (iv.px_hi - iv.px_lo) % meta.width
            if iv.width_deg < cfg.min_facade_deg or w <= 0:
                continue
            y_top = float(rng.uniform(0.12, 0.35)) * meta.height
            y_bot = float(rng.uniform(0.55, 0.85)) * meta.height
            boxes.append(GroundTruthBox(
                pano_id=meta.pano_id, x=float(iv.px_lo), y=y_top,
                w=float(w), h=y_bot - y_top, category=iv.category,
                building_id=iv.building_id))
    return intervals, boxes


def generate(spec: InputSpec, seed: int, out: Path) -> dict:
    import numpy as np
    from geotag_facade.synth import (NoiseConfig, SyntheticScene,
                                     perturb_detections)

    cfg, scenes = _corridor_scenes(spec, seed)
    origin, footprints, metas = _tile(spec, seed, scenes)
    intervals, gt_boxes = _ground_truth(cfg, footprints, metas,
                                        np.random.default_rng([seed, 1]))
    scene = SyntheticScene(seed=seed, config=cfg, origin=origin,
                           footprints=footprints, mapping=scenes[0].mapping,
                           metas=metas, gt_intervals=intervals,
                           gt_boxes=gt_boxes)
    noise = NoiseConfig(shift_frac=spec.shift_frac,
                        scale_frac=spec.scale_frac, fp_rate=spec.fp_rate)
    dets = perturb_detections(scene, noise, seed=seed + 1)

    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "footprints.geojson", {
        "type": "FeatureCollection",
        "features": [{
            "type": "Feature",
            "properties": {"building_id": fp.building_id,
                           "label": fp.raw_label},
            "geometry": {"type": "Polygon",
                         "coordinates": [[[lon, lat]
                                          for lat, lon in fp.ring]]},
        } for fp in footprints]})
    (out / "metas.jsonl").write_text("".join(
        json.dumps(asdict(m), sort_keys=True) + "\n" for m in metas),
        encoding="utf-8")
    _write_json(out / "mapping.json", {"city": scene.mapping.city,
                                       "entries": scene.mapping.entries})
    _write_json(out / "detections.json", [
        {"pano_id": b.pano_id, "bbox": [b.x, b.y, b.w, b.h],
         "score": b.score}
        for pano_id in sorted(dets.by_pano) for b in dets.by_pano[pano_id]])
    image_id = {m.pano_id: i + 1 for i, m in enumerate(metas)}
    _write_json(out / "gt.json", {
        "images": [{"id": image_id[m.pano_id], "pano_id": m.pano_id,
                    "width": m.width, "height": m.height} for m in metas],
        "annotations": [{"id": j + 1, "image_id": image_id[g.pano_id],
                         "bbox": [g.x, g.y, g.w, g.h],
                         "category_id": g.category}
                        for j, g in enumerate(gt_boxes)],
        "categories": [{"id": c} for c in sorted(
            set(scene.mapping.entries.values()))],
    })
    sizes = {"footprints": len(footprints), "panoramas": len(metas),
             "gt_boxes": len(gt_boxes), "detections": dets.n_boxes}
    _write_json(out / "sizes.json", sizes)
    return sizes


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True, help="InputSpec as JSON")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    spec = InputSpec(**json.loads(args.spec))
    sizes = generate(spec, args.seed, Path(args.out))
    print(json.dumps(sizes, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
