"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The heavyweight 200-panorama corpus is built once per session.
"""
import math
import random
import time

import numpy as np
import pytest

from geotag_facade import RunConfig
from geotag_facade.cli import main as cli_main
from geotag_facade.cocoio import canonical_json
from geotag_facade.ingest import DetectionSet, FootprintSet
from geotag_facade.matcher import generate_coarse_annotations, match_intervals
from geotag_facade.metrics import (EvalBox, average_precision,
                                   coarse_accuracy, iou_2d)
from geotag_facade.projection import (METERS_PER_DEGREE, FootprintIndex,
                                      clip_scene, geodetic_to_local,
                                      local_to_geodetic)
from geotag_facade.raytrace import trace_sweep
from geotag_facade.synth import (NoiseConfig, SceneConfig, generate_scene,
                                 oracle_hits, perturb_detections)

from oracle_utils import (brute_iou_1d, brute_midpoint_inside, haversine_m)


def ok(n, text):
    print(f"PASS criterion {n}: {text}")


def geometry_scene(seed, n_buildings, n_cameras=1):
    return generate_scene(seed, SceneConfig(
        n_buildings=n_buildings, n_cameras=n_cameras,
        with_ground_truth=False))


def corpus(scene_seeds, n_buildings=14, n_cameras=8, noise=None,
           det_seed_offset=50_000):
    """Merge several scenes into one multi-panorama corpus."""
    metas, footprints, gt_boxes, boxes = [], [], [], []
    boxes_per_pano = {}
    for seed in scene_seeds:
        scene = generate_scene(seed, SceneConfig(
            n_buildings=n_buildings, n_cameras=n_cameras))
        metas.extend(scene.metas)
        footprints.extend(scene.footprints)
        gt_boxes.extend(scene.gt_boxes)
        dets = perturb_detections(scene, noise or NoiseConfig(),
                                  seed=seed + det_seed_offset)
        boxes += (b for bs in dets.by_pano.values() for b in bs)
        for g in scene.gt_boxes:
            boxes_per_pano[g.pano_id] = boxes_per_pano.get(g.pano_id, 0) + 1
    det_set = DetectionSet.of(boxes)
    fset = FootprintSet.of(footprints)
    return metas, fset, det_set, gt_boxes, boxes_per_pano


@pytest.fixture(scope="session")
def big_corpus():
    # 25 scenes x 8 cameras = 200 panoramas; jitter keeps IoU >= 0.85,
    # 10% false positives with low scores in no-building gaps
    noise = NoiseConfig(shift_frac=0.015, scale_frac=0.015, fp_rate=0.10)
    return corpus(range(2000, 2025), noise=noise)


def to_eval(boxes):
    out = []
    for b in boxes:
        score = getattr(b, "score", None)
        out.append(EvalBox(pano_id=b.pano_id, x=b.x, y=b.y, w=b.w, h=b.h,
                           category=b.category, score=score))
    return out


def test_criterion_1_accuracy_regime(big_corpus):
    metas, fset, dets, gt_boxes, boxes_per_pano = big_corpus
    assert len(metas) == 200

    # the perturbation keeps every true detection at IoU >= 0.85
    gt_iter = {}
    for g in gt_boxes:
        gt_iter.setdefault(g.pano_id, []).append(g)
    for m in metas:
        true_boxes = dets.by_pano[m.pano_id][:boxes_per_pano.get(m.pano_id, 0)]
        for b, g in zip(true_boxes, gt_iter.get(m.pano_id, [])):
            v = iou_2d((b.x, b.y, b.w, b.h), (g.x, g.y, g.w, g.h),
                       width=m.width)
            assert v >= 0.85

    config = RunConfig(seed=17, batch_size=64, threshold_mode="adaptive")
    t0 = time.perf_counter()
    annotations, report = generate_coarse_annotations(metas, fset, dets,
                                                      config)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"pipeline took {elapsed:.1f}s"

    rep = coarse_accuracy(to_eval(annotations), to_eval(gt_boxes),
                          iou_thr=0.8,
                          width_by_pano={m.pano_id: m.width for m in metas})
    assert rep.total > 0
    assert rep.accuracy >= 0.95, f"accuracy {rep.accuracy:.4f}"
    ok(1, f"accuracy {rep.accuracy:.4f} on {rep.total} annotations "
          f"(200 panoramas, {elapsed:.1f}s single-threaded)")


def test_criterion_2_sweep_oracle_equivalence():
    mismatches = 0
    checked = 0
    for seed in range(1000):
        n_buildings = seed % 40 + 1
        scene = geometry_scene(seed, n_buildings)
        local = clip_scene(FootprintIndex(scene.footprint_set), scene.metas[0],
                           scene.config.radius_m)
        sweep = trace_sweep(local, 1.0)
        ob, od = oracle_hits(local, sweep.thetas)
        if not np.array_equal(sweep.building_idx, ob):
            mismatches += 1
            continue
        hit = sweep.building_idx >= 0
        if hit.any():
            if np.abs(sweep.distances[hit] - od[hit]).max() > 1e-6:
                mismatches += 1
        checked += int(hit.sum())
    assert mismatches == 0
    ok(2, f"1000 scenes, {checked} hit samples, zero mismatches "
          "(building and distance <= 1e-6 m)")


def test_criterion_3_flat_plane_fidelity():
    rng = random.Random(303)
    worst_rel = 0.0
    worst_rt = 0.0
    for _ in range(10_000):
        origin = (rng.uniform(-75, 75), rng.uniform(-179.0, 179.0))
        px = rng.uniform(-200, 200)
        py = rng.uniform(-200, 200)
        if math.hypot(px, py) < 0.5:
            continue
        point = local_to_geodetic(origin, (px, py))
        q = geodetic_to_local(origin, point)
        d = math.hypot(q.x, q.y)
        oracle = haversine_m(origin, point)
        worst_rel = max(worst_rel, abs(d - oracle) / oracle)
        dlat = abs(q.y - py) / METERS_PER_DEGREE
        dlon = (abs(q.x - px) / METERS_PER_DEGREE
                / max(math.cos(math.radians(origin[0])), 1e-9))
        worst_rt = max(worst_rt, dlat, dlon)
    assert worst_rel < 1e-3
    assert worst_rt < 1e-9
    ok(3, f"10^4 pairs <= 200 m: worst distance error {worst_rel:.2e} "
          f"(< 0.1%), worst round trip {worst_rt:.2e} deg (< 1e-9)")


def test_criterion_4_radius_monotonicity():
    radii = (30.0, 50.0, 70.0, 100.0)
    for seed in range(100):
        scene = geometry_scene(3000 + seed, seed % 30 + 4)
        meta = scene.metas[0]
        index = FootprintIndex(scene.footprint_set)
        sweeps = {}
        for r in radii:
            local = clip_scene(index, meta, r)
            sweeps[r] = trace_sweep(local, 1.0)

        def building_at(sweep, i):
            b = sweep.building_idx[i]
            return None if b < 0 else sweep.buildings[b][0]

        prev_set = set()
        for r in radii:
            sw = sweeps[r]
            cur = {building_at(sw, i) for i in range(len(sw))
                   if sw.building_idx[i] >= 0}
            assert prev_set <= cur, f"seed {seed}: shrank at R={r}"
            prev_set = cur
        base = sweeps[30.0]
        for i in range(len(base)):
            if base.building_idx[i] < 0 or base.distances[i] > 30.0:
                continue
            for r in radii[1:]:
                sw = sweeps[r]
                assert building_at(sw, i) == building_at(base, i)
                assert sw.distances[i] == base.distances[i]
    ok(4, "100 scenes: visible-building sets nested over R=30/50/70/100, "
          "close hits persist exactly")


def test_criterion_5_matching_rule_exactness():
    # the matching rule annotate runs, in one match_intervals call over
    # 100,000 random pairs: each box is its own panorama with one interval
    rng = random.Random(505)
    width = 2048.0
    pairs, wants = [], []
    for _ in range(100_000):
        lo = rng.uniform(0, width)
        hi = (lo + rng.uniform(0, width - 1)) % width
        x = rng.uniform(-width, 2 * width)
        w = rng.uniform(1.0, 0.9 * width)
        mid = (x + w / 2.0) % width
        pairs.append((lo, hi, x, w))
        wants.append(brute_midpoint_inside(lo, hi, mid, width)
                     and brute_iou_1d(x, x + w, lo, hi, width) > 0.3)
    lo, hi, x, w = (np.array(c) for c in zip(*pairs))
    n = len(pairs)
    won, _, _ = match_intervals(x, w, np.full(n, width), np.arange(n),
                                np.ones(n, np.int64), lo, hi,
                                np.zeros(n, np.int64), 0.3)
    got = np.zeros(n, bool)
    got[won] = True
    assert np.count_nonzero(got != np.array(wants)) == 0
    ok(5, "10^5 random (box, interval) pairs incl. seam wraps: "
          "zero disagreements with the unrolled-axis rule in one batch pass")


def test_criterion_6_decoupling_invariance(tmp_path):
    from geotag_facade.cocoio import write_detections
    from geotag_facade.ingest import load_detections
    noise = NoiseConfig(shift_frac=0.02, scale_frac=0.02, fp_rate=0.2)
    metas, fset, dets, _, _ = corpus(range(4000, 4003), n_cameras=3,
                                     noise=noise)
    outputs = []
    for cat_seed in (1, 99):  # same boxes, different junk categories
        path = tmp_path / f"dets_{cat_seed}.json"
        write_detections(path, dets, category_count=5, seed=cat_seed)
        loaded = load_detections(path)
        anns, _ = generate_coarse_annotations(
            metas, fset, loaded, RunConfig(seed=17, batch_size=8))
        outputs.append(canonical_json([a.to_dict() for a in anns]))
    assert outputs[0] == outputs[1]
    assert '"building_id"' in outputs[0] and len(outputs[0]) > 100
    ok(6, "randomizing every detector category left the annotation set "
          "byte-identical")


def test_criterion_7_metric_self_consistency():
    def ebox(x, cat, score=None):
        return EvalBox(pano_id="a", x=x, y=100.0, w=100.0, h=200.0,
                       category=cat, score=score)

    gt = [ebox(0, 1), ebox(1000, 1)]
    preds = [ebox(0, 1, 0.9), ebox(500, 1, 0.8), ebox(1000, 1, 0.7)]
    ap = average_precision(preds, gt, 0.5).per_category[1]
    assert abs(ap - 0.835) <= 1e-3

    # localization good (IoU ~0.95+) but label wrong: incorrect
    gt2 = [ebox(0, 1)]
    wrong = [ebox(1, 2)]
    assert iou_2d(wrong[0], gt2[0]) >= 0.95
    assert coarse_accuracy(wrong, gt2).accuracy == 0.0
    right = [ebox(1, 1)]
    assert coarse_accuracy(right, gt2).accuracy == 1.0
    ok(7, f"(TP,FP,TP)/2-gt AP = {ap:.6f} (0.835 +- 0.001); "
          "IoU/label conjunction holds")


def test_criterion_8_threshold_determinism():
    # wide score spread so the 0.5 / 0.7 thresholds actually differ
    noise = NoiseConfig(shift_frac=0.02, scale_frac=0.02, fp_rate=0.15,
                        true_score_mu=0.75, true_score_sigma=0.12)
    metas, fset, dets, _, _ = corpus(range(5000, 5004), n_cameras=4,
                                     noise=noise)
    cfg = RunConfig(seed=23, batch_size=4, threshold_mode="adaptive")
    a1, r1 = generate_coarse_annotations(metas, fset, dets, cfg)
    a2, r2 = generate_coarse_annotations(metas, fset, dets, cfg)
    assert r1.threshold_history == r2.threshold_history
    assert a1 == a2
    assert len(r1.threshold_history) == math.ceil(len(metas) / 4)

    keyed = {}
    for thr in (0.5, 0.7):
        cfg = RunConfig(seed=23, batch_size=4, threshold_mode="fixed",
                        fixed_threshold=thr)
        anns, _ = generate_coarse_annotations(metas, fset, dets, cfg)
        keyed[thr] = {(a.pano_id, a.x, a.y, a.w, a.h, a.category,
                       a.building_id) for a in anns}
    assert keyed[0.7] <= keyed[0.5]
    ok(8, f"identical histories/annotations across reruns; fixed 0.7 kept "
          f"{len(keyed[0.7])} of the {len(keyed[0.5])} boxes kept at 0.5")


def test_criterion_9_end_to_end_closure(tmp_path):
    import json
    scene_dir = tmp_path / "scene"
    trace_dir = tmp_path / "trace"
    ann_dir = tmp_path / "ann"
    eval_path = tmp_path / "eval.json"
    assert cli_main(["synth", "--seed", "42", "--n-buildings", "12",
                     "--n-cameras", "4", "--out", str(scene_dir)]) == 0
    assert cli_main(["trace",
                     "--footprints", str(scene_dir / "footprints.geojson"),
                     "--metas", str(scene_dir / "metas.jsonl"),
                     "--mapping", str(scene_dir / "mapping.json"),
                     "--out", str(trace_dir)]) == 0
    assert cli_main(["annotate",
                     "--footprints", str(scene_dir / "footprints.geojson"),
                     "--metas", str(scene_dir / "metas.jsonl"),
                     "--mapping", str(scene_dir / "mapping.json"),
                     "--detections", str(scene_dir / "detections.json"),
                     "--out", str(ann_dir)]) == 0
    assert cli_main(["eval", "--gt", str(scene_dir / "gt.json"),
                     "--pred", str(ann_dir / "coarse_annotations.json"),
                     "--mode", "both", "--out", str(eval_path)]) == 0
    result = json.loads(eval_path.read_text())
    assert result["accuracy"]["accuracy"] == 1.0
    per_cat = result["ap"]["per_category_ap50"]
    assert per_cat and all(v == 1.0 for v in per_cat.values())
    ok(9, f"synth->trace->annotate->eval: accuracy 1.0, AP50 1.0 for all "
          f"{len(per_cat)} categories")
