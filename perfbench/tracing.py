"""Spans and counters around the package's layer functions, from outside.

For the traced run only, :meth:`Tracer.patched` rebinds each layer
function wherever the package's modules hold a reference to it (the
``from .x import f`` copies in ``matcher`` and ``cli`` included) and
restores the originals on exit, so the package itself stays untouched.

A span records its name, start, end, parent span, request id (the
panorama id where one applies) and the CPU time its thread spent in it. Spans stay in memory until
:meth:`Tracer.dump`. Work that a pool thread does for the main thread
is parented to the main thread's innermost open span.
"""
from __future__ import annotations

import importlib
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("cli", "matcher", "metrics", "cocoio", "ingest", "projection",
           "raytrace")

# per-panorama stages: the work the fan-out spreads over workers
PANO_STAGES = ("projection.clip_scene", "raytrace.trace_sweep",
               "raytrace.intervals_from_sweep", "raytrace.intervals_to_pixel")
# the trace command, the one step that fans out over workers
FANOUT_SPANS = ("cli.trace",)
RATIOS = ("projection.clip_yield", "raytrace.hit_ratio",
          "cli.fanout_busy_share")


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, request id, thread CPU s]
        self.spans = []
        self.counters = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name, request):
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        rec = [name, time.perf_counter(), None, parent, request,
               time.thread_time()]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        return idx

    def _close(self, idx):
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        rec[5] = time.thread_time() - rec[5]
        self._stack().pop()

    @contextmanager
    def span(self, name, request=None):
        idx = self._open(name, request)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key, n=1):
        with self._lock:
            self.counters[key] += n

    # -- rebinding ---------------------------------------------------------

    def _hooks(self):
        """name -> (request id from args, counters from (args, result))."""
        local = self._local

        def pano_of_meta(args):
            local.request = args[1].pano_id
            return local.request

        def current(_args):
            return getattr(local, "request", None)

        def clip_counts(args, scene):
            self.count("projection.footprints_scanned", len(args[0]))
            self.count("projection.footprints_kept", len(scene.buildings))

        def sweep_counts(args, sweep):
            self.count("raytrace.rays", len(sweep))
            self.count("raytrace.hits", int((sweep.building_idx >= 0).sum()))
            self.count("raytrace.ray_segment_tests",
                       len(sweep) * len(args[0].segments))

        def written(args, _):
            self.count("cocoio.files_written")
            self.count("cocoio.bytes_written", os.path.getsize(args[0]))

        return {
            "ingest.load_footprints": (None, None),
            "ingest.load_panorama_meta": (None, None),
            "ingest.load_detections": (None, None),
            "cocoio.hash_inputs": (None, None),
            "projection.clip_scene": (pano_of_meta, clip_counts),
            "raytrace.trace_sweep": (current, sweep_counts),
            "raytrace.intervals_from_sweep": (current, lambda a, r: self.count(
                "raytrace.intervals", len(r))),
            "raytrace.intervals_to_pixel": (pano_of_meta, None),
            "matcher.generate_coarse_annotations": (None, None),
            "matcher.fit_threshold": (None, None),
            "matcher.filter_detections": (
                lambda a: a[0][0].pano_id if a[0] else None, None),
            "matcher.match_box": (lambda a: a[0].pano_id,
                                  lambda a, r: self.count(
                                      "matcher.match_box_calls")),
            "cocoio.write_coco": (None, None),
            "cocoio.write_json": (None, written),
            "metrics.coarse_accuracy": (None, None),
            "metrics.coco_summary": (None, None),
        }

    def _wrap(self, name, fn, request_of, after):
        def traced(*args, **kwargs):
            idx = self._open(name, request_of(args) if request_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _counted(self, key, fn):
        def counted(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def patched(self):
        """Rebind every traced function in every package module."""
        mods = {m: importlib.import_module(f"geotag_facade.{m}")
                for m in MODULES}
        wrappers = {}
        for name, (request_of, after) in self._hooks().items():
            home, attr = name.split(".")
            fn = getattr(mods[home], attr)
            wrappers[attr] = (fn, self._wrap(name, fn, request_of, after))
        iou = mods["metrics"].iou_2d
        wrappers["iou_2d"] = (iou, self._counted("metrics.iou_2d_calls", iou))
        undo = []
        for mod in mods.values():
            for attr, (fn, wrapper) in wrappers.items():
                if getattr(mod, attr, None) is fn:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, fn))
        try:
            yield self
        finally:
            for mod, attr, fn in undo:
                setattr(mod, attr, fn)

    # -- analysis ----------------------------------------------------------

    def _children(self):
        kids = defaultdict(list)
        for i, (_, _, _, parent, _, _) in enumerate(self.spans):
            if parent is not None:
                kids[parent].append(i)
        return kids

    def self_times(self):
        """Per-span self time: duration minus the union of its children."""
        kids = self._children()
        out = []
        for i, (_, start, end, _, _, _) in enumerate(self.spans):
            covered, cursor = 0.0, start
            for s, e in sorted((self.spans[k][1], self.spans[k][2])
                               for k in kids.get(i, ())):
                s, e = max(s, cursor), min(e, end)
                if e > s:
                    covered += e - s
                    cursor = e
            out.append(end - start - covered)
        return out

    def totals(self):
        """name -> summed duration."""
        tot = defaultdict(float)
        for name, start, end, _, _, _ in self.spans:
            tot[name] += end - start
        return tot

    def module_self_times(self):
        out = defaultdict(float)
        for (name, *_), t in zip(self.spans, self.self_times()):
            out[name.split(".")[0]] += t
        return dict(sorted(out.items()))

    def layer_metrics(self, run_report: dict, workers: int) -> dict:
        """The benchmark's per-layer metrics for everything recorded."""
        tot = self.totals()
        c = self.counters
        selfs = self.self_times()
        driver_self = sum(t for (name, *_), t in zip(self.spans, selfs)
                          if name == "matcher.generate_coarse_annotations")
        busy = wall = 0.0  # GIL waits inside a stage do not count as busy
        for name, start, end, parent, _, cpu in self.spans:
            if parent is not None and name in PANO_STAGES \
                    and self.spans[parent][0] in FANOUT_SPANS:
                busy += cpu
            if name in FANOUT_SPANS:
                wall += (end - start) * workers
        totals = run_report.get("totals", {})
        cfg = run_report.get("config", {})
        clamps = (cfg.get("clip_lo"), cfg.get("clip_hi"))
        clamped = sum(1 for b in run_report.get("batches", [])
                      if cfg.get("threshold_mode") == "adaptive"
                      and b["threshold"] in clamps)
        return {
            "ingest.load_footprints_s": tot["ingest.load_footprints"],
            "ingest.load_panorama_meta_s": tot["ingest.load_panorama_meta"],
            "ingest.load_detections_s": tot["ingest.load_detections"],
            "cocoio.hash_inputs_s": tot["cocoio.hash_inputs"],
            "projection.clip_scene_s": tot["projection.clip_scene"],
            "projection.footprints_scanned": c["projection.footprints_scanned"],
            "projection.footprints_kept": c["projection.footprints_kept"],
            "projection.clip_yield": _ratio(c["projection.footprints_kept"],
                                            c["projection.footprints_scanned"]),
            "raytrace.trace_sweep_s": tot["raytrace.trace_sweep"],
            "raytrace.rays": c["raytrace.rays"],
            "raytrace.ray_segment_tests": c["raytrace.ray_segment_tests"],
            "raytrace.hit_ratio": _ratio(c["raytrace.hits"],
                                         c["raytrace.rays"]),
            "raytrace.intervals_from_sweep_s":
                tot["raytrace.intervals_from_sweep"],
            "raytrace.intervals_to_pixel_s": tot["raytrace.intervals_to_pixel"],
            "raytrace.intervals": c["raytrace.intervals"],
            "matcher.fit_threshold_s": tot["matcher.fit_threshold"],
            "matcher.filter_detections_s": tot["matcher.filter_detections"],
            "matcher.match_box_s": tot["matcher.match_box"],
            "matcher.match_box_calls": c["matcher.match_box_calls"],
            "matcher.driver_self_s": driver_self,
            "matcher.boxes_input": totals.get("input_boxes", 0),
            "matcher.boxes_filtered": totals.get("filtered_out", 0),
            "matcher.boxes_unmatched": totals.get("unmatched", 0),
            "matcher.boxes_annotated": totals.get("annotated", 0),
            "matcher.batches_clamped": clamped,
            "cocoio.write_coco_s": tot["cocoio.write_coco"],
            "cocoio.write_json_s": tot["cocoio.write_json"],
            "cocoio.files_written": c["cocoio.files_written"],
            "cocoio.bytes_written": c["cocoio.bytes_written"],
            "metrics.coarse_accuracy_s": tot["metrics.coarse_accuracy"],
            "metrics.coco_summary_s": tot["metrics.coco_summary"],
            "metrics.iou_2d_calls": c["metrics.iou_2d_calls"],
            "cli.fanout_busy_share": _ratio(busy, wall),
        }

    def dump(self, path, extra: dict) -> None:
        """Write every span plus per-module self times as one JSON file."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        doc = dict(extra)
        doc["module_self_s"] = self.module_self_times()
        doc["spans"] = [
            {"id": i, "name": name, "start": start - t0, "end": end - t0,
             "parent": parent, "request": request, "cpu": cpu}
            for i, (name, start, end, parent, request, cpu)
            in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name in RATIOS else "count"


def _ratio(num, den) -> float:
    return num / den if den else 0.0
