"""The package's files: deterministic writers and readers.

All writers emit canonical JSON (sorted keys, fixed separators, trailing
newline) so identical runs produce identical bytes. :func:`write_coco`
and :func:`write_trace` lay their records out from templates, to the
same bytes: every scalar of a file's (or a run's) records is encoded in
one call of json's C encoder (:func:`_encoded`), where ``json`` would
walk each record in its pure-Python indenting encoder. Every artifact
carries the run configuration and sha256 hashes of the inputs it came
from, a COCO file in its ``info`` block. Only this module knows the
trace file layout: :func:`write_trace` writes it from a run's interval
columns, and :func:`read_trace` reads it back as rows.
"""
from __future__ import annotations

import hashlib
import json
import os
from contextlib import suppress
from functools import lru_cache
from itertools import chain, repeat
from operator import is_not, mul
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import LoadError
from .ingest import (CategoryMapping, DetectionSet, _FieldError, _bbox,
                     _gc_paused, _integers, _key, _number_or_none, _numbers,
                     _ok, _read_json)
from .matcher import AnnotationSet
from .metrics import EvalBoxSet
from .raytrace import IntervalTable, VisibilityInterval


def _plain(v):
    # numpy scalars arrive from vectorized code paths
    if hasattr(v, "item"):
        return v.item()
    raise TypeError(f"not JSON serializable: {type(v)}")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "),
                      indent=1, default=_plain) + "\n"


def json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_plain)


def _encoded(values: list) -> list:
    """The JSON text of each scalar of ``values``, all encoded in one call
    of json's C encoder, whose output separates them by newlines (an
    encoded scalar holds none)."""
    text = json.dumps(values, separators=("\n", ":"), default=_plain)
    return text[1:-1].split("\n") if values else []


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj), encoding="utf-8")


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def hash_inputs(paths: dict) -> dict:
    return {name: sha256_of(p) for name, p in sorted(paths.items())}


def coco_images(metas) -> list:
    return [{
        "id": i + 1,
        "pano_id": m.pano_id,
        "file_name": f"{m.pano_id}.jpg",
        "width": m.width,
        "height": m.height,
    } for i, m in enumerate(metas)]


def coco_categories(mapping: CategoryMapping) -> list:
    return [{"id": c, "name": mapping.name_of(c)}
            for c in mapping.category_ids]


# an annotation's keys in canonical (sorted) order, and the optional ones
_ANNOTATION_KEYS = ("area", "bbox", "building_id", "category_id", "id",
                    "image_id", "iou_x", "iscrowd", "score")
_OPTIONAL = ("building_id", "iou_x", "score")


@lru_cache(maxsize=None)
def _template(present: tuple) -> str:
    """One annotation laid out as :func:`canonical_json` lays it out in
    the list, ``present`` saying which optional keys it has: ``%s`` for
    each value, and ``%.0s``, which writes nothing, for each one absent."""
    lines, absent, has = [], "", dict(zip(_OPTIONAL, present))
    for key in _ANNOTATION_KEYS:
        if not has.get(key, True):
            absent += "%.0s"
            continue
        value = {"bbox": "[\n" + ",\n".join(["    %s"] * 4) + "\n   ]",
                 "iscrowd": "0"}.get(key, "%s")
        lines.append(f'{absent}   "{key}": {value}')
        absent = ""
    return "  {\n" + ",\n".join(lines) + "\n" + absent + "  }"


def write_coco(path, metas, annotations, mapping: CategoryMapping,
               info: dict | None = None) -> None:
    """Write boxes as COCO JSON, byte for byte as :func:`write_json`.

    ``annotations`` is an :class:`AnnotationSet` or rows with
    pano_id/x/y/w/h/category; optional ``score``, ``building_id`` and
    ``iou_x`` fields are carried through when not None. Each annotation
    is laid out from the template of its optional keys, and all their
    scalars are encoded in one call of json's C encoder, whose output
    separates them by newlines (an encoded scalar holds none).
    """
    anns = annotations if isinstance(annotations, AnnotationSet) \
        else AnnotationSet.of(annotations)
    images = coco_images(metas)
    image_id = {img["pano_id"]: img["id"] for img in images}
    body = "[]"
    if len(anns):  # values in _ANNOTATION_KEYS order, iscrowd aside
        values = _encoded([*chain.from_iterable(zip(
            map(mul, anns.w, anns.h), anns.x, anns.y, anns.w, anns.h,
            anns.building_id, anns.category, range(1, len(anns) + 1),
            map(image_id.__getitem__, anns.pano_id), anns.iou_x,
            anns.score))])
        present = zip(*(map(is_not, getattr(anns, key), repeat(None))
                        for key in _OPTIONAL))
        body = "[\n" + ",\n".join(map(_template, present)) % tuple(
            values) + "\n ]"
    rest = canonical_json({"info": info or {}, "images": images,
                           "categories": coco_categories(mapping)})
    Path(path).write_text('{\n "annotations": ' + body + ",\n" + rest[2:],
                          encoding="utf-8")


@_gc_paused()
def read_coco(path):
    """Read a COCO file into eval box columns plus per-panorama sizes.

    Returns (boxes, width_by_pano, height_by_pano, info), ``boxes`` an
    :class:`EvalBoxSet` whose ``EvalBox`` rows are built only if read.
    Raises ``ParseError`` when the file is not JSON, and ``LoadError``
    naming the entry whose field ``ingest``'s field readers reject,
    whose id or panorama repeats an earlier image's, or whose
    ``image_id`` names no image.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise LoadError(f"{path}: expected a COCO object")
    images, annotations = doc.get("images", []), doc.get("annotations", [])
    if not (isinstance(images, list) and isinstance(annotations, list)):
        raise LoadError(f"{path}: images and annotations must be lists")

    def fail(where, what, value):
        raise LoadError(f"{path}: {where}: {what}, got {value!r}")

    pano_of, width_by_pano, height_by_pano = {}, {}, {}
    for i, img in enumerate(images):
        where = f"images[{i}]"
        if not isinstance(img, dict) or "id" not in img:
            fail(where, "expected an object with an id", img)
        if not _ok(_key, img["id"]):
            fail(where, "id must be a number or a string", img["id"])
        image = _key(img["id"])  # 1 and "1" name one image, 1.0 another
        if image in pano_of:
            fail(where, "id must be unique", img["id"])
        width = img.get("width")
        if not (width is None or _ok(_integers, width) and width > 0):
            fail(where, "width must be null or a positive whole number",
                 width)
        pano = img.get("pano_id")
        if not pano:
            pano = img.get("file_name", "")
            if not isinstance(pano, str):
                fail(where, "file_name must be a string", pano)
            pano = Path(pano).stem
        elif not _ok(_key, pano):
            fail(where, "pano_id must be a number or a string", pano)
        pano = _key(pano)  # a number by its str(), as the loaders key it
        if pano in width_by_pano:  # its boxes would join the other's
            fail(where, "pano_id must be unique", pano)
        pano_of[image] = pano
        width_by_pano[pano] = width
        height_by_pano[pano] = img.get("height")
    panos, boxes, categories, scores = [], [], [], []
    for i, a in enumerate(annotations):
        with suppress(KeyError, TypeError, _FieldError):  # all at once
            image_id, bbox, score = a["image_id"], a["bbox"], a.get("score")
            image_id = _key(image_id)
            _bbox(bbox, *(() if score is None else (score,)))
            category, = _integers(a["category_id"])
            if bbox[2] > 0 and bbox[3] > 0:
                panos.append(pano_of[image_id])
                boxes.append(bbox)
                categories.append(category)
                scores.append(score)
                continue
        where = f"annotations[{i}]"  # a bad one: name its first bad field
        if not isinstance(a, dict):
            fail(where, "expected an object", a)
        image_id, bbox = a.get("image_id"), a.get("bbox")
        if not (_ok(_key, image_id) and _key(image_id) in pano_of):
            raise LoadError(f"{path}: {where}: image_id {image_id!r} names "
                            "no image")
        if not (_ok(_bbox, bbox) and bbox[2] > 0 and bbox[3] > 0):
            fail(where, "bbox must be 4 finite numbers with w > 0 and h > 0",
                 bbox)
        if "category_id" not in a:
            raise LoadError(f"{path}: {where}: no category_id")
        if not _ok(_integers, a["category_id"]):
            fail(where, "category_id must be a number with an exact whole "
                 "value", a["category_id"])
        fail(where, "score must be null or a finite number", a.get("score"))
    x, y, w, h = np.array(boxes, float).reshape(-1, 4).T
    return (EvalBoxSet(panos, x, y, w, h, categories, np.array(scores, float)),
            width_by_pano, height_by_pano, doc.get("info", {}))


def write_detections(path, dets: DetectionSet, category_count: int,
                     seed: int = 0) -> None:
    """Write detector results with deliberately meaningless categories.

    A detector's predicted category is discarded on ingest, so the
    ``category_id`` written here is seeded noise; it exists to prove
    downstream output does not depend on it.
    """
    import random
    rng = random.Random(seed)
    records = []
    for pano_id in sorted(dets.by_pano):
        for b in dets.by_pano[pano_id]:
            records.append({
                "pano_id": b.pano_id,
                "bbox": [b.x, b.y, b.w, b.h],
                "score": b.score,
                "category_id": rng.randint(1, max(category_count, 1)),
            })
    write_json(path, records)


# an interval record as a trace file's list lays it out, its keys in
# canonical (sorted) order, with ``%s`` for each value
_INTERVAL_KEYS = ("angle_hi", "angle_lo", "building_id", "category",
                  "min_distance", "px_hi", "px_lo")
_INTERVAL = "  {\n" + ",\n".join(
    f'   "{key}": %s' for key in _INTERVAL_KEYS) + "\n  }"
# what no file name holds
_NOT_IN_NAME = {"\0", os.sep, os.altsep} - {None}


def _intervals(count: int) -> str:
    """A trace file's list of ``count`` interval records."""
    return "[\n" + ",\n".join([_INTERVAL] * count) + "\n ]" if count \
        else "[]"


def _name_max(out) -> int:
    """The longest file name, in bytes, directory ``out`` takes; 255 when
    the system cannot tell."""
    with suppress(OSError, ValueError):
        if (limit := os.pathconf(out, "PC_NAME_MAX")) > 0:
            return limit
    return 255


def _trace_name(pano_id, name_max: int) -> str:
    """``intervals_<pano_id>.json``, or a ``LoadError`` naming the
    panorama when no file can have that name: it holds a NUL or a path
    separator, has no bytes in the file system's encoding (a lone
    surrogate), or more than ``name_max`` of them."""
    name = f"intervals_{pano_id}.json"
    with suppress(UnicodeError):
        if (len(os.fsencode(name)) <= name_max
                and _NOT_IN_NAME.isdisjoint(name)):
            return name
    raise LoadError(f"panorama {pano_id!r}: its trace file "
                    f"intervals_<pano_id>.json cannot be named after it")


def write_trace(out, metas, table: IntervalTable, footprints, config: dict,
                input_hashes: dict) -> None:
    """Write ``intervals_<pano>.json`` into directory ``out`` for each
    camera of ``table`` (camera ``c`` is ``metas[c]``) that no footprint
    holds, straight from the table's columns; ``footprints``, the run's
    set, names each row's owner. No interval row is built.

    Every file name is checked before any file is written: a pano_id
    that cannot name a file (:func:`_trace_name`) raises ``LoadError``.
    Each file is the run's ``config`` and ``input_hashes``, encoded
    once, then the camera's records laid out from one template, then its
    ``pano_id``; every interval value of the run is encoded in one
    :func:`_encoded` call.
    """
    name_max = _name_max(out)
    traced = [(c, meta, _trace_name(meta.pano_id, name_max))
              for c, (meta, blocker) in enumerate(zip(metas, table.containing))
              if blocker is None]
    owner = table.owner.tolist()
    values = _encoded([*chain.from_iterable(zip(  # in _INTERVAL_KEYS order
        table.angle_hi.tolist(), table.angle_lo.tolist(),
        map(footprints.building_ids.__getitem__, owner),
        map(footprints.categories.__getitem__, owner),
        table.min_distance.tolist(), table.px_hi.tolist(),
        table.px_lo.tolist()))])
    # "intervals" and "pano_id" sort after these keys: cut the closing "}"
    head = canonical_json({"config": config, "input_hashes": input_hashes}
                          )[:-3] + ',\n "intervals": '
    bounds, k = table.offsets.tolist(), len(_INTERVAL_KEYS)
    for c, meta, name in traced:
        lo, hi = bounds[c], bounds[c + 1]
        body = _intervals(hi - lo) % tuple(values[k * lo:k * hi])
        with open(os.path.join(out, name), "w", encoding="utf-8") as f:
            f.write(f'{head}{body},\n "pano_id": '
                    f'{json.dumps(meta.pano_id)}\n}}\n')


def _interval(d):
    """One interval record of a trace file, or None when it is not one."""
    if not (isinstance(d, dict) and isinstance(d.get("building_id"), str)
            and _ok(_integers, d.get("category"))
            and _ok(_numbers, d.get("angle_lo"), d.get("angle_hi"),
                    d.get("min_distance"))
            and _ok(_number_or_none, d.get("px_lo"))
            and _ok(_number_or_none, d.get("px_hi"))):
        return None
    return VisibilityInterval(
        d["building_id"], d["category"], d["angle_lo"], d["angle_hi"],
        d["min_distance"], d.get("px_lo"), d.get("px_hi"))


@_gc_paused()
def read_trace(path):
    """Read one ``intervals_<pano>.json`` written by :func:`write_trace`;
    returns (pano_id, intervals, radius_m, config), the intervals as
    :class:`VisibilityInterval` rows.

    Raises ``ParseError`` when the file is not JSON, and ``LoadError``
    naming the file (and the interval at fault) for a field that
    ``ingest``'s field readers reject or a ``radius_m`` not above 0.
    """
    doc = _read_json(path)
    if not (isinstance(doc, dict) and isinstance(doc.get("pano_id"), str)
            and isinstance(doc.get("intervals"), list)):
        raise LoadError(f"{path}: expected an object with a string pano_id "
                        f"and an intervals list")
    config = doc.get("config", {})
    radius = (config.get("radius_m", RunConfig.radius_m)
              if isinstance(config, dict) else None)
    if not (_ok(_numbers, radius) and radius > 0):
        raise LoadError(f"{path}: config must be an object whose radius_m "
                        f"is a positive finite number, got {config!r}")
    intervals = [_interval(d) for d in doc["intervals"]]
    if None in intervals:
        i = intervals.index(None)
        raise LoadError(f"{path}: intervals[{i}]: expected building_id, "
                        f"category, angle_lo, angle_hi and min_distance, "
                        f"got {doc['intervals'][i]!r}")
    return doc["pano_id"], intervals, radius, config
