"""Parsing and validation of all external inputs.

Four file formats enter the pipeline:

* building footprints: GeoJSON FeatureCollection, WGS84, with
  ``building_id`` and ``label`` properties per feature
* panorama metadata: JSON lines with ``pano_id, lat, lon, north_px,
  width, height``
* detections: a JSON array of ``{pano_id, bbox: [x, y, w, h], score}``
  (any category field is discarded on ingest)
* category mapping: JSON ``{city, default?, entries: {label: int}}``

Loaders are pure: same bytes in, same domain objects out, in the same
order. Invalid records are rejected per record and listed in a
:class:`LoadReport`; structural problems (malformed JSON, duplicate join
keys) raise instead. Every JSON value becomes a typed field through the
field readers below, which ``cocoio`` and ``render`` share.
"""
from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import LoadError, ParseError

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuildingFootprint:
    """One building outer ring in WGS84 with a resolved function category.

    ``ring`` is closed (first vertex equals last), simple, and has at
    least three distinct vertices. Vertices are (lat, lon) degrees.
    """

    building_id: str
    ring: tuple  # tuple of (lat, lon)
    raw_label: str
    category: int


@dataclass(frozen=True)
class PanoramaMeta:
    """Camera position plus the pixel geometry of one panorama.

    ``north_px`` is the (fractional) pixel column that looks at true
    north; it anchors the heading-to-pixel mapping.
    """

    pano_id: str
    lat: float
    lon: float
    north_px: float
    width: int
    height: int


@dataclass(frozen=True)
class DetectionBox:
    """A facade bounding box with its detector confidence.

    ``x + w`` may exceed the panorama width for boxes that wrap the
    horizontal seam; downstream arithmetic is mod width. The predicted
    category, if any, was discarded on ingest.
    """

    pano_id: str
    x: float
    y: float
    w: float
    h: float
    score: float


@dataclass(frozen=True)
class CategoryMapping:
    """City-specific mapping from raw GIS labels to category ids 1..K."""

    city: str
    entries: dict  # label -> int
    default: int | None = None
    names: dict = field(default_factory=dict)  # int -> display name

    @property
    def category_ids(self) -> list[int]:
        ids = set(self.entries.values())
        if self.default is not None:
            ids.add(self.default)
        return sorted(ids)

    def resolve(self, label: str) -> int | None:
        if label in self.entries:
            return self.entries[label]
        return self.default

    def name_of(self, category: int) -> str:
        return self.names.get(category, f"category_{category}")


@dataclass
class LoadReport:
    """Per-file accounting: every input record is accepted or listed here."""

    path: str
    n_input: int = 0
    rejected: list = field(default_factory=list)  # (key, reason)

    @property
    def n_rejected(self) -> int:
        return len(self.rejected)

    @property
    def n_accepted(self) -> int:
        return self.n_input - self.n_rejected

    def reject(self, key, reason):
        self.rejected.append((str(key), reason))

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "n_input": self.n_input,
            "n_accepted": self.n_accepted,
            "n_rejected": self.n_rejected,
            "rejected": [{"key": k, "reason": r} for k, r in self.rejected],
        }


@dataclass
class FootprintSet:
    footprints: list
    report: LoadReport

    def __len__(self):
        return len(self.footprints)

    def __iter__(self):
        return iter(self.footprints)


@dataclass
class PanoramaSet:
    metas: list
    report: LoadReport

    def __len__(self):
        return len(self.metas)

    def __iter__(self):
        return iter(self.metas)


@dataclass
class DetectionSet:
    by_pano: dict  # pano_id -> list of DetectionBox, input order kept
    report: LoadReport

    @property
    def n_boxes(self) -> int:
        return sum(len(v) for v in self.by_pano.values())

    def boxes_for(self, pano_id: str) -> list:
        return self.by_pano.get(pano_id, [])


# ---------------------------------------------------------------------------
# Field readers: how a JSON value becomes a typed field, for every input
# ---------------------------------------------------------------------------

class _FieldError(ValueError):
    """A JSON value is not the field asked for; ``kind`` says why."""

    def __init__(self, kind, value):
        super().__init__(f"got {value!r}")
        self.kind = kind


def _number(v) -> float:
    """The one rule for a number: a JSON int or float that fits a float.
    A bool or a string is not one, though ``float()`` reads ``true`` as
    1.0 and ``"40.7"`` as 40.7."""
    if type(v) is float or type(v) is int and abs(v) <= sys.float_info.max:
        return float(v)
    raise _FieldError("non-numeric", v)


def _numbers(*values):
    """``values`` as finite floats. All are read as numbers before any is
    tested finite (``json.loads`` admits NaN and Infinity)."""
    for v in values:  # finite floats, the common case, pass at once
        if type(v) is not float or v - v != 0.0:
            break
    else:
        return values
    out = [_number(v) for v in values]
    for v, f in zip(values, out):
        if not math.isfinite(f):
            raise _FieldError("non-finite", v)
    return out


def _integers(*values) -> list:
    """``values`` as ints: finite numbers without a fractional part, which
    ``int()`` would drop. ``2048.0`` reads as 2048, but not a float from
    2**53 up (``1e30``): floats there are 2 or more apart, so inexact."""
    for v in values:  # ints that fit a float, the common case, pass at once
        if type(v) is not int or abs(v) > sys.float_info.max:
            break
    else:
        return list(values)
    for v, f in zip(values, _numbers(*values)):
        if not f.is_integer() or type(v) is float and abs(v) >= 2.0 ** 53:
            raise _FieldError("non-integer", v)
    return [int(v) for v in values]


def _key(v) -> str:
    """A join key, such as a pano or COCO id: a string, or a number's str()."""
    if type(v) is not str:
        _number(v)
    return str(v)


def _bbox(v, *more):
    """A box ``[x, y, w, h]``, then ``more``, as finite floats."""
    if type(v) is not list or len(v) != 4:
        raise _FieldError("non-box", v)
    return _numbers(*v, *more)


def _number_or_none(v):
    """An optional number, such as a COCO score: null or a finite float."""
    return None if v is None else _numbers(v)[0]


def _ok(reader, *values) -> bool:
    """True when ``reader`` accepts ``values``."""
    try:
        reader(*values)
    except _FieldError:
        return False
    return True


# ---------------------------------------------------------------------------
# Ring validation helpers
# ---------------------------------------------------------------------------

_MIN_RING_AREA_DEG2 = 1e-16


def _normalize_ring(coords):
    """GeoJSON [lon, lat] positions -> closed (lat, lon) ring, or reason."""
    if not isinstance(coords, list):
        return None, "ring is not a list of positions"
    pts = []
    for pos in coords:
        if not isinstance(pos, (list, tuple)) or len(pos) < 2:
            return None, "ring vertex is not a coordinate pair"
        try:
            lon, lat = _numbers(pos[0], pos[1])
        except _FieldError as e:
            return None, f"{e.kind} coordinate"
        if pts and pts[-1] == (lat, lon):
            continue  # drop consecutive duplicates
        pts.append((lat, lon))
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts.pop()
    if len(pts) < 3:
        return None, "ring has fewer than 3 distinct vertices"
    return pts, None


def _shoelace(pts):
    area2 = 0.0
    for (y1, x1), (y2, x2) in zip(pts, pts[1:] + pts[:1]):
        area2 += x1 * y2 - x2 * y1
    return 0.5 * area2


def _orient(p, q, r):
    v = (q[1] - p[1]) * (r[0] - p[0]) - (q[0] - p[0]) * (r[1] - p[1])
    return (v > 0) - (v < 0)


def _on_segment(p, q, r):
    return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))


def _segments_intersect(a1, a2, b1, b2):
    o1, o2 = _orient(a1, a2, b1), _orient(a1, a2, b2)
    o3, o4 = _orient(b1, b2, a1), _orient(b1, b2, a2)
    return ((o1 != o2 and o3 != o4)
            or (o1 == 0 and _on_segment(a1, a2, b1))
            or (o2 == 0 and _on_segment(a1, a2, b2))
            or (o3 == 0 and _on_segment(b1, b2, a1))
            or (o4 == 0 and _on_segment(b1, b2, a2)))


def _is_simple(pts):
    """True when no two non-adjacent ring edges intersect or touch."""
    n = len(pts)
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        # edges i + 1 and, for edge 0, n - 1 share a vertex with edge i
        for j in range(i + 2, n - (i == 0)):
            if _segments_intersect(a1, a2, pts[j], pts[(j + 1) % n]):
                return False
    return True


def _validate_ring(coords):
    pts, reason = _normalize_ring(coords)
    if pts is None:
        return None, reason
    if abs(_shoelace(pts)) < _MIN_RING_AREA_DEG2:
        return None, "ring has zero area"
    if not _is_simple(pts):
        return None, "ring is self-intersecting"
    return tuple(pts + [pts[0]]), None


# ---------------------------------------------------------------------------
# Loaders
# ---------------------------------------------------------------------------

def _read_json(path):
    raw = Path(path).read_bytes()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise ParseError(path, e.msg, offset=e.pos) from e


def load_category_mapping(path) -> CategoryMapping:
    """Load a per-city label-to-category config and check id contiguity."""
    doc = _read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), dict):
        raise LoadError(f"{path}: expected an object with an 'entries' "
                        f"object")
    default = doc.get("default")
    try:
        entries = dict(zip(doc["entries"],
                           _integers(*doc["entries"].values())))
        if default is not None:
            default, = _integers(default)
    except _FieldError as e:
        raise LoadError(f"{path}: entries and default need integer "
                        f"category ids ({e})") from e
    names = doc.get("names", {})
    if not isinstance(names, dict):
        raise LoadError(f"{path}: names must be an object, got {names!r}")
    for k, v in names.items():
        if not (k.isascii() and k.isdigit() and type(v) is str):
            raise LoadError(f"{path}: names must map the decimal digits of "
                            f"a category id to a string, got {k!r}: {v!r}")
    ids = set(entries.values())
    if default is not None:
        ids.add(default)
    if not ids:
        raise LoadError(f"{path}: mapping has no categories")
    if sorted(ids) != list(range(1, len(ids) + 1)):
        raise LoadError(
            f"{path}: category ids must form a contiguous 1..K set, got {sorted(ids)}")
    return CategoryMapping(city=str(doc.get("city", "")), entries=entries,
                           default=default,
                           names={int(k): v for k, v in names.items()})


def _outer_rings(geometry):
    """Candidate outer rings of a feature: 1 for Polygon, k for MultiPolygon.

    Interior rings (holes) are ignored: street-facing walls lie on the
    outer ring. A polygon that is not a list stands for its own outer
    ring, which ring validation then rejects.
    """
    gtype = geometry.get("type")
    if gtype not in ("Polygon", "MultiPolygon"):
        return None
    coords = geometry.get("coordinates", [])
    multi = gtype == "MultiPolygon" and isinstance(coords, list)
    return [poly[0] if isinstance(poly, list) else poly
            for poly in (coords if multi else [coords]) if poly]


def load_footprints(path, mapping: CategoryMapping) -> FootprintSet:
    """Load building footprints from a GeoJSON FeatureCollection.

    MultiPolygon features are split into one footprint per outer ring,
    ``building_id`` suffixed ``#1``, ``#2``, ... Records failing ring
    invariants or lacking a mappable label are rejected into the report.
    """
    doc = _read_json(path)
    report = LoadReport(path=str(path))
    features = doc.get("features", []) if isinstance(doc, dict) else None
    if type(features) is not list or doc.get("type") != "FeatureCollection":
        raise LoadError(f"{path}: expected a GeoJSON FeatureCollection")

    out = []
    for fidx, feat in enumerate(features):
        if not isinstance(feat, dict):
            report.n_input += 1
            report.reject(f"feature[{fidx}]", "feature is not an object")
            continue
        props = feat.get("properties")
        props = props if isinstance(props, dict) else {}
        building_id = props.get("building_id")
        label = props.get("label")
        key, bad = f"feature[{fidx}]", None
        try:
            key = _key(building_id)
            raw_label = _key(label)
        except _FieldError:
            bad = ("missing building_id or label property"
                   if building_id is None or label is None else
                   "building_id and label must be strings or numbers")
        geometry = feat.get("geometry")
        geometry = geometry if isinstance(geometry, dict) else {}
        rings = _outer_rings(geometry)
        if rings is None:
            report.n_input += 1
            report.reject(key, f"unsupported geometry type {geometry.get('type')!r}")
            continue
        if not rings:
            report.n_input += 1
            report.reject(key, "feature has no coordinates")
            continue
        multi = len(rings) > 1
        for ridx, ring_coords in enumerate(rings, start=1):
            report.n_input += 1
            rkey = f"{key}#{ridx}" if multi else key
            if bad:
                report.reject(rkey, bad)
                continue
            ring, reason = _validate_ring(ring_coords)
            if ring is None:
                report.reject(rkey, reason)
                continue
            category = mapping.resolve(raw_label)
            if category is None:
                report.reject(rkey, f"label {label!r} not in mapping and no default")
                continue
            out.append(BuildingFootprint(building_id=rkey, ring=ring,
                                         raw_label=raw_label,
                                         category=category))
    log.info("loaded %d footprints from %s (%d rejected)",
             len(out), path, report.n_rejected)
    return FootprintSet(footprints=out, report=report)


_META_FIELDS = ("pano_id", "lat", "lon", "north_px", "width", "height")
# pixel arithmetic runs in float64, exact on whole numbers up to 2**53
MAX_PANORAMA_SIZE = 2 ** 53


def load_panorama_meta(path) -> PanoramaSet:
    """Load panorama metadata from JSON lines, one record per panorama.

    Records with out-of-range fields are rejected with a diagnostic; a
    duplicate ``pano_id`` is an error because it is the join key for
    detections.
    """
    report = LoadReport(path=str(path))
    metas = []
    seen = set()
    with open(path, "rb") as fh:
        offset = 0
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            line_offset = offset
            offset += len(raw)
            if not line:
                continue
            report.n_input += 1
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(path, f"line {lineno}: {e.msg}",
                                 offset=line_offset + e.pos) from e
            if not isinstance(rec, dict):
                report.reject(f"line {lineno}", "not an object")
                continue
            try:
                pano_id = _key(rec.get("pano_id"))
            except _FieldError:
                pano_id = None
            missing = [f for f in _META_FIELDS if f not in rec]
            if missing or pano_id is None:
                report.reject(f"line {lineno}" if pano_id is None else pano_id,
                              f"missing fields {missing}" if missing
                              else "pano_id must be a string or a number")
                continue
            try:
                width, height = _integers(rec["width"], rec["height"])
            except _FieldError as e:
                report.reject(pano_id, f"non-integer size {rec['width']}x"
                              f"{rec['height']}" if e.kind == "non-integer"
                              else "non-numeric field")
                continue
            try:
                lat, lon, north_px = _numbers(rec["lat"], rec["lon"],
                                              rec["north_px"])
            except _FieldError as e:
                report.reject(pano_id, f"{e.kind} field")
                continue
            if width <= 0 or height <= 0:
                report.reject(pano_id, f"non-positive size {width}x{height}")
                continue
            if max(width, height) > MAX_PANORAMA_SIZE:
                report.reject(pano_id, f"size {width}x{height} above 2**53")
                continue
            if not (0.0 <= north_px < width):
                report.reject(pano_id,
                              f"north_px {north_px} outside [0, {width})")
                continue
            if abs(lat) > 90.0:
                report.reject(pano_id, f"latitude {lat} outside [-90, 90]")
                continue
            if pano_id in seen:
                raise LoadError(
                    f"{path}: duplicate pano_id {pano_id!r} (ambiguous join key)")
            if width != 2 * height:
                log.warning("%s: panorama %s is %dx%d, not equirectangular 2:1",
                            path, pano_id, width, height)
            seen.add(pano_id)
            metas.append(PanoramaMeta(pano_id=pano_id, lat=lat, lon=lon,
                                      north_px=north_px, width=width,
                                      height=height))
    return PanoramaSet(metas=metas, report=report)


def load_detections(path) -> DetectionSet:
    """Load detector boxes from a COCO-results-style JSON array.

    Boxes are grouped by panorama with input order preserved. Any
    ``category_id`` is deliberately dropped: categories are assigned
    later from GIS, never taken from the detector.
    """
    doc = _read_json(path)
    report = LoadReport(path=str(path))
    if not isinstance(doc, list):
        raise LoadError(f"{path}: expected a JSON array of detection results")
    by_pano: dict = {}
    for idx, rec in enumerate(doc):
        report.n_input += 1
        key = f"result[{idx}]"
        if not isinstance(rec, dict):
            report.reject(key, "not an object")
            continue
        pano_id = rec.get("pano_id", rec.get("image_id"))
        bbox = rec.get("bbox")
        score = rec.get("score")
        if pano_id is None or bbox is None or score is None:
            report.reject(key, "missing pano_id/image_id, bbox, or score")
            continue
        if not _ok(_key, pano_id):
            report.reject(key, "pano_id/image_id must be a string or a number")
            continue
        try:
            x, y, w, h, score = _bbox(bbox, score)
        except _FieldError as e:
            report.reject(key, "bbox must be [x, y, w, h]"
                          if e.kind == "non-box" else
                          f"{e.kind} bbox or score")
            continue
        if w <= 0 or h <= 0:
            report.reject(key, f"non-positive box size {w}x{h}")
            continue
        if not (0.0 <= score <= 1.0):
            report.reject(key, f"score {score} outside [0, 1]")
            continue
        if y < 0:
            report.reject(key, f"box top {y} above the image")
            continue
        box = DetectionBox(pano_id=_key(pano_id), x=x, y=y, w=w, h=h,
                           score=score)
        by_pano.setdefault(box.pano_id, []).append(box)
    return DetectionSet(by_pano=by_pano, report=report)
