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
keys) raise instead. Every reader runs with the cyclic collector paused
(:func:`_gc_paused`): a parsed JSON tree holds no cycle, so walking it
would free nothing. Every JSON value becomes a typed field through the
field readers below, which ``cocoio`` and ``render`` share. Footprint
rings arrive as arrays: every ring is read into one flat vertex array
and checked there, all rings at once, and a :class:`FootprintSet` holds
the accepted ones as they are. A :class:`DetectionSet` holds the
accepted boxes as columns, grouped by panorama; neither set builds a
record unless one is asked for.
"""
from __future__ import annotations

import gc
import json
import logging
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import LoadError, ParseError

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class BuildingFootprint:
    """One building outer ring in WGS84 with a resolved function category.

    ``ring`` is closed (first vertex equals last), simple, and has at
    least three distinct vertices. Vertices are (lat, lon) degrees.
    """

    building_id: str
    ring: tuple  # tuple of (lat, lon)
    raw_label: str
    category: int


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(eq=False)
class FootprintSet:
    """Footprints in input order, as flat vertex arrays.

    Footprint ``i`` is ``building_ids[i]``, ``raw_labels[i]`` and
    ``categories[i]``; its outer ring is the next ``ring_len[i]``
    vertices of ``lat`` and ``lon`` (degrees), the closing one dropped.
    ``footprints`` derives the records once.
    """

    building_ids: list
    raw_labels: list
    categories: list
    lat: np.ndarray
    lon: np.ndarray
    ring_len: np.ndarray
    report: LoadReport

    @classmethod
    def of(cls, footprints) -> "FootprintSet":
        """The set of ``footprints`` (closed rings), all counted accepted."""
        fps = list(footprints)
        lat, lon = (np.array([p[k] for fp in fps for p in fp.ring[:-1]],
                             float) for k in (0, 1))
        return cls([fp.building_id for fp in fps],
                   [fp.raw_label for fp in fps], [fp.category for fp in fps],
                   lat, lon, np.array([len(fp.ring) - 1 for fp in fps], int),
                   LoadReport(path="<records>", n_input=len(fps)))

    @cached_property
    def footprints(self) -> list:
        lat, lon = self.lat.tolist(), self.lon.tolist()
        end = np.cumsum(self.ring_len).tolist()
        rings = [tuple(zip(lat[i:j], lon[i:j])) for i, j in zip([0] + end, end)]
        return [BuildingFootprint(bid, ring + ring[:1], label, category)
                for bid, ring, label, category in zip(
                    self.building_ids, rings, self.raw_labels,
                    self.categories)]

    def __len__(self):
        return len(self.building_ids)

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


@dataclass(eq=False)
class DetectionSet:
    """Detector boxes grouped by panorama, as columns.

    Panorama ``pano_ids[k]`` (in order of first appearance) holds rows
    ``offsets[k]`` to ``offsets[k + 1] - 1`` of the float64 ``x``, ``y``,
    ``w``, ``h`` and ``score`` columns, in input order. ``by_pano``
    derives the records once.
    """

    pano_ids: list
    offsets: np.ndarray
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    h: np.ndarray
    score: np.ndarray
    report: LoadReport

    @classmethod
    def _grouped(cls, keys, boxes, report) -> "DetectionSet":
        """Boxes ``(x, y, w, h, score)`` of panoramas ``keys``, grouped."""
        group: dict = {}
        k = np.array([group.setdefault(p, len(group)) for p in keys], np.int64)
        cols = np.array(boxes, float).reshape(-1, 5)[np.argsort(k, kind="stable")]
        offsets = np.cumsum([0, *np.bincount(k, minlength=len(group))])
        return cls(list(group), offsets, *cols.T, report)

    @classmethod
    def of(cls, boxes) -> "DetectionSet":
        """The set of ``boxes`` (records), all counted accepted."""
        boxes = list(boxes)
        return cls._grouped([b.pano_id for b in boxes],
                            [(b.x, b.y, b.w, b.h, b.score) for b in boxes],
                            LoadReport(path="<records>", n_input=len(boxes)))

    @cached_property
    def by_pano(self) -> dict:  # pano_id -> list of DetectionBox
        off = self.offsets.tolist()
        cols = [c.tolist() for c in (self.x, self.y, self.w, self.h,
                                     self.score)]
        return {p: [DetectionBox(p, *v) for v in zip(*(c[i:j] for c in cols))]
                for p, i, j in zip(self.pano_ids, off, off[1:])}

    @property
    def n_boxes(self) -> int:
        return len(self.x)


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
# Ring validation, over every ring at once
# ---------------------------------------------------------------------------

_MIN_RING_AREA_DEG2 = 1e-16
# (ring, edge pair) cells of one block of the simple-ring test, which
# bounds its memory
_PAIR_CELLS = 1 << 16
_RING_REASONS = (None, "non-finite coordinate",
                 "ring has fewer than 3 distinct vertices",
                 "ring has zero area", "ring is self-intersecting")


def _read_rings(rings):
    """Rings of GeoJSON [lon, lat] positions as one flat float list, with
    each ring's position count and reason: None, or its first bad
    position's (then a count of 0). Only a position's first two values
    count, each read by :func:`_number`; NaN and infinity are left to
    :func:`_check_rings`. Rings whose positions start with two floats
    take one pass in all."""
    if {*map(type, rings)} <= {list}:
        positions = [*chain.from_iterable(rings)]
        if {*map(type, positions)} <= {list} and \
                min(size := {*map(len, positions)}, default=2) >= 2:
            values = [*chain.from_iterable(positions if size <= {2} else
                                           map(itemgetter(0, 1), positions))]
            if {*map(type, values)} <= {float}:
                return values, [*map(len, rings)], [None] * len(rings)
    values, count, reasons = [], [], []
    for coords in rings:
        ring, reason = [], None
        if not isinstance(coords, list):
            reason, coords = "ring is not a list of positions", ()
        for pos in coords:
            if not isinstance(pos, (list, tuple)) or len(pos) < 2:
                reason = "ring vertex is not a coordinate pair"
                break
            try:
                ring += _numbers(pos[0], pos[1])
            except _FieldError as e:
                reason = f"{e.kind} coordinate"
                break
        ring = [] if reason else ring
        values += ring
        count.append(len(ring) // 2)
        reasons.append(reason)
    return values, count, reasons


def _check_rings(values, count):
    """Check the rings of :func:`_read_rings` all at once, each float
    operation that of the one-ring rule, in its order.

    A ring needs finite values. Consecutive duplicate vertices go (the
    first stays), then a last vertex equal to the first. At least 3 must
    be left, the shoelace area (summed left to right) must reach 1e-16
    square degrees, and no two non-adjacent edges may meet. Returns each
    ring's reason (None if accepted), the lat and lon of the vertices
    accepted rings keep, and each ring's count of those.
    """
    count = np.array(count, np.int64)
    lon, lat = np.fromiter(values, float, len(values)).reshape(-1, 2).T
    ring = np.repeat(np.arange(len(count)), count)
    bad = ~(np.isfinite(lat) & np.isfinite(lon))
    code = (np.bincount(ring, bad, len(count)) > 0).astype(np.int64)
    keep = code[ring] == 0  # then drop a vertex equal to the one before
    keep[1:] &= ((lat[1:] != lat[:-1]) | (lon[1:] != lon[:-1])
                 | (ring[1:] != ring[:-1]))
    kept = np.bincount(ring[keep], minlength=len(count))
    # then a last vertex equal to the first, which is always kept
    r = np.flatnonzero(kept >= 2)
    first = (np.cumsum(count) - count)[r]
    last = np.flatnonzero(keep)[np.cumsum(kept)[r] - 1]
    closed = (lat[first] == lat[last]) & (lon[first] == lon[last])
    keep[last[closed]] = False
    kept[r[closed]] -= 1
    code[(code == 0) & (kept < 3)] = 2
    idx, first = np.flatnonzero(keep), np.cumsum(kept) - kept
    with np.errstate(over="ignore", invalid="ignore"):
        for m in np.unique(kept[code == 0]).tolist():  # rings of m vertices
            rows = np.flatnonzero((code == 0) & (kept == m))
            y, x = (v[idx[first[rows, None] + np.arange(m)]]
                    for v in (lat, lon))
            area2 = np.cumsum(x * np.roll(y, -1, 1) - np.roll(x, -1, 1) * y,
                              axis=1)[:, -1]
            code[rows] = np.where(np.abs(0.5 * area2) < _MIN_RING_AREA_DEG2,
                                  3, np.where(_simple(y, x), 0, 4))
    keep &= code[ring] == 0
    kept[code != 0] = 0
    return ([_RING_REASONS[c] for c in code.tolist()], lat[keep], lon[keep],
            kept)


def ranges(first, count):
    """(owner, index) of runs laid end to end, the package's one
    expansion of them: run ``k`` is the ``count[k]`` consecutive indices
    from ``first[k]``, and ``owner`` gives the run of each index."""
    index = np.repeat(first - (np.cumsum(count) - count), count)
    index += np.arange(len(index))
    return np.repeat(np.arange(len(count)), count), index


def _edge_pairs(m, i0, i1):
    """Vertex indices (i, i + 1, j, j + 1, mod m) of the edge pairs of an
    m-vertex ring that share no vertex, with i in [i0, i1) and j > i."""
    i = np.arange(i0, i1)
    k, j = ranges(i + 2, np.maximum(m - (i == 0) - i - 2, 0))
    i = i[k]
    return i, (i + 1) % m, j, (j + 1) % m


def _orient(p, q, r):
    """Sign of the turn p -> q -> r of (lat, lon) arrays; 0 on NaN."""
    v = (q[1] - p[1]) * (r[0] - p[0]) - (q[0] - p[0]) * (r[1] - p[1])
    return (v > 0).view(np.int8) - (v < 0).view(np.int8)


def _on_box(p, q, r):
    return ((np.minimum(p[0], q[0]) <= r[0]) & (r[0] <= np.maximum(p[0], q[0]))
            & (np.minimum(p[1], q[1]) <= r[1])
            & (r[1] <= np.maximum(p[1], q[1])))


def _simple(lat, lon):
    """Per row of (rings, m) vertex arrays: no two edges that share no
    vertex meet or touch. Blocks of rings and edges bound the memory."""
    rows, m = lat.shape
    size = max(1, _PAIR_CELLS // m)  # rings per block
    step = max(1, _PAIR_CELLS // (min(rows, size) * m))  # edges per block
    ok = np.ones(rows, bool)
    for r0, i0 in product(range(0, rows, size), range(0, m, step)):
        a, b, c, d = ((lat[r0:r0 + size, k], lon[r0:r0 + size, k])
                      for k in _edge_pairs(m, i0, min(i0 + step, m)))
        o1, o2 = _orient(a, b, c), _orient(a, b, d)
        o3, o4 = _orient(c, d, a), _orient(c, d, b)
        ok[r0:r0 + size] &= ~(((o1 != o2) & (o3 != o4))
                              | ((o1 == 0) & _on_box(a, b, c))
                              | ((o2 == 0) & _on_box(a, b, d))
                              | ((o3 == 0) & _on_box(c, d, a))
                              | ((o4 == 0) & _on_box(c, d, b))).any(axis=1)
    return ok


# ---------------------------------------------------------------------------
# Loaders
# ---------------------------------------------------------------------------

@contextmanager
def _gc_paused():
    """Pause the cyclic collector for the block, and on any exit restore
    the state found: a caller that had it off keeps it off. The pause is
    process-wide while it lasts. Each reader runs its whole body under
    it, as a decorator (``@_gc_paused()``), since its checks walk the
    parsed tree too. The collector's allocation count runs on through
    the pause, so a collection that comes due in a read runs at its
    exit, over the young objects still alive then."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _byte_offset(raw: bytes, e: json.JSONDecodeError) -> int:
    """The byte of ``raw`` at which ``json.loads(raw)`` failed: ``e.pos``
    counts characters of the text ``raw`` was decoded to."""
    return len(e.doc[:e.pos].encode(json.detect_encoding(raw),
                                    "surrogatepass"))


def _read_json(path):
    raw = Path(path).read_bytes()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise ParseError(path, e.msg, offset=_byte_offset(raw, e)) from e
    except UnicodeDecodeError as e:
        raise ParseError(path, f"not {e.encoding} text: {e.reason}",
                         offset=e.start) from e


@_gc_paused()
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


def _warn_if_all_rejected(report: LoadReport, what: str) -> bool:
    """Log a WARNING, naming the first rejection, when ``report``
    rejected every one of its N > 0 records: a run without any of
    ``what`` annotates nothing. Returns whether it did."""
    if not report.n_input or report.n_accepted:
        return False
    log.warning("loaded 0 %s from %s: all %d rejected, the first (%s) for: "
                "%s", what, report.path, report.n_input, *report.rejected[0])
    return True


@_gc_paused()
def load_footprints(path, mapping: CategoryMapping) -> FootprintSet:
    """Load building footprints from a GeoJSON FeatureCollection.

    MultiPolygon features are split into one footprint per outer ring,
    ``building_id`` suffixed ``#1``, ``#2``, ... Records failing ring
    invariants or lacking a mappable label are rejected into the report.
    The rings are read, then checked, all at once (:func:`_read_rings`,
    :func:`_check_rings`).
    """
    doc = _read_json(path)
    report = LoadReport(path=str(path))
    features = doc.get("features", []) if isinstance(doc, dict) else None
    if type(features) is not list or doc.get("type") != "FeatureCollection":
        raise LoadError(f"{path}: expected a GeoJSON FeatureCollection")

    records = []  # [key, reason, raw_label, label] per input record
    rings, parsed = [], []  # each ring to read and its record's index
    for fidx, feat in enumerate(features):
        if not isinstance(feat, dict):
            records.append([f"feature[{fidx}]", "feature is not an object",
                            None, None])
            continue
        props = feat.get("properties")
        props = props if isinstance(props, dict) else {}
        building_id = props.get("building_id")
        label = props.get("label")
        key = raw_label = bad = None
        try:
            key = _key(building_id)
            raw_label = _key(label)
        except _FieldError:
            bad = ("missing building_id or label property"
                   if building_id is None or label is None else
                   "building_id and label must be strings or numbers")
        key = f"feature[{fidx}]" if key is None else key
        geometry = feat.get("geometry")
        geometry = geometry if isinstance(geometry, dict) else {}
        coords = _outer_rings(geometry)
        if not coords:
            records.append([key, "feature has no coordinates" if coords == []
                            else f"unsupported geometry type "
                                 f"{geometry.get('type')!r}", None, None])
            continue
        for ridx, ring in enumerate(coords, start=1):
            if not bad:
                parsed.append(len(records))
                rings.append(ring)
            records.append([f"{key}#{ridx}" if len(coords) > 1 else key, bad,
                            raw_label, label])

    values, count, read = _read_rings(rings)
    checked, lat, lon, kept = _check_rings(values, count)
    for r, reason, check in zip(parsed, read, checked):
        records[r][1] = reason or check
    accepted = []
    for rec in records:
        key, reason, raw_label, label = rec
        if reason is None:
            category = mapping.resolve(raw_label)
            if category is not None:
                accepted.append((key, raw_label, category))
                continue
            rec[1] = reason = f"label {label!r} not in mapping and no default"
        report.reject(key, reason)
    report.n_input = len(records)
    ids, raw_labels, categories = (list(f) for f in zip(*accepted)) \
        if accepted else ([], [], [])
    ok = np.array([records[r][1] is None for r in parsed], bool)
    keep = np.repeat(ok, kept)
    if not _warn_if_all_rejected(report, "footprints"):
        log.info("loaded %d footprints from %s (%d rejected)",
                 len(ids), path, report.n_rejected)
    return FootprintSet(ids, raw_labels, categories, lat[keep], lon[keep],
                        kept[ok], report)


_META_FIELDS = ("pano_id", "lat", "lon", "north_px", "width", "height")
# pixel arithmetic runs in float64, exact on whole numbers up to 2**53
MAX_PANORAMA_SIZE = 2 ** 53


@_gc_paused()
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
            # the file offset of the stripped line's first byte
            line_offset = offset + len(raw) - len(raw.lstrip())
            offset += len(raw)
            if not line:
                continue
            report.n_input += 1
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(path, f"line {lineno}: {e.msg}",
                                 offset=line_offset + _byte_offset(line, e)
                                 ) from e
            except UnicodeDecodeError as e:
                raise ParseError(path, f"line {lineno}: not {e.encoding} "
                                 f"text: {e.reason}",
                                 offset=line_offset + e.start) from e
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
    _warn_if_all_rejected(report, "panoramas")
    return PanoramaSet(metas=metas, report=report)


@_gc_paused()
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
    keys, boxes = [], []  # each accepted box's panorama and values
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
        keys.append(_key(pano_id))
        boxes.append((x, y, w, h, score))
    _warn_if_all_rejected(report, "detections")
    return DetectionSet._grouped(keys, boxes, report)
