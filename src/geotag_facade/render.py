"""Deterministic SVG diagnostics for one panorama's trace.

Top: map view with the footprints, the camera, the field-of-view circle
and one arc per visibility interval, color-keyed by building. Bottom:
a strip showing the same intervals on the panorama's pixel axis, seam
splits included. Text SVG keeps the output diffable in tests. The
intervals come as rows, such as ``cocoio.read_trace`` reads from a
``trace`` file; this module only draws.
"""
from __future__ import annotations

import math
import re
import zlib

from .projection import _local_xy

SCALE = 4.0  # map-view pixels per meter
PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)


def _color(building_id: str) -> str:
    return PALETTE[zlib.crc32(building_id.encode("utf-8")) % len(PALETTE)]


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _arc_path(cx, cy, r, theta_lo, theta_hi) -> str:
    """Arc along headings lo..hi clockwise from north (SVG y points down)."""
    span = (theta_hi - theta_lo) % 360.0
    x0 = cx + r * math.sin(math.radians(theta_lo))
    y0 = cy - r * math.cos(math.radians(theta_lo))
    x1 = cx + r * math.sin(math.radians(theta_lo + span))
    y1 = cy - r * math.cos(math.radians(theta_lo + span))
    large = 1 if span > 180.0 else 0
    return (f"M {_fmt(x0)} {_fmt(y0)} "
            f"A {_fmt(r)} {_fmt(r)} 0 {large} 1 {_fmt(x1)} {_fmt(y1)}")


def render_scene_svg(footprints, meta, intervals, radius_m: float,
                     comment: str | None = None) -> str:
    """Render one panorama's visibility as a standalone SVG document.

    ``footprints`` may be empty; then only the camera marker and the
    field-of-view circle appear. ``intervals`` need pixel fields only
    for the strip. ``comment`` (e.g. config echo) lands in an XML
    comment so the artifact carries its provenance, with a space after
    each dash that another follows, as a comment holds no ``--``.
    Building and panorama ids are escaped as XML text.
    """
    # here, not at the top: xml.sax.saxutils imports urllib.request and
    # ssl, about 2 MB of peak RSS in every command that imports the CLI
    from xml.sax.saxutils import escape
    margin = 20.0
    half = radius_m * SCALE + margin
    cx = cy = half
    strip_h = 40.0
    strip_y = 2 * half + 20.0
    width = 2 * half
    height = strip_y + strip_h + 30.0

    cos_lat = math.cos(math.radians(meta.lat))
    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">')
    if comment:
        parts.append(f"<!-- {re.sub('-(?=-)', '- ', comment)} -->")
    parts.append(f'<rect width="{_fmt(width)}" height="{_fmt(height)}" '
                 'fill="white"/>')

    for fp in footprints:
        pts = []
        for (lat, lon) in fp.ring[:-1]:
            x, y = _local_xy(lat, lon, meta.lat, meta.lon, cos_lat)
            pts.append(f"{_fmt(cx + x * SCALE)},{_fmt(cy - y * SCALE)}")
        parts.append(
            f'<polygon class="footprint" points="{" ".join(pts)}" '
            f'fill="{_color(fp.building_id)}" fill-opacity="0.35" '
            'stroke="#333" stroke-width="1"/>')

    parts.append(f'<circle class="fov" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                 f'r="{_fmt(radius_m * SCALE)}" fill="none" stroke="#888" '
                 'stroke-dasharray="6 4" stroke-width="1"/>')
    parts.append(f'<circle class="camera" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                 'r="4" fill="black"/>')

    for iv in intervals:
        parts.append(
            f'<path class="interval-arc" d="'
            f'{_arc_path(cx, cy, radius_m * SCALE * 0.96, iv.angle_lo, iv.angle_hi)}" '
            f'fill="none" stroke="{_color(iv.building_id)}" stroke-width="4">'
            f'<title>{escape(iv.building_id)}</title></path>')

    # pixel-axis strip
    sx = width / meta.width
    parts.append(f'<rect class="strip" x="0" y="{_fmt(strip_y)}" '
                 f'width="{_fmt(width)}" height="{_fmt(strip_h)}" '
                 'fill="#eee" stroke="#333" stroke-width="1"/>')
    for iv in intervals:
        if iv.px_lo is None or iv.px_hi is None:
            continue
        start = iv.px_lo % meta.width
        length = (iv.px_hi - iv.px_lo) % meta.width
        spans = ([(start, meta.width), (0.0, start + length - meta.width)]
                 if start + length > meta.width else [(start, start + length)])
        for lo, hi in spans:
            if hi - lo <= 0:
                continue
            parts.append(
                f'<rect class="interval-band" x="{_fmt(lo * sx)}" '
                f'y="{_fmt(strip_y)}" width="{_fmt((hi - lo) * sx)}" '
                f'height="{_fmt(strip_h)}" '
                f'fill="{_color(iv.building_id)}" fill-opacity="0.8"/>')
    parts.append(f'<text x="4" y="{_fmt(strip_y + strip_h + 16.0)}" '
                 f'font-size="12" font-family="monospace">'
                 f'{escape(meta.pano_id)} R={radius_m:g}m '
                 f'north_px={meta.north_px:g}'
                 '</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
