"""Deterministic artifact emission: CSV, JSON, and hand-rolled SVG.

Every writer here is pure text assembly: no timestamps, no locale, no
platform-dependent float formatting, so identical inputs produce
byte-identical files.
"""
from __future__ import annotations

import json
import math
from typing import Mapping, Sequence

SCHEMA_VERSION = "nucshoot/1"

__all__ = [
    "SCHEMA_VERSION",
    "float17",
    "csv_text",
    "json_text",
    "svg_plot",
    "write_text",
]


def float17(x: float) -> str:
    """Decimal string with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def csv_text(columns: Mapping[str, Sequence]) -> str:
    """CSV with '.' decimals; floats at 17 significant digits.

    Column values may be numeric or strings; empty strings mark absent
    cells (nonexistence sweep rows).
    """
    names = list(columns)
    if not names:
        return "\n"
    # numpy columns become lists of Python scalars once, not per cell
    cols = [c.tolist() if hasattr(c, "tolist") else c for c in columns.values()]
    n = len(cols[0])
    for name, col in zip(names, cols):
        if len(col) != n:
            raise ValueError(f"column {name!r} has length {len(col)}, expected {n}")
    cells = [[v if isinstance(v, str) else float17(v) for v in col] for col in cols]
    return "\n".join([",".join(names), *map(",".join, zip(*cells))]) + "\n"


def _jsonable(obj):
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def json_text(payload: dict) -> str:
    """Sorted-key, indented JSON with a schema version stamp."""
    body = dict(payload)
    body.setdefault("schema", SCHEMA_VERSION)
    return json.dumps(_jsonable(body), sort_keys=True, indent=2) + "\n"


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _coord(v: float) -> str:
    return format(v, ".3f")


_WIDTH, _HEIGHT, _MARGIN = 800, 600, 40.0    # viewBox size and frame inset, px


class _Mapper:
    def __init__(self, xlim, ylim):
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("degenerate plot limits")

    def x(self, v: float) -> float:
        return _MARGIN + (v - self.x0) / (self.x1 - self.x0) * (_WIDTH - 2 * _MARGIN)

    def y(self, v: float) -> float:
        # SVG y grows downward
        return _HEIGHT - _MARGIN - (v - self.y0) / (self.y1 - self.y0) * (_HEIGHT - 2 * _MARGIN)


def svg_plot(xlim, ylim, polylines, rects=(), points=(), title="") -> str:
    """Fixed 800 x 600 viewBox SVG scene from data-space primitives.

    polylines: iterable of (pts, stroke, stroke_width, dash) with pts an
    iterable of (x, y) pairs; rects: (x0, y0, x1, y1, fill) shading
    cells drawn under the curves; points: (x, y, radius_px, fill).
    Non-finite vertices split a polyline into segments.
    """
    width, height, margin = _WIDTH, _HEIGHT, _MARGIN
    mp = _Mapper(xlim, ylim)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for x0, y0, x1, y1, fill in rects:
        px0, px1 = sorted((mp.x(x0), mp.x(x1)))
        py0, py1 = sorted((mp.y(y0), mp.y(y1)))
        out.append(f'<rect x="{_coord(px0)}" y="{_coord(py0)}" '
                   f'width="{_coord(px1 - px0)}" height="{_coord(py1 - py0)}" '
                   f'fill="{fill}"/>')
    frame = (f'<rect x="{_coord(margin)}" y="{_coord(margin)}" '
             f'width="{_coord(width - 2 * margin)}" height="{_coord(height - 2 * margin)}" '
             f'fill="none" stroke="black" stroke-width="1"/>')
    out.append(frame)
    for pts, stroke, swidth, dash in polylines:
        run: list[str] = []
        segs: list[list[str]] = []
        for x, y in pts:
            if math.isfinite(x) and math.isfinite(y):
                run.append(f"{_coord(mp.x(x))},{_coord(mp.y(y))}")
            elif run:
                segs.append(run)
                run = []
        if run:
            segs.append(run)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        for seg in segs:
            if len(seg) < 2:
                continue
            out.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                       f'stroke="{stroke}" stroke-width="{swidth}"{dash_attr}/>')
    for x, y, radius, fill in points:
        out.append(f'<circle cx="{_coord(mp.x(x))}" cy="{_coord(mp.y(y))}" '
                   f'r="{radius}" fill="{fill}"/>')
    if title:
        out.append(f'<text x="{width // 2}" y="25" text-anchor="middle" '
                   f'font-family="monospace" font-size="16">{title}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
