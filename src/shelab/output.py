"""Provenance-stamped artifact writing: deterministic CSV and simple SVG.

Every CSV starts with `# manifest: <config_hash> seed=<s> generator=<id>
version=<v>`; floats are formatted with repr (shortest round-trip decimal)
so a rerun of the same manifest reproduces identical bytes.  Files are
written atomically (temp file + rename).
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile

from . import __version__
from .noise import GENERATOR_ID

__all__ = ["manifest_line", "write_csv", "svg_plot"]


def manifest_line(config: dict, seed: int) -> str:
    """The provenance line of every artifact: a hash of the config as
    loaded, the seed, the noise generator and the tool version."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode()).hexdigest()[:16]
    return f"# manifest: {digest} seed={seed} generator={GENERATOR_ID} version={__version__}"


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _atomic_write(path: str, data: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, columns, rows, manifest: str):
    lines = [manifest, ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def svg_plot(path: str, label: str, xs, ys, manifest: str, title: str,
             annotation: str = ""):
    """One series of positive (x, y) points on log-log axes, the axes on
    which each of the paper's power laws is a straight line."""
    width, height, margin = 640, 420, 56
    xs, ys = [math.log10(v) for v in xs], [math.log10(v) for v in ys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0
    pts = [(f"{margin + (a - x0) / (x1 - x0) * (width - 2 * margin):.2f}",
            f"{height - margin - (b - y0) / (y1 - y0) * (height - 2 * margin):.2f}")
           for a, b in zip(xs, ys)]
    points, color = " ".join(f"{a},{b}" for a, b in pts), "#1f77b4"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f"<!-- {manifest[2:]} -->",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#999"/>',
        f'<text x="{width / 2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>',
        *(f'<circle cx="{a}" cy="{b}" r="3" fill="{color}"/>' for a, b in pts),
        f'<text x="{width - margin + 4}" y="{margin + 14}" font-family="monospace" '
        f'font-size="11" fill="{color}" text-anchor="end">{label}</text>',
    ]
    if annotation:
        parts.append(f'<text x="{margin + 6}" y="{margin + 16}" '
                     f'font-family="monospace" font-size="12">{annotation}</text>')
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")
