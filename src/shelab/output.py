"""Provenance-stamped artifact writing: deterministic CSV and simple SVG.

Every CSV starts with `# manifest: <config_hash> seed=<s> generator=<id>
version=<v>`; floats are formatted with repr (shortest round-trip decimal)
so a rerun of the same manifest reproduces identical bytes.  Files are
written atomically (temp file + rename).
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass

from . import __version__
from .noise import GENERATOR_ID

__all__ = ["RunManifest", "config_hash", "write_csv", "svg_plot"]


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class RunManifest:
    config: dict
    seed: int
    generator_id: str = GENERATOR_ID
    tool_version: str = __version__

    @property
    def hash(self) -> str:
        return config_hash(self.config)

    def header_line(self) -> str:
        return (f"# manifest: {self.hash} seed={self.seed} "
                f"generator={self.generator_id} version={self.tool_version}")


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


def write_csv(path: str, columns, rows, manifest: RunManifest):
    lines = [manifest.header_line(), ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def svg_plot(path: str, series, manifest: RunManifest, title: str = "",
             logx: bool = False, logy: bool = False, annotation: str = "",
             width: int = 640, height: int = 420):
    """Minimal line/scatter plot; series = [(label, xs, ys)]."""
    import math

    margin = 56

    def tx(vals):
        return [math.log10(v) for v in vals] if logx else list(vals)

    def ty(vals):
        return [math.log10(v) for v in vals] if logy else list(vals)

    all_x = [v for _, xs, _ in series for v in tx(xs)]
    all_y = [v for _, _, ys in series for v in ty(ys)]
    x0, x1 = min(all_x), max(all_x)
    y0, y1 = min(all_y), max(all_y)
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0

    def px(v):
        return margin + (v - x0) / (x1 - x0) * (width - 2 * margin)

    def py(v):
        return height - margin - (v - y0) / (y1 - y0) * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f"<!-- {manifest.header_line()[2:]} -->",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#999"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2}" y="24" text-anchor="middle" '
                     f'font-family="monospace" font-size="14">{title}</text>')
    for k, (label, xs, ys) in enumerate(series):
        color = palette[k % len(palette)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(tx(xs), ty(ys)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        for a, b in zip(tx(xs), ty(ys)):
            parts.append(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="3" '
                         f'fill="{color}"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 14 * (k + 1)}" '
                     f'font-family="monospace" font-size="11" fill="{color}" '
                     f'text-anchor="end">{label}</text>')
    if annotation:
        parts.append(f'<text x="{margin + 6}" y="{margin + 16}" '
                     f'font-family="monospace" font-size="12">{annotation}</text>')
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")
