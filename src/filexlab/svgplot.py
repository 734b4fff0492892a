"""Standalone SVG scatter plots: entropy against one swept hyperparameter.

No plotting library: the file is assembled as strings, so output is
byte-reproducible. Log-scaled x axis, y axis fixed to [0, max entropy in
bits], scatter of raw records, a single smoothed trend path, and dashed
guides at minimum and maximum entropy.
"""

from __future__ import annotations

import math

from .stats import gaussian_smooth
from .validation import is_real

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 64, 20, 20, 48

_PLOT_W = _W - _ML - _MR
_PLOT_H = _H - _MT - _MB


def _y_axis_bits(metadata) -> float:
    """Plot ceiling in bits: the largest entropy the sweep could produce.

    A lexicon_size sweep needs its `high`; other sweeps use
    `defaults.lexicon_size` when the metadata has it.
    """
    if not metadata:
        return 8.0
    if metadata.get("swept_param") == "lexicon_size":
        name, s = "high", metadata.get("high")
    else:
        defaults = metadata.get("defaults", {})
        if not isinstance(defaults, dict):
            raise ValueError(f"metadata defaults must be an object, got {defaults!r}")
        name, s = "defaults.lexicon_size", defaults.get("lexicon_size")
        if s is None:
            return 8.0
    if not is_real(s):
        raise ValueError(f"metadata {name} must be a finite number, got {s!r}")
    s = math.floor(s)
    return max(1.0, math.log2(s)) if s >= 1 else 8.0


def build_plot(records, metadata: dict | None = None, bandwidth: float | None = None) -> str:
    """SVG document for one sweep's records (all same target and param)."""
    records = list(records)
    if not records:
        raise ValueError("no records to plot")
    keys = {(r.target, r.swept_param) for r in records}
    if len(keys) > 1:
        raise ValueError(f"records mix several sweeps: {sorted(keys)}")
    if any(r.value <= 0 for r in records):
        raise ValueError("record values must be positive for a log axis")
    (target, param), = keys

    y_max = _y_axis_bits(metadata)
    xs = [r.value for r in records]
    lo, hi = math.log(min(xs)), math.log(max(xs))

    def px(value: float) -> float:
        if hi == lo:
            return _ML + _PLOT_W / 2
        return _ML + (math.log(value) - lo) / (hi - lo) * _PLOT_W

    def py(bits: float) -> float:
        return _MT + (1.0 - min(bits, y_max) / y_max) * _PLOT_H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
    ]

    # axes
    x0, x1 = _ML, _ML + _PLOT_W
    y0, y1 = _MT + _PLOT_H, _MT
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#333"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#333"/>')

    # y ticks at whole bits
    for b in range(int(math.floor(y_max)) + 1):
        y = py(b)
        parts.append(f'<line x1="{x0 - 4}" y1="{y:.2f}" x2="{x0}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{y + 4:.2f}" font-size="12" text-anchor="end" '
            f'fill="#333">{b}</text>'
        )

    # x ticks at decades inside the data range
    if hi > lo:
        k_lo = math.ceil(math.log10(min(xs)) - 1e-9)
        k_hi = math.floor(math.log10(max(xs)) + 1e-9)
        for k in range(k_lo, k_hi + 1):
            x = px(10.0**k)
            parts.append(f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 4}" stroke="#333"/>')
            parts.append(
                f'<text x="{x:.2f}" y="{y0 + 18}" font-size="12" text-anchor="middle" '
                f'fill="#333">{10.0 ** k:g}</text>'
            )

    # dashed guides: minimum and maximum possible entropy
    for bits in (0.0, y_max):
        y = py(bits)
        parts.append(
            f'<line x1="{x0}" y1="{y:.2f}" x2="{x1}" y2="{y:.2f}" '
            f'stroke="#999" stroke-dasharray="6 4"/>'
        )

    # scatter
    for r in records:
        parts.append(
            f'<circle cx="{px(r.value):.2f}" cy="{py(r.entropy):.2f}" r="2.5" '
            f'fill="#4a7fb5" fill-opacity="0.55"/>'
        )

    # smoothed trend: the single path element of the document
    trend = gaussian_smooth([(r.value, r.entropy) for r in records], bandwidth=bandwidth)
    cmds = []
    for i, (x, y) in enumerate(zip(trend.xs, trend.ys)):
        cmds.append(f"{'M' if i == 0 else 'L'} {px(float(x)):.2f} {py(float(y)):.2f}")
    parts.append(
        f'<path d="{" ".join(cmds)}" fill="none" stroke="#c0392b" stroke-width="2"/>'
    )

    # labels; & is escaped first, so the other two escapes are not re-escaped
    label = f"{target}: {param}".replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts.append(
        f'<text x="{_ML + _PLOT_W / 2:.0f}" y="{_H - 10}" font-size="13" '
        f'text-anchor="middle" fill="#333">{label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MT + _PLOT_H / 2:.0f}" font-size="13" text-anchor="middle" '
        f'fill="#333" transform="rotate(-90 16 {_MT + _PLOT_H / 2:.0f})">entropy (bits)</text>'
    )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
