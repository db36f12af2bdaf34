"""Deterministic SVG emitters: step plots and trend line charts.

Output is a pure function of the input data (fixed canvas, fixed float
formatting, no timestamps), so identical inputs give byte-identical
files.
"""

import os
import tempfile

from .rearrange import StepFunction

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 60, 20, 30, 50


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _axes(xmax: float, ymax: float, xlabel: str, ylabel: str) -> list[str]:
    x0, y0 = _ML, _H - _MB
    x1, y1 = _W - _MR, _MT
    parts = [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
    ]
    for t in _ticks(0.0, xmax):
        px = x0 + (x1 - x0) * (0.0 if xmax == 0 else t / xmax)
        parts.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{y0 + 18}" font-size="11" text-anchor="middle">{t:g}</text>')
    for t in _ticks(0.0, ymax):
        py = y0 - (y0 - y1) * (0.0 if ymax == 0 else t / ymax)
        parts.append(f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" font-size="11" text-anchor="end">{t:g}</text>')
    parts.append(f'<text x="{(x0 + x1) // 2}" y="{_H - 12}" font-size="12" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(y0 + y1) // 2}" font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(y0 + y1) // 2})">{ylabel}</text>')
    return parts


def step_svg(sf: StepFunction, title: str = "step function") -> str:
    """Step plot with filled left endpoints and open right endpoints."""
    levels = sf.levels
    xmax = float(sf.breakpoints[-1]) * 1.15 if levels.size else 1.0
    ymax = float(levels[0]) * 1.1 if levels.size else 1.0
    x0, y0 = _ML, _H - _MB
    x1, y1 = _W - _MR, _MT

    def px(t):
        return x0 + (x1 - x0) * t / xmax

    def py(v):
        return y0 - (y0 - y1) * v / ymax

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
             f'<text x="{_W // 2}" y="18" font-size="13" text-anchor="middle">{title}</text>']
    parts += _axes(xmax, ymax, "t", "value")
    for i in range(levels.size):
        t1, t2, v = sf.breakpoints[i], sf.breakpoints[i + 1], levels[i]
        parts.append(f'<line x1="{_fmt(px(t1))}" y1="{_fmt(py(v))}" '
                     f'x2="{_fmt(px(t2))}" y2="{_fmt(py(v))}" stroke="steelblue" stroke-width="2"/>')
        parts.append(f'<circle cx="{_fmt(px(t1))}" cy="{_fmt(py(v))}" r="3" fill="steelblue"/>')
        parts.append(f'<circle cx="{_fmt(px(t2))}" cy="{_fmt(py(v))}" r="3" '
                     f'fill="white" stroke="steelblue"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_chart_svg(series: list[tuple[str, list[float], list[float]]],
                   xlabel: str = "x", ylabel: str = "y",
                   title: str = "trend") -> str:
    """Polyline chart of several named (xs, ys) series."""
    xmax = max((max(xs) for _, xs, _ in series if xs), default=1.0)
    ymax = max((max(ys) for _, _, ys in series if ys), default=1.0)
    x0, y0 = _ML, _H - _MB
    x1, y1 = _W - _MR, _MT
    colors = ["steelblue", "firebrick", "seagreen", "darkorange"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
             f'<text x="{_W // 2}" y="18" font-size="13" text-anchor="middle">{title}</text>']
    parts += _axes(xmax, ymax, xlabel, ylabel)
    for s, (name, xs, ys) in enumerate(series):
        color = colors[s % len(colors)]
        pts = " ".join(
            f"{_fmt(x0 + (x1 - x0) * x / xmax)},{_fmt(y0 - (y0 - y1) * y / ymax)}"
            for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{x1 - 6}" y="{y1 + 14 + 14 * s}" font-size="11" '
                     f'text-anchor="end" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_atomic(path: str, content) -> None:
    """Write content, a str or an iterable of str chunks, via a temp file
    in the same directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines([content] if isinstance(content, str) else content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_step_svg(sf: StepFunction, path: str, title: str = "step function") -> None:
    write_atomic(path, step_svg(sf, title=title))
