"""Static SVG scatter plots: metric vs post-RL label with a fitted line.

The SVG is assembled by plain string formatting with fixed-precision
coordinates, so identical input always yields byte-identical output; no
plotting library is involved (their SVG output embeds generated ids that
break reproducibility).
"""

from __future__ import annotations

from typing import Sequence

from .stats import LabeledPoint, LinearFit

WIDTH, HEIGHT = 800, 600
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 80, 25, 30, 60
N_TICKS = 5


def _axis_range(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def escape(text: str) -> str:
    """&, < and > as XML character data needs them, as xml.sax.saxutils.escape
    writes them; that module's import chain loads urllib.request."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_label(value: float) -> str:
    return f"{value:.4g}"


def plot_scatter(
    points: Sequence[LabeledPoint],
    fit: LinearFit | None,
    x_label: str = "pre-RL metric",
    y_label: str = "post-RL Pass@1",
    r2: float | None = None,
    description: str | None = None,
) -> str:
    """Render points (and optionally a fit line and R² note) as an SVG string.

    Fixed 800x600 canvas; deterministic bytes for identical input. The
    optional description is embedded as an SVG <desc> element, which is where
    the CLI records provenance metadata.
    """
    if not points:
        raise ValueError("cannot plot zero points")
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    x_lo, x_hi = _axis_range(xs)
    if fit is not None:
        ys = ys + [fit.predict(x_lo), fit.predict(x_hi)]
    y_lo, y_hi = _axis_range(ys)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
    ]
    if description is not None:
        parts.append(f"<desc>{escape(description)}</desc>")
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')

    # axes
    x0, y0 = MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM
    x1, y1 = WIDTH - MARGIN_RIGHT, MARGIN_TOP
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>'
    )

    # ticks and grid
    for i in range(N_TICKS):
        frac = i / (N_TICKS - 1)
        xv = x_lo + frac * (x_hi - x_lo)
        px = sx(xv)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 6}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{y0 + 22}" font-size="13" text-anchor="middle" '
            f'font-family="sans-serif">{_tick_label(xv)}</text>'
        )
        yv = y_lo + frac * (y_hi - y_lo)
        py = sy(yv)
        parts.append(
            f'<line x1="{x0 - 6}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 10}" y="{_fmt(py + 4)}" font-size="13" text-anchor="end" '
            f'font-family="sans-serif">{_tick_label(yv)}</text>'
        )

    # axis labels
    parts.append(
        f'<text x="{(x0 + x1) / 2:.2f}" y="{HEIGHT - 15}" font-size="15" '
        f'text-anchor="middle" font-family="sans-serif">{escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="20" y="{(y0 + y1) / 2:.2f}" font-size="15" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 20 {(y0 + y1) / 2:.2f})">'
        f"{escape(y_label)}</text>"
    )

    # fit line across the x-range
    if fit is not None:
        parts.append(
            f'<line x1="{_fmt(sx(x_lo))}" y1="{_fmt(sy(fit.predict(x_lo)))}" '
            f'x2="{_fmt(sx(x_hi))}" y2="{_fmt(sy(fit.predict(x_hi)))}" '
            f'stroke="#d62728" stroke-width="2"/>'
        )

    # points, in input order
    for p in points:
        parts.append(
            f'<circle cx="{_fmt(sx(p.x))}" cy="{_fmt(sy(p.y))}" r="4" '
            f'fill="#1f77b4" fill-opacity="0.8"><title>{escape(p.checkpoint_id)}</title>'
            f"</circle>"
        )

    if r2 is not None:
        parts.append(
            f'<text x="{x1 - 10}" y="{y1 + 20}" font-size="14" text-anchor="end" '
            f'font-family="sans-serif">R&#178; = {r2:.4f}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
