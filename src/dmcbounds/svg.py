"""Minimal SVG line-chart writer. No plotting dependency: sweep plots are
verification artifacts, so a fixed 800x600 viewport with linear axes, one
polyline per series and a legend is all that is needed."""

from __future__ import annotations

import html

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 70
MARGIN_RIGHT = 170
MARGIN_TOP = 40
MARGIN_BOTTOM = 55

PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def render_line_chart(series: list[tuple[str, list[tuple[float, float]]]], title: str) -> str:
    """Render named point series as polylines against "parameter" and "bits"
    axes. Series with no points are omitted; every emitted series contributes
    exactly one polyline."""
    drawn = [(name, pts) for name, pts in series if pts]
    xs = [x for _, pts in drawn for x, _ in pts]
    ys = [y for _, pts in drawn for _, y in pts]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if x_hi - x_lo < 1e-300:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-300:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
        f'<text x="{WIDTH / 2:.2f}" y="24" text-anchor="middle" '
        f'font-size="16">{html.escape(title, quote=False)}</text>',
    ]

    for k in range(5):
        fx = x_lo + (x_hi - x_lo) * k / 4
        fy = y_lo + (y_hi - y_lo) * k / 4
        out.append(
            f'<text x="{px(fx):.2f}" y="{MARGIN_TOP + plot_h + 18}" text-anchor="middle" '
            f'font-size="11">{fx:.4g}</text>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{py(fy) + 4:.2f}" text-anchor="end" '
            f'font-size="11">{fy:.4g}</text>'
        )
    out.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.2f}" y="{HEIGHT - 12}" text-anchor="middle" '
        'font-size="13">parameter</text>'
    )
    out.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2:.2f})">'
        "bits</text>"
    )

    for idx, (name, pts) in enumerate(drawn):
        color = PALETTE[idx % len(PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        ly = MARGIN_TOP + 16 + 20 * idx
        lx = WIDTH - MARGIN_RIGHT + 12
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly + 4}" font-size="12">{html.escape(name, quote=False)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
