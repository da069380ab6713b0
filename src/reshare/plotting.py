"""Minimal standalone SVG line charts (no plotting dependency, stable bytes)."""


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span <= 0:
        span = 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def line_chart_svg(x, series, title, path):
    """Write a polyline chart; series is a list of (label, ys, css_color)."""
    width, height = 480, 320
    x = [float(v) for v in x]
    all_y = [float(v) for _, ys, _ in series for v in ys]
    if not x or not all_y:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(x), max(x)
    y_lo, y_hi = min(all_y), max(all_y)
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    left, right, top, bottom = 50, width - 15, 30, height - 35
    px = _scale(x, x_lo, x_hi, left, right)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
        f'<text x="{left}" y="{bottom + 16}" font-family="sans-serif" font-size="10">{x_lo:.4g}</text>',
        f'<text x="{right}" y="{bottom + 16}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{x_hi:.4g}</text>',
        f'<text x="{left - 4}" y="{bottom}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y_lo:.4g}</text>',
        f'<text x="{left - 4}" y="{top + 8}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y_hi:.4g}</text>',
    ]
    for label, ys, color in series:
        py = _scale([float(v) for v in ys], y_lo, y_hi, bottom, top)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    legend_y = top + 4
    for label, _, color in series:
        parts.append(
            f'<text x="{right - 4}" y="{legend_y}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10" fill="{color}">{label}</text>'
        )
        legend_y += 13
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
