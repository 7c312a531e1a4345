"""Self-contained SVG learning curves with the source data embedded as a
comment block, so plots stay auditable without the CSV at hand."""

from __future__ import annotations

import csv


class PlotError(ValueError):
    pass


def moving_average(values, window=10):
    out = []
    for j in range(len(values)):
        lo = max(0, j - window + 1)
        out.append(sum(values[lo:j + 1]) / (j + 1 - lo))
    return out


def read_metric_csv(path, column=None):
    """Read (x, y) pairs from a metrics CSV; defaults to the last column."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise PlotError("empty CSV")
            if column is not None and column not in header:
                raise PlotError(
                    f"no column {column!r} in {', '.join(header)}")
            col = len(header) - 1 if column is None else header.index(column)
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise PlotError(f"row {lineno}: expected {len(header)} "
                                    f"fields, got {len(row)}")
                try:
                    rows.append((float(row[0]), float(row[col])))
                except ValueError as e:
                    raise PlotError(f"row {lineno}: {e}") from None
    except UnicodeDecodeError as e:
        raise PlotError(f"{path} is not UTF-8 text: {e}") from None
    if not rows:
        raise PlotError("CSV has a header but no data rows")
    return header[col], rows


def render_curve_svg(label, points, window=10, width=640, height=360):
    xs = [p[0] for p in points]
    ys = moving_average([p[1] for p in points], window)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 40

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    data_rows = "\n".join(f"{x!r},{y!r}" for x, y in points)
    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">
<!-- data (x,raw_y), smoothing window {window}:
{data_rows}
-->
<rect width="{width}" height="{height}" fill="white"/>
<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>
<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>
<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{label} (moving avg, window {window})</text>
<text x="{pad}" y="{height - pad + 16}" font-size="10">{x0:g}</text>
<text x="{width - pad}" y="{height - pad + 16}" text-anchor="end" font-size="10">{x1:g}</text>
<text x="{pad - 4}" y="{height - pad}" text-anchor="end" font-size="10">{y0:.4g}</text>
<text x="{pad - 4}" y="{pad + 4}" text-anchor="end" font-size="10">{y1:.4g}</text>
<polyline points="{path}" fill="none" stroke="steelblue" stroke-width="1.5"/>
</svg>
"""


def plot_metrics(csv_path, out_path, column=None, window=10):
    if window < 1:
        raise PlotError(f"window must be >= 1, got {window}")
    label, points = read_metric_csv(csv_path, column)
    svg = render_curve_svg(label, points, window)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
