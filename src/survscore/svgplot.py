"""Standalone SVG panels of standardized scores or pseudo-values over time.

No plotting dependency: panels are assembled from a fixed template.  Output
is deterministic (no timestamps or generated ids), so files are byte-stable
for identical inputs.  Pixel coordinates are rounded for readability;
``data-*`` attributes carry the underlying values at full precision so the
geometry can be checked programmatically.
"""

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from xml.sax.saxutils import escape

PANEL_W = 360
PANEL_H = 300
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 54, 14, 34, 46
PLOT_W = PANEL_W - MARGIN_L - MARGIN_R
PLOT_H = PANEL_H - MARGIN_T - MARGIN_B
Y_LIMIT = 1.1  # standardized values live in [-1, 1]

_STYLE = """\
  text { font-family: sans-serif; font-size: 11px; fill: #222; }
  .title { font-size: 12px; font-weight: bold; }
  .frame { fill: none; stroke: #888; stroke-width: 1; }
  .tick { stroke: #888; stroke-width: 1; }
  .point { stroke: #444; stroke-width: 0.5; }
  .point.arm0 { fill: #4477aa; }
  .point.arm1 { fill: #ee7733; }
  .point.censored { fill-opacity: 0.3; stroke-opacity: 0.3; }
  .mean-line.arm0 { stroke: #4477aa; stroke-width: 1.5; }
  .mean-line.arm1 { stroke: #ee7733; stroke-width: 1.5; }
"""


@dataclass(frozen=True)
class PlotPanel:
    """One panel: parallel per-subject columns, an event of 0 drawn as censored.

    ``arm_means`` is derived from the points, so each arm's dashed mean line
    always sits at the mean of its arm's points.
    """

    title: str
    times: tuple[float, ...]
    values: tuple[float, ...]
    arms: tuple[int, ...]
    events: tuple[int, ...]
    arm_means: tuple[float, float] = field(init=False)

    def __post_init__(self):
        if len({len(c) for c in (self.times, self.values, self.arms, self.events)}) > 1:
            raise ValueError("panel columns must have equal lengths")
        means = []
        for arm in (0, 1):
            values = [v for v, a in zip(self.values, self.arms) if a == arm]
            if not values:
                raise ValueError(f"panel needs points on arm {arm}")
            # left to right, not sum(): it compensates from Python 3.12 on, moving bytes
            means.append(reduce(add, values, 0.0) / len(values))
        object.__setattr__(self, "arm_means", tuple(means))

    @classmethod
    def from_values(cls, title, times, values, arms, events) -> "PlotPanel":
        """Build a panel from per-subject columns; a tuple column is shared, not copied.

        Kept as a classmethod: ``perfbench/tracer.py`` times panels by wrapping it by name.
        """
        return cls(title, tuple(times), tuple(values), tuple(arms), tuple(events))


def nice_ceiling(x: float) -> float:
    """Smallest 'round' number >= x (1/1.5/2/2.5/3/4/5/6/8 times a power of 10)."""
    if x <= 0:
        return 1.0
    exponent = math.floor(math.log10(x))
    base = 10.0**exponent
    for m in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0):
        if m * base >= x or math.isclose(m * base, x, rel_tol=1e-9):
            return m * base
    return 10.0 * base


def _px(v: float) -> str:
    return f"{v:.2f}"


def _panel_svg(panel: PlotPanel, x_max: float, offset_x: int, offset_y: int) -> list[str]:
    def x_to_px(t):
        return MARGIN_L + (t / x_max) * PLOT_W

    def y_to_px(v):
        return MARGIN_T + (Y_LIMIT - v) / (2 * Y_LIMIT) * PLOT_H

    left, right = MARGIN_L, MARGIN_L + PLOT_W
    top, bottom = MARGIN_T, MARGIN_T + PLOT_H
    out = [f'<g class="panel" transform="translate({offset_x},{offset_y})" '
           f'data-method="{escape(panel.title, {chr(34): "&quot;"})}">']
    out.append(f'<rect class="frame" x="{left}" y="{top}" width="{PLOT_W}" height="{PLOT_H}"/>')
    out.append(f'<text class="title" x="{_px((left + right) / 2)}" y="{MARGIN_T - 12}" '
               f'text-anchor="middle">{escape(panel.title)}</text>')

    for i in range(5):
        t = x_max * i / 4
        px = x_to_px(t)
        out.append(f'<line class="tick" x1="{_px(px)}" y1="{bottom}" x2="{_px(px)}" y2="{bottom + 4}"/>')
        out.append(f'<text x="{_px(px)}" y="{bottom + 16}" text-anchor="middle">{t:.6g}</text>')
    for v in (-1.0, -0.5, 0.0, 0.5, 1.0):
        py = y_to_px(v)
        out.append(f'<line class="tick" x1="{left - 4}" y1="{_px(py)}" x2="{left}" y2="{_px(py)}"/>')
        out.append(f'<text x="{left - 7}" y="{_px(py + 3.5)}" text-anchor="end">{v:g}</text>')
    out.append(f'<text x="{_px((left + right) / 2)}" y="{bottom + 32}" '
               'text-anchor="middle">Time (months)</text>')
    out.append(f'<text transform="translate(13,{_px((top + bottom) / 2)}) rotate(-90)" '
               'text-anchor="middle">Standardized score</text>')

    for arm, mean in enumerate(panel.arm_means):
        py = _px(y_to_px(mean))
        out.append(f'<line class="mean-line arm{arm}" x1="{left}" y1="{py}" x2="{right}" y2="{py}" '
                   f'stroke-dasharray="6 4" data-mean="{mean!r}"/>')
    for time, value, arm, event in zip(panel.times, panel.values, panel.arms, panel.events):
        classes = f"point arm{arm}" + (" censored" if event == 0 else "")
        out.append(f'<circle class="{classes}" cx="{_px(x_to_px(time))}" cy="{_px(y_to_px(value))}" '
                   f'r="4" data-time="{time!r}" data-value="{value!r}"/>')
    out.append("</g>")
    return out


def render_svg(panels, columns: int = 3) -> str:
    """Render panels on a shared time axis into one SVG document."""
    panels = list(panels)
    if not panels:
        raise ValueError("nothing to render")
    if columns < 1:
        raise ValueError(f"columns must be at least 1, got {columns}")
    x_max = nice_ceiling(max(max(panel.times) for panel in panels))
    columns = min(columns, len(panels))
    rows = (len(panels) + columns - 1) // columns
    width, height = columns * PANEL_W, rows * PANEL_H

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<style>\n{_STYLE}</style>",
        f'<rect fill="#ffffff" x="0" y="0" width="{width}" height="{height}"/>',
    ]
    for i, panel in enumerate(panels):
        out.extend(_panel_svg(panel, x_max, (i % columns) * PANEL_W, (i // columns) * PANEL_H))
    out.append("</svg>")
    return "\n".join(out) + "\n"
