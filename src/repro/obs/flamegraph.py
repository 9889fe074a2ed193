"""Self-contained no-JS SVG flamegraph from collapsed stacks.

Built on the page primitives of :mod:`repro.probes.html_report`: inline
SVG, inline CSS, no scripts, no external assets — the file renders
anywhere a CI artifact can be opened.  Without JavaScript there is no
zoom, so every frame gets a ``<title>`` tooltip (name, nanoseconds,
percentage) and frames too narrow to label still draw as slivers.

Layout is the classic icicle: root frames at the top, callees below,
width proportional to inclusive time.  Input is the folded-stack dict
of :func:`repro.obs.tree.collapsed_stacks` (weights are *self* time;
inclusive widths are recovered by summing descendants), so rendering
is lossless with respect to the reconstructed span forest.
"""

from __future__ import annotations

import html
import zlib

_WIDTH = 1100.0
_ROW_H = 22.0
_FONT_W = 6.9          # monospace glyph width at font-size 11
_PALETTE = ("#2563eb", "#059669", "#d97706", "#dc2626", "#7c3aed",
            "#0891b2", "#65a30d", "#db2777")


class _Frame:
    __slots__ = ("name", "self_ns", "children")

    def __init__(self, name):
        self.name = name
        self.self_ns = 0
        self.children = {}

    @property
    def total_ns(self):
        return self.self_ns + sum(c.total_ns for c in self.children.values())


def _fold_to_tree(stacks):
    root = _Frame("")
    for path, ns in stacks.items():
        node = root
        for part in path.split(";"):
            node = node.children.setdefault(part, _Frame(part))
        node.self_ns += int(ns)
    return root


def _color(name):
    return _PALETTE[zlib.crc32(name.encode()) % len(_PALETTE)]


def _fmt_ns(ns):
    if ns >= 1e9:
        return f"{ns / 1e9:.2f} s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f} us"
    return f"{ns} ns"


def render_flamegraph_svg(stacks, title="flamegraph"):
    """Folded stacks → one self-contained ``<svg>`` string."""
    # Imported here: the ``repro.probes`` package pulls in the PHY, which
    # would more than double the import time of ``repro.obs``.
    from repro.probes.html_report import svg, svg_placeholder, svg_text

    root = _fold_to_tree(stacks)
    grand_total = root.total_ns
    if grand_total <= 0:
        return svg_placeholder("no span samples", _WIDTH, 60.0)

    cells = []
    max_depth = [0]

    def layout(frame, x, width, depth):
        if depth >= 0:                       # skip the synthetic root
            cells.append((frame, x, width, depth))
            max_depth[0] = max(max_depth[0], depth)
        cursor = x
        ordered = sorted(frame.children.values(),
                         key=lambda f: (-f.total_ns, f.name))
        for child in ordered:
            child_w = width * child.total_ns / frame.total_ns \
                if frame.total_ns else 0.0
            layout(child, cursor, child_w, depth + 1)
            cursor += child_w

    layout(root, 0.0, _WIDTH, -1)
    height = (max_depth[0] + 1) * _ROW_H + 40.0
    body = [svg_text(8, 16, f"{title} — total {_fmt_ns(grand_total)}",
                     size=12, anchor="start")]
    for frame, x, width, depth in cells:
        if width < 0.1:
            continue
        y = 28.0 + depth * _ROW_H
        pct = 100.0 * frame.total_ns / grand_total
        tip = (f"{frame.name} — {_fmt_ns(frame.total_ns)} total, "
               f"{_fmt_ns(frame.self_ns)} self ({pct:.1f}%)")
        body.append(
            f'<rect x="{x:.2f}" y="{y:.1f}" width="{max(width - 0.6, 0.4):.2f}" '
            f'height="{_ROW_H - 2:.0f}" rx="2" fill="{_color(frame.name)}" '
            f'fill-opacity="0.85"><title>{html.escape(tip)}</title></rect>')
        label_chars = int((width - 8) // _FONT_W)
        if label_chars >= 3:
            text = frame.name if len(frame.name) <= label_chars \
                else frame.name[:label_chars - 1] + "…"
            body.append(svg_text(x + 4, y + _ROW_H - 8, text,
                                 anchor="start", color="#f8fafc"))
    return svg("".join(body), _WIDTH, height)


_CSS = """
.panel { max-width: 1160px; }
pre { font-size: 12px; background: #f1f5f9; padding: 10px;
      border-radius: 6px; overflow-x: auto; }
"""


def render_flamegraph_html(stacks, title="FastForward profile",
                           verdict_lines=()):
    """A full static HTML page: flamegraph panel + optional verdict."""
    from repro.probes.html_report import html_page

    verdict = ""
    if verdict_lines:
        text = "\n".join(str(line) for line in verdict_lines)
        verdict = f"<pre>{html.escape(text)}</pre>"
    return html_page(
        title, "span-tree flamegraph · hover a frame for timings",
        f"{verdict}"
        f'<div class="panel">{render_flamegraph_svg(stacks, title=title)}'
        "</div>", css=_CSS)


def write_flamegraph_html(stacks, path, title="FastForward profile",
                          verdict_lines=()):
    """Render and write the flamegraph page; returns ``path``."""
    from repro.probes.html_report import write_page

    return write_page(render_flamegraph_html(stacks, title=title,
                                             verdict_lines=verdict_lines),
                      path)


__all__ = ["render_flamegraph_svg", "render_flamegraph_html",
           "write_flamegraph_html"]
