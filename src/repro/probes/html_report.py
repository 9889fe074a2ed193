"""Self-contained static HTML "link health" report.

Renders the four diagnostic panels of a probe-enabled run — equalised
constellation scatter, residual-SI power spectrum, per-stage latency
waterfall against the cyclic prefix, and EVM vs subcarrier — straight
from a ``repro.telemetry`` payload (live collector or a ``--from``
JSONL round-trip).  Everything is inline SVG and inline CSS: no
scripts, no network fetches, no external assets, so the file renders
anywhere a CI artifact can be opened.

Entry points: :func:`render_html_report` (string) and
:func:`write_html_report` (file), wired to ``repro report --html``.
:mod:`repro.obs.flamegraph` builds on the same page primitives.
"""

from __future__ import annotations

import html

#: Site colour palette (signal-path order, then fallback).
_COLORS = ("#2563eb", "#059669", "#d97706", "#dc2626", "#7c3aed",
           "#0891b2")

_PANEL_W = 460.0
_PANEL_H = 300.0
_MARGIN = 42.0


def _metric_points(payload, kind, name):
    """All ``(labels, value)`` of metric ``name`` in the payload."""
    out = []
    for item in payload.get(kind, ()):
        if item.get("name") == name:
            out.append((item.get("labels", {}), item.get("value")))
    return out


def _sites_in(points):
    seen = []
    for labels, _ in points:
        site = labels.get("site")
        if site is not None and site not in seen:
            seen.append(site)
    return seen


def _site_color(site, sites):
    try:
        return _COLORS[sites.index(site) % len(_COLORS)]
    except ValueError:
        return _COLORS[-1]


def _axis(x0, y0, x1, y1):
    return (f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x1:.1f}" '
            f'y2="{y1:.1f}" stroke="#94a3b8" stroke-width="1"/>')


def svg_text(x, y, s, size=11, anchor="middle", color="#334155"):
    """One escaped monospace ``<text>`` element."""
    return (f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
            f'text-anchor="{anchor}" fill="{color}" '
            f'font-family="monospace">{html.escape(str(s))}</text>')


def svg(body, width=_PANEL_W, height=_PANEL_H):
    """Wrap SVG markup in a scalable ``<svg viewBox>`` element."""
    return (f'<svg viewBox="0 0 {width:.0f} {height:.0f}" '
            f'role="img" xmlns="http://www.w3.org/2000/svg">{body}</svg>')


def _span(lo, hi):
    if hi <= lo:
        pad = max(abs(lo), 1.0) * 0.1
        return lo - pad, lo + pad
    pad = (hi - lo) * 0.08
    return lo - pad, hi + pad


def svg_placeholder(message, width=_PANEL_W, height=_PANEL_H):
    """An empty figure that says why it is empty."""
    return svg(svg_text(width / 2, height / 2, message, size=13,
                        color="#94a3b8"), width, height)


def _legend(sites, all_sites, y=16.0):
    parts = []
    x = _MARGIN
    for site in sites:
        color = _site_color(site, all_sites)
        parts.append(f'<rect x="{x:.1f}" y="{y - 8:.1f}" width="9" '
                     f'height="9" fill="{color}"/>')
        parts.append(svg_text(x + 14, y, site, size=10, anchor="start"))
        x += 14 + 7.2 * len(site) + 18
    return "".join(parts)


# ---------------------------------------------------------------------------
# Panels
# ---------------------------------------------------------------------------

def _panel_constellation(payload):
    points = [(ev.get("labels", {}), None)
              for ev in payload.get("events", ())
              if ev.get("name") == "probes.constellation"]
    sites = _sites_in(points)
    if not points or not sites:
        return svg_placeholder("no constellation samples")
    coords = []
    for labels, _ in points:
        try:
            coords.append((labels["site"], float(labels["i"]),
                           float(labels["q"])))
        except (KeyError, TypeError, ValueError):
            continue
    if not coords:
        return svg_placeholder("no constellation samples")
    extent = max(max(abs(i), abs(q)) for _, i, q in coords)
    extent = max(extent, 1e-6) * 1.15
    cx, cy = _PANEL_W / 2, _PANEL_H / 2 + 8
    half = min(_PANEL_W, _PANEL_H) / 2 - _MARGIN
    body = [_legend(sites, sites)]
    body.append(_axis(cx - half, cy, cx + half, cy))
    body.append(_axis(cx, cy - half, cx, cy + half))
    body.append(svg_text(cx + half, cy + 14, "I", size=10))
    body.append(svg_text(cx - 10, cy - half + 4, "Q", size=10))
    for site, i, q in coords:
        px = cx + (i / extent) * half
        py = cy - (q / extent) * half
        body.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="2.4" '
                    f'fill="{_site_color(site, sites)}" fill-opacity="0.7"/>')
    return svg("".join(body))


def _panel_spectrum(payload):
    points = _metric_points(payload, "gauges", "probes.spectrum.psd_db")
    sites = _sites_in(points)
    if not points or not sites:
        return svg_placeholder("no spectrum samples")
    series = {}
    for labels, value in points:
        site = labels.get("site")
        try:
            series.setdefault(site, []).append(
                (int(labels["bin"]), float(labels.get("freq_khz", 0.0)),
                 float(value)))
        except (KeyError, TypeError, ValueError):
            continue
    levels = [lv for rows in series.values() for _, _, lv in rows]
    if not levels:
        return svg_placeholder("no spectrum samples")
    lo, hi = _span(min(levels), max(levels))
    x0, x1 = _MARGIN, _PANEL_W - 14
    y0, y1 = _PANEL_H - _MARGIN, 30.0
    body = [_legend(sorted(series), sites)]
    body.append(_axis(x0, y0, x1, y0))
    body.append(_axis(x0, y0, x0, y1))
    body.append(svg_text(18, (y0 + y1) / 2, "dB", size=10))
    body.append(svg_text((x0 + x1) / 2, _PANEL_H - 12, "frequency (kHz)",
                         size=10))
    for site in sorted(series):
        rows = sorted(series[site])
        n = max(len(rows) - 1, 1)
        pts = []
        for k, (_, _, level) in enumerate(rows):
            px = x0 + (x1 - x0) * k / n
            py = y0 - (y0 - y1) * (level - lo) / (hi - lo)
            pts.append(f"{px:.1f},{py:.1f}")
        body.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                    f'stroke="{_site_color(site, sites)}" '
                    f'stroke-width="1.6"/>')
    lo_f = min(f for rows in series.values() for _, f, _ in rows)
    hi_f = max(f for rows in series.values() for _, f, _ in rows)
    body.append(svg_text(x0, y0 + 14, f"{lo_f:.0f}", size=9, anchor="start"))
    body.append(svg_text(x1, y0 + 14, f"{hi_f:.0f}", size=9, anchor="end"))
    body.append(svg_text(x0 - 4, y1 + 4, f"{hi:.0f}", size=9, anchor="end"))
    body.append(svg_text(x0 - 4, y0, f"{lo:.0f}", size=9, anchor="end"))
    return svg("".join(body))


def _panel_latency(payload):
    points = _metric_points(payload, "gauges", "probes.latency.component_ns")
    if not points:
        return svg_placeholder("no latency ledger")
    rows = []
    for labels, value in points:
        try:
            rows.append((int(labels["order"]), str(labels["component"]),
                         str(labels.get("site", "")), float(value)))
        except (KeyError, TypeError, ValueError):
            continue
    if not rows:
        return svg_placeholder("no latency ledger")
    rows.sort()
    cp = None
    for labels, value in _metric_points(payload, "gauges",
                                        "probes.latency.cp_ns"):
        cp = float(value)
    total = sum(ns for _, _, _, ns in rows)
    scale_max = max(total, cp or 0.0, 1e-9) * 1.12
    x0, x1 = 150.0, _PANEL_W - 18
    bar_h = 20.0
    gap = 9.0
    body = [svg_text(_PANEL_W / 2, 16, "cumulative processing delay (ns)",
                     size=11)]
    cumulative = 0.0
    y = 34.0
    sites_seen = sorted({site for _, _, site, _ in rows})
    for order, component, site, ns in rows:
        start_px = x0 + (x1 - x0) * cumulative / scale_max
        cumulative += ns
        end_px = x0 + (x1 - x0) * cumulative / scale_max
        color = _site_color(site, sites_seen)
        body.append(f'<rect x="{start_px:.1f}" y="{y:.1f}" '
                    f'width="{max(end_px - start_px, 1.0):.1f}" '
                    f'height="{bar_h:.1f}" fill="{color}" '
                    f'fill-opacity="0.8"/>')
        body.append(svg_text(x0 - 6, y + bar_h - 6, component, size=10,
                             anchor="end"))
        body.append(svg_text(end_px + 4, y + bar_h - 6,
                             f"{cumulative:.0f}", size=9, anchor="start"))
        y += bar_h + gap
    if cp is not None:
        cp_px = x0 + (x1 - x0) * cp / scale_max
        body.append(f'<line x1="{cp_px:.1f}" y1="28" x2="{cp_px:.1f}" '
                    f'y2="{y:.1f}" stroke="#dc2626" stroke-width="1.5" '
                    f'stroke-dasharray="5,4"/>')
        body.append(svg_text(cp_px, y + 14, f"CP budget {cp:.0f} ns",
                             size=10, color="#dc2626"))
    return svg("".join(body), height=max(_PANEL_H, y + 28))


def _panel_evm(payload):
    points = _metric_points(payload, "gauges", "probes.evm.subcarrier_db")
    sites = _sites_in(points)
    if not points or not sites:
        return svg_placeholder("no EVM samples")
    series = {}
    for labels, value in points:
        try:
            series.setdefault(labels["site"], []).append(
                (int(labels["subcarrier"]), float(value)))
        except (KeyError, TypeError, ValueError):
            continue
    levels = [lv for rows in series.values() for _, lv in rows]
    if not levels:
        return svg_placeholder("no EVM samples")
    lo, hi = _span(min(levels), max(levels))
    x0, x1 = _MARGIN, _PANEL_W - 14
    y0, y1 = _PANEL_H - _MARGIN, 30.0
    subs = sorted({k for rows in series.values() for k, _ in rows})
    s_lo, s_hi = subs[0], subs[-1]
    span = max(s_hi - s_lo, 1)
    body = [_legend(sorted(series), sites)]
    body.append(_axis(x0, y0, x1, y0))
    body.append(_axis(x0, y0, x0, y1))
    body.append(svg_text(18, (y0 + y1) / 2, "dB", size=10))
    body.append(svg_text((x0 + x1) / 2, _PANEL_H - 12, "subcarrier", size=10))
    for site in sorted(series):
        rows = sorted(series[site])
        pts = []
        for k, level in rows:
            px = x0 + (x1 - x0) * (k - s_lo) / span
            py = y0 - (y0 - y1) * (level - lo) / (hi - lo)
            pts.append(f"{px:.1f},{py:.1f}")
        body.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                    f'stroke="{_site_color(site, sites)}" '
                    f'stroke-width="1.6"/>')
    body.append(svg_text(x0, y0 + 14, str(s_lo), size=9, anchor="start"))
    body.append(svg_text(x1, y0 + 14, str(s_hi), size=9, anchor="end"))
    body.append(svg_text(x0 - 4, y1 + 4, f"{hi:.0f}", size=9, anchor="end"))
    body.append(svg_text(x0 - 4, y0, f"{lo:.0f}", size=9, anchor="end"))
    return svg("".join(body))


# ---------------------------------------------------------------------------
# Summary table + document
# ---------------------------------------------------------------------------

_SUMMARY_METRICS = (
    ("probes.evm.rms_db", "EVM (dB)"),
    ("probes.spectrum.cancellation_depth_db", "SI depth (dB)"),
    ("probes.snr.ewma_db", "SNR EWMA (dB)"),
    ("probes.papr.db", "PAPR (dB)"),
    ("probes.latency.cumulative_ns", "latency (ns)"),
)


def _summary_table(payload):
    per_site = {}
    for name, _ in _SUMMARY_METRICS:
        for labels, value in _metric_points(payload, "gauges", name):
            site = labels.get("site")
            if site is None:
                continue
            per_site.setdefault(site, {})[name] = value
    if not per_site:
        return "<p>No probe metrics in this payload.</p>"
    head = "".join(f"<th>{html.escape(label)}</th>"
                   for _, label in _SUMMARY_METRICS)
    rows = []
    for site in sorted(per_site):
        cells = []
        for name, _ in _SUMMARY_METRICS:
            value = per_site[site].get(name)
            cells.append(f"<td>{value:+.2f}</td>" if value is not None
                         else "<td>–</td>")
        rows.append(f"<tr><td>{html.escape(site)}</td>"
                    f"{''.join(cells)}</tr>")
    return (f"<table><thead><tr><th>tap site</th>{head}</tr></thead>"
            f"<tbody>{''.join(rows)}</tbody></table>")


#: Rules every page shares; a page appends its own through ``css=``.
_PAGE_CSS = """
body { font-family: monospace; margin: 24px; color: #0f172a;
       background: #f8fafc; }
h1 { font-size: 20px; }
.panel { background: #ffffff; border: 1px solid #e2e8f0; border-radius: 8px;
         padding: 12px; }
.meta { color: #64748b; font-size: 12px; }
"""

_CSS = """
h2 { font-size: 14px; margin: 4px 0 8px; }
.grid { display: grid; grid-template-columns: repeat(2, minmax(320px, 1fr));
        gap: 18px; max-width: 1040px; }
table { border-collapse: collapse; margin: 12px 0 22px; background: #fff; }
th, td { border: 1px solid #e2e8f0; padding: 4px 10px; font-size: 12px;
         text-align: right; }
th { background: #f1f5f9; }
"""


def html_page(title, meta, body, css=""):
    """A self-contained static page; ``meta`` is text, ``body`` HTML."""
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>{html.escape(title)}</title>"
        f"<style>{_PAGE_CSS}{css}</style></head><body>"
        f"<h1>{html.escape(title)}</h1>"
        f'<p class="meta">{html.escape(meta)} · '
        "static report, no scripts, no external assets</p>"
        f"{body}</body></html>\n")


def write_page(text, path):
    """Write a rendered page as UTF-8; returns ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def render_html_report(payload, title="FastForward link health",
                       extra_sections=()):
    """The full report as one self-contained HTML string.

    ``extra_sections`` is an iterable of pre-rendered HTML fragments
    (same no-script constraint) inserted between the summary table and
    the panel grid — the service layer uses it for the SLO burn-rate
    panel.
    """
    origin = payload.get("origin", "?")
    panels = (
        ("panel-constellation", "Constellation (equalised)",
         _panel_constellation(payload)),
        ("panel-spectrum", "Residual-SI spectrum", _panel_spectrum(payload)),
        ("panel-latency", "Latency waterfall vs CP", _panel_latency(payload)),
        ("panel-evm", "EVM vs subcarrier", _panel_evm(payload)),
    )
    sections = "".join(
        f'<div class="panel" id="{pid}"><h2>{html.escape(name)}</h2>'
        f"{figure}</div>"
        for pid, name, figure in panels)
    return html_page(
        title, f"telemetry origin: {origin}",
        f"{_summary_table(payload)}{''.join(extra_sections)}"
        f'<div class="grid">{sections}</div>', css=_CSS)


def write_html_report(payload, path, title="FastForward link health",
                      extra_sections=()):
    """Render and write the report; returns ``path``."""
    return write_page(render_html_report(payload, title=title,
                                         extra_sections=extra_sections),
                      path)


__all__ = ["render_html_report", "write_html_report"]
