"""Static HTML dashboard: the engine registry plus trace telemetry.

``repro dash`` renders one self-contained HTML file — inline CSS and
inline SVG only, no scripts, no external fetches — from the live engine
registry and the metrics snapshots saved by ``repro trace``
(``.repro_stats.json`` or any ``--stats PATH``), whose time-series
sections become sparkline grids (the paper's trajectories over
*simulated* time). Wall-clock speed is perfbench's job, not the
dashboard's.

The stylesheet carries both light and dark values via CSS custom
properties: the ``prefers-color-scheme`` media query switches on the OS
setting, and a ``data-theme`` attribute on ``<html>`` can force either.
Every number also appears in a plain table, so nothing is gated on
reading a chart. Rendering only ever *reads* artifacts — running the
dashboard can not perturb any result (the twin-run contract, trivially).
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

__all__ = ["build_dashboard", "render_dashboard"]

# palette roles (light, dark) — see the data-viz reference palette
_CSS = """
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --series-1: #2a78d6; --series-dim: #86b6ef;
  --ring: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  :root:not([data-theme="light"]) {
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --series-1: #3987e5; --series-dim: #1c5cab;
    --ring: rgba(255,255,255,0.10);
  }
}
:root[data-theme="dark"] {
  --surface-1: #1a1a19; --page: #0d0d0d;
  --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
  --grid: #2c2c2a; --axis: #383835;
  --series-1: #3987e5; --series-dim: #1c5cab;
  --ring: rgba(255,255,255,0.10);
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink-1);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; font-weight: 600; margin: 0 0 4px; }
h2 { font-size: 15px; font-weight: 600; margin: 28px 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 16px; }
.chips { margin: 8px 0 0; }
.chip {
  display: inline-block; padding: 1px 8px; margin: 0 6px 6px 0;
  border: 1px solid var(--ring); border-radius: 10px;
  color: var(--ink-2); font-size: 12px; background: var(--surface-1);
}
.cards { display: flex; flex-wrap: wrap; gap: 12px; }
.card {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 10px 12px;
}
.card .name { color: var(--ink-2); font-size: 12px; margin-bottom: 2px; }
.card .last { color: var(--ink-1); font-weight: 600; font-size: 13px; }
table { border-collapse: collapse; background: var(--surface-1);
  border: 1px solid var(--ring); border-radius: 8px; }
th, td { padding: 4px 10px; text-align: right;
  font-variant-numeric: tabular-nums; border-top: 1px solid var(--grid); }
th { color: var(--ink-2); font-weight: 600; border-top: none; }
td:first-child, th:first-child { text-align: left; }
footer { margin-top: 28px; color: var(--ink-muted); font-size: 12px; }
"""


def build_dashboard(
    out: Union[str, Path], stats_paths: Sequence[Union[str, Path]] = ()
) -> Path:
    """Assemble the dashboard from trace snapshots and write it.

    Args:
        out: output HTML path.
        stats_paths: ``repro trace`` snapshot files to include (missing
            or malformed ones are skipped).
    """
    runs: List[Dict] = []
    for p in stats_paths:
        p = Path(p)
        if not p.is_file():
            continue
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError:
            continue
        runs.append(
            {
                "path": str(p),
                "manifest": data.get("manifest", {}) if "metrics" in data else {},
                "metrics": data.get("metrics", data),
            }
        )
    outp = Path(out)
    outp.write_text(render_dashboard(runs=runs))
    return outp


def render_dashboard(runs: Sequence[Dict] = ()) -> str:
    """Render the HTML document from already-loaded snapshots."""
    body: List[str] = [
        "<h1>defrag-repro dashboard</h1>",
        '<p class="sub">The engine registry and simulated-time telemetry '
        "from <code>repro trace</code>.</p>",
    ]
    body += _engines_section()
    for run in runs:
        body += _run_section(run)
    if not runs:
        body.append(
            '<p class="sub">No trace snapshots given — run '
            "<code>repro trace &lt;fig&gt;</code> and re-render to see "
            "simulated-time trajectories.</p>"
        )
    body.append(
        "<footer>Static artifact — no scripts, no external resources. "
        "Regenerate with <code>python -m repro dash</code>.</footer>"
    )
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        "<title>defrag-repro dashboard</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n"
        + "\n".join(body)
        + "\n</body>\n</html>\n"
    )


# -- sections ---------------------------------------------------------------


def _engines_section() -> List[str]:
    """Engine registry table: every registered placement policy with its
    lifecycle capabilities, read live from ``repro.api.engine_infos``."""
    from repro.api import engine_infos

    rows: List[str] = []
    for info in engine_infos():
        maint = "yes" if info.supports_maintenance else "&mdash;"
        rewrites = "yes" if info.rewrites_old_containers else "&mdash;"
        rows.append(
            "<tr>"
            f"<td><code>{html.escape(info.name)}</code></td>"
            f"<td>{maint}</td><td>{rewrites}</td>"
            f"<td>{html.escape(info.doc or '')}</td></tr>"
        )
    return [
        "<h2>Engine registry</h2>",
        "<table><thead><tr><th>engine</th><th>maintenance</th>"
        "<th>rewrites old containers</th><th>policy</th></tr></thead>",
        "<tbody>",
        *rows,
        "</tbody></table>",
    ]


def _run_section(run: Dict) -> List[str]:
    """One traced run: provenance chips plus a sparkline per time series."""
    manifest = run.get("manifest") or {}
    metrics = run.get("metrics") or {}
    series = metrics.get("timeseries", {})
    title = manifest.get("target") or Path(run.get("path", "run")).name
    out: List[str] = [f"<h2>Run: {html.escape(str(title))}</h2>"]
    if manifest:
        chips = "".join(
            f'<span class="chip">{html.escape(str(k))}: '
            f"{html.escape(str(v))}</span>"
            for k, v in manifest.items()
        )
        out.append(f'<div class="chips">{chips}</div>')
    if not series:
        out.append(
            '<p class="sub">No time-series samples in this snapshot.</p>'
        )
        return out
    out.append('<div class="cards">')
    for name in sorted(series):
        ts = series[name]
        samples = ts.get("samples", [])
        if len(samples) < 2:
            continue
        values = [v for _, v in samples]
        out.append(
            '<div class="card">'
            f'<div class="name">{html.escape(name)}</div>'
            + _sparkline(values)
            + f'<div class="last">last {values[-1]:g} &middot; '
            f"min {min(values):g} &middot; max {max(values):g}</div></div>"
        )
    out.append("</div>")
    return out


# -- inline SVG marks -------------------------------------------------------


def _sparkline(values: Sequence[float], w: int = 180, h: int = 36) -> str:
    """A 2px de-emphasized line with the current value accented. Values
    only; the card's text carries the last/min/max numbers."""
    pad = 4
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    step = (w - 2 * pad) / max(len(values) - 1, 1)
    pts = [
        (pad + i * step, h - pad - (v - lo) / span * (h - 2 * pad))
        for i, v in enumerate(values)
    ]
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
    cx, cy = pts[-1]
    return (
        f'<svg width="{w}" height="{h}" viewBox="0 0 {w} {h}" role="img" '
        f'aria-label="trend of {len(values)} values">'
        f'<polyline points="{path}" fill="none" stroke="var(--series-dim)" '
        'stroke-width="2" stroke-linecap="round" stroke-linejoin="round"/>'
        f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="4" fill="var(--series-1)" '
        'stroke="var(--surface-1)" stroke-width="2"/>'
        "</svg>"
    )
