"""Static-HTML dashboard over the run-record store.

``repro report --dashboard out.html`` renders one self-contained HTML
file — inline CSS and inline SVG, no JavaScript, no external assets —
so it can be archived as a CI artifact and opened anywhere:

* **Miss-breakdown trends**: per workload, the four miss classes
  (cold / replace / true / false sharing) across run history.
* **False-sharing heatmap over time**: workloads x run sequence, cell
  intensity scaled to each workload's own worst run.
* **Cache hit-rate trajectories**: trace-cache and sim-memo hit rates
  per run (how warm the pipeline actually was).
* **Span-time trajectories**: seconds per pipeline stage across runs,
  for the heaviest span names.

Everything is computed from stored records at render time; an empty
store renders an empty-but-valid page rather than failing.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Optional, Sequence

from repro.obs.query import get_number
from repro.obs.store import RunStore

#: Chart geometry (SVG user units).
_W, _H = 640, 160
_PAD_L, _PAD_B, _PAD_T = 46, 18, 8

#: Line colors, cycled per series.
_COLORS = (
    "#c0392b", "#2471a3", "#1e8449", "#b7950b", "#7d3c98", "#5d6d7e",
)

MISS_SERIES = (
    ("false sharing", "misses.false"),
    ("true sharing", "misses.true"),
    ("replace", "misses.replace"),
    ("cold", "misses.cold"),
)


def _esc(s: object) -> str:
    return html.escape(str(s), quote=True)


def _fmt(v: float) -> str:
    if abs(v) >= 1000 and float(v).is_integer():
        return f"{int(v):,}"
    return f"{v:g}"


def polyline_chart(
    series: Sequence[tuple[str, Sequence[float]]],
    *,
    y_label: str = "",
) -> str:
    """One SVG line chart; x is the run sequence index, y auto-scales
    over all series (zero-based)."""
    pts_max = max((len(ys) for _n, ys in series), default=0)
    vals = [y for _n, ys in series for y in ys]
    if pts_max < 2 or not vals:
        return "<p class='empty'>not enough history to chart</p>"
    y_hi = max(max(vals), 1e-12)
    inner_w = _W - _PAD_L - 6
    inner_h = _H - _PAD_T - _PAD_B

    def sx(i: int, n: int) -> float:
        return _PAD_L + inner_w * (i / max(n - 1, 1))

    def sy(v: float) -> float:
        return _PAD_T + inner_h * (1.0 - v / y_hi)

    parts = [
        f"<svg viewBox='0 0 {_W} {_H}' class='chart' role='img'>",
        f"<line x1='{_PAD_L}' y1='{_PAD_T}' x2='{_PAD_L}' "
        f"y2='{_H - _PAD_B}' class='axis'/>",
        f"<line x1='{_PAD_L}' y1='{_H - _PAD_B}' x2='{_W - 6}' "
        f"y2='{_H - _PAD_B}' class='axis'/>",
        f"<text x='4' y='{_PAD_T + 10}' class='tick'>{_esc(_fmt(y_hi))}</text>",
        f"<text x='4' y='{_H - _PAD_B}' class='tick'>0</text>",
    ]
    if y_label:
        parts.append(
            f"<text x='{_W - 6}' y='{_PAD_T + 10}' text-anchor='end' "
            f"class='tick'>{_esc(y_label)}</text>"
        )
    for i, (_name, ys) in enumerate(series):
        if len(ys) < 2:
            continue
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(
            f"{sx(j, len(ys)):.1f},{sy(v):.1f}" for j, v in enumerate(ys)
        )
        parts.append(
            f"<polyline points='{coords}' fill='none' stroke='{color}' "
            f"stroke-width='1.6'/>"
        )
    parts.append("</svg>")
    legend = "".join(
        f"<span class='key'><span class='swatch' "
        f"style='background:{_COLORS[i % len(_COLORS)]}'></span>"
        f"{_esc(name)}</span>"
        for i, (name, ys) in enumerate(series)
        if len(ys) >= 2
    )
    return f"<div class='legend'>{legend}</div>" + "".join(parts)


def heatmap(
    rows: Sequence[tuple[str, Sequence[float]]], *, cell: int = 14
) -> str:
    """Workload x run-sequence heatmap, each row normalized to its own
    maximum (intensity compares a workload with *itself* over time)."""
    if not rows:
        return "<p class='empty'>no records</p>"
    ncols = max(len(vs) for _n, vs in rows)
    label_w = 120
    w = label_w + ncols * cell + 4
    h = len(rows) * cell + 4
    parts = [f"<svg viewBox='0 0 {w} {h}' class='heat' role='img'>"]
    for r, (name, vs) in enumerate(rows):
        hi = max(max(vs), 1e-12) if vs else 1.0
        parts.append(
            f"<text x='{label_w - 6}' y='{r * cell + cell - 3}' "
            f"text-anchor='end' class='tick'>{_esc(name)}</text>"
        )
        for c, v in enumerate(vs):
            t = v / hi
            # white -> deep red ramp
            rgb = (
                f"rgb(255,{int(255 - 180 * t)},{int(255 - 220 * t)})"
            )
            parts.append(
                f"<rect x='{label_w + c * cell}' y='{r * cell}' "
                f"width='{cell - 1}' height='{cell - 1}' fill='{rgb}'>"
                f"<title>{_esc(name)} run {c}: {_fmt(v)}</title></rect>"
            )
    parts.append("</svg>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# data shaping
# ---------------------------------------------------------------------------


def _ordered(records: Sequence[dict]) -> list[dict]:
    return sorted(records, key=lambda r: str(r.get("ts") or ""))


def _by_workload(records: Sequence[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for rec in records:
        name = str(rec.get("workload") or "?")
        out.setdefault(name, []).append(rec)
    return out


def _hit_rate(rec: dict, prefix: str) -> Optional[float]:
    hit = get_number(rec, f"perf.{prefix}.hit")
    miss = get_number(rec, f"perf.{prefix}.miss")
    if hit is None and miss is None:
        return None
    hit, miss = hit or 0.0, miss or 0.0
    return hit / (hit + miss) if hit + miss else None


def _span_totals(records: Sequence[dict]) -> list[str]:
    totals: dict[str, float] = {}
    for rec in records:
        spans = rec.get("spans") or {}
        if isinstance(spans, dict):
            for name, secs in spans.items():
                if isinstance(secs, (int, float)):
                    totals[name] = totals.get(name, 0.0) + float(secs)
    return [
        n for n, _t in sorted(totals.items(), key=lambda kv: -kv[1])
    ]


# ---------------------------------------------------------------------------
# page assembly
# ---------------------------------------------------------------------------

_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; color: #1c2833;
       margin: 2em auto; max-width: 880px; padding: 0 1em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.8em; }
.meta { color: #5d6d7e; }
.chart, .heat { width: 100%; height: auto; background: #fbfcfc;
                border: 1px solid #d5d8dc; border-radius: 4px; }
.axis { stroke: #aab7b8; stroke-width: 1; }
.tick { font-size: 10px; fill: #5d6d7e; }
.legend { margin: .3em 0; }
.key { margin-right: 1.2em; font-size: 12px; color: #2c3e50; }
.swatch { display: inline-block; width: 10px; height: 10px;
          margin-right: 4px; border-radius: 2px; }
.empty { color: #909497; font-style: italic; }
table { border-collapse: collapse; }
td, th { padding: 2px 10px 2px 0; text-align: left; }
"""


def render_dashboard(
    store: RunStore, *, title: str = "repro run history",
    max_workloads: int = 8, max_spans: int = 6,
) -> str:
    """The whole dashboard as one HTML document string."""
    records = _ordered(list(store.records()))
    groups = _by_workload(records)
    # busiest workloads first, capped to keep the page readable
    picked = sorted(groups.items(), key=lambda kv: -len(kv[1]))[:max_workloads]

    sections: list[str] = []

    ts = [str(r.get("ts")) for r in records if r.get("ts")]
    kernels = sorted(
        {str(r.get("kernel")) for r in records if r.get("kernel")}
    )
    sections.append(
        "<p class='meta'>"
        f"{len(records)} records · {len(groups)} workload labels"
        + (f" · {ts[0]} … {ts[-1]}" if ts else "")
        + (f" · kernels: {_esc(', '.join(kernels))}" if kernels else "")
        + "</p>"
    )

    sections.append("<h2>Miss breakdown over time</h2>")
    if not picked:
        sections.append("<p class='empty'>no records ingested yet</p>")
    for name, recs in picked:
        series = []
        for label, path in MISS_SERIES:
            ys = [v for v in (get_number(r, path) for r in recs) if v is not None]
            if ys:
                series.append((label, ys))
        sections.append(f"<h3>{_esc(name)}</h3>")
        sections.append(polyline_chart(series, y_label="misses"))

    sections.append("<h2>False sharing over time</h2>")
    heat_rows = []
    for name, recs in picked:
        vs = [v for v in (get_number(r, "misses.false") for r in recs)
              if v is not None]
        if vs:
            heat_rows.append((name, vs))
    sections.append(heatmap(heat_rows))
    sections.append(
        "<p class='meta'>each row normalized to that workload's own "
        "maximum; columns are runs in time order</p>"
    )

    sections.append("<h2>Cache hit rates</h2>")
    cache_series = []
    for label, prefix in (("trace cache", "trace_cache"),
                          ("sim memo", "sim_cache")):
        ys = [v for v in (_hit_rate(r, prefix) for r in records)
              if v is not None]
        if ys:
            cache_series.append((label, ys))
    sections.append(polyline_chart(cache_series, y_label="hit rate"))

    sections.append("<h2>Span time per run</h2>")
    span_names = _span_totals(records)[:max_spans]
    span_series = []
    for name in span_names:
        ys = [v for v in (get_number(r, f"spans.{name}") for r in records)
              if v is not None]
        if len(ys) >= 2:
            span_series.append((name, ys))
    sections.append(polyline_chart(span_series, y_label="seconds"))

    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        f"<body><h1>{_esc(title)}</h1>"
        + "".join(sections)
        + "</body></html>\n"
    )


def write_dashboard(store: RunStore, out: str | Path, **kw) -> Path:
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_dashboard(store, **kw), encoding="utf-8")
    return path
