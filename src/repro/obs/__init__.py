"""``repro.obs`` — observability over the whole pipeline.

Three layers, all off (and effectively free) unless asked for:

* **Span tracing** (:mod:`repro.obs.spans`): hierarchical timed regions
  with :mod:`repro.perf` counter deltas, rendered as a tree or exported
  as Chrome trace-event JSON (:mod:`repro.obs.chrome`) loadable in
  Perfetto / ``chrome://tracing``.  Enable with ``REPRO_PROFILE=1`` or
  ``repro ... --profile``.
* **Miss attribution** (:mod:`repro.obs.attribution`): every simulated
  miss tagged with its owning data structure, every false-sharing miss
  with its processor pair; rendered as per-structure tables, pair
  breakdowns, cache-line heatmaps, and a diff against the static
  analysis's predictions.
* **Run manifests** (:mod:`repro.obs.manifest`): one JSONL record per
  run (source hash, plan, machine, kernel, cache stats, span
  timings, miss breakdown) appended to ``REPRO_RUN_LOG``.

On top of the manifests sits the run-history layer:

* **Store** (:mod:`repro.obs.store`): manifests ingested into a
  sharded, content-addressed, indexed record store.
* **Query** (:mod:`repro.obs.query`): filter / group-by / aggregate /
  time-window queries over the store (``repro history``).
* **Sentinel** (:mod:`repro.obs.sentinel`): rolling per-configuration
  baselines and regression alerts.
* **Dashboard** (:mod:`repro.obs.dashboard`): a static-HTML view of
  miss trends, FS heatmaps, cache hit rates, and span times.

:mod:`repro.perf` is the counter backend: spans snapshot its flat
counters on entry/exit and store the delta, so every cache-hit/miss and
stage-seconds counter is visible *per pipeline stage*, not just as a
process-wide total.
"""

from repro.obs.chrome import (
    to_trace_events,
    validate_trace,
    validate_trace_file,
    write_trace,
)
from repro.obs.manifest import (
    RUN_LOG_ENV,
    build_record,
    last_for,
    read_all,
    record,
    sim_record,
    upgrade_record,
)
from repro.obs.spans import (
    PROFILE_ENV,
    Span,
    attach_worker_spans,
    disable,
    enable,
    enabled,
    flat_timings,
    render_tree,
    reset,
    roots,
    span,
    span_snapshot,
    total_seconds,
)

#: Attribution symbols are re-exported lazily (PEP 562): the attribution
#: layer imports ``repro.sim``, and the sim modules import ``repro.obs``
#: for span tracing — eager import here would be a cycle.
_ATTRIBUTION_EXPORTS = frozenset(
    {
        "Attribution",
        "AttributionRow",
        "fs_table",
        "render_fs_table",
        "render_heatmap",
        "render_pair_breakdown",
        "render_prediction_diff",
    }
)

#: Run-history symbols, also lazy: most pipeline runs never touch the
#: store, and keeping these modules unimported keeps import time flat.
_HISTORY_EXPORTS = {
    "RunStore": "repro.obs.store",
    "IngestReport": "repro.obs.store",
    "Query": "repro.obs.query",
    "QueryResult": "repro.obs.query",
    "run_query": "repro.obs.query",
    "SentinelConfig": "repro.obs.sentinel",
    "SentinelReport": "repro.obs.sentinel",
    "check_store": "repro.obs.sentinel",
    "check_bench_trajectory": "repro.obs.sentinel",
    "render_dashboard": "repro.obs.dashboard",
    "write_dashboard": "repro.obs.dashboard",
}


def __getattr__(name: str):
    if name in _ATTRIBUTION_EXPORTS:
        from repro.obs import attribution

        return getattr(attribution, name)
    if name in _HISTORY_EXPORTS:
        import importlib

        return getattr(importlib.import_module(_HISTORY_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Attribution",
    "AttributionRow",
    "fs_table",
    "render_fs_table",
    "render_heatmap",
    "render_pair_breakdown",
    "render_prediction_diff",
    "to_trace_events",
    "validate_trace",
    "validate_trace_file",
    "write_trace",
    "RUN_LOG_ENV",
    "build_record",
    "last_for",
    "read_all",
    "record",
    "sim_record",
    "upgrade_record",
    *sorted(_HISTORY_EXPORTS),
    "PROFILE_ENV",
    "Span",
    "attach_worker_spans",
    "disable",
    "enable",
    "enabled",
    "flat_timings",
    "render_tree",
    "reset",
    "roots",
    "span",
    "span_snapshot",
    "total_seconds",
]
