(** Offline rendering of a loaded {!Obs_bundle}: a self-contained HTML
    report (inline CSS + SVG, no external assets, viewable from file://)
    and an OpenMetrics text export of the metrics registry.

    The HTML report shows the pole-migration scatter across VF
    iterations and recursion levels (symlog axes), per-fit residual
    decay curves, the rcond time series per factorization site, a
    self-time table derived from the Chrome trace, histogram summaries
    with p50/p95/p99 columns and sparkline bars, and the event log of
    stages, notes, warnings, errors, escalations, violations and
    quarantines. *)

val render_html : Obs_bundle.t -> string
(** The full report as one HTML document. *)

val openmetrics : Obs_bundle.t -> string
(** [metrics.json] re-expressed in OpenMetrics text format: counters,
    gauges, cumulative histogram buckets, and quantile estimates as
    gauges. Terminated by [# EOF]. *)
