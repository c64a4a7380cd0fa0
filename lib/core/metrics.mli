(** A thread-safe registry of named counters, gauges and log-bucketed
    histograms: the one store of the extraction stack's counters and
    statistics (Newton iterations per step, LU factor/solve times,
    pencil-solve times, VF convergence, ladder retries, pool load
    balance).

    A registry may be written from several domains concurrently: every
    recording call takes an internal mutex for a few nanoseconds, which
    is negligible next to the microsecond-scale kernels being measured.
    All entry points take a [t option] and [None] is a near-free
    no-op.

    Histograms are log-bucketed: four buckets per decade, so a bucket's
    upper bound is [10^(i/4)] — wide enough dynamic range for values
    from nanoseconds to seconds without configuration. *)

type t
(** A mutable, thread-safe metrics registry. *)

val create : unit -> t

val add : t option -> string -> int -> unit
(** Bump a named counter by [n]. *)

val gauge : t option -> string -> float -> unit
(** Set a named gauge (latest value wins). *)

val observe : t option -> string -> float -> unit
(** Fold one observation into the named histogram. Non-positive and
    non-finite values land in a dedicated underflow bucket (reported
    with upper bound 0). *)

val observe_since_ns : t option -> string -> float -> unit
(** [observe_since_ns m name t0] records [Clock.now () − t0] in
    nanoseconds into the histogram [name] ([t0] from {!Clock.now}). *)

(** {2 Snapshots and serialization} *)

type bucket = { le : float; bucket_count : int }
(** Observations with value ≤ [le] (and above the previous bucket's
    bound). The underflow bucket has [le = 0]. *)

type histogram = {
  hist_name : string;
  count : int;
  sum : float;
  hist_min : float;
  hist_max : float;
  buckets : bucket list;  (** ascending by [le]; counts sum to [count] *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : histogram list;
}
(** Immutable copy of a registry, in first-recorded order. *)

val snapshot : t -> snapshot

val hist_mean : histogram -> float

val to_json : snapshot -> string
(** Serialize as a self-contained schema-versioned JSON document:
    [{"schema_version": 1, "counters": {...}, "gauges": {...},
    "histograms": [{"name", "count", "sum", "min", "max", "mean",
    "p50", "p95", "p99", "buckets": [{"le", "count"}, ...]}, ...]}].
    A quantile is interpolated linearly inside the log bucket holding
    its rank and clamped to the observed [[min, max]], so it is within
    a factor of [10^(1/4) ≈ 1.78] of the true quantile ([nan] on an
    empty histogram). Non-finite floats are encoded as the strings
    ["nan"], ["inf"], ["-inf"]. *)

val summary : snapshot -> string
(** Compact human-readable rendering. *)
