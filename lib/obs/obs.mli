(** The unified observability hub: one handle over the {!Trace}
    collector, the {!Metrics} registry and an {e algorithmic} event log
    — per-iteration VF pole positions, sigma residual norms per
    relocation, reciprocal-condition time series from the
    LU/complex-LU/QR factorizations, escalation-rung and quarantine
    events, and the run's narrative of notes, warnings and errors.

    Each record lives in one store: counters and statistics in
    {!Metrics}, stage and step spans in {!Trace}, everything else in
    the event log. Instrumented code threads a single [?obs] argument
    and makes one hub call per record. Every recording entry point
    takes a [t option], [None] is a near-free no-op performing {e zero
    clock reads}, and the enabled path runs the same numerical code so
    extraction results are bit-for-bit identical either way (asserted
    in the test suite). A finished hub is also the run's report: the
    readers below answer what a failed run recorded.

    The event log is serialized to [convergence.jsonl] — one JSON
    object per line, each carrying ["type"], a monotonically increasing
    ["seq"] and ["t"] seconds since the collector's creation — as part
    of the run bundle written by {!Obs_bundle}. *)

type t

val create : unit -> t
(** Fresh hub; its time origin is [Clock.now ()] at creation. *)

val of_metrics : Metrics.t -> t
(** A fresh hub whose Metrics registry is an existing one. *)

(** {2 Collectors}

    For reading a finished run, and for {!Exec}'s fan-outs, which take
    the collectors themselves; stage code records through the calls
    below. *)

val tracer : t -> Trace.t
val metrics : t -> Metrics.t

(** {2 Recording}

    One call per record. [None] returns before any allocation or clock
    read. The main trace buffer is single-domain, so [stage], [span]
    and [add_args] must run on the domain that created the hub; every
    other recording call is worker-safe, because {!Metrics} and the
    event log each take their own mutex. *)

val stage : t option -> string -> (unit -> 'a) -> 'a
(** [stage o name f]: a ["stage"] event, then [f ()] inside a Trace
    span named [name] (recorded even when [f] raises). *)

val span :
  t option -> ?args:(string * Trace.arg) list -> string -> (unit -> 'a) -> 'a
(** A Trace span, for per-step work ([tran.step], [vf.relocate], ...). *)

val add_args : t option -> (string * Trace.arg) list -> unit
(** {!Trace.add_args} on the innermost open span. *)

val count : t option -> string -> int -> unit
(** Bump a Metrics counter by [n]. *)

val observe : t option -> string -> float -> unit
(** Fold a value into a Metrics histogram. *)

val now_if : t option -> float
(** [Clock.now ()] with a hub, [0.0] without. *)

val observe_since_ns : t option -> string -> float -> unit
(** Metrics histogram of the nanoseconds since [t0] (from {!now_if}). *)

val note : t option -> string -> string -> unit
(** A ["note"] event: a [name]/[value] annotation; the latest value for
    a name wins in {!notes}. *)

val warn : t option -> stage:string -> string -> unit
val error : t option -> stage:string -> string -> unit
(** A ["warning"] or ["error"] event carrying the [stage] that raised it
    and a [message]. *)

(** {2 Event emission}

    Records in the event log only. All take a [t option]; [None]
    short-circuits before any allocation or clock read. Emission is
    worker-safe (pool workers emit pencil rcond events concurrently). *)

val rcond : t option -> site:string -> ('a -> float) -> 'a -> unit
(** [rcond o ~site estimate x] records [estimate x] as one sample of the
    reciprocal-condition time series for a named factorization site
    (["dc.lu"], ["ac.pencil"], ["vf.sigma_qr"]); the estimate only runs
    with a hub. *)

val vf_iteration :
  t option ->
  label:string ->
  iteration:int ->
  sigma_rms:float ->
  d_tilde:float ->
  scale_spread:float ->
  flips:int ->
  Complex.t array ->
  unit
(** One VF pole-relocation step: the full relocated pole set (as
    [[re, im]] pairs) plus the relocation telemetry. [label] is the fit
    label (["vf.freq"], ["vf.state"], ["recursion.x"], ...); the pole
    count distinguishes escalation attempts within a label. *)

val vf_attempt :
  t option ->
  label:string -> pole_count:int -> rms:float -> tol:float ->
  accepted:bool -> unit
(** Outcome of one [fit_auto] pole-count attempt. *)

val vf_settled : t option -> label:string -> pole_count:int -> rms:float -> unit
(** The pole count a [fit_auto] escalation settled on. *)

val escalation :
  t option -> rung:string -> outcome:string -> detail:string -> unit
(** One escalation-ladder rung result in the non-raising pipeline. *)

val violation : t option -> site:string -> string -> unit
(** A guard violation or recoverable numerical failure, by site. *)

val quarantine : t option -> n_bad:int -> repaired:int -> dropped:int -> unit
(** Snapshot-quarantine outcome in the TFT dataset stage. *)

val checkpoint : t option -> stage:string -> action:string -> unit
(** A checkpoint-store interaction: [action] is ["store"], ["load"],
    ["stale"] (fingerprint/schema miss, recomputing) or ["invalid"]
    (torn/malformed artifact rejected and recomputed). *)

val cancelled : t option -> site:string -> unit
(** Cooperative cancellation observed at [site]. *)

val deadline :
  t option ->
  site:string ->
  stage:string ->
  budget_seconds:float ->
  elapsed_seconds:float ->
  unit
(** A deadline budget tripped: the probe [site] that noticed and the
    scope [stage] whose budget ran out. *)

(** {2 Reading a run} *)

val counter : t -> string -> int
(** A Metrics counter's value, 0 when never bumped. *)

val notes : t -> (string * string) list
(** The latest value of every noted name, in recording order of that
    latest value: a re-noted name moves to the end. *)

val messages : t -> ([ `Warning | `Error ] * string * string) list
(** Every warning and error as [(kind, stage, message)], in recording
    order. *)

val event_count : t -> int

val events : t -> Minijson.t list
(** All recorded events in emission order. *)

val convergence_jsonl : t -> string
(** The event log as JSONL: one compact JSON object per line. *)
