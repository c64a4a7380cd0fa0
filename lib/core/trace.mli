(** Hierarchical wall-clock tracing across domains.

    A {!t} is a trace collector owning one recording buffer ({!buf}) per
    participating domain. Spans are recorded {e lock-free} into the
    domain-local buffer (the collector's shared state is touched only
    when a new buffer is attached or ids are allocated, both
    constant-time) and merged at collection. Every span carries a parent
    link, a track id (the recording domain), and typed arguments, so the
    exported timeline shows both the call hierarchy inside a domain and
    the fan-out of work across domains.

    Every recording entry point takes an option and [None] makes
    every call a near-free no-op.

    Exporters: {!chrome_json} writes the Chrome trace-event format
    (loadable in Perfetto / [chrome://tracing]); {!summary} renders a
    flamegraph-style self-time table. *)

type arg = Int of int | Float of float | Str of string | Bool of bool
(** Typed span argument values (shown in the trace viewer's detail
    pane). *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span, [-1] for a track root *)
  track : int;  (** recording domain (Chrome [tid]) *)
  name : string;
  t_start : float;  (** seconds since the collector's origin *)
  dur : float;  (** wall-clock duration, seconds *)
  args : (string * arg) list;
}

type t
(** A trace collector (shared, thread-safe for buffer attachment and
    collection). *)

type buf
(** A per-domain recording buffer. Not thread-safe: one [buf] must only
    be used by the domain that attached it. *)

val create : unit -> t
(** Fresh collector; its time origin is [Clock.now ()] at creation. The
    calling domain's main buffer is attached immediately ({!main}). *)

val main : t -> buf
(** The buffer attached by {!create} for the creating domain. *)

val owner : buf -> t
(** The collector a buffer records into. *)

val attach : t -> ?parent:int -> unit -> buf
(** Attach a recording buffer for the {e calling} domain (track id =
    [Domain.self ()]); spans recorded at its stack bottom get [parent]
    (default [-1]) as their parent link, so worker-side spans can hang
    off the span that submitted the work. Constant-time, takes the
    collector's registration lock once. *)

val current : buf option -> int
(** Id of the innermost open span ([-1] when none is open or the buffer
    is [None]); pass it as [?parent] to {!attach} to link cross-domain
    work to its submitter. *)

val span : buf option -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** [span b name f] times [f ()] with {!Clock} and records a span nested
    under the innermost open span of [b]. The span is recorded even when
    [f] raises. [None] runs [f] directly. *)

val add_args : buf option -> (string * arg) list -> unit
(** Append arguments to the innermost open span (no-op when none is
    open) — for values only known once the work has run, e.g. an
    iteration count. *)

val spans : t -> span list
(** Merge every attached buffer's completed spans, ordered by start
    time. Only call after the work recording into worker buffers has
    been joined. *)

type agg = {
  agg_name : string;
  agg_count : int;
  agg_total : float;  (** summed span durations, seconds *)
  agg_self : float;
      (** summed self time: duration minus same-track children (clamped
          at 0); cross-track children run concurrently and are charged
          to their own track *)
}

val aggregate : t -> agg list
(** Per-name totals over {!spans}, sorted by self time (descending). *)

val summary : t -> string
(** Human-readable flamegraph-style self-time table. *)

val chrome_json : t -> string
(** The merged trace as a Chrome trace-event JSON document:
    [{"schema_version": 1, "displayTimeUnit": "ms", "traceEvents":
    [...]}] with one ["ph": "X"] (complete) event per span — [ts]/[dur]
    in microseconds, [tid] = track — plus ["ph": "M"] thread-name
    metadata per track. Span id and parent ride in each event's [args]
    (keys ["id"]/["parent"]) next to the user arguments. *)
