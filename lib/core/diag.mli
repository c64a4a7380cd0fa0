(** Structured per-stage telemetry for the extraction pipeline.

    Every iterative numerical stage (transient integration, Newton
    solves, vector fitting, the recursion) records through the {!Obs}
    hub what it actually did: wall-clock spans (via {!Clock}),
    monotonic counters, running statistics, free-form notes, and
    levelled events. The collector survives exceptions, so a failed
    extraction still yields a {!report} naming the stage that
    degenerated and the work done up to that point. All recording
    entry points take a [t option]; [None] is a near-free no-op. *)

type level = Info | Warning | Error

type event = { level : level; stage : string; message : string }

type span = { stage : string; seconds : float }
(** Wall-clock duration of one named stage execution. *)

type stat = {
  name : string;
  samples : int;
  total : float;
  min : float;
  max : float;
  last : float;
}
(** Running summary of an observed scalar (e.g. per-iteration sigma
    RMS): count, sum, extrema and most recent value. *)

type report = {
  spans : span list;
  counters : (string * int) list;
  stats : stat list;
  events : event list;
  notes : (string * string) list;
}
(** Immutable snapshot of a collector, in recording order. *)

type t
(** A mutable telemetry collector. *)

val create : unit -> t

val add : t option -> string -> int -> unit
(** Bump a named counter by [n]. *)

val observe : t option -> string -> float -> unit
(** Fold a scalar observation into the named {!stat}. *)

val note : t option -> string -> string -> unit
(** Attach a key/value annotation; the latest value for a key wins. *)

val info : t option -> stage:string -> string -> unit
val warn : t option -> stage:string -> string -> unit
val error : t option -> stage:string -> string -> unit

val span : t option -> string -> (unit -> 'a) -> 'a
(** [span d stage f] times [f ()] with {!Clock} and records the
    duration; the span is recorded even when [f] raises. *)

val report : t -> report

val mean : stat -> float

val warnings : report -> event list
(** Events of level [Warning] or [Error]. *)

val has_errors : report -> bool

val counter : report -> string -> int
(** Value of a counter, 0 when never bumped. *)

val find_note : report -> string -> string option

val level_to_string : level -> string
