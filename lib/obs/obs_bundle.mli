(** Schema-versioned on-disk run bundles.

    A bundle directory holds one extraction run's complete observability
    record:

    - [manifest.json] — schema version, tool, exit status, seed, host
      shape (core count, OS, word size) and the run configuration;
    - [trace.json] — the Chrome trace-event timeline ({!Trace});
    - [metrics.json] — the counter/gauge/histogram registry
      ({!Metrics}, including p50/p95/p99 quantile estimates);
    - [convergence.jsonl] — the algorithmic event stream ({!Obs}): one
      JSON object per line (pole trajectories, sigma residuals, rcond
      series, escalations, violations, quarantines, and the run's
      notes, warnings and errors);
    - [repro.json] — present only for failed runs: a replayable capsule
      (circuit + options + seed).

    {!load} re-reads and validates a bundle, raising the typed
    {!Invalid} on any malformed file so consumers ([obs_report],
    [obs_check]) can exit nonzero with a precise reason. *)

exception Invalid of { file : string; reason : string }
(** A bundle file is missing, unparsable or fails schema validation.
    [file] is the offending file name relative to the bundle dir. *)

val describe_invalid : file:string -> reason:string -> string

val host_json : unit -> Minijson.t
(** The current host's shape: [{"cores", "os", "word_size"}]. *)

val manifest :
  tool:string ->
  status:string ->
  seed:int ->
  config:(string * Minijson.t) list ->
  unit ->
  Minijson.t
(** Assemble a manifest object: schema version (1; {!load} rejects
    others), bundle kind, [tool],
    [status] (["ok"] or ["failed"]), [seed], {!host_json} and the
    run [config]. *)

val write :
  dir:string -> manifest:Minijson.t -> ?repro:Minijson.t -> Obs.t -> unit
(** Write the bundle into [dir] (created if missing): manifest, the
    trace and metrics exports and the event stream, plus [repro.json]
    when a repro capsule is given. Each file is written to a temp name
    and atomically renamed into place, so a crash mid-write never
    leaves a torn file for {!load} to reject. *)

type t = {
  dir : string;
  manifest : Minijson.t;
  trace : Minijson.t;
  metrics : Minijson.t;
  events : Minijson.t list;  (** convergence.jsonl, in line order *)
}

val load : string -> t
(** Read and validate the four files listed in {!t} (a [repro.json],
    or any other file in [dir], is not opened). Raises {!Invalid}
    naming the first offending file on any missing file, parse error
    or schema mismatch (wrong version, missing required fields, broken
    [seq] numbering in the event stream, histogram bucket counts that
    do not sum to the histogram count). *)
