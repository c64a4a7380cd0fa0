(** Content-addressed, schema-versioned checkpoint store.

    One JSON file per pipeline stage, wrapped in an envelope carrying
    [schema_version], the stage name and the run fingerprint. Writes
    are atomic (temp file + rename); loads are typed: torn or malformed
    artifacts raise {!Invalid}, stale ones (fingerprint or schema
    mismatch) read as a miss to be recomputed and overwritten. Floats
    round-trip bit-exactly via {!Minijson}'s [%.17g] rendering, which
    is what makes checkpointed resumes bit-identical.

    Hosts the ["checkpoint.torn_write"] fault site (a store that
    truncates the artifact under the final name, simulating a crash
    mid-write without the atomic rename) and the chaos harness's
    deterministic crash hook ({!arm_kill}). *)

type t

exception Invalid of { file : string; reason : string }
(** A present-but-unusable artifact: torn JSON, missing envelope
    fields, wrong kind. Never raised for a merely stale or absent
    checkpoint. *)

exception Killed of { stage : string; stores : int }
(** The {!arm_kill} simulated crash, raised immediately after the n-th
    completed store. *)

val create : dir:string -> fingerprint:string -> t
(** Creates [dir] (and parents) if needed. [fingerprint] is the run's
    content address — see {!fingerprint_of_string}. *)

val fingerprint_of_string : string -> string
(** MD5 hex digest of a canonical config + circuit description. *)

val file : t -> stage:string -> string
(** The artifact path for [stage]: [dir/<stage>.ckpt.json]. *)

val store : t -> stage:string -> Minijson.t -> unit
(** Atomically write [stage]'s artifact, then raise {!Killed} if an
    armed {!arm_kill} count was reached. *)

val load : t -> stage:string -> Minijson.t option
(** [Some payload] iff the artifact exists and matches the stage,
    fingerprint and schema version; [None] on absent or stale; raises
    {!Invalid} on torn/malformed files. *)

(** {2 Chaos harness hooks} *)

val arm_kill : after_stores:int -> unit
(** Simulate a crash (typed {!Killed}) right after the [after_stores]-th
    completed {!store}, process-wide; resets the store counter. The hook
    self-disarms when it fires. *)

val disarm_kill : unit -> int
(** Remove the hook; returns the number of stores since {!arm_kill} (or
    since the last disarm) and resets the counter. *)
