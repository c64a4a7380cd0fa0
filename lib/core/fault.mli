(** Deterministic, seeded fault injection for the extraction stack.

    Named probes planted in the numerical layers call {!should_fire};
    with no plan armed a probe is a single load-and-branch and the
    numerical path is bit-for-bit the uninstrumented one. Arming a
    plan (one site + a seed-derived schedule) makes the probe fire on
    a fixed range of its invocations, so the same seed reproduces the
    identical failure at the identical point in every run. Used by the
    chaos sweep ([bin/fault_check.ml], [test_guard]), the hang/resume
    soak ([bin/chaos_check.ml]) and [tft_extract --fault SITE[:seed]]. *)

type kind =
  | Numeric  (** corrupts a value; recovery = guards / escalation ladder *)
  | Hang  (** parks a loop; recovery = deadline reaping via [Cancel] *)
  | Storage  (** tears a file; recovery = typed reject + recompute *)

type site = { name : string; where : string; what : string; kind : kind }

val sites : site list
(** The registry of every injection site, with the function hosting
    the probe and the failure it injects. *)

val known : string -> bool

val arm : site:string -> ?seed:int -> unit -> unit
(** Install the process-wide plan for [site]. The schedule derives
    from [seed] (default 0): the probe fires from its
    [1 + (seed land 7)]-th invocation for [1 + ((seed lsr 3) land 7)]
    consecutive invocations. Raises [Invalid_argument] on an unknown
    site. Replaces all previously armed plans. *)

val arm_exact :
  site:string ->
  ?scope:string ->
  ?seed:int ->
  fire_at:int ->
  burst:int ->
  unit ->
  unit
(** [arm] with the schedule given directly: fire on invocations
    [fire_at .. fire_at + burst - 1] (1-based). An optional [scope]
    restricts the plan to probes executing under {!in_scope} with the
    same label; out-of-scope probes neither fire nor count. *)

val arm_also_exact :
  site:string ->
  ?scope:string ->
  ?seed:int ->
  fire_at:int ->
  burst:int ->
  unit ->
  unit
(** Like {!arm_exact}, but adds to (or replaces within) the armed plan
    list instead of clearing it, so several sites can be armed at once —
    e.g. a numeric fault walking the escalation ladder while a
    hang-class fault parks one specific rung. *)

val schedule_of_seed : int -> int * int
(** [(fire_at, burst)] that {!arm} derives from a seed. *)

type stats = { site : string; calls : int; fires : int }

val stats : unit -> stats option
(** Probe-invocation and firing counts of the most recently armed
    plan, if any. *)

val stats_for : string -> stats option
(** Counts for the plan armed on [site], if any. *)

val disarm : unit -> stats option
(** Remove all plans, returning the most recently armed one's final
    counts. *)

val armed : unit -> string option
(** The most recently armed site, if any plan is live. *)

val in_scope : string -> (unit -> 'a) -> 'a
(** [in_scope label f] runs [f] with the dynamic fault scope set to
    [label] (restored on return or raise). Plans armed with [~scope]
    only observe probes executed under a matching scope. *)

val should_fire : string -> bool
(** The probe: [true] iff a plan for this site is armed, in scope, and
    this invocation falls in its firing window. Counts invocations
    under a mutex only when the site matches an armed, in-scope plan. *)

val parse : string -> string * int
(** Parse a ["SITE"] or ["SITE:seed"] CLI spec into [(site, seed)].
    Raises [Invalid_argument] on a malformed seed; the site name is
    not validated here (callers report unknown sites with context). *)
