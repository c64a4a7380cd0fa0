(** Cooperative cancellation and wall-clock deadlines.

    A token threads through the extraction layers exactly like [?obs]:
    probes take a [t option], [None] is a single branch performing zero
    clock reads, a token with no armed deadline is one atomic load per
    probe, and the clock is read only while a deadline scope is armed.
    Numerics are never touched — a run that is not cancelled and whose
    deadlines do not trip is bit-for-bit identical to an un-tokened one.

    Probes live at the natural iteration boundaries of every layer:
    per Newton iteration ([dc.newton]), per transient step
    ([tran.step]), per pencil solve ([ac.sweep]), per VF relocation
    sweep ([vf.relocate]), per pool chunk ([<label>.chunk]) and at
    every pipeline stage boundary. *)

type t

exception Cancelled of { site : string }
(** Raised by {!check} after {!cancel}; [site] names the probe that
    noticed. *)

exception
  Deadline_exceeded of {
    site : string;  (** the probe that noticed *)
    stage : string;  (** the scope whose budget ran out *)
    budget_seconds : float;
    elapsed_seconds : float;
  }
(** Raised by {!check} when any armed deadline scope has expired. *)

val create : ?deadline_seconds:float -> unit -> t
(** Fresh token; [deadline_seconds] arms a whole-run deadline (scope
    stage ["run"]) counted from now. *)

val cancel : t -> unit
(** Request cooperative cancellation: every subsequent {!check} raises
    {!Cancelled}. Safe from any domain or signal context. *)

val cancel_requested : t option -> bool
(** Non-raising poll of the cancellation flag only (never reads the
    clock). *)

val check : t option -> site:string -> unit
(** The probe. [None] is free; otherwise raises {!Cancelled} when
    cancellation was requested, or {!Deadline_exceeded} when an armed
    scope has expired. *)

val remaining : t option -> float
(** Seconds until the tightest armed deadline; [infinity] when none. *)

val with_budget : t option -> stage:string -> ?seconds:float -> (unit -> 'a) -> 'a
(** [with_budget t ~stage ~seconds f] runs [f] with an additional
    deadline scope of [seconds] from now, labelled [stage]; the scope
    is removed when [f] returns or raises. With no token or no
    [seconds], exactly [f ()]. Scopes nest; a probe reports the first
    expired scope (innermost first). *)

val hang : t option -> site:string -> 'a
(** Simulated hang for the hang-class fault sites: cooperatively spins
    on {!check} until the deadline (or cancellation) reaps it. Never
    returns; a hang that nothing reaps fails loudly ([Failure]) after a
    hard 2 s cap instead of wedging the process. *)
