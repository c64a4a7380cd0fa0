(** The numerical safety policy of the extraction stack.

    Every check that keeps corrupt numbers out of a model runs on every
    call; there is no switch. The numerical layers consult the three
    constants below and the helpers here: reciprocal-condition floors
    on the Newton factorizations ([Linalg.Lu], [Linalg.Splu]), NaN/Inf
    sentinels on solver outputs, transient step halving
    ([Engine.Tran]), snapshot quarantine ([Tft.Dataset]) and
    vector-fitting pole-runaway detection ([Vf.Vfit]). Checks are
    read-only until something trips, so a clean run performs exactly
    the arithmetic it would without them.

    Detected-but-unrepairable conditions raise the typed {!Violation},
    which [Pipeline]'s escalation ladder treats as recoverable. *)

val rcond_min : float
(** [1e-12]: a Newton factorization whose diagonal-ratio
    reciprocal-condition estimate falls below this raises [Singular]. *)

val max_step_halvings : int
(** [4]: a transient step that no integrator could take whole is
    retried as [2^j] backward-Euler substeps for [j = 1 .. 4]. *)

val max_pole_growth : float
(** [1e4]: a relocated pole whose modulus exceeds this multiple of the
    largest fit point is a runaway. *)

type violation = { site : string; detail : string }

exception Violation of violation

val describe : violation -> string

val fail : site:string -> string -> 'a
(** [fail ~site detail] raises {!Violation}. *)

val finite_array : float array -> bool
val finite_complex_array : Complex.t array -> bool

val check_vec : site:string -> float array -> unit
(** The NaN/Inf sentinel: raise {!Violation} naming [site] when the
    array holds a NaN or an infinity. *)
