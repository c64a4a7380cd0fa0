(** Sampling grids for time and frequency axes. *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] is [n] evenly spaced points from [a] to [b] inclusive.
    Requires [n >= 2] (or [n = 1], returning [[|a|]]). *)

val logspace : float -> float -> int -> float array
(** [logspace a b n] is [n] logarithmically spaced points from [a] to [b]
    inclusive; both endpoints must be positive. *)

val frequencies_hz : f_min:float -> f_max:float -> points:int -> float array
(** Log-spaced frequency grid in Hz. *)

val s_of_hz : float -> Complex.t
(** [s_of_hz f] is the Laplace variable [j·2πf] on the imaginary axis. *)
