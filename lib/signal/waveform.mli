(** Sampled waveforms: a strictly increasing time axis with values. *)

type t = private { times : float array; values : float array }

val make : float array -> float array -> t
(** Raises [Invalid_argument] if lengths differ, fewer than one sample, or
    times are not strictly increasing. *)

val of_fun : (float -> float) -> float array -> t
val length : t -> int
val times : t -> float array
val values : t -> float array
val value_at : t -> float -> float
(** Linear interpolation; clamped at the ends. *)

val resample : t -> float array -> t
val map : (float -> float) -> t -> t
val sub_signal : t -> t -> t
(** Pointwise difference after resampling the second onto the first's axis. *)

val rmse : t -> t -> float
(** Root-mean-square difference, evaluated on the first waveform's axis. *)

val nrmse : t -> t -> float
(** RMSE normalized by the peak-to-peak range of the reference (first). *)

val peak_to_peak : t -> float
