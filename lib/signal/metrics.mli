(** Scalar error metrics used throughout the evaluation. *)

val db20 : float -> float
(** [20·log10 |x|] with a floor at −400 dB for zero input. *)

val rmse : float array -> float array -> float
(** Root-mean-square difference of two equal-length sample sets. *)

val max_abs_err : float array -> float array -> float
val relative_rmse : reference:float array -> float array -> float
(** RMSE divided by the RMS of the reference. *)

val mean : float array -> float
