(** Dense real vectors (thin wrapper over [float array]). *)

type t = float array

val create : int -> t
(** Zero-filled vector of the given length. *)

val copy : t -> t

val add : t -> t -> t
val sub : t -> t -> t

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

val dot : t -> t -> float
val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float
val dist_inf : t -> t -> float
val approx_equal : ?tol:float -> t -> t -> bool
