(** Complex number helpers on top of [Stdlib.Complex]. *)

type t = Complex.t

val zero : t
val one : t

val re : float -> t
(** [re x] is the complex number [x + 0i]. *)

val make : float -> float -> t
(** [make re im] builds [re + im*i]. *)

val ( +: ) : t -> t -> t
val ( -: ) : t -> t -> t
val ( *: ) : t -> t -> t
val ( /: ) : t -> t -> t

val conj : t -> t
val inv : t -> t
val scale : float -> t -> t
val norm : t -> float
(** Modulus |z|. *)

val norm2 : t -> float
(** Squared modulus. *)

val is_finite : t -> bool
val approx_equal : ?tol:float -> t -> t -> bool
(** Absolute-difference comparison on both components. *)

val to_string : t -> string
