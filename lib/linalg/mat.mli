(** Dense real matrices, row-major storage. *)

type t

val create : int -> int -> t
(** [create rows cols] is a zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val of_arrays : float array array -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val update : t -> int -> int -> (float -> float) -> unit
val copy : t -> t

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with the contents of [src] (same shape required). *)

val lincomb_into : t -> float -> t -> float -> t -> unit
(** [lincomb_into dst a ma b mb] overwrites [dst] with [a*ma + b*mb]:
    allocation-free matrix blends for time steppers. *)

val transpose : t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mulv : t -> Vec.t -> Vec.t

val mulv_into : t -> Vec.t -> Vec.t -> unit
(** [mulv_into a x y] writes [a*x] into the caller-owned [y]; [x] and
    [y] must be distinct buffers. *)

val mulv2_into : t -> Vec.t -> Vec.t -> Vec.t -> Vec.t -> unit
(** [mulv2_into a x1 x2 y1 y2] writes [a*x1] into [y1] and [a*x2] into
    [y2] in one pass over [a], each with exactly the operations of
    {!mulv_into}: a real matrix times a complex vector held as its real
    and imaginary parts. No output may alias an input. *)

val mulv_t : t -> Vec.t -> Vec.t
(** [mulv_t a x] computes [aᵀ x] without forming the transpose. *)

val row : t -> int -> Vec.t
val col : t -> int -> Vec.t

val max_abs : t -> float
val approx_equal : ?tol:float -> t -> t -> bool
val random : Random.State.t -> int -> int -> t
(** Entries uniform in [-1, 1). *)

val unsafe_data : t -> float array
(** The raw row-major backing store ([rows*cols] floats, element [(i,j)]
    at index [i*cols + j]). For allocation-free in-place kernels inside
    {!Linalg} (QR/LU workspaces); mutating it mutates the matrix. *)
