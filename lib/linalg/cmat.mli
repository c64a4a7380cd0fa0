(** Dense complex matrices and vectors, row-major storage. *)

type t

type vec = Cx.t array

val create : int -> int -> t
val init : int -> int -> (int -> int -> Cx.t) -> t
val identity : int -> t
val of_real : Mat.t -> t

val lincomb : Cx.t -> Mat.t -> Cx.t -> Mat.t -> t
(** [lincomb a ma b mb] computes [a*ma + b*mb] as a complex matrix.
    This is how [G + s*C] pencils are formed. *)

val lincomb_into : t -> Cx.t -> Mat.t -> Cx.t -> Mat.t -> unit
(** [lincomb_into dst a ma b mb] overwrites [dst] with [a*ma + b*mb]:
    the allocation-free pencil build used by the sweep workspaces.
    Performs element-wise exactly the same arithmetic as {!lincomb}. *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Cx.t
val set : t -> int -> int -> Cx.t -> unit

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with the contents of [src] (same shape required). *)

val get_col : t -> int -> vec -> unit
(** [get_col m j dst] reads column [j] of [m] into [dst]. *)

val mul : t -> t -> t
val mulv : t -> vec -> vec
val swap_rows : t -> int -> int -> unit
val max_abs : t -> float
