(** Sparse LU factorization of a complex CSC matrix ({!Sp.ct}).

    The complex twin of {!Splu}: left-looking Gilbert–Peierls columns,
    threshold partial pivoting on entry magnitudes, the same cached
    minimum-degree preordering, and {!Clu}-style workspace and
    [rcond_estimate] conventions. Built for the AC pencil [G + s·C]
    refilled over one compiled pattern per circuit. *)

exception Singular of { pivot_index : int; magnitude : float }

type t

val workspace : Sp.pattern -> t
(** Raises [Invalid_argument] on a non-square pattern. *)

val factor_into : t -> Sp.ct -> unit
(** Factor [P·A·Q = L·U]. The matrix must carry the workspace's
    pattern (physical equality). Raises {!Singular} on a pivot below
    [1e-300]. Fault site [sp.singular] forces a zero pivot in
    column 0. *)

val factor : Sp.ct -> t

val rcond_estimate : t -> float
(** min|U_ii| / max|U_ii|, as in {!Clu.rcond_estimate}. *)

val solve_into : t -> Cmat.vec -> Cmat.vec -> unit
(** [solve_into f b x] solves [A·x = b]. [b] and [x] must be distinct
    buffers. *)

val solve : t -> Cmat.vec -> Cmat.vec

val lu_nnz : t -> int
