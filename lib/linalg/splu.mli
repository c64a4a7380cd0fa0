(** Sparse LU factorization of a real CSC matrix.

    Left-looking (Gilbert–Peierls) column factorization with threshold
    partial pivoting and a fill-reducing minimum-degree column
    preordering, mirroring the {!Lu} workspace conventions:
    [factor_into] reuses a workspace keyed to one compiled pattern,
    [solve_into] writes into a caller-owned vector, and
    [rcond_estimate] is the same diagonal-ratio proxy that the
    factorization's [Guard.rcond_min] floor reads. *)

exception Singular of { pivot_index : int; magnitude : float }

type t

val workspace : Sp.pattern -> t
(** Allocate a workspace for one square pattern; the fill-reducing
    column ordering is computed here and cached, so repeated
    refactorizations of the same structure pay only the numeric cost.
    [L] and [U] start with room for as many entries as the pattern has
    (at least [2n]) and double when they outgrow it. Raises
    [Invalid_argument] on a non-square pattern. *)

val sibling : t -> t
(** A second workspace for the same pattern that shares the cached
    column ordering (computed once, by {!workspace}) and holds its own
    numeric factorization: two factored pencils of one system cost one
    ordering. The ordering is immutable, so the two factor and solve
    independently. *)

val factor_into : t -> Sp.t -> unit
(** Factor [P·A·Q = L·U] into the workspace. The matrix must carry the
    workspace's pattern (physical equality). Raises {!Singular} when a
    column has no admissible pivot above [1e-300], or when
    {!rcond_estimate} of the result falls below [Guard.rcond_min] (at
    the weakest pivot). Fault site [sp.singular] forces a zero pivot in
    column 0; it is probed once per call. Allocates nothing unless [L]
    or [U] outgrows its storage, which then doubles and is kept. *)

val factor : Sp.t -> t

val rcond_estimate : t -> float
(** min|U_ii| / max|U_ii| over the factored diagonal, as in
    {!Lu.rcond_estimate}. *)

val solve_into : t -> Vec.t -> Vec.t -> unit
(** [solve_into f b x] solves [A·x = b]. [b] and [x] must be distinct
    buffers. *)

val solve : t -> Vec.t -> Vec.t
