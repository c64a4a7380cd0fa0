(** LU factorization with partial pivoting for dense real matrices.

    The kernels of DC and transient Newton, of [Tft.Tpw], and of the
    dense frequency sweep's once-per-snapshot factorization of [G]
    ([Engine.Ac]). They index the matrices' flat store directly, with
    no bounds checks inside the loops (every index is below the size
    checked on entry), so factoring and solving allocate nothing. *)

exception Singular of { pivot_index : int; magnitude : float }
(** Raised when elimination meets a pivot that is zero, non-finite or
    below the tiny-pivot floor (1e-300), or when the finished
    factorization's reciprocal-condition estimate falls below
    [Guard.rcond_min]. [pivot_index] is the offending column (the
    weakest pivot for the floor), [magnitude] the absolute pivot
    value. *)

type t
(** A factorization [P*A = L*U] of a square matrix; also the
    caller-owned workspace that {!factor_into} overwrites, so time
    steppers can re-factor every step without allocating. *)

val workspace : int -> t
(** [workspace n] preallocates buffers for [n×n] factorizations. The
    contents are meaningless until the first {!factor_into}. *)

val factor_into : t -> Mat.t -> unit
(** [factor_into ws a] factors [a] into [ws], fully overwriting any
    previous factorization; [a] is left untouched. Raises {!Singular}
    if rank-deficient or when {!rcond_estimate} of the result falls
    below [Guard.rcond_min]. Hosts the ["lu.pivot_zero"] fault probe,
    one invocation per call. Performs the same floating-point operations
    as {!factor}. *)

val factor : Mat.t -> t
(** Factorize a square matrix; raises {!Singular} as {!factor_into}. *)

val rcond_estimate : t -> float
(** Diagonal-ratio reciprocal-condition proxy of a finished
    factorization: [min |U_ii| / max |U_ii|], in [0, 1]; 0 when the
    diagonal is degenerate or non-finite. *)

val solve_into : t -> Vec.t -> Vec.t -> unit
(** [solve_into f b x] writes the solution of [A x = b] into the
    caller-owned [x]. [b] and [x] must be distinct buffers. *)

val solve : t -> Vec.t -> Vec.t
(** Solve [A x = b] using the factorization. *)

val solve_mat_into : t -> Mat.t -> Mat.t -> unit
(** [solve_mat_into f b x] writes the solution of [A X = B] into the
    caller-owned [x] (same shape as [b], distinct from it). Every column
    gets exactly the floating-point operations of {!solve_into}. *)

val det : t -> float
val solve_system : Mat.t -> Vec.t -> Vec.t
(** One-shot [factor] + [solve]. *)

val inverse : Mat.t -> Mat.t
