(** LU factorization with partial pivoting for dense complex matrices.

    One factorization of the MNA pencil [G + s·C] per grid point is the
    reference algorithm for [(G + s·C)⁻¹ B]: [Engine.Ac] answers short
    sweeps and single points with it, falls back to it wherever its
    Hessenberg sweep cannot certify a point, and checks that sweep
    against it; [Engine.Ratkrylov]'s small projected pencils reach it
    through [Engine.Ac] the same way.

    The factorization state doubles as a reusable workspace that
    {!factor_into} overwrites. [factor] and [solve] are thin wrappers
    over the [_into] kernels and perform bit-identical floating-point
    operations. Storage is boxed [Complex.t], so every update
    allocates. *)

exception Singular of { pivot_index : int; magnitude : float }
(** Raised when elimination meets a pivot whose norm is zero,
    non-finite or below the tiny-pivot floor (1e-300). *)

type t
(** A factorization [P*A = L*U]; also the caller-owned workspace that
    {!factor_into} overwrites. *)

val workspace : int -> t
(** [workspace n] preallocates buffers for [n×n] factorizations. The
    contents are meaningless until the first {!factor_into}. *)

val factor_into : t -> Cmat.t -> unit
(** [factor_into ws a] factors [a] into [ws], fully overwriting any
    previous factorization. [a] is left untouched. Raises {!Singular}
    on a zero or non-finite pivot and [Invalid_argument] if [ws] was
    created for a different size. Hosts the ["clu.pivot_zero"] fault
    probe. *)

val factor : Cmat.t -> t
(** [factor a] is [factor_into] on a fresh workspace. *)

val rcond_estimate : t -> float
(** Diagonal-ratio reciprocal-condition proxy of a finished
    factorization: [min |U_ii| / max |U_ii|], in [0, 1]; 0 when the
    diagonal is degenerate or non-finite. *)

val solve_into : t -> Cmat.vec -> Cmat.vec -> unit
(** [solve_into f b x] writes the solution of [A x = b] into the
    caller-owned [x]. [b] and [x] must be distinct buffers; [b] is left
    untouched. *)

val solve : t -> Cmat.vec -> Cmat.vec
(** Allocating wrapper over {!solve_into}. *)

val solve_system : Cmat.t -> Cmat.vec -> Cmat.vec
(** One-shot [factor] + [solve]. *)
