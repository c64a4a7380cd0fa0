(** Shifted upper-Hessenberg solves: [(I + s·H) y = b] for a real upper
    Hessenberg [H] and a complex shift [s], in O(n²) per factorization
    and per right-hand side.

    This is the per-point kernel of Laub's Hessenberg frequency response
    (used by [Engine.Ac]): once [G⁻¹C = Q·H·Qᵀ] has been reduced by
    {!Eig.hessenberg_into}, every grid point is one shifted Hessenberg
    solve. Partial pivoting only ever compares the two rows that share
    a subdiagonal column. Complex values are held as separate real and
    imaginary float arrays, so factorization and solve allocate
    nothing. *)

type t
(** The factorization of one [I + s·H]; also the caller-owned
    workspace that {!factor} overwrites. *)

val workspace : int -> t
(** [workspace n] preallocates buffers for [n×n] systems. *)

val factor : t -> Mat.t -> Complex.t -> bool
(** [factor ws h s] eliminates [I + s·h] into [ws]; only the entries of
    [h] on and above its subdiagonal are read. Returns [false] when a
    pivot is zero (below 1e-300 in |re| + |im|) or non-finite, leaving
    [ws] unusable for {!solve_into}. Hosts the ["clu.pivot_zero"] fault
    probe, which zeroes the first pivot. *)

val solve_into : t -> float array -> float array -> unit
(** [solve_into ws yre yim] overwrites [b = yre + i·yim] with the
    solution [y] of the factored system. *)

val rcond_estimate : t -> float
(** Diagonal-ratio reciprocal-condition proxy of a finished
    factorization, [min |U_ii| / max |U_ii|] in [0, 1], as
    [Lu.rcond_estimate]; 0 when the diagonal is degenerate. *)
