(** Eigenvalues of dense real (generally unsymmetric) matrices.

    Pipeline: Parlett–Reinsch balancing → Householder reduction to upper
    Hessenberg form → Francis implicit double-shift QR iteration. Only
    eigenvalues are computed; this is all vector-fitting pole relocation
    needs (new poles = eigenvalues of [A − b·c̃ᵀ/d̃]). The Hessenberg
    reduction is also the per-snapshot step of the dense frequency
    sweep ([Engine.Ac]), which asks it to accumulate Q. All three
    stages run in place on the flat row-major store of one copy of the
    input, so {!eigenvalues} allocates that copy, a few n-vectors and
    its result, and boxes no float. *)

exception No_convergence
(** Raised when the QR iteration fails to deflate within the iteration
    budget (extremely rare on balanced matrices). *)

val hessenberg_into : ?q:Mat.t -> Mat.t -> unit
(** [hessenberg_into ?q a] overwrites the square [a] with its upper
    Hessenberg form [H] by Householder similarity reflections (about
    (10/3)n³ flops), indexing the flat store without allocating beyond
    one n-vector. With [q] (n×n, overwritten), also accumulates the
    orthogonal factor (about n³ more), so that the original [a] equals
    [Q·H·Qᵀ]. The frequency sweeps of [Engine.Ac] reduce [G⁻¹C] with
    it; {!eigenvalues} runs the same kernel, so its results do not
    depend on whether [q] is requested. *)

val hessenberg : Mat.t -> Mat.t
(** [hessenberg_into] on a copy. *)

val eigenvalues : Mat.t -> Cx.t array
(** Eigenvalues of a square real matrix, in no particular order. Complex
    eigenvalues appear in conjugate pairs. *)

val poly_roots : float array -> Cx.t array
(** Roots of a polynomial given coefficients in increasing-degree order
    [[|a0; a1; ...; an|]] (with [an <> 0]). *)
