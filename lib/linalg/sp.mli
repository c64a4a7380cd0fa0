(** Compressed-sparse-column matrices.

    A {!pattern} is an immutable sparsity structure (CSC: column
    pointers plus row indices, rows strictly ascending within each
    column). Value storage is split off so the engine can compile a
    pattern once per circuit and refill values in place on every
    linearization: {!t} carries real values, {!ct} carries complex
    values as separate re/im arrays over the same pattern, which makes
    the AC pencil [G + s·C] an elementwise fill when [G] and [C] share
    a (union) pattern. *)

type pattern = private {
  nrows : int;
  ncols : int;
  colptr : int array;  (** length [ncols + 1] *)
  rowind : int array;  (** length [nnz]; ascending within each column *)
}

type t = { pat : pattern; v : float array }
type ct = { cpat : pattern; re : float array; im : float array }

val compile : nrows:int -> ncols:int -> (int * int) array -> pattern * int array
(** [compile ~nrows ~ncols occurrences] builds the deduplicated CSC
    pattern of the given [(row, col)] occurrence sequence and returns
    it with a slot map: entry [k] is the value index the [k]-th
    occurrence accumulates into. Duplicate occurrences share a slot.
    Raises [Invalid_argument] on out-of-range indices. *)

val nnz : pattern -> int

val create : pattern -> t
(** Zero-valued matrix over the pattern. *)

val get : t -> int -> int -> float
(** Entry [(r, c)]; 0 when outside the pattern. Logarithmic in the
    column's entry count. *)

val find : pattern -> int -> int -> int option
(** Value index of entry [(r, c)], if present. *)

val of_triplets : nrows:int -> ncols:int -> (int * int * float) array -> t
(** Duplicate triplets are summed. *)

val of_dense : ?drop:float -> Mat.t -> t
(** Pattern of entries with [|x| > drop] (default: exact nonzeros). *)

val mulv_into : t -> Vec.t -> Vec.t -> unit
(** [mulv_into a x y] sets [y := A·x]. [x] and [y] must not alias. *)

val mulv : t -> Vec.t -> Vec.t

val mindeg : pattern -> int array
(** Fill-reducing column ordering: greedy minimum degree on the
    symmetrized pattern of [A + Aᵀ]. Returns a permutation [q];
    eliminating columns in the order [q.(0), q.(1), …] keeps LU fill
    low. Requires a square pattern. *)

(** {1 Complex values over a shared pattern} *)

val ccreate : pattern -> ct

val pencil_into : ct -> t -> t -> Cx.t -> unit
(** [pencil_into dst g c s] fills [dst := g + s·c] elementwise. All
    three must share one pattern (physical equality), which is exactly
    what {!compile}-d union assembly produces. *)
