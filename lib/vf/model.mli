(** Fitted pole–residue models (possibly vector-valued: one residue set
    per element sharing a common pole set). *)

type t = {
  poles : Complex.t array;  (** normalized layout, see {!Pole} *)
  coeffs : float array array;  (** per element: real basis coefficients *)
  consts : float array;  (** per element: constant term [d] *)
  slopes : float array;  (** per element: linear term [h·z] *)
}

val n_elements : t -> int
val n_poles : t -> int

val eval : t -> elem:int -> Complex.t -> Complex.t
(** [d + h·z + Σ_p c_p φ_p(z)]. *)

val eval_real : t -> elem:int -> float -> float
(** Evaluate at a real point (state-space use); the result of a real
    model at a real point is real up to roundoff, the real part is
    returned. *)

val residues : t -> elem:int -> Complex.t array
(** Complex residues per pole slot for one element. *)

val errors :
  t -> points:Complex.t array -> data:Complex.t array array -> float * float
(** [(rms, max)]: the root-mean-square and the largest absolute
    deviation over all elements and points, from one evaluation pass
    (the basis is evaluated once per point). *)
