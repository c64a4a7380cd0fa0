(** Genetic programming over canonical-form expressions.

    GP evolves the term structure only; the linear weights of each
    candidate (one per term plus a constant) are fitted by least squares
    at every evaluation, as in CAFFEINE [7]. Deterministic given the
    seed. *)

type params = {
  population : int;
  generations : int;
  tournament : int;
  max_terms : int;
  max_factors : int;
  complexity_penalty : float;
      (** relative fitness penalty per complexity unit *)
  seed : int;
}

val default_params : params

type fitted = {
  terms : Cexpr.term array;
  weights : float array;  (** [weights.(0)] is the constant; then one per term *)
  rmse : float;  (** absolute RMS deviation on the training samples *)
  rmse_rel : float;  (** relative to the RMS of the data *)
  generations_run : int;
}

val eval : fitted -> float -> float

val fit : ?params:params -> xs:float array -> ys:float array -> unit -> fitted
(** Evolve an expression fitting [ys.(k) ≈ f(xs.(k))]. *)
