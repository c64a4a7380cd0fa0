(** Real rational residue functions and their closed-form antiderivatives.

    A state-domain VF model element is
    [r(x) = d + Σ_m (2c₁(x−β) − 2c₂α) / ((x−β)² + α²)]
    (conjugate pole pairs [β ± jα] — the paper's "complex pairs with a
    real part of opposite sign" in the [jx] variable). Its indefinite
    integral is compact and always exists (eq. (19) of the paper):

    [f(x) = d·x + Σ_m (c₁·ln((x−β)² + α²) − 2c₂·atan((x−β)/α)) + C]

    This closed form is what makes the RVF flow fully automated, in
    contrast to CAFFEINE's evolved expressions. *)

type pair_term = { beta : float; alpha : float; c1 : float; c2 : float }

type t = {
  pairs : pair_term array;
  const : float;  (** the constant term [d] of r(x) *)
  offset : float;  (** integration constant [C] of f(x) *)
}

exception Not_integrable of string
(** Raised by {!of_model} when the element has real poles on the state
    axis (the basis integral then has a singularity in range) or a slope
    term. *)

val of_model : Vf.Model.t -> elem:int -> t
(** The closed form of one model element. Raises [Guard.Violation] at
    site ["rvf.ratfn"] when the element's slope, constant or
    coefficients are not finite, before any structural test, and
    {!Not_integrable} otherwise as described above. *)

val deriv : t -> float -> float
(** r(x). *)

val eval : t -> float -> float
(** f(x). *)

val set_value : t -> at:float -> value:float -> t
(** Pick the integration constant so that [f(at) = value] — the "constant
    found using the DC solution at t = 0". *)

val formula : t -> string
(** Human-readable analytical expression of f(x). *)

val to_static_fn : t -> Hammerstein.Static_fn.t
