(** Canonical-form expressions for the CAFFEINE baseline [7].

    CAFFEINE restricts genetic programming to a canonical form: a
    weighted sum of product terms, each term a product of basis factors.
    The linear weights are found by least squares; GP only evolves the
    term structure. This module provides the term algebra, evaluation,
    and the (partial) symbolic integration that decides whether a model
    can be automated — the paper's Table I "Fully Automated: NO" comes
    from terms whose indefinite integral has no closed form here. *)

type factor =
  | Power of int  (** x^n, n ≥ 1 *)
  | Exponential of float  (** exp(c·x) *)
  | Tanh of float * float  (** tanh(a·(x − b)) *)
  | Gauss of float * float  (** exp(−a·(x − b)²) *)

type term = factor list
(** A product of factors; the empty list is the constant 1. *)

val simplify : term -> term
(** Merge powers and exponentials, drop vacuous factors, sort factors
    into a canonical order. *)

val eval_term : term -> float -> float
val complexity : term -> int
(** Node count; the GP parsimony pressure uses the sum over terms. *)

val term_to_string : term -> string

val integrate_term : term -> (float -> float) option * string
(** Closed-form antiderivative of the term when one exists here:
    polynomials, [x^n·exp(cx)] (integration by parts), and a lone [tanh]
    ([ln cosh / a]). Mixed products and Gaussians return [None] — those
    terms require numeric integration and mark the model as not fully
    automated. The string describes the antiderivative (or explains the
    failure). *)
