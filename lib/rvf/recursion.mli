(** Multivariate Recursive Vector Fitting on gridded data — eq. (16).

    The paper's recursion reduces the dimension of the approximation
    problem by one per step: the data is fitted along one variable with a
    common pole set, and every resulting coefficient trace is fitted
    along the next variable, recursively. The validated circuit example
    uses a one-dimensional estimator ([x = u(t)], handled by {!Rvf});
    this module implements the genuinely recursive two-variable case on a
    tensor grid, which is how the parametric-macromodeling ancestors of
    the method (refs. [6], [10]) consume design-parameter sweeps.

    The fitted surface is

    [f̂(x, y) = Σ_p c_p(y)·φ_p(x) + d(y)]

    with [φ_p] the real partial-fraction basis over the common x-poles
    and every coefficient [c_p(·)] and [d(·)] itself a fitted rational
    function of [y] sharing common y-poles. *)

type t

val x_pole_count : t -> int
val y_pole_count : t -> int

val fit :
  ?eps:float ->
  ?max_x_poles:int ->
  ?max_y_poles:int ->
  ?cancel:Cancel.t ->
  ?obs:Obs.t ->
  xs:float array ->
  ys:float array ->
  data:float array array ->
  unit ->
  t
(** [fit ~xs ~ys ~data ()] fits [data.(i).(j) ≈ f(xs.(i), ys.(j))].
    [eps] (default 1e−3) is the relative RMS target per stage.

    With [obs], each of the two recursion stages ([recursion.x_stage],
    [recursion.y_stage]) is an {!Obs.stage}, the hub threads into both
    {!Vf.Vfit.fit_auto} passes (labels [recursion.x], [recursion.y]),
    so the nested fits' pole trajectories land in the convergence
    stream with their recursion-level labels, and notes record the
    recursion depth and settled pole count per variable. *)

val eval : t -> x:float -> y:float -> float

val rms_error : t -> xs:float array -> ys:float array -> data:float array array -> float

val integral_x : t -> x0:float -> x:float -> y:float -> float
(** Closed-form [∫_{x0}^{x} f̂(ξ, y) dξ]: the x-basis integrates to the
    ln/atan forms of eq. (19) while the y-dependent coefficients ride
    along — the nested analogue of the Hammerstein static stages. *)
