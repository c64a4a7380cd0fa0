(** DC operating-point solver: damped Newton–Raphson with gmin stepping. *)

type opts = {
  max_iter : int;  (** Newton iterations per gmin level (default 100) *)
  abstol : float;  (** residual infinity-norm tolerance (default 1e-9) *)
  vtol : float;  (** update infinity-norm tolerance (default 1e-9) *)
  dv_max : float;  (** per-iteration update clamp (default 1.0 V) *)
  gmin_final : float;  (** conductance to ground left in place (default 1e-12) *)
}

val default_opts : opts

exception No_convergence of string

type sparse_ws
(** Reusable state for the sparse Newton backend: assembly context,
    Newton pencil value buffer, sparse LU workspace (with its cached
    fill-reducing ordering) and the diagonal slots gmin lands in. Build
    one per system and share it across DC solves and transient steps. *)

val sparse_ws : ?ctx:Mna.sparse_ctx -> Mna.t -> sparse_ws
(** Compile a sparse workspace, reusing [ctx] when provided. *)

val solve :
  ?opts:opts ->
  ?cancel:Cancel.t ->
  ?obs:Obs.t ->
  ?initial:Linalg.Vec.t ->
  ?time:float ->
  ?backend:Mna.backend ->
  ?sparse:sparse_ws ->
  Mna.t ->
  Linalg.Vec.t
(** Solve [i(v) = s(time)] (capacitors open, inductors short). Applies
    gmin stepping automatically when plain Newton fails. Raises
    {!No_convergence} when even the stepped continuation fails.
    With [obs]: a [dc.solve] span; the [dc.newton_iterations] counter
    (every Newton iteration, across all gmin levels) and the Diag-only
    [dc.gmin_levels]/[dc.gmin_continuations]; the
    [dc.lu_factor_ns]/[dc.lu_solve_ns] histograms; a ["dc.lu"] rcond
    event per LU factorization. A Jacobian factorization below the
    [Guard.rcond_min] floor counts as a failed Newton run, and the
    returned operating point passes a NaN/Inf sentinel
    ([Guard.Violation] at site ["dc.solve"]). Hosts the
    ["dc.newton_diverge"] fault probe (one invocation per Newton run; a
    firing reports divergence, engaging gmin stepping). With [cancel],
    every Newton iteration probes the token (site ["dc.newton"]).

    With [backend:Sparse], the Newton systems assemble into compiled
    CSC patterns and factor with {!Linalg.Splu}; [sparse] supplies a
    prebuilt workspace (one is compiled on the fly otherwise). The
    dense path is bit-identical to before the knob existed. *)

val newton_dynamic :
  ?opts:opts ->
  ?cancel:Cancel.t ->
  ?obs:Obs.t ->
  ?backend:Mna.backend ->
  ?sparse:sparse_ws ->
  mna:Mna.t ->
  time:float ->
  alpha:float ->
  q_prev:Linalg.Vec.t ->
  qdot_term:Linalg.Vec.t ->
  initial:Linalg.Vec.t ->
  unit ->
  Linalg.Vec.t * Mna.eval * int
(** Newton solve of the discretized transient equation
    [i(v) − s(t) + alpha·(q(v) − q_prev) − qdot_term = 0]; shared by the
    integration methods in {!Tran}. Returns the solution, the final
    evaluation at the solution (with dense Jacobians on the dense
    backend, residual pieces only on the sparse one), and the number of
    Newton iterations actually run. The rcond floor and the sentinel
    (site ["dc.newton_dynamic"]) apply as in {!solve}. With [obs],
    records as {!solve} does apart from the span; on {!No_convergence}
    the iterations spent on the failed attempt are still counted
    ([dc.newton_iterations]). *)
