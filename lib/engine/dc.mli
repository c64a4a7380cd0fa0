(** DC operating-point solver: damped Newton–Raphson with gmin stepping,
    and the Newton solve of each transient step.

    One Newton loop serves the DC solve and every transient step on
    both MNA backends: one contraction test, step limit, gmin rule, set
    of fault probes and set of telemetry records. Only the storage of
    the Newton pencil and its LU differ, and a {!ws} holds both. *)

type opts = {
  max_iter : int;  (** Newton iterations per gmin level (default 100) *)
  abstol : float;  (** residual infinity-norm tolerance (default 1e-9) *)
  vtol : float;  (** update infinity-norm tolerance (default 1e-9) *)
  dv_max : float;  (** per-iteration update clamp (default 1.0 V) *)
  gmin_final : float;  (** conductance to ground left in place (default 1e-12) *)
}

val default_opts : opts

exception No_convergence of string

type ws
(** One system's Newton workspace: the {!Mna.assembly} every evaluation
    refills in place, the pencil buffer and two LU workspaces
    ({!Linalg.Lu} on the dense backend and {!Linalg.Splu} on the sparse
    one, where both share one cached fill-reducing ordering), what each
    of them holds, the diagonal slots gmin lands in and the Newton
    vectors. A Newton iteration allocates nothing that grows with the
    circuit. Build one per system and share it across its DC solve and
    transient steps; it is not safe to share across domains.

    {b Blending.} The pencil is J = G + α·C (G itself in DC) plus gmin
    on the node diagonal. Outside {!Mna.varying_slots} G and C never
    change, so there J is a function of the (α, gmin) bits alone: an
    iteration blends every slot only when (α, gmin) differs from the
    last full blend, and otherwise only the varying slots. Either way
    each slot holds the bits of a full blend.

    {b Pencil reuse.} The workspace holds the last two factored pencils.
    After blending J an iteration compares it with each, the newest
    first, stopping at the first difference: under the held pencil's
    (α, gmin) only the varying slots can differ, so on a linear circuit
    the test is O(1); under another (α, gmin), which can round to the
    same J, every slot is compared, and on a match the held pencil takes
    the new (α, gmin). On a match it skips the factorization, whose
    result would be the held one bit for bit: a factorization is a
    deterministic function of its input bits, and a held one has passed
    the rcond floor. Otherwise it factors J into the older of the two. A
    factorization that raises (a real or injected singular pivot, or
    the floor) clears its slot, so it is never reused. A fixed-step
    transient alternates between two rounded step sizes, so two held
    pencils serve a linear circuit for all but a few steps; nonlinear
    devices change J on every iteration. *)

val workspace : backend:Mna.backend -> Mna.t -> ws
(** Allocate a workspace; on the sparse backend this compiles the
    system's sparsity pattern. *)

val solve :
  ?opts:opts ->
  ?cancel:Cancel.t ->
  ?obs:Obs.t ->
  ?initial:Linalg.Vec.t ->
  ?time:float ->
  ?backend:Mna.backend ->
  Mna.t ->
  Linalg.Vec.t
(** Solve [i(v) = s(time)] (capacitors open, inductors short) through a
    fresh {!workspace} of [backend] (default [Dense]): {!solve_ws}. *)

val solve_ws :
  ?opts:opts ->
  ?cancel:Cancel.t ->
  ?obs:Obs.t ->
  ?initial:Linalg.Vec.t ->
  ?time:float ->
  ws ->
  Linalg.Vec.t
(** Solve [i(v) = s(time)] in the given workspace. The Newton Jacobian
    is [G] itself. Applies gmin stepping automatically when plain Newton
    fails. Raises {!No_convergence} when even the stepped continuation
    fails. With [obs]: a [dc.solve] span; the [dc.newton_iterations]
    counter (every Newton iteration, across all gmin levels) and the
    [dc.gmin_levels]/[dc.gmin_continuations] counters; the
    [dc.lu_factor_ns] histogram and a ["dc.lu"] rcond event once per
    LU factorization, and the [dc.lu_solve_ns] histogram once per solve;
    the [dc.lu_reuses] counter once per iteration that reused a held
    factorization instead, so the [dc.lu_factor_ns] samples plus
    [dc.lu_reuses] equal [dc.newton_iterations]. A Jacobian
    factorization below the [Guard.rcond_min] floor counts as a failed
    Newton run, and the returned operating point passes a NaN/Inf
    sentinel ([Guard.Violation] at site ["dc.solve"]). Hosts the
    ["dc.newton_diverge"] fault probe (one invocation per Newton run; a
    firing reports divergence, engaging gmin stepping). With [cancel],
    every Newton iteration probes the token (site ["dc.newton"]). *)

val newton_dynamic :
  ?opts:opts ->
  ?cancel:Cancel.t ->
  ?obs:Obs.t ->
  ws ->
  time:float ->
  alpha:float ->
  q_prev:Linalg.Vec.t ->
  qdot_term:Linalg.Vec.t ->
  initial:Linalg.Vec.t ->
  q_out:Linalg.Vec.t ->
  unit ->
  Linalg.Vec.t * int
(** Newton solve of the discretized transient equation
    [i(v) − s(t) + alpha·(q(v) − q_prev) − qdot_term = 0], with
    Jacobian [G + alpha·C]; shared by the integration methods in
    {!Tran}. Returns the solution, a fresh vector no later call
    touches, and the number of Newton iterations actually run, and
    writes the charge vector [q] at the solution into [q_out] (which
    must not alias [q_prev] or [qdot_term]; it is written only on
    success). The rcond floor, the fault probe and the sentinel (site
    ["dc.newton_dynamic"]) apply as in {!solve_ws}. With [obs], records
    as {!solve_ws} does apart from the span; on {!No_convergence} the
    iterations spent on the failed attempt are still counted
    ([dc.newton_iterations]). *)
