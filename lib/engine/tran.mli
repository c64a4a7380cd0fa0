(** Nonlinear transient analysis with snapshot capture.

    This replaces the role of the commercial simulator in the paper's
    flow: it integrates [d/dt q(v) + i(v) = s(t)] and, at selected
    accepted time points, records the converged state [x(t_k)] with
    [u_k] and [y_k]. The linearization [(G_k, C_k)] that the TFT
    transform consumes is a function of that state alone: consumers
    stamp it with {!Mna.eval} (dense) or {!Mna.eval_sparse}, which
    reproduces the bits the step's last evaluation held. *)

type integration = Backward_euler | Trapezoidal

type opts = {
  integration : integration;  (** default [Trapezoidal] *)
  snapshot_every : int;
      (** record a snapshot every n-th accepted step; 0 disables (default 0) *)
  newton : Dc.opts;
}

val default_opts : opts

type snapshot = {
  time : float;
  state : Linalg.Vec.t;  (** converged unknown vector *)
  inputs : Linalg.Vec.t;  (** u(t_k) of the designated inputs *)
  outputs : Linalg.Vec.t;  (** y(t_k) = Dᵀ v *)
}

type result = {
  times : float array;
  states : Linalg.Vec.t array;
  outputs : Linalg.Mat.t;  (** (steps+1) × n_outputs *)
  snapshots : snapshot array;
  newton_iterations : int;
      (** total Newton iterations actually run across all accepted
          steps (not the step count) *)
  be_fallbacks : int;
      (** trapezoidal steps that retreated to backward Euler
          (always 0 for {!run_adaptive} and pure-BE runs) *)
  step_rejections : int;
      (** rejected step attempts of {!run_adaptive}; for fixed-step
          {!run} this counts step-halving retries *)
}

val run :
  ?opts:opts ->
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?obs:Obs.t ->
  ?initial:Linalg.Vec.t ->
  ?backend:Mna.backend ->
  Mna.t ->
  t_stop:float ->
  dt:float ->
  result
(** Fixed-step integration from a DC solution at [t = 0] (or [initial]).
    Raises {!Dc.No_convergence} if a step fails even after an internal
    retreat to backward Euler for that step. When a trapezoidal step
    does retreat, the charge-derivative estimate for that step uses the
    backward-Euler difference quotient (matching the integrator that
    actually produced the step) so subsequent trapezoidal steps are not
    poisoned by a stale [qdot]. With [obs]: a [tran.run] span over one
    [tran.step] span per step (its Newton iteration count and fallback
    flag as arguments); the [tran.steps], [tran.newton_iterations] and
    [tran.be_fallbacks] counters; a warning per fallback; the
    [tran.newton_iters_per_step] histogram; and the records of the
    inner {!Dc} solves. [metrics] without [obs] records into that
    registry through a fresh hub. A step that fails even the
    backward-Euler retreat is re-integrated as [2^j] backward-Euler
    substeps for [j = 1 .. Guard.max_step_halvings] before giving up
    ([tran.step_halvings] counts the attempts); the qdot estimate for
    such a step uses the backward-Euler difference quotient over the
    whole step, as for an ordinary fallback. Hosts the
    ["tran.newton_diverge"] fault probe (one invocation per step
    attempt, including the backward-Euler retreat) and the hang-class
    ["tran.stall"] site. With [cancel], every step probes the token
    (site ["tran.step"]) before integrating, as does every inner
    Newton iteration.

    Every Newton system of the run (DC operating point and each time
    step) goes through one {!Dc.workspace} of [backend] (default
    [Dense]), allocated up front: with [Sparse] it assembles into the
    compiled CSC pattern and factors with {!Linalg.Splu}, compiling the
    pattern once per run. q and q̇ are double-buffered, so a step
    allocates its stored state vector and a few constant-size records,
    nothing that grows with the circuit besides. *)

val output_waveform : result -> int -> Signal.Waveform.t
(** Extract output channel [j] as a waveform. *)

val run_adaptive :
  ?opts:opts ->
  ?cancel:Cancel.t ->
  ?obs:Obs.t ->
  ?initial:Linalg.Vec.t ->
  ?reltol:float ->
  ?abstol:float ->
  ?dt_min:float ->
  ?dt_max:float ->
  ?backend:Mna.backend ->
  Mna.t ->
  t_stop:float ->
  dt:float ->
  result
(** Variable-step trapezoidal integration with a predictor–corrector
    local-error estimate (forward-Euler predictor vs trapezoidal
    corrector): steps shrink through fast transitions and stretch across
    quiet intervals. [dt] is the initial step; [reltol]/[abstol]
    (defaults 1e-3 / 1e-6) bound the per-step estimate; [dt_min]
    defaults to [dt/1e6] and [dt_max] to [50·dt]. Snapshots are captured
    on accepted steps, and the Newton systems share one workspace, as
    in {!run}. With [obs], records as {!run} does,
    with a [tran.run_adaptive] span and no per-step spans; rejected
    attempts count in [tran.step_rejections]. *)
