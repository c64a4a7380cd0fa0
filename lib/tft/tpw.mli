(** Trajectory piecewise (TPW) baseline — the prior art the paper's
    introduction argues against (refs. [1], [2]).

    A TPW model is "a large database of ... circuit snapshots that are
    interpolated during model evaluation": it keeps every training
    linearization [(x_k, v_k, G_k, C_k)] and simulates by interpolating
    between the two snapshots bracketing the current input. Contrast
    with the RVF result, which compresses the same snapshots into a
    handful of analytical equations and needs no database at runtime.

    Restricted to quasi-static training trajectories (the same
    low-frequency pump the TFT flow uses), where the snapshot residual
    [dq/dt] is negligible, and to piecewise-DC auxiliary sources. *)

type t

val build : mna:Engine.Mna.t -> Engine.Tran.snapshot array -> t
(** Index the snapshots by the first input value, stamping each one's
    [(G_k, C_k)] from its state with {!Engine.Mna.eval}. Requires ≥ 2
    finite snapshots and a SISO input/output configuration. Snapshots
    with non-finite state, inputs or stamped Jacobians are dropped
    before indexing; interpolation repair does not apply here because
    the database is re-ordered by input value. *)

val size_in_floats : t -> int
(** Storage footprint of the snapshot database (floats held at runtime) —
    the "large database" cost of the TPW approach. *)

val simulate :
  t ->
  u:(float -> float) ->
  t_stop:float ->
  dt:float ->
  Signal.Waveform.t
(** Trapezoidal integration of the interpolated linearized dynamics; one
    [n×n] LU solve per step (no Newton iteration, but no model-order
    reduction either). Each step's factorization gets the
    [Guard.rcond_min] floor ({!Linalg.Lu.Singular}) and each solve a
    NaN/Inf sentinel ([Guard.Violation] at site ["tpw.simulate"]). *)
