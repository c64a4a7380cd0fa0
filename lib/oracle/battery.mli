(** The oracle battery: every analytical-reference check run in one
    sweep with machine-checkable tolerances and a schema-versioned JSON
    verdict.

    Each check compares a numerical path of the extraction stack against
    a closed form from {!Ladder} or {!Synth}:

    - ["rc-ac-closed-form"]: the AC pencil solve reproduces the RC
      ladder's exact [H(jω)] (and its exact DC gain of 1).
    - ["rlc-ac-closed-form"]: same against the RLC resonator's
      second-order section.
    - ["rc-tft-linear"]: a transient run + TFT transform of the linear
      ladder yields the exact transfer function at {e every} snapshot
      (state-independence included), and vector fitting on that TFT
      data recovers the closed-form poles and residues to ≤ 1e-8.
    - ["rlc-tft-vf"]: pole/residue recovery of the complex pair from
      TFT data of the resonator.
    - ["hammerstein-roundtrip"]: {!Synth.roundtrip} on the default
      generating parameters — frequency pair, state pair, transfer
      surface and DC curve all round-trip.
    - ["hammerstein-transient"]: the extracted model's transient under
      the paper-style training sine matches the generating system's.
    - ["vf-kernel-parity"]: the [Fast] and [Dense] relocation kernels
      return bit-identical models on a frequency-axis fit and on a
      real-axis fit of five residue traces at 24 poles (uniform
      weighting, so the real-axis row layout and the shared
      factorizations are compared).
    - ["pipeline-linear-model"]: the full pipeline front door
      ({!Tft_rvf.Pipeline.extract}) on the RC ladder produces a model
      whose validation transient tracks the circuit.
    - ["dense-tft-parity"]: at every snapshot of the buffer's Table I
      training run, the dense sweep (Hessenberg reduction, certified
      O(n²) points) matches one complex LU per grid point to ≤ 1e-12
      relative, every point's recomputed residual
      [‖(G + s·C)x − b‖/‖b‖] is ≤ 1e-12 with no point sent to the
      fallback, and [H(0)] from [G]'s LU equals the complex LU at
      [s = 0] exactly.
    - ["sparse-tft-parity"]: the sparse backend's TFT dataset of a
      diode-sprinkled RC grid (re-stamped CSC Jacobians, rational-Krylov
      sweeps) matches the dense backend's per-snapshot transfer
      trajectories to ≤ 1e-8 of the trajectory scale.
    - ["large-ladder-recovery"]: sparse DC solve + rational-Krylov sweep
      of a 1000-stage RC ladder reproduce the closed-form tridiagonal
      spectrum's transfer function and unit DC gain to ≤ 1e-8. The
      sweep runs on a pilot basis of the same pencil, as the TFT
      dataset's do, and fails when no grid point was answered by
      projection.

    A metric {e passes} iff [value <= bound] — NaN values fail, so a
    silently corrupted number can never pass a tolerance. *)

type metric = {
  metric : string;
  value : float;
  bound : float;  (** pass iff [value <= bound]; NaN values fail *)
}

type verdict = {
  check : string;
  seconds : float;  (** wall clock of the check ({!Clock}) *)
  metrics : metric list;
  error : string option;  (** an exception escaping the check body *)
}

val metric_passed : metric -> bool
val verdict_passed : verdict -> bool
val all_passed : verdict list -> bool

val run : ?quick:bool -> unit -> verdict list
(** Run the whole battery ([quick] shrinks grids and snapshot counts;
    bounds are identical in both modes). Checks never raise: a thrown
    exception lands in [error]. *)

val json : quick:bool -> verdict list -> string
(** Schema-versioned verdict document:
    [{"schema_version": 1, "kind": "oracle", "quick": bool,
    "passed": bool, "checks": [{"name", "passed", "seconds",
    "error"?, "metrics": [{"name", "value", "bound", "passed"}]}]}].
    Built on {!Minijson.emit}. *)

val summary : verdict list -> string
(** Human-readable one-line-per-check table. *)
