(** Time-domain Recursive Vector Fitting — Algorithm 1 of the paper.

    Takes a TFT dataset, splits it into the static DC path and the
    dynamic remainder, fits common frequency poles across all trajectory
    samples, then fits every residue coefficient trace over the state
    estimator with a second (state-space) VF pass, integrates the residue
    functions in closed form, and assembles a parallel Hammerstein model. *)

module Ratfn = Ratfn
module Assemble = Assemble
module Recursion = Recursion

type config = {
  eps : float;  (** the paper's ε error bound (relative, see below) *)
  freq_opts : Vf.Vfit.opts;
  state_opts : Vf.Vfit.opts;
  freq_start : int;
  freq_step : int;
  max_freq_poles : int;
  state_start : int;
  state_step : int;
  max_state_poles : int;
  include_dc_point : bool;
      (** add s = 0 (where the dynamic part vanishes exactly) to the
          frequency grid to pin the model's DC behaviour *)
  min_imag_fraction : float;
      (** minimum state-pole imaginary part as a fraction of the state
          range (keeps the closed-form integrals singularity-free) *)
}

val default_config : config
(** ε = 1e−3, matching the paper's experiment. Error tolerances are
    interpreted relative to the RMS magnitude of the data being fitted
    at each stage. *)

type result = {
  model : Hammerstein.Hmodel.t;
  freq_model : Vf.Model.t;  (** elements = trajectory samples *)
  freq_info : Vf.Vfit.info;
  residue_model : Vf.Model.t;  (** elements = residue coefficient traces *)
  residue_info : Vf.Vfit.info;
  static_model : Vf.Model.t;  (** one element: the DC conductance trace *)
  static_info : Vf.Vfit.info;
  x_range : float * float;
  x0 : float;  (** estimator coordinate of the DC starting sample *)
  y0 : float;  (** circuit DC output at the starting sample *)
  has_const : bool;
      (** the frequency stage carried a constant term, so the static
          path includes the integrated feedthrough trace *)
  build_seconds : float;  (** CPU time of the whole extraction *)
}

val extract :
  ?config:config ->
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?obs:Obs.t ->
  ?pool:Exec.t ->
  dataset:Tft.Dataset.t -> input:int -> output:int -> unit ->
  result
(** Requires a one-dimensional state estimator (the paper's validated
    case [x = u(t)]); multidimensional gridded recursion lives in
    {!Recursion}. Raises [Invalid_argument] on dimension mismatches.

    With [obs]: the three fitting stages ([rvf.frequency_stage],
    [rvf.state_stage], [rvf.static_stage]) as {!Obs.stage}s; the
    records of every {!Vf.Vfit.fit_auto} call (labels [vf.freq],
    [vf.state], [vf.static]); a per-residue-trace fit RMS stat
    ([rvf.residue_trace_rms]) and a note of each stage's settled pole
    count. [metrics] without [obs] records into that registry through a
    fresh hub. The state and static fits clamp relocated poles to 100
    times the largest magnitude in [x_range].

    The residue coefficient traces and the DC conductance trace are
    NaN/Inf-checked before fitting ([Guard.Violation] at sites
    [rvf.trace]/[rvf.static_trace]), on top of every VF stage's pole
    and model checks. Hosts the ["rvf.trace_nan"] fault probe (one
    invocation per extraction).

    With [pool], the three VF stages fan their independent per-element
    relocation blocks and residue fits across the warm pool; results are
    bit-identical to the sequential path. The pool is borrowed, never
    shut down here.

    With [cancel], the token threads into every VF stage (probed per
    escalation attempt and per relocation sweep);
    [Cancel.Cancelled]/[Cancel.Deadline_exceeded] propagate out of the
    extraction untouched. *)

val assemble_model :
  freq_model:Vf.Model.t ->
  residue_model:Vf.Model.t ->
  static_model:Vf.Model.t ->
  has_const:bool ->
  x0:float ->
  y0:float ->
  Hammerstein.Hmodel.t
(** Deterministic Hammerstein reassembly from the three fitted VF
    models — the final step of {!extract}, exposed so a checkpointed fit
    artifact (the serialized models plus [x0]/[y0]/[has_const]) can be
    rebuilt into the identical analytical model on resume. *)

(** {2 Shared frequency stage}

    The CAFFEINE baseline replaces only the residue regression; it reuses
    this frequency-pole stage. *)

type freq_stage = {
  fs_model : Vf.Model.t;  (** common-pole fit; elements = trajectory samples *)
  fs_info : Vf.Vfit.info;
  xs : float array;  (** state-estimator coordinate per sample *)
  x_lo : float;
  x_hi : float;
  x0 : float;  (** estimator coordinate of the DC starting sample *)
  y0 : float;  (** circuit DC output at the starting sample *)
  dc : float array;  (** DC conductance trace H(x, 0) *)
}

val frequency_stage :
  ?config:config ->
  ?cancel:Cancel.t ->
  ?obs:Obs.t ->
  ?pool:Exec.t ->
  dataset:Tft.Dataset.t -> input:int -> output:int -> unit ->
  freq_stage
