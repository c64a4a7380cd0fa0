(** Relaxed Vector Fitting with common poles across many elements.

    This is the regression engine used twice by the paper's flow: once on
    the frequency axis (elements = trajectory samples [k], points
    [z = jω_l]) and once on the state-space axis (elements = residue
    trajectories, points [z = x_k] real) — "both frequency and
    state-dependent data is fitted using the same regression engine".

    Implementation notes: the pole-identification step uses the relaxed
    nontriviality constraint of Gustavsen (2006) and the fast per-element
    QR condensation of Deschrijver et al. (2008), ref. [9] of the paper.
    Pole relocation computes the zeros of the weighting function σ as
    eigenvalues of [A − b·c̃ᵀ/d̃]. *)

type weighting = Uniform | Inv_magnitude | Inv_sqrt

type relocation_kernel =
  | Dense
      (** the reference: per-element systems in the full row layout (a
          real and an imaginary row per point), freshly allocated and
          factored with the copying QR entry points, and per-element
          [Qr.least_squares] residue identification *)
  | Fast
      (** default: in-place workspace QR of [phi0 | −D·phi1] per element
          keeping only the [R22]/[Q2ᵀV] blocks, with the shared [phi0]
          factorization hoisted out of the element loop under uniform
          weighting. When every point, data value and basis entry is
          real (the state and static stages), the blocks keep their
          pivot rows and drop the all-zero imaginary rows below them;
          under uniform weighting the residue identification factors
          its matrix once for all elements. Bit-identical results to
          [Dense], several times faster, and the per-element blocks fan
          out across a pool. *)

type opts = {
  iterations : int;  (** pole-relocation sweeps (default 10) *)
  with_const : bool;  (** include a constant term d per element *)
  with_slope : bool;  (** include a linear term h·z per element *)
  enforce_stable : bool;  (** reflect poles into the left half plane *)
  min_imag : float;  (** > 0 forbids real poles (state-space mode) *)
  relax : bool;  (** relaxed σ normalization *)
  weighting : weighting;
  max_magnitude : float;
      (** clamp relocated poles to this modulus (0 disables); keeps
          runaway spurious poles from leaving the sampled band *)
  relocation_kernel : relocation_kernel;
      (** which sigma-step implementation relocation uses (default
          [Fast]; [Dense] kept for differential testing) *)
}

val default_frequency_opts : opts
(** Stable poles enforced, inverse-square-root weighting, and a constant
    term per element: the dynamic TFT part [H(s) − H(0)] tends to
    [−H(0) ≠ 0] as [s → ∞], so a state-dependent direct feedthrough
    [d(x)] is required (its integral is folded into the model's static
    path). *)

val default_state_opts : opts
(** Real poles forbidden (min_imag set per-fit from the data range),
    constant term enabled, uniform weighting. *)

type info = {
  rms : float;  (** unweighted absolute RMS deviation *)
  max_err : float;
  iterations_run : int;
  pole_count : int;
}

val fit :
  ?opts:opts ->
  ?cancel:Cancel.t ->
  ?obs:Obs.t ->
  ?pool:Exec.t ->
  ?label:string ->
  poles:Complex.t array ->
  points:Complex.t array ->
  data:Complex.t array array ->
  unit ->
  Model.t * info
(** [fit ~poles ~points ~data ()] fits [data.(e).(l) ≈ model_e(points.(l))]
    with common poles, starting the relocation from [poles].
    Requires [2·length points ≥ unknowns].

    With [obs]: a [vf.fit] span over one [vf.relocate] span per
    relocation sweep. Names are prefixed by [label] (default
    ["vfit"]). Each sweep records the sigma RMS ([<label>.sigma_rms],
    the non-constant part of σ — goes to zero as the poles converge),
    the column-scale spread conditioning proxy
    ([<label>.column_scale_spread]) and the number of relocated poles
    reflected into the left half plane ([<label>.unstable_pole_flips]);
    a [vf_iteration] event with the relocated pole set and the sweep
    telemetry; and with the fast kernel a ["vf.sigma_qr"] rcond sample.
    The final fit RMS lands in [<label>.fit_rms].

    The relocated poles are checked after the sweeps: non-finite poles
    or a pole whose modulus exceeds [Guard.max_pole_growth] times the
    largest fit point raise [Guard.Violation] (site [<label>.poles]); a
    right-half-plane pole under [enforce_stable] is repaired by
    reflection ([<label>.guard_stabilized] counter plus a warning), and
    a non-finite identified model raises at site [<label>.model]. Hosts
    the ["vf.pole_flip"] fault probe (one invocation per relocation
    sweep) and the hang-class ["vf.spin"] site. With [cancel], every
    relocation sweep probes the token (site ["vf.relocate"]).

    With [pool], the independent per-element blocks of each sigma step
    and the per-element residue fits fan out across the warm pool;
    elements write disjoint rows of the condensed system, so results
    stay bit-identical to the sequential path. *)

val fit_auto :
  ?opts:opts ->
  ?cancel:Cancel.t ->
  ?obs:Obs.t ->
  ?pool:Exec.t ->
  ?label:string ->
  make_poles:(int -> Complex.t array) ->
  ?start:int ->
  ?step:int ->
  ?max_poles:int ->
  tol:float ->
  points:Complex.t array ->
  data:Complex.t array array ->
  unit ->
  Model.t * info
(** Escalate the pole count ([start], [start+step], …) until the RMS
    error drops below [tol] (Algorithm 1's "while error > ε: P ← P+2").
    Returns the first model meeting the tolerance, or the best one found
    if [max_poles] is exhausted.

    Raises [Invalid_argument] when no pole count yields a model at all;
    the message (and, with [obs], an [error] event) carries the last
    per-attempt failure reason instead of a bare "no successful fit".
    With [obs]: a [vf.fit_auto] span; the attempt count
    ([<label>.attempts]); the settled pole count and RMS
    ([<label>.settled_poles] note, [<label>.settled_rms] histogram); a
    [vf_attempt] event per completed attempt and a [vf_settled] event.
    A per-attempt [Guard.Violation] is recorded
    ([<label>.guard_violations] counter, plus a [violation] event) and
    the escalation continues to the next pole count instead of giving
    up. With [cancel], the token is probed
    before every attempt (site ["vf.fit_auto"]) and inside each fit;
    [Cancel.Cancelled]/[Cancel.Deadline_exceeded] abort the escalation
    rather than being swallowed as attempt failures. *)
