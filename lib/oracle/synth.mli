(** Synthetic Hammerstein oracle: a parallel Hammerstein system built
    from {e chosen} parameters — one complex frequency-pole pair, residue
    functions of the closed-form rational class of {!Rvf.Ratfn} sharing
    one state-pole pair, and a rational DC-conductance trace — together
    with the TFT dataset that system induces.

    Because the frozen-state transfer surface of a parallel Hammerstein
    model is [T(x, s) = H₀(x) + Σ_p r_p(x)/(s − a_p)], the synthetic
    dataset is {e exactly} inside the model class the RVF flow searches:
    extraction must round-trip to the generating parameters (same
    frequency pair, same state pair) and to the generating behaviour
    (same transfer surface, same large-signal DC curve, same transient
    response), up to fitting roundoff. Self-consistency mirrors a real
    circuit: the dataset's [H(x, 0)] equals [d/dx] of its quasi-static
    output [y(x)] by construction. *)

type params = {
  freq_alpha : float;  (** real part of the frequency pole pair, < 0 *)
  freq_beta : float;  (** imaginary part, > 0 *)
  state_beta : float;  (** shared state pole pair [β ± jα] in the x-plane *)
  state_alpha : float;  (** > 0; keep above the extractor's min-imag floor *)
  r1 : float * float * float;
      (** residue fn of pair slot 0: (c1, c2, const), O(1) coefficients;
          {!model_of} scales them by the frequency-pole magnitude so the
          dynamic part of [T(x, s)] stays O(1) against the static part,
          exactly as physical residues scale (cf. {!Ladder.rc_exact}) *)
  r2 : float * float * float;  (** residue fn of pair slot 1 *)
  g0 : float * float * float;  (** DC conductance trace H(x, 0) *)
  y_anchor : float;  (** quasi-static output at [x_lo] *)
  x_lo : float;
  x_hi : float;
}

val default : params
(** A buffer-like instance: x ∈ [0.4, 1.4], GHz-class pair, smooth
    saturating residue functions. *)

val model_of : params -> Hammerstein.Hmodel.t
(** The ground-truth model, assembled through the same
    {!Rvf.Assemble.hammerstein} realization the extractor uses. *)

val dataset_of : ?samples:int -> ?freqs:int -> params -> Tft.Dataset.t
(** Synthesize the TFT dataset of the ground-truth system: [samples]
    (default 40) state sweep points across [x_lo, x_hi] with the exact
    frozen-state transfer matrices on a log frequency grid of [freqs]
    (default 30) points bracketing the frequency pole. *)

type report = {
  freq_pole_rel_err : float;
      (** recovered frequency pair vs generating, relative *)
  state_pole_rel_err : float;
      (** recovered state pair (residue stage) vs generating *)
  surface_rel_rms : float;
      (** transfer surface of extracted vs ground-truth model over a
          dense (x, s) grid, relative RMS *)
  dc_rel_max_err : float;
      (** large-signal DC curves, max deviation over the output range *)
  transient_nrmse : float;
      (** extracted vs ground-truth transient under the paper-style
          training sine (one period spanning the state range) *)
  result : Rvf.result;
}

val roundtrip :
  ?config:Rvf.config -> ?samples:int -> ?freqs:int -> params -> report
(** Run {!Rvf.extract} on {!dataset_of} and measure the round-trip. *)
