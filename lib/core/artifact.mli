(** Checkpoint artifact (de)serialization and canonical fingerprint
    rendering for the extraction pipeline.

    Encoders produce {!Minijson} values whose floats are rendered with
    [%.17g] and hence round-trip bit-exactly; decoders accept the
    string forms ["nan"]/["inf"]/["-inf"] that Minijson emits for
    non-finite values. Every decoder raises [Invalid_argument]
    (prefixed ["Artifact:"]) on structural mismatch — the pipeline
    treats that like a torn checkpoint: drop and recompute. *)

(** {2 Primitives} *)

val json_of_mat : Linalg.Mat.t -> Minijson.t

(** {2 Stage payloads} *)

val json_of_tran : Engine.Tran.result -> Minijson.t
val tran_of_json : Minijson.t -> Engine.Tran.result
(** Full transient result including the state-only snapshots — the
    ["train"] checkpoint stage. The decoder also reads artifacts whose
    snapshots carry ["g_mat"]/["c_mat"] Jacobians, as written before
    snapshots held the state only; those keys are ignored. *)

val json_of_dataset : Tft.Dataset.t -> Minijson.t
val dataset_of_json : Minijson.t -> Tft.Dataset.t
(** Full TFT dataset including the complex transfer matrices — the
    ["tft"] checkpoint stage. *)

type fit = {
  rung : string;  (** escalation-ladder rung that produced the fit *)
  freq_model : Vf.Model.t;
  freq_info : Vf.Vfit.info;
  residue_model : Vf.Model.t;
  residue_info : Vf.Vfit.info;
  static_model : Vf.Model.t;
  static_info : Vf.Vfit.info;
  x_range : float * float;
  x0 : float;
  y0 : float;
  has_const : bool;
  build_seconds : float;
}
(** The settled outcome of one ladder fit — the ["fit-o<j>"] checkpoint
    stage. Holds everything needed to rebuild the analytical model
    without re-running any VF stage. *)

val fit_of_rvf : rung:string -> Rvf.result -> fit
val rvf_of_fit : fit -> Rvf.result
(** [rvf_of_fit] reassembles the Hammerstein model via
    {!Rvf.assemble_model}; the resumed result is bit-identical to the
    original (same equations text, same numerics). *)

val json_of_fit : fit -> Minijson.t
val fit_of_json : Minijson.t -> fit

(** {2 Canonical fingerprint rendering}

    Stable [%.17g] textual forms of the extraction inputs, hashed (by
    the pipeline) into the run fingerprint that content-addresses the
    checkpoint set. Deliberately independent of any pretty-printer. *)

val canonical_netlist : Circuit.Netlist.t -> string
(** One line per component. [Ext] (closure) sources render as a fixed
    marker: programmatic waves have no canonical text, so runs driven
    by them share a fingerprint — callers wanting distinct checkpoints
    must use distinct directories. *)

val render_wave : Circuit.Netlist.wave -> string
val render_output : Engine.Mna.output -> string
val render_float : float -> string
val render_floats : float array -> string
val render_rvf_config : Rvf.config -> string
