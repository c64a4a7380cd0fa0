(** Evaluation helpers: the quantities reported in the paper's Figs. 6–9
    and Table I, computed for any extracted model. *)

type surface_error = {
  rms : float;
  max_err : float;
  rms_db : float;
  max_db : float;
}

val surface_error :
  model:Hammerstein.Hmodel.t -> dataset:Tft.Dataset.t -> input:int ->
  output:int -> surface_error
(** Deviation between the model's frozen-state transfer function and the
    TFT data over the whole (state × frequency) grid — the Fig. 7 RMSE. *)

type validation = {
  rmse : float;
  nrmse : float;
  nrmse_db : float;
  reference_seconds : float;  (** transistor-level transient CPU time *)
  model_seconds : float;  (** Hammerstein simulation CPU time *)
  speedup : float;
  reference : Signal.Waveform.t;
  modeled : Signal.Waveform.t;
}

val validate :
  model:Hammerstein.Hmodel.t ->
  netlist:Circuit.Netlist.t ->
  input:string ->
  output:Engine.Mna.output ->
  wave:Circuit.Netlist.wave ->
  t_stop:float ->
  dt:float ->
  unit ->
  validation
(** Run both the transistor-level circuit and the extracted model on a
    test input and compare (the Fig. 9 experiment). *)

val summary : Pipeline.outcome -> string
(** A human-readable extraction report. *)

val error_json : ?message:string -> Obs.t -> string
(** Serialize a failed extraction's hub as a structured JSON error
    object: [{"schema_version": 1, "error": {"stage", "message"},
    "fit_retries": n, "events": [...], "notes": {...}}] with the hub's
    warnings and errors inlined in recording order and its latest note
    per name. [message] overrides the first error's message (the
    default; ["extraction failed"] when the hub holds none). The CLI
    prints this to stderr and exits nonzero whenever the pipeline
    yields no model. *)
