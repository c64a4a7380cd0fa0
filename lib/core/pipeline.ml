type training = {
  wave : Circuit.Netlist.wave;
  t_stop : float;
  dt : float;
  snapshot_every : int;
}

type config = {
  training : training;
  freqs_hz : float array;
  estimator_delays : float list;
  rvf : Rvf.config;
  domains : int;
  backend : Engine.Mna.backend;
}

let default_config_for ?(points = 40) ?(domains = 1)
    ?(backend = Engine.Mna.Dense) ~f_min ~f_max ~training () =
  {
    training;
    freqs_hz = Signal.Grid.frequencies_hz ~f_min ~f_max ~points;
    estimator_delays = [];
    rvf = Rvf.default_config;
    domains;
    backend;
  }

(* One warm pool per pipeline run: created before the first fan-out
   stage, reused by every stage (TFT pencil solves, VF relocation
   blocks, residue fits), shut down when the run returns.
   [domains <= 1] never spawns and takes the sequential paths
   throughout. *)
let with_run_pool ~domains f =
  if domains <= 1 then f None
  else Exec.with_pool ~domains (fun pool -> f (Some pool))

type timing = {
  train_seconds : float;
  tft_seconds : float;
  fit_seconds : float;
}

type outcome = {
  model : Hammerstein.Hmodel.t;
  rvf : Rvf.result;
  dataset : Tft.Dataset.t;
  mna : Engine.Mna.t;
  training_run : Engine.Tran.result;
  timing : timing;
}

(* --- deadline supervision -------------------------------------------- *)

type budgets = {
  train : float option;
  tft : float option;
  fit : float option;
  rung : float option;
}

let no_budgets = { train = None; tft = None; fit = None; rung = None }

(* per-stage budgets only make sense against a token; when the caller
   supplies budgets without one, arm a private token so the deadlines
   are live *)
let resolve_cancel cancel (budgets : budgets option) =
  match (cancel, budgets) with
  | (Some _ as c), _ -> c
  | None, Some _ -> Some (Cancel.create ())
  | None, None -> None

(* swap the designated input source's wave for the training pump *)
let with_wave netlist ~input ~wave =
  let swapped = ref false in
  let components =
    List.map
      (fun (c : Circuit.Netlist.component) ->
        if c.name <> input then c
        else begin
          match c.element with
          | Circuit.Netlist.Vsource { p; n; _ } ->
              swapped := true;
              Circuit.Netlist.vsource ~name:c.name p n wave
          | Circuit.Netlist.Isource { p; n; _ } ->
              swapped := true;
              Circuit.Netlist.isource ~name:c.name p n wave
          | Circuit.Netlist.Resistor _ | Circuit.Netlist.Capacitor _
          | Circuit.Netlist.Inductor _ | Circuit.Netlist.Vccs _
          | Circuit.Netlist.Vcvs _ | Circuit.Netlist.Cccs _
          | Circuit.Netlist.Diode _ | Circuit.Netlist.Junction_cap _
          | Circuit.Netlist.Mosfet _ | Circuit.Netlist.Bjt _ ->
              invalid_arg
                (Printf.sprintf "Pipeline.extract: input %S is not a source" input)
        end)
      netlist.Circuit.Netlist.components
  in
  if not !swapped then
    invalid_arg (Printf.sprintf "Pipeline.extract: no source named %S" input);
  Circuit.Netlist.make components

(* --- the run context -------------------------------------------------- *)

(* Everything a stage needs besides its data. *)
type run = {
  cancel : Cancel.t option;
  budgets : budgets;
  ck : Checkpoint.t option;
  obs : Obs.t option;
}

(* --- checkpoint plumbing --------------------------------------------- *)

(* The run fingerprint: canonical %.17g rendering of everything that
   determines the extraction's numerics. [domains] is deliberately
   excluded — results are bit-identical across domain counts, so a
   checkpoint taken at one parallelism resumes at any other. *)
let fingerprint_of ~config ~netlist ~input ~outputs =
  String.concat "\n"
    ((* dense fingerprints predate the backend knob and must stay
        byte-identical, so the line only appears for sparse runs *)
     (match config.backend with
     | Engine.Mna.Dense -> []
     | Engine.Mna.Sparse -> [ "backend=sparse" ])
    @ [
      "tft-pipeline-v1";
      "training.wave=" ^ Artifact.render_wave config.training.wave;
      "training.t_stop=" ^ Artifact.render_float config.training.t_stop;
      "training.dt=" ^ Artifact.render_float config.training.dt;
      "training.snapshot_every=" ^ string_of_int config.training.snapshot_every;
      "freqs_hz=" ^ Artifact.render_floats config.freqs_hz;
      "estimator_delays="
      ^ String.concat ","
          (List.map Artifact.render_float config.estimator_delays);
      "rvf=" ^ Artifact.render_rvf_config config.rvf;
      "input=" ^ input;
      "outputs=" ^ String.concat "," (List.map Artifact.render_output outputs);
        "netlist:";
        Artifact.canonical_netlist netlist;
      ])

let ck_of ~config ~netlist ~input ~outputs checkpoint_dir =
  match checkpoint_dir with
  | None -> None
  | Some dir ->
      let fp =
        Checkpoint.fingerprint_of_string
          (fingerprint_of ~config ~netlist ~input ~outputs)
      in
      Some (Checkpoint.create ~dir ~fingerprint:fp)

let load_ck r ~stage decode =
  match r.ck with
  | None -> None
  | Some ckpt -> (
      match Checkpoint.load ckpt ~stage with
      | exception Checkpoint.Invalid { file; reason } ->
          Obs.warn r.obs ~stage:"pipeline.checkpoint"
            (Printf.sprintf "rejected torn/malformed %s: %s" file reason);
          Obs.checkpoint r.obs ~stage ~action:"invalid";
          None
      | None ->
          if Sys.file_exists (Checkpoint.file ckpt ~stage) then begin
            Obs.warn r.obs ~stage:"pipeline.checkpoint"
              (Printf.sprintf
                 "stale %s artifact ignored (fingerprint or schema changed)"
                 stage);
            Obs.checkpoint r.obs ~stage ~action:"stale"
          end;
          None
      | Some payload -> (
          match decode payload with
          | v ->
              Obs.note r.obs ("checkpoint." ^ stage) "loaded";
              Obs.checkpoint r.obs ~stage ~action:"load";
              Some v
          | exception Invalid_argument msg ->
              Obs.warn r.obs ~stage:"pipeline.checkpoint"
                (Printf.sprintf "undecodable %s artifact: %s" stage msg);
              Obs.checkpoint r.obs ~stage ~action:"invalid";
              None))

(* may raise [Checkpoint.Killed] when the chaos harness armed a
   simulated crash — always after the artifact is safely on disk *)
let store_ck r ~stage encode v =
  match r.ck with
  | None -> ()
  | Some ckpt ->
      Checkpoint.store ckpt ~stage (encode v);
      Obs.count r.obs "pipeline.checkpoint_stores" 1;
      Obs.checkpoint r.obs ~stage ~action:"store"

(* a settled fit is stored with the ladder rung that produced it *)
let rung_fit_of_json json =
  let fit = Artifact.fit_of_json json in
  (fit.Artifact.rung, Artifact.rvf_of_fit fit)

let json_of_rung_fit (rung, rvf) =
  Artifact.json_of_fit (Artifact.fit_of_rvf ~rung rvf)

(* --- failures --------------------------------------------------------- *)

(* The numerical failures a non-raising run records and survives.
   Cancellation, deadlines and the chaos harness's simulated crash are
   deliberately not among them: they always reach the caller. *)
let recoverable = function
  | Invalid_argument _ | Failure _ | Engine.Dc.No_convergence _
  | Linalg.Lu.Singular _ | Linalg.Clu.Singular _ | Linalg.Splu.Singular _
  | Linalg.Spclu.Singular _ | Guard.Violation _ | Rvf.Ratfn.Not_integrable _ ->
      true
  | _ -> false

let describe_exn = function
  | Invalid_argument m -> "Invalid_argument: " ^ m
  | Failure m -> "Failure: " ^ m
  | Engine.Dc.No_convergence m -> "No_convergence: " ^ m
  | Linalg.Lu.Singular { pivot_index; magnitude } ->
      Printf.sprintf "Singular: LU pivot %d has magnitude %.3e" pivot_index
        magnitude
  | Linalg.Clu.Singular { pivot_index; magnitude } ->
      Printf.sprintf "Singular: complex LU pivot %d has magnitude %.3e"
        pivot_index magnitude
  | Linalg.Splu.Singular { pivot_index; magnitude } ->
      Printf.sprintf "Singular: sparse LU pivot %d has magnitude %.3e"
        pivot_index magnitude
  | Linalg.Spclu.Singular { pivot_index; magnitude } ->
      Printf.sprintf "Singular: sparse complex LU pivot %d has magnitude %.3e"
        pivot_index magnitude
  | Guard.Violation v -> Guard.describe v
  | Rvf.Ratfn.Not_integrable m -> "Not_integrable: " ^ m
  | Cancel.Cancelled { site } -> Printf.sprintf "Cancelled: at %s" site
  | Cancel.Deadline_exceeded { site; stage; budget_seconds; elapsed_seconds } ->
      Printf.sprintf
        "Deadline_exceeded: stage %s ran %.3fs against a %.3fs budget (probe \
         %s)"
        stage elapsed_seconds budget_seconds site
  | Checkpoint.Invalid { file; reason } ->
      Printf.sprintf "Invalid checkpoint: %s: %s" file reason
  | e -> Printexc.to_string e

(* run [f ()] under [stage]; on a recoverable failure record an Error
   event naming the stage and return None instead of raising *)
let recover r ~stage f =
  match f () with
  | v -> Some v
  | exception e when recoverable e ->
      Obs.error r.obs ~stage (describe_exn e);
      Obs.violation r.obs ~site:stage (describe_exn e);
      None

(* --- stages ----------------------------------------------------------- *)

let build_mna ~config ~netlist ~input ~outputs =
  let training_netlist = with_wave netlist ~input ~wave:config.training.wave in
  Engine.Mna.build ~inputs:[ input ] ~outputs training_netlist

let run_train r ~config ~mna =
  let tran_opts =
    {
      Engine.Tran.default_opts with
      Engine.Tran.snapshot_every = config.training.snapshot_every;
    }
  in
  Obs.stage r.obs "pipeline.train" @@ fun () ->
  Fault.in_scope "stage:train" @@ fun () ->
  let go backend =
    Engine.Tran.run ~opts:tran_opts ?cancel:r.cancel ?obs:r.obs ~backend mna
      ~t_stop:config.training.t_stop ~dt:config.training.dt
  in
  match config.backend with
  | Engine.Mna.Dense -> go Engine.Mna.Dense
  | Engine.Mna.Sparse -> (
      try go Engine.Mna.Sparse
      with (Linalg.Splu.Singular _ | Linalg.Spclu.Singular _) as e ->
        Obs.warn r.obs ~stage:"pipeline.train"
          (Printf.sprintf
             "sparse training transient failed (%s); retrying dense"
             (Printexc.to_string e));
        Obs.count r.obs "pipeline.sparse_fallbacks" 1;
        go Engine.Mna.Dense)

let tft_stage r ~pool ~config ~mna ~training_run =
  let estimator = Tft.Estimator.make ~delays:config.estimator_delays () in
  Obs.stage r.obs "pipeline.tft" @@ fun () ->
  Fault.in_scope "stage:tft" @@ fun () ->
  let build backend =
    Tft.Dataset.of_snapshots ?pool ?cancel:r.cancel ?obs:r.obs ~backend ~mna
      ~estimator ~freqs_hz:config.freqs_hz training_run.Engine.Tran.snapshots
  in
  match config.backend with
  | Engine.Mna.Dense -> build Engine.Mna.Dense
  | Engine.Mna.Sparse -> (
      (* escalation: a singular sparse factorization or a guard breach
         on the sparse path retries the transform densely over the same
         state-only snapshots — the retry result is exactly what an
         all-dense transform of this training run produces *)
      try build Engine.Mna.Sparse
      with
      | (Linalg.Splu.Singular _ | Linalg.Spclu.Singular _ | Guard.Violation _)
        as e
      ->
        Obs.warn r.obs ~stage:"pipeline.tft"
          (Printf.sprintf "sparse TFT transform failed (%s); retrying dense"
             (Printexc.to_string e));
        Obs.count r.obs "pipeline.sparse_fallbacks" 1;
        Obs.violation r.obs ~site:"pipeline.tft" (Printexc.to_string e);
        build Engine.Mna.Dense)

(* One rung of the fit, and the pipeline's only call into RVF. The rung
   label scopes both the per-rung deadline budget (stage
   "pipeline.fit:<rung>", so a tripped deadline names the rung in its
   typed payload) and the dynamic fault scope (so a hang can be armed
   at exactly one rung). *)
let fit_rung r ~pool ~dataset ~output (rung, rvf_config) =
  Fault.in_scope ("rung:" ^ rung) @@ fun () ->
  Cancel.with_budget r.cancel ~stage:("pipeline.fit:" ^ rung)
    ?seconds:r.budgets.rung
  @@ fun () ->
  Obs.stage r.obs "pipeline.fit" @@ fun () ->
  Rvf.extract ~config:rvf_config ?cancel:r.cancel ?obs:r.obs ?pool ~dataset
    ~input:0 ~output ()

(* --- graceful degradation ------------------------------------------- *)

let escalation_ladder (rvf : Rvf.config) =
  let open Rvf in
  let more_poles c =
    {
      c with
      freq_start = Stdlib.min (c.freq_start + 4) c.max_freq_poles;
      state_start = Stdlib.min (c.state_start + 4) c.max_state_poles;
    }
  in
  let switch_weighting c =
    let flip (o : Vf.Vfit.opts) =
      {
        o with
        Vf.Vfit.weighting =
          (match o.Vf.Vfit.weighting with
          | Vf.Vfit.Uniform -> Vf.Vfit.Inv_sqrt
          | Vf.Vfit.Inv_sqrt | Vf.Vfit.Inv_magnitude -> Vf.Vfit.Uniform);
      }
    in
    { c with freq_opts = flip c.freq_opts }
  in
  let relax_min_imag c =
    { c with min_imag_fraction = c.min_imag_fraction /. 4.0 }
  in
  [
    (* the first rung is the untouched config: when it succeeds the
       non-raising path is bit-for-bit the raising one *)
    ("base", rvf);
    ("more-start-poles", more_poles rvf);
    ("switched-weighting", switch_weighting rvf);
    ("relaxed-min-imag", relax_min_imag rvf);
    ("combined", relax_min_imag (switch_weighting (more_poles rvf)));
  ]

(* Climb the ladder for one output: the first rung that fits wins. *)
let climb_ladder r ~fit ~rvf ~output =
  let rec climb = function
    | [] ->
        Obs.error r.obs ~stage:"pipeline.fit"
          (Printf.sprintf
             "all %d escalation rungs failed for output %d; returning no \
              model"
             (List.length (escalation_ladder rvf))
             output);
        None
    | ((rung, _) as step) :: rest -> (
        match fit step with
        | fitted ->
            Obs.escalation r.obs ~rung ~outcome:"ok" ~detail:"";
            if rung <> "base" then
              Obs.warn r.obs ~stage:"pipeline.fit"
                (Printf.sprintf
                   "degraded extraction: base config failed, rung %S \
                    produced the model"
                   rung);
            Some (rung, fitted)
        | exception ((Cancel.Cancelled _ | Cancel.Deadline_exceeded _) as e) ->
            (* a tripped deadline aborts the whole ladder: escalating
               after the budget ran out would turn a bounded run into an
               unbounded one *)
            Obs.escalation r.obs ~rung ~outcome:"deadline"
              ~detail:(describe_exn e);
            raise e
        | exception e when recoverable e ->
            Obs.count r.obs "pipeline.fit_retries" 1;
            Obs.warn r.obs ~stage:"pipeline.fit"
              (Printf.sprintf "rung %S failed: %s" rung (describe_exn e));
            Obs.escalation r.obs ~rung ~outcome:"failed"
              ~detail:(describe_exn e);
            climb rest)
  in
  climb (escalation_ladder rvf)

(* --- the stage sequence ----------------------------------------------- *)

(* How a run answers a failure: [Raise] lets the first one propagate
   from the base rung; [Ladder] records it against its stage and climbs
   the escalation ladder. *)
type policy = Raise | Ladder

(* The one extraction sequence of Fig. 1: build MNA → train → warm pool
   → TFT → per-output fit. Every entry point runs it; one [outcome
   option] per output comes back, and [Raise] never yields [None]. *)
let run_stages ~policy ?cancel ?budgets ?checkpoint_dir ?obs ~config ~netlist
    ~input ~outputs () =
  let r =
    {
      cancel = resolve_cancel cancel budgets;
      budgets = Option.value budgets ~default:no_budgets;
      ck = ck_of ~config ~netlist ~input ~outputs checkpoint_dir;
      obs;
    }
  in
  let guarded ~stage f =
    match policy with Raise -> Some (f ()) | Ladder -> recover r ~stage f
  in
  (* a checkpointed stage: loaded when settled on disk, else computed
     and stored; a failed computation stores nothing *)
  let settled ~stage decode encode compute =
    match load_ck r ~stage decode with
    | Some _ as v -> v
    | None ->
        let v = compute () in
        Option.iter (store_ck r ~stage encode) v;
        v
  in
  let ( let* ) = Option.bind in
  let t0 = Clock.now () in
  let outcomes =
    let* mna =
      guarded ~stage:"pipeline.train" (fun () ->
          build_mna ~config ~netlist ~input ~outputs)
    in
    Cancel.check r.cancel ~site:"pipeline.train";
    let* training_run =
      settled ~stage:"train" Artifact.tran_of_json Artifact.json_of_tran
        (fun () ->
          guarded ~stage:"pipeline.train" (fun () ->
              Cancel.with_budget r.cancel ~stage:"pipeline.train"
                ?seconds:r.budgets.train (fun () -> run_train r ~config ~mna)))
    in
    let t1 = Clock.now () in
    with_run_pool ~domains:config.domains @@ fun pool ->
    Cancel.check r.cancel ~site:"pipeline.tft";
    let* dataset =
      settled ~stage:"tft" Artifact.dataset_of_json Artifact.json_of_dataset
        (fun () ->
          guarded ~stage:"pipeline.tft" (fun () ->
              Cancel.with_budget r.cancel ~stage:"pipeline.tft"
                ?seconds:r.budgets.tft (fun () ->
                  tft_stage r ~pool ~config ~mna ~training_run)))
    in
    let t2 = Clock.now () in
    (* outputs fit in order, each lending the pool to its inner axes *)
    let fit_output output =
      let fit = fit_rung r ~pool ~dataset ~output in
      match policy with
      | Raise -> Some ("base", fit ("base", config.rvf))
      | Ladder -> climb_ladder r ~fit ~rvf:config.rvf ~output
    in
    Cancel.check r.cancel ~site:"pipeline.fit";
    Some
      (Cancel.with_budget r.cancel ~stage:"pipeline.fit"
         ?seconds:r.budgets.fit (fun () ->
           List.mapi
             (fun output _ ->
               let t3 = Clock.now () in
               settled
                 ~stage:(Printf.sprintf "fit-o%d" output)
                 rung_fit_of_json json_of_rung_fit
                 (fun () -> fit_output output)
               |> Option.map (fun (rung, rvf) ->
                      Obs.note r.obs "pipeline.ladder_rung" rung;
                      {
                        model = rvf.Rvf.model;
                        rvf;
                        dataset;
                        mna;
                        training_run;
                        timing =
                          {
                            train_seconds = t1 -. t0;
                            tft_seconds = t2 -. t1;
                            fit_seconds = Clock.now () -. t3;
                          };
                      }))
             outputs))
  in
  match outcomes with
  | Some outcomes -> outcomes
  | None -> List.map (fun _ -> None) outputs

(* --- entry points ----------------------------------------------------- *)

let extract_simo ?cancel ?budgets ?checkpoint_dir ?obs ~config ~netlist ~input
    ~outputs () =
  if outputs = [] then invalid_arg "Pipeline.extract_simo: no outputs";
  run_stages ~policy:Raise ?cancel ?budgets ?checkpoint_dir ?obs ~config
    ~netlist ~input ~outputs ()
  |> List.map Option.get

let extract ?cancel ?budgets ?checkpoint_dir ?obs ~config ~netlist ~input
    ~output () =
  List.hd
    (extract_simo ?cancel ?budgets ?checkpoint_dir ?obs ~config ~netlist ~input
       ~outputs:[ output ] ())

let try_extract_simo ?cancel ?budgets ?checkpoint_dir ?obs ~config ~netlist
    ~input ~outputs () =
  (* the hub the run recorded into is its report; a run without a hub
     makes its own *)
  let hub = match obs with Some o -> o | None -> Obs.create () in
  let obs = Some hub in
  let none () = List.map (fun _ -> None) outputs in
  let outcomes =
    if outputs = [] then begin
      Obs.error obs ~stage:"pipeline.train" "no outputs requested";
      []
    end
    else
      try
        run_stages ~policy:Ladder ?cancel ?budgets ?checkpoint_dir ?obs ~config
          ~netlist ~input ~outputs ()
      with
      | Cancel.Cancelled { site } as e ->
          (* the supervisor contract: a cancelled or deadline-tripped run
             never yields a model, and the report names what stopped it *)
          Obs.error obs ~stage:"pipeline.cancelled" (describe_exn e);
          Obs.cancelled obs ~site;
          none ()
      | Cancel.Deadline_exceeded
          { site; stage; budget_seconds; elapsed_seconds } as e ->
          Obs.error obs ~stage (describe_exn e);
          Obs.deadline obs ~site ~stage ~budget_seconds ~elapsed_seconds;
          none ()
  in
  (outcomes, hub)

let try_extract ?cancel ?budgets ?checkpoint_dir ?obs ~config ~netlist ~input
    ~output () =
  let outcomes, hub =
    try_extract_simo ?cancel ?budgets ?checkpoint_dir ?obs ~config ~netlist
      ~input ~outputs:[ output ] ()
  in
  (List.hd outcomes, hub)

let buffer_config ?(snapshots = 100) ?(domains = 1) () =
  let freq = 1e6 in
  let period = 1.0 /. freq in
  let steps_per_snapshot = 4 in
  let steps = snapshots * steps_per_snapshot in
  {
    training =
      {
        wave = Circuits.Buffer.training_wave ~freq ();
        t_stop = period;
        dt = period /. float_of_int steps;
        snapshot_every = steps_per_snapshot;
      };
    freqs_hz = Signal.Grid.frequencies_hz ~f_min:1.0 ~f_max:1e10 ~points:40;
    estimator_delays = [];
    rvf =
      {
        Rvf.default_config with
        Rvf.max_freq_poles = 16;
        max_state_poles = 24;
        min_imag_fraction = 0.03;
      };
    domains;
    backend = Engine.Mna.Dense;
  }

let extract_buffer ?obs ?config () =
  let config = match config with Some c -> c | None -> buffer_config () in
  extract ?obs ~config ~netlist:(Circuits.Buffer.netlist ())
    ~input:Circuits.Buffer.input_name ~output:Circuits.Buffer.output ()
