(* The operations the workloads time, built from the public calls of each
   layer. [extract] is the product path (the CLI's raising
   [Pipeline.extract]); [traced_extract] rebuilds the same extraction
   from the stage calls with a span and a GC delta around each, so the
   per-layer split measures the same program. *)

module N = Circuit.Netlist

(* swap the designated input source's wave, as the pipeline does *)
let with_input_wave (netlist : N.t) ~input wave =
  N.make
    (List.map
       (fun (c : N.component) ->
         if c.N.name <> input then c
         else
           match c.N.element with
           | N.Vsource { p; n; _ } -> N.vsource ~name:c.N.name p n wave
           | N.Isource { p; n; _ } -> N.isource ~name:c.N.name p n wave
           | _ -> invalid_arg "Stages.with_input_wave: input is not a source")
       netlist.N.components)

(* the bytes a user takes away: equations and Verilog-A text *)
let model_bytes model =
  Hammerstein.Hmodel.equations model ^ Hammerstein.Export.verilog_a model

let extract (e : Workloads.extraction) =
  Tft_rvf.Pipeline.extract ~config:e.Workloads.config
    ~netlist:e.Workloads.netlist ~input:e.Workloads.input
    ~output:e.Workloads.output ()

(* ---- per-layer accounting -------------------------------------------- *)

(* Self time and allocation per layer. Spans here are leaves (one call
   into one layer each), so a span's duration is its self time. *)
type layers = (string, Measure.sample) Hashtbl.t

let span (acc : layers) name f =
  let r, s = Measure.timed f in
  let prev =
    Option.value (Hashtbl.find_opt acc name)
      ~default:{ Measure.seconds = 0.0; words = 0.0 }
  in
  Hashtbl.replace acc name
    {
      Measure.seconds = prev.Measure.seconds +. s.Measure.seconds;
      words = prev.Measure.words +. s.Measure.words;
    };
  r

let layer (acc : layers) name =
  Option.value (Hashtbl.find_opt acc name)
    ~default:{ Measure.seconds = 0.0; words = 0.0 }

(* registry readings *)
let counter (snap : Metrics.snapshot) name =
  Option.value (List.assoc_opt name snap.Metrics.counters) ~default:0

let hist_count (snap : Metrics.snapshot) name =
  List.fold_left
    (fun a (h : Metrics.histogram) ->
      if h.Metrics.hist_name = name then a + h.Metrics.count else a)
    0 snap.Metrics.histograms

type traced = {
  layers : layers;
  total : Measure.sample;  (** the whole traced operation *)
  registry : Metrics.snapshot;
  tran : Engine.Tran.result option;
  rvf : Rvf.result option;
  points : int;  (** (snapshot, frequency) points of the TFT transform *)
  krylov_points : int;
      (** points the rational-Krylov sweeps answered: the grid plus H(0),
          per snapshot; 0 on the dense backend *)
  bytes : string;  (** model bytes, empty when no model was built *)
  steps : int;  (** model simulation steps *)
}

let vf_labels = [ "vf.freq"; "vf.state"; "vf.static" ]

let empty_registry = Metrics.snapshot (Metrics.create ())

(* With [metrics], the registry also collects the layers' work counts;
   its timing histograms allocate as their buckets fill, so the runs
   whose allocation is compared exactly go without one. *)
let traced_extract ?metrics (e : Workloads.extraction) =
  let cfg = e.Workloads.config in
  let tr = cfg.Tft_rvf.Pipeline.training in
  let backend = cfg.Tft_rvf.Pipeline.backend in
  let acc = Hashtbl.create 8 in
  let (run, rvf, dataset, bytes), total =
    Measure.timed (fun () ->
        let mna =
          span acc "tran" (fun () ->
              Engine.Mna.build ~inputs:[ e.Workloads.input ]
                ~outputs:[ e.Workloads.output ]
                (with_input_wave e.Workloads.netlist ~input:e.Workloads.input
                   tr.Tft_rvf.Pipeline.wave))
        in
        let run =
          span acc "tran" (fun () ->
              Engine.Tran.run
                ~opts:
                  {
                    Engine.Tran.default_opts with
                    Engine.Tran.snapshot_every = tr.Tft_rvf.Pipeline.snapshot_every;
                  }
                ?metrics ~backend mna ~t_stop:tr.Tft_rvf.Pipeline.t_stop
                ~dt:tr.Tft_rvf.Pipeline.dt)
        in
        let sparse_ctx =
          match backend with
          | Engine.Mna.Dense -> None
          | Engine.Mna.Sparse ->
              Some (span acc "mna.sparse_compile" (fun () -> Engine.Mna.sparse_ctx mna))
        in
        let estimator =
          Tft.Estimator.make ~delays:cfg.Tft_rvf.Pipeline.estimator_delays ()
        in
        let dataset =
          span acc "dataset" (fun () ->
              Tft.Dataset.of_snapshots ?metrics ~backend ?sparse_ctx ~mna
                ~estimator ~freqs_hz:cfg.Tft_rvf.Pipeline.freqs_hz
                run.Engine.Tran.snapshots)
        in
        let rvf =
          span acc "rvf" (fun () ->
              Rvf.extract ~config:cfg.Tft_rvf.Pipeline.rvf ?metrics ~dataset
                ~input:0 ~output:0 ())
        in
        let bytes = span acc "export" (fun () -> model_bytes rvf.Rvf.model) in
        (run, rvf, dataset, bytes))
  in
  let samples = Array.length dataset.Tft.Dataset.samples in
  let grid = Array.length dataset.Tft.Dataset.freqs_hz in
  {
    layers = acc;
    total;
    registry = Option.fold ~none:empty_registry ~some:Metrics.snapshot metrics;
    tran = Some run;
    rvf = Some rvf;
    points = samples * grid;
    krylov_points =
      (match backend with
      | Engine.Mna.Dense -> 0
      | Engine.Mna.Sparse -> samples * (grid + 1));
    bytes;
    steps = 0;
  }

(* ---- model vs transistor-level reference on one bit pattern ---------- *)

let reference (e : Workloads.extraction) (p : Workloads.pattern) =
  let mna =
    Engine.Mna.build ~inputs:[ e.Workloads.input ]
      ~outputs:[ e.Workloads.output ]
      (with_input_wave e.Workloads.netlist ~input:e.Workloads.input
         p.Workloads.wave)
  in
  Engine.Tran.run ~backend:e.Workloads.config.Tft_rvf.Pipeline.backend
    mna ~t_stop:p.Workloads.t_stop ~dt:p.Workloads.dt

let simulate model (p : Workloads.pattern) =
  Hammerstein.Hmodel.simulate model
    ~u:(N.wave_to_source p.Workloads.wave)
    ~t_stop:p.Workloads.t_stop ~dt:p.Workloads.dt

let time_rmse (run : Engine.Tran.result) modeled =
  Signal.Waveform.rmse (Engine.Tran.output_waveform run 0) modeled

let traced_compare (e : Workloads.extraction) model (p : Workloads.pattern) =
  let acc = Hashtbl.create 4 in
  let (run, modeled, rmse), total =
    Measure.timed (fun () ->
        let run = span acc "tran" (fun () -> reference e p) in
        let modeled = span acc "hmodel" (fun () -> simulate model p) in
        (run, modeled, time_rmse run modeled))
  in
  ( {
      layers = acc;
      total;
      registry = empty_registry;
      tran = Some run;
      rvf = None;
      points = 0;
      krylov_points = 0;
      bytes = "";
      steps = Signal.Waveform.length modeled - 1;
    },
    rmse )

(* ---- exact counters ---------------------------------------------------- *)

let layer_names = [ "tran"; "mna.sparse_compile"; "dataset"; "rvf"; "export"; "hmodel" ]

(* words allocated per layer *)
let alloc_counts (t : traced) =
  List.map
    (fun n -> (n ^ ".words", int_of_float (layer t.layers n).Measure.words))
    layer_names

(* work done, from the call results and the registry *)
let work_counts (t : traced) =
  (match t.tran with
  | Some r ->
      [
        ("tran.newton_iterations", r.Engine.Tran.newton_iterations);
        ("tran.step_rejections", r.Engine.Tran.step_rejections);
      ]
  | None -> [])
  @ (match t.rvf with
    | Some r ->
        List.concat_map
          (fun (label, (i : Vf.Vfit.info)) ->
            [
              (label ^ ".poles", i.Vf.Vfit.pole_count);
              (label ^ ".iterations_run", i.Vf.Vfit.iterations_run);
            ])
          [
            ("rvf.freq", r.Rvf.freq_info);
            ("rvf.state", r.Rvf.residue_info);
            ("rvf.static", r.Rvf.static_info);
          ]
    | None -> [])
  @ t.registry.Metrics.counters
  @ List.map
      (fun (h : Metrics.histogram) -> (h.Metrics.hist_name ^ ".count", h.Metrics.count))
      t.registry.Metrics.histograms

(* "name before -> after" for every counter that did not repeat *)
let differing c0 c =
  List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k c0 with
      | Some v0 when v0 = v -> None
      | v0 ->
          Some
            (Printf.sprintf "%s %s -> %d" k
               (Option.fold ~none:"absent" ~some:string_of_int v0)
               v))
    c
  @ List.filter_map
      (fun (k, v0) ->
        if List.mem_assoc k c then None else Some (Printf.sprintf "%s %d -> absent" k v0))
      c0
