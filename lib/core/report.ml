type surface_error = {
  rms : float;
  max_err : float;
  rms_db : float;
  max_db : float;
}

let surface_error ~model ~dataset ~input ~output =
  let freqs = dataset.Tft.Dataset.freqs_hz in
  let sum2 = ref 0.0 and count = ref 0 and worst = ref 0.0 in
  Array.iter
    (fun (s : Tft.Dataset.sample) ->
      Array.iteri
        (fun l f ->
          let data = Linalg.Cmat.get s.Tft.Dataset.h.(l) output input in
          let modeled =
            Hammerstein.Hmodel.transfer model ~x:s.Tft.Dataset.x.(0)
              ~s:(Signal.Grid.s_of_hz f)
          in
          let e = Complex.norm (Complex.sub data modeled) in
          sum2 := !sum2 +. (e *. e);
          worst := Float.max !worst e;
          incr count)
        freqs)
    dataset.Tft.Dataset.samples;
  let rms = sqrt (!sum2 /. float_of_int (Stdlib.max 1 !count)) in
  {
    rms;
    max_err = !worst;
    rms_db = Signal.Metrics.db20 rms;
    max_db = Signal.Metrics.db20 !worst;
  }

type validation = {
  rmse : float;
  nrmse : float;
  nrmse_db : float;
  reference_seconds : float;
  model_seconds : float;
  speedup : float;
  reference : Signal.Waveform.t;
  modeled : Signal.Waveform.t;
}

let validate ~model ~netlist ~input ~output ~wave ~t_stop ~dt () =
  let test_netlist =
    Circuit.Netlist.make
      (List.map
         (fun (c : Circuit.Netlist.component) ->
           if c.name <> input then c
           else begin
             match c.element with
             | Circuit.Netlist.Vsource { p; n; _ } ->
                 Circuit.Netlist.vsource ~name:c.name p n wave
             | Circuit.Netlist.Isource { p; n; _ } ->
                 Circuit.Netlist.isource ~name:c.name p n wave
             | Circuit.Netlist.Resistor _ | Circuit.Netlist.Capacitor _
             | Circuit.Netlist.Inductor _ | Circuit.Netlist.Vccs _
          | Circuit.Netlist.Vcvs _ | Circuit.Netlist.Cccs _
             | Circuit.Netlist.Diode _ | Circuit.Netlist.Junction_cap _
             | Circuit.Netlist.Mosfet _ | Circuit.Netlist.Bjt _ ->
                 invalid_arg "Report.validate: input is not a source"
           end)
         netlist.Circuit.Netlist.components)
  in
  let mna = Engine.Mna.build ~inputs:[ input ] ~outputs:[ output ] test_netlist in
  let t0 = Clock.now () in
  let run = Engine.Tran.run mna ~t_stop ~dt in
  let t1 = Clock.now () in
  let reference = Engine.Tran.output_waveform run 0 in
  let u = Circuit.Netlist.wave_to_source wave in
  let t2 = Clock.now () in
  let modeled = Hammerstein.Hmodel.simulate model ~u ~t_stop ~dt in
  let t3 = Clock.now () in
  let rmse = Signal.Waveform.rmse reference modeled in
  let nrmse = Signal.Waveform.nrmse reference modeled in
  {
    rmse;
    nrmse;
    nrmse_db = Signal.Metrics.db20 nrmse;
    reference_seconds = t1 -. t0;
    model_seconds = t3 -. t2;
    speedup = (t1 -. t0) /. Float.max (t3 -. t2) 1e-9;
    reference;
    modeled;
  }

(* --- diagnostics serialization --------------------------------------- *)

let json_escape = Minijson.escape

let error_json ?message obs =
  let messages = Obs.messages obs in
  let errors = List.filter (fun (kind, _, _) -> kind = `Error) messages in
  let stage = match errors with (_, s, _) :: _ -> s | [] -> "pipeline" in
  let message =
    match (message, errors) with
    | Some m, _ -> m
    | None, (_, _, m) :: _ -> m
    | None, [] -> "extraction failed"
  in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "{\n  \"schema_version\": 1,\n  \"error\": {\"stage\": \"%s\", \
     \"message\": \"%s\"},\n  \"fit_retries\": %d,\n  \"events\": ["
    (json_escape stage) (json_escape message)
    (Obs.counter obs "pipeline.fit_retries");
  let sep = ref "" in
  List.iter
    (fun (kind, stage, message) ->
      Printf.bprintf buf "%s\n    {\"level\": \"%s\", \"stage\": \"%s\", \
                          \"message\": \"%s\"}"
        !sep
        (match kind with `Warning -> "warning" | `Error -> "error")
        (json_escape stage) (json_escape message);
      sep := ",")
    messages;
  Buffer.add_string buf "\n  ],\n  \"notes\": {";
  sep := "";
  List.iter
    (fun (k, v) ->
      Printf.bprintf buf "%s\n    \"%s\": \"%s\"" !sep (json_escape k)
        (json_escape v);
      sep := ",")
    (Obs.notes obs);
  Buffer.add_string buf "\n  }\n}\n";
  Buffer.contents buf

let summary (o : Pipeline.outcome) =
  let r = o.Pipeline.rvf in
  let se =
    surface_error ~model:o.Pipeline.model ~dataset:o.Pipeline.dataset ~input:0
      ~output:0
  in
  let buf = Buffer.create 512 in
  Printf.bprintf buf "TFT-RVF extraction report\n";
  Printf.bprintf buf "  trajectory samples     : %d\n"
    (Array.length o.Pipeline.dataset.Tft.Dataset.samples);
  Printf.bprintf buf "  frequency grid         : %d points\n"
    (Array.length o.Pipeline.dataset.Tft.Dataset.freqs_hz);
  Printf.bprintf buf "  frequency poles        : %d (rms %.3e)\n"
    r.Rvf.freq_info.Vf.Vfit.pole_count r.Rvf.freq_info.Vf.Vfit.rms;
  Printf.bprintf buf "  state poles            : %d (normalized rms %.3e)\n"
    r.Rvf.residue_info.Vf.Vfit.pole_count r.Rvf.residue_info.Vf.Vfit.rms;
  Printf.bprintf buf "  static-path poles      : %d (rms %.3e)\n"
    r.Rvf.static_info.Vf.Vfit.pole_count r.Rvf.static_info.Vf.Vfit.rms;
  Printf.bprintf buf "  TFT surface error      : rms %.1f dB, max %.1f dB\n"
    se.rms_db se.max_db;
  Printf.bprintf buf "  model order            : %d states\n"
    (Hammerstein.Hmodel.order o.Pipeline.model);
  Printf.bprintf buf "  fully analytic         : %b\n"
    (Hammerstein.Hmodel.analytic o.Pipeline.model);
  Printf.bprintf buf "  timing                 : train %.2fs, tft %.2fs, fit %.2fs\n"
    o.Pipeline.timing.Pipeline.train_seconds o.Pipeline.timing.Pipeline.tft_seconds
    o.Pipeline.timing.Pipeline.fit_seconds;
  Buffer.contents buf
