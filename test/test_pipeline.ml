(* Integration tests for the end-to-end pipeline, the circuit library and
   the reporting helpers. *)

let check_close tol = Alcotest.(check (float tol))

(* ---------------- circuit library ---------------- *)

let test_buffer_inventory () =
  let nl = Circuits.Buffer.netlist () in
  Alcotest.(check int) "28 transistors" 28 (Circuits.Buffer.transistor_count nl);
  Alcotest.(check bool) "tens of components" true
    (Circuit.Netlist.component_count nl >= 50)

let test_buffer_dc_gain_near_two () =
  let probe vin =
    let mna = Circuits.Buffer.mna ~input_wave:(Circuit.Netlist.Dc vin) () in
    (Engine.Mna.output_values mna (Engine.Dc.solve mna)).(0)
  in
  let gain = (probe 0.92 -. probe 0.88) /. 0.04 in
  Alcotest.(check bool)
    (Printf.sprintf "gain %.2f in [1.6, 2.4]" gain)
    true
    (gain > 1.6 && gain < 2.4)

let test_buffer_saturates () =
  let probe vin =
    let mna = Circuits.Buffer.mna ~input_wave:(Circuit.Netlist.Dc vin) () in
    (Engine.Mna.output_values mna (Engine.Dc.solve mna)).(0)
  in
  let lo = probe 0.4 and hi = probe 1.4 in
  (* clipped symmetric levels, far below linear extrapolation of gain 2 *)
  check_close 1e-2 "symmetric clip" (-.lo) hi;
  Alcotest.(check bool) "hard clipping" true (hi < 0.5)

let test_buffer_bandwidth_ghz () =
  let mna = Circuits.Buffer.mna ~input_wave:(Circuit.Netlist.Dc 0.9) () in
  let at = Engine.Dc.solve mna in
  let h = Engine.Ac.sweep_siso mna ~at ~freqs_hz:[| 1e6; 2.5e9; 1e10 |] in
  let dc = Complex.norm h.(0) in
  Alcotest.(check bool) "rolloff between 2.5 and 10 GHz" true
    (Complex.norm h.(1) > dc /. sqrt 2.0 /. 1.6
    && Complex.norm h.(2) < dc /. 10.0)

let test_gm_stage_dc () =
  let nl = Circuits.Library.gm_stage ~input_wave:(Circuit.Netlist.Dc 0.9) () in
  let mna =
    Engine.Mna.build ~inputs:[ Circuits.Library.gm_input ]
      ~outputs:[ Circuits.Library.gm_output ] nl
  in
  let v = Engine.Dc.solve mna in
  Alcotest.(check bool) "balanced diff output" true
    (Float.abs (Engine.Mna.output_values mna v).(0) < 1e-6)

let test_rc_ladder_nodes () =
  let nl = Circuits.Library.rc_ladder ~stages:4 () in
  Alcotest.(check int) "components" 9 (Circuit.Netlist.component_count nl)

(* ---------------- pipeline ---------------- *)

let clipper_training =
  {
    Tft_rvf.Pipeline.wave =
      Circuit.Netlist.Sine { offset = 0.3; ampl = 0.5; freq = 1e6; phase = 0.0 };
    t_stop = 1e-6;
    dt = 2.5e-9;
    snapshot_every = 4;
  }

let test_pipeline_clipper_end_to_end () =
  let netlist = Circuits.Library.clipper () in
  let config =
    Tft_rvf.Pipeline.default_config_for ~f_min:1e4 ~f_max:1e9
      ~training:clipper_training ()
  in
  let o =
    Tft_rvf.Pipeline.extract ~config ~netlist ~input:"Vin"
      ~output:Circuits.Library.clipper_output ()
  in
  Alcotest.(check int) "101 samples" 101
    (Array.length o.Tft_rvf.Pipeline.dataset.Tft.Dataset.samples);
  Alcotest.(check bool) "analytic model" true
    (Hammerstein.Hmodel.analytic o.Tft_rvf.Pipeline.model);
  let se =
    Tft_rvf.Report.surface_error ~model:o.Tft_rvf.Pipeline.model
      ~dataset:o.Tft_rvf.Pipeline.dataset ~input:0 ~output:0
  in
  Alcotest.(check bool)
    (Printf.sprintf "surface rms %.1f dB below -25 dB" se.Tft_rvf.Report.rms_db)
    true
    (se.Tft_rvf.Report.rms_db < -25.0)

let test_pipeline_swaps_input_wave () =
  (* the training wave overrides the netlist's own input wave *)
  let netlist = Circuits.Library.clipper ~input_wave:(Circuit.Netlist.Dc 0.0) () in
  let config =
    Tft_rvf.Pipeline.default_config_for ~f_min:1e4 ~f_max:1e9
      ~training:clipper_training ()
  in
  let o =
    Tft_rvf.Pipeline.extract ~config ~netlist ~input:"Vin"
      ~output:Circuits.Library.clipper_output ()
  in
  (* trajectory must span the training sine's range, not sit at DC 0 *)
  let xs =
    Array.map (fun s -> s.Tft.Dataset.x.(0)) o.Tft_rvf.Pipeline.dataset.Tft.Dataset.samples
  in
  let hi = Array.fold_left Float.max neg_infinity xs in
  Alcotest.(check bool) "trajectory spans sine" true (hi > 0.7)

let test_pipeline_unknown_input () =
  let netlist = Circuits.Library.clipper () in
  let config =
    Tft_rvf.Pipeline.default_config_for ~f_min:1e4 ~f_max:1e9
      ~training:clipper_training ()
  in
  Alcotest.(check bool) "unknown input rejected" true
    (match
       Tft_rvf.Pipeline.extract ~config ~netlist ~input:"Vnope"
         ~output:Circuits.Library.clipper_output ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_report_validate_self_consistency () =
  (* validating the reference against itself gives zero error;
     speedup and waveforms are populated *)
  let netlist = Circuits.Library.clipper () in
  let config =
    Tft_rvf.Pipeline.default_config_for ~f_min:1e4 ~f_max:1e9
      ~training:clipper_training ()
  in
  let o =
    Tft_rvf.Pipeline.extract ~config ~netlist ~input:"Vin"
      ~output:Circuits.Library.clipper_output ()
  in
  let wave = Circuit.Netlist.Dc 0.3 in
  let v =
    Tft_rvf.Report.validate ~model:o.Tft_rvf.Pipeline.model ~netlist ~input:"Vin"
      ~output:Circuits.Library.clipper_output ~wave ~t_stop:2e-7 ~dt:1e-9 ()
  in
  (* constant input at a trained state: near-zero error *)
  Alcotest.(check bool)
    (Printf.sprintf "dc hold error %.2e small" v.Tft_rvf.Report.rmse)
    true
    (v.Tft_rvf.Report.rmse < 2e-3);
  Alcotest.(check bool) "timings recorded" true
    (v.Tft_rvf.Report.reference_seconds > 0.0 && v.Tft_rvf.Report.model_seconds >= 0.0)

let test_report_summary_text () =
  let netlist = Circuits.Library.clipper () in
  let config =
    Tft_rvf.Pipeline.default_config_for ~f_min:1e4 ~f_max:1e9
      ~training:clipper_training ()
  in
  let o =
    Tft_rvf.Pipeline.extract ~config ~netlist ~input:"Vin"
      ~output:Circuits.Library.clipper_output ()
  in
  let text = Tft_rvf.Report.summary o in
  Alcotest.(check bool) "mentions poles" true (String.length text > 100)

(* ---------------- the paper's buffer experiment (slow) ---------------- *)

let test_buffer_extraction_quality () =
  let o = Tft_rvf.Pipeline.extract_buffer () in
  let se =
    Tft_rvf.Report.surface_error ~model:o.Tft_rvf.Pipeline.model
      ~dataset:o.Tft_rvf.Pipeline.dataset ~input:0 ~output:0
  in
  (* the paper reports about -60 dB; require better than -45 dB *)
  Alcotest.(check bool)
    (Printf.sprintf "surface rms %.1f dB below -45 dB" se.Tft_rvf.Report.rms_db)
    true
    (se.Tft_rvf.Report.rms_db < -45.0);
  (* bit-pattern validation: better than -25 dB normalized, and faster *)
  let wave = Circuits.Buffer.bit_wave () in
  let t_stop = 32.0 /. 2.5e9 in
  let v =
    Tft_rvf.Report.validate ~model:o.Tft_rvf.Pipeline.model
      ~netlist:(Circuits.Buffer.netlist ()) ~input:Circuits.Buffer.input_name
      ~output:Circuits.Buffer.output ~wave ~t_stop ~dt:(t_stop /. 1280.0) ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "bit-pattern nrmse %.1f dB" v.Tft_rvf.Report.nrmse_db)
    true
    (v.Tft_rvf.Report.nrmse_db < -25.0);
  Alcotest.(check bool)
    (Printf.sprintf "speedup %.0fX > 5X" v.Tft_rvf.Report.speedup)
    true
    (v.Tft_rvf.Report.speedup > 5.0)

let test_tpw_linear_is_accurate () =
  (* on a linear circuit the TPW interpolation is exact up to integration
     error, because every snapshot shares the same (G, C) *)
  (* quasi-static training: RC corner (32 MHz) well above the 1 MHz pump,
     so the snapshot states sit on the DC manifold *)
  let nl = Circuit.Parser.parse_string {|
Vin in 0 SIN(0.5 0.4 1e6)
R1 in out 1k
C1 out 0 5p
|} in
  let mna = Engine.Mna.build ~inputs:[ "Vin" ] ~outputs:[ Engine.Mna.Node "out" ] nl in
  let opts = { Engine.Tran.default_opts with Engine.Tran.snapshot_every = 10 } in
  let run = Engine.Tran.run ~opts mna ~t_stop:1e-6 ~dt:1e-8 in
  let tpw = Tft.Tpw.build ~mna run.Engine.Tran.snapshots in
  let u = Signal.Source.sine ~offset:0.5 ~freq:2e7 ~ampl:0.3 () in
  let t_stop = 1e-7 and dt = 1e-10 in
  let w_tpw = Tft.Tpw.simulate tpw ~u ~t_stop ~dt in
  let nl2 = Circuit.Netlist.make
      (List.map (fun (c : Circuit.Netlist.component) ->
        if c.name = "Vin" then Circuit.Netlist.vsource ~name:"Vin" "in" "0"
          (Circuit.Netlist.Ext u) else c) nl.Circuit.Netlist.components) in
  let mna2 = Engine.Mna.build ~outputs:[ Engine.Mna.Node "out" ] nl2 in
  let ref_run = Engine.Tran.run mna2 ~t_stop ~dt in
  let w_ref = Engine.Tran.output_waveform ref_run 0 in
  Alcotest.(check bool)
    (Printf.sprintf "linear tpw rmse %.2e" (Signal.Waveform.rmse w_ref w_tpw))
    true
    (Signal.Waveform.rmse w_ref w_tpw < 1e-2)

let test_tpw_database_size () =
  let o = Tft_rvf.Pipeline.extract_buffer () in
  let tpw =
    Tft.Tpw.build ~mna:o.Tft_rvf.Pipeline.mna
      o.Tft_rvf.Pipeline.training_run.Engine.Tran.snapshots
  in
  (* the snapshot database dwarfs the analytical model *)
  Alcotest.(check bool) "database larger than 1e5 floats" true
    (Tft.Tpw.size_in_floats tpw > 100_000)

let test_tpw_requires_siso () =
  let nl = Circuits.Library.clipper () in
  let mna = Engine.Mna.build nl in
  Alcotest.(check bool) "no inputs rejected" true
    (match Tft.Tpw.build ~mna [||] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_extract_simo_two_outputs () =
  let netlist = Circuits.Library.clipper () in
  let equations (o : Tft_rvf.Pipeline.outcome) =
    Hammerstein.Hmodel.equations o.Tft_rvf.Pipeline.model
  in
  List.iter
    (fun (label, backend) ->
      let config =
        Tft_rvf.Pipeline.default_config_for ~backend ~f_min:1e4 ~f_max:1e9
          ~training:clipper_training ()
      in
      let simo outputs =
        Tft_rvf.Pipeline.extract_simo ~config ~netlist ~input:"Vin" ~outputs ()
      in
      (match simo [ Engine.Mna.Node "out"; Engine.Mna.Node "in" ] with
      | [ o_out; o_in ] ->
          (* channel 2 observes the driven node itself: unit transfer *)
          let t =
            Hammerstein.Hmodel.transfer o_in.Tft_rvf.Pipeline.model ~x:0.3
              ~s:(Signal.Grid.s_of_hz 1e6)
          in
          Alcotest.(check bool) (label ^ ": driven node has unit gain") true
            (Complex.norm (Complex.sub t Complex.one) < 5e-2);
          (* channel 1 is the usual clipper model *)
          let se =
            Tft_rvf.Report.surface_error ~model:o_out.Tft_rvf.Pipeline.model
              ~dataset:o_out.Tft_rvf.Pipeline.dataset ~input:0 ~output:0
          in
          Alcotest.(check bool) (label ^ ": clipper channel accurate") true
            (se.Tft_rvf.Report.rms_db < -25.0);
          (* both share the same dataset *)
          Alcotest.(check bool) (label ^ ": dataset shared") true
            (o_out.Tft_rvf.Pipeline.dataset == o_in.Tft_rvf.Pipeline.dataset)
      | outcomes ->
          Alcotest.failf "%s: expected two outcomes, got %d" label
            (List.length outcomes));
      (* the SISO entry point is the one-output case of the SIMO one *)
      let siso =
        Tft_rvf.Pipeline.extract ~config ~netlist ~input:"Vin"
          ~output:Circuits.Library.clipper_output ()
      in
      match simo [ Circuits.Library.clipper_output ] with
      | [ o ] ->
          Alcotest.(check string)
            (label ^ ": one-output simo equations identical to extract")
            (equations siso) (equations o)
      | outcomes ->
          Alcotest.failf "%s: expected one outcome, got %d" label
            (List.length outcomes))
    [ ("dense", Engine.Mna.Dense); ("sparse", Engine.Mna.Sparse) ]

let suite =
  [
    Alcotest.test_case "buffer inventory" `Quick test_buffer_inventory;
    Alcotest.test_case "buffer dc gain" `Quick test_buffer_dc_gain_near_two;
    Alcotest.test_case "buffer saturation" `Quick test_buffer_saturates;
    Alcotest.test_case "buffer bandwidth" `Quick test_buffer_bandwidth_ghz;
    Alcotest.test_case "gm stage dc" `Quick test_gm_stage_dc;
    Alcotest.test_case "rc ladder" `Quick test_rc_ladder_nodes;
    Alcotest.test_case "pipeline clipper end-to-end" `Slow test_pipeline_clipper_end_to_end;
    Alcotest.test_case "pipeline swaps wave" `Slow test_pipeline_swaps_input_wave;
    Alcotest.test_case "pipeline unknown input" `Quick test_pipeline_unknown_input;
    Alcotest.test_case "report validate" `Slow test_report_validate_self_consistency;
    Alcotest.test_case "report summary" `Slow test_report_summary_text;
    Alcotest.test_case "buffer extraction quality" `Slow test_buffer_extraction_quality;
    Alcotest.test_case "tpw linear accuracy" `Slow test_tpw_linear_is_accurate;
    Alcotest.test_case "tpw database size" `Slow test_tpw_database_size;
    Alcotest.test_case "tpw requires siso" `Quick test_tpw_requires_siso;
    Alcotest.test_case "extract simo" `Slow test_extract_simo_two_outputs;
  ]
