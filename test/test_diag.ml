(* Tests for the diagnostics collector, its JSON serialization, the
   engine counters it exposes, and the graceful-degradation pipeline.

   The "be fallback" test is a regression test for a real bug: after a
   trapezoidal step retreated to backward Euler, the charge-derivative
   estimate was still computed with the trapezoidal formula against the
   stale qdot, poisoning every subsequent step. The test reconstructs
   the integrator equations externally from the reported trajectory and
   checks each step satisfies the difference scheme that was actually
   used; with the bug present the first post-fallback step violates its
   equation by ~2e-3 against ~1e-11 for the fix. *)

(* ---------------- collector unit tests ---------------- *)

let test_counters_and_stats () =
  let d = Diag.create () in
  let diag = Some d in
  Diag.incr diag "c";
  Diag.incr diag "c";
  Diag.add diag "c" 3;
  Diag.observe diag "s" 1.0;
  Diag.observe diag "s" 3.0;
  Diag.observe diag "s" 2.0;
  let r = Diag.report d in
  Alcotest.(check int) "counter accumulates" 5 (Diag.counter r "c");
  Alcotest.(check int) "absent counter is 0" 0 (Diag.counter r "nope");
  let st = List.find (fun (s : Diag.stat) -> s.Diag.name = "s") r.Diag.stats in
  Alcotest.(check int) "samples" 3 st.Diag.samples;
  Alcotest.(check (float 1e-12)) "min" 1.0 st.Diag.min;
  Alcotest.(check (float 1e-12)) "max" 3.0 st.Diag.max;
  Alcotest.(check (float 1e-12)) "last" 2.0 st.Diag.last;
  Alcotest.(check (float 1e-12)) "mean" 2.0 (Diag.mean st)

let test_notes_and_events () =
  let d = Diag.create () in
  let diag = Some d in
  Diag.note diag "k" "old";
  Diag.note diag "k" "new";
  Diag.info diag ~stage:"a" "fyi";
  Diag.warn diag ~stage:"b" "uh oh";
  let r = Diag.report d in
  Alcotest.(check (option string)) "latest note wins" (Some "new")
    (Diag.find_note r "k");
  Alcotest.(check int) "two events" 2 (List.length r.Diag.events);
  Alcotest.(check int) "one warning" 1 (List.length (Diag.warnings r));
  Alcotest.(check bool) "no errors yet" false (Diag.has_errors r);
  Diag.error diag ~stage:"c" "boom";
  Alcotest.(check bool) "error detected" true (Diag.has_errors (Diag.report d))

let test_span_survives_raise () =
  let d = Diag.create () in
  let diag = Some d in
  Alcotest.(check int) "span returns" 42 (Diag.span diag "ok" (fun () -> 42));
  (try Diag.span diag "bad" (fun () -> failwith "x")
   with Failure _ -> 0)
  |> ignore;
  let stages =
    List.map (fun (s : Diag.span) -> s.Diag.stage) (Diag.report d).Diag.spans
  in
  Alcotest.(check (list string)) "both spans recorded" [ "ok"; "bad" ] stages;
  List.iter
    (fun (s : Diag.span) ->
      Alcotest.(check bool) "non-negative duration" true (s.Diag.seconds >= 0.0))
    (Diag.report d).Diag.spans

let test_none_is_noop () =
  (* every entry point must tolerate an absent collector *)
  Diag.incr None "c";
  Diag.add None "c" 2;
  Diag.observe None "s" 1.0;
  Diag.note None "k" "v";
  Diag.info None ~stage:"a" "m";
  Diag.warn None ~stage:"a" "m";
  Diag.error None ~stage:"a" "m";
  Alcotest.(check int) "span still runs f" 7 (Diag.span None "x" (fun () -> 7))

let test_diag_json_shape_and_escaping () =
  let d = Diag.create () in
  let diag = Some d in
  Diag.incr diag "tran.steps";
  Diag.observe diag "vf.freq.sigma_rms" 0.5;
  Diag.note diag "quoted" "say \"hi\"\nthere";
  Diag.warn diag ~stage:"engine.tran" "tab\there";
  let js = Obs_bundle.diag_json (Diag.report d) in
  let contains needle =
    let nl = String.length needle and hl = String.length js in
    let rec go i = i + nl <= hl && (String.sub js i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "json has %s" s) true (contains s))
    [
      "\"schema_version\": 1";
      "\"spans\"";
      "\"counters\"";
      "\"tran.steps\": 1";
      "\"stats\"";
      "\"vf.freq.sigma_rms\"";
      "\"events\"";
      "\"notes\"";
      (* escaping: embedded quote, newline and tab must be escaped *)
      "say \\\"hi\\\"\\nthere";
      "tab\\there";
    ];
  Alcotest.(check bool) "no raw newline inside strings" true
    (not (contains "say \"hi\""))

(* ---------------- engine counters ---------------- *)

(* A stiff rectifier: a fast diode charging a slow RC through a small
   series resistance. With max_iter = 20 the pulse edge makes exactly
   one trapezoidal step fail and retreat to backward Euler. *)
let stiff_circuit () =
  Circuit.Netlist.make
    [
      Circuit.Netlist.vsource ~name:"Vin" "in" Circuit.Netlist.ground
        (Circuit.Netlist.Pulse
           {
             low = 0.0;
             high = 5.0;
             delay = 2e-6;
             rise = 1e-9;
             width = 50e-6;
             period = 1e-3;
           });
      Circuit.Netlist.resistor ~name:"Rs" "in" "a" 10.0;
      Circuit.Netlist.diode ~name:"D1" "a" "b" ();
      Circuit.Netlist.capacitor ~name:"C1" "b" Circuit.Netlist.ground 1e-9;
      Circuit.Netlist.resistor ~name:"Rl" "b" Circuit.Netlist.ground 1e3;
    ]

let stiff_mna () =
  Engine.Mna.build ~inputs:[ "Vin" ] ~outputs:[ Engine.Mna.Node "b" ]
    (stiff_circuit ())

let run_stiff ~diag =
  let opts =
    {
      Engine.Tran.default_opts with
      Engine.Tran.newton = { Engine.Dc.default_opts with Engine.Dc.max_iter = 20 };
    }
  in
  let mna = stiff_mna () in
  (mna, Engine.Tran.run ~opts ~diag mna ~t_stop:20e-6 ~dt:5e-7)

let test_dc_solve_counts_iterations () =
  let d = Diag.create () in
  let v = Engine.Dc.solve ~diag:d ~time:3e-6 (stiff_mna ()) in
  Alcotest.(check bool) "solved" true (Array.length v > 0);
  Alcotest.(check bool) "dc.newton_iterations recorded" true
    (Diag.counter (Diag.report d) "dc.newton_iterations" > 0)

let test_newton_counted_per_iteration () =
  (* regression: the counter used to be bumped once per time step, not
     once per Newton iteration, so it always equalled the step count *)
  let d = Diag.create () in
  let _, r = run_stiff ~diag:d in
  let steps = Array.length r.Engine.Tran.times - 1 in
  let report = Diag.report d in
  Alcotest.(check int) "tran.steps counter" steps
    (Diag.counter report "tran.steps");
  Alcotest.(check int) "field and counter agree" r.Engine.Tran.newton_iterations
    (Diag.counter report "tran.newton_iterations");
  Alcotest.(check bool)
    (Printf.sprintf "newton %d strictly exceeds steps %d"
       r.Engine.Tran.newton_iterations steps)
    true
    (r.Engine.Tran.newton_iterations > steps)

(* "trapezoidal step at t=... retreated" — pull the time back out *)
let parse_fallback_time msg =
  match String.index_opt msg '=' with
  | None -> None
  | Some i ->
      let rest = String.sub msg (i + 1) (String.length msg - i - 1) in
      let stop =
        match String.index_opt rest ' ' with
        | Some j -> j
        | None -> String.length rest
      in
      float_of_string_opt (String.sub rest 0 stop)

let test_be_fallback_consistency () =
  let d = Diag.create () in
  let mna, r = run_stiff ~diag:d in
  let report = Diag.report d in
  Alcotest.(check bool) "at least one fallback" true
    (r.Engine.Tran.be_fallbacks >= 1);
  Alcotest.(check int) "fallback counter agrees" r.Engine.Tran.be_fallbacks
    (Diag.counter report "tran.be_fallbacks");
  let fb_times =
    List.filter_map
      (fun (e : Diag.event) ->
        if e.Diag.level = Diag.Warning && e.Diag.stage = "engine.tran" then
          parse_fallback_time e.Diag.message
        else None)
      report.Diag.events
  in
  Alcotest.(check int) "every fallback leaves a parseable warning"
    r.Engine.Tran.be_fallbacks (List.length fb_times);
  (* Reconstruct the integrator equations step by step. A trapezoidal
     step must satisfy i(v_k) + (2/h)(q_k − q_{k−1}) − qdot_{k−1} = 0
     and a fallback step i(v_k) + (1/h)(q_k − q_{k−1}) = 0, with qdot
     propagated by the formula of the scheme actually used. *)
  let n = Engine.Mna.size mna in
  let times = r.Engine.Tran.times and states = r.Engine.Tran.states in
  let ev0 = Engine.Mna.eval mna ~with_matrices:false ~time:0.0 states.(0) in
  let q_prev = ref ev0.Engine.Mna.q_vec in
  let qdot = ref (Array.make n 0.0) in
  let worst = ref 0.0 in
  for k = 1 to Array.length times - 1 do
    let h = times.(k) -. times.(k - 1) in
    let is_fb =
      List.exists (fun t -> Float.abs (t -. times.(k)) < h /. 2.0) fb_times
    in
    let ev =
      Engine.Mna.eval mna ~with_matrices:false ~time:times.(k) states.(k)
    in
    let q = ev.Engine.Mna.q_vec in
    let alpha = if is_fb then 1.0 /. h else 2.0 /. h in
    for j = 0 to n - 1 do
      let qterm = if is_fb then 0.0 else !qdot.(j) in
      let f =
        ev.Engine.Mna.i_vec.(j) +. (alpha *. (q.(j) -. (!q_prev).(j))) -. qterm
      in
      worst := Float.max !worst (Float.abs f)
    done;
    qdot :=
      Array.init n (fun j ->
          if is_fb then (q.(j) -. (!q_prev).(j)) /. h
          else ((2.0 /. h) *. (q.(j) -. (!q_prev).(j))) -. !qdot.(j));
    q_prev := q
  done;
  (* fixed build: ~1e-11; with the stale-qdot bug: ~2e-3 *)
  Alcotest.(check bool)
    (Printf.sprintf "worst integrator residual %.3e < 1e-6" !worst)
    true (!worst < 1e-6)

let test_adaptive_counters_agree () =
  let d = Diag.create () in
  let mna = stiff_mna () in
  let r = Engine.Tran.run_adaptive ~diag:d mna ~t_stop:20e-6 ~dt:5e-7 in
  let report = Diag.report d in
  Alcotest.(check int) "rejection counter agrees" r.Engine.Tran.step_rejections
    (Diag.counter report "tran.step_rejections");
  Alcotest.(check int) "accepted steps counted"
    (Array.length r.Engine.Tran.times - 1)
    (Diag.counter report "tran.steps")

(* ---------------- vector fitting failure reporting ---------------- *)

let test_fit_auto_reports_reason () =
  (* one data point can never support a 4-pole model: every escalation
     attempt fails, and the raised message must carry the reason *)
  let points = [| Complex.{ re = 0.0; im = 1.0 } |] in
  let data = [| [| Complex.one |] |] in
  let make_poles n =
    Array.init n (fun k -> { Complex.re = -1.0 -. float_of_int k; im = 0.0 })
  in
  let d = Diag.create () in
  let raised =
    try
      let _ =
        Vf.Vfit.fit_auto ~diag:d ~label:"vf.test" ~make_poles ~start:4
          ~max_poles:4 ~tol:1e-6 ~points ~data ()
      in
      None
    with Invalid_argument m -> Some m
  in
  match raised with
  | None -> Alcotest.fail "fit_auto should have failed"
  | Some m ->
      let contains needle =
        let nl = String.length needle and hl = String.length m in
        let rec go i =
          i + nl <= hl && (String.sub m i nl = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "message %S names the last attempt" m)
        true
        (contains "last attempt: 4 poles");
      Alcotest.(check bool) "error event recorded" true
        (Diag.has_errors (Diag.report d))

(* ---------------- graceful degradation ---------------- *)

let clipper_training =
  {
    Tft_rvf.Pipeline.wave =
      Circuit.Netlist.Sine { offset = 0.3; ampl = 0.5; freq = 1e6; phase = 0.0 };
    t_stop = 1e-6;
    dt = 2.5e-9;
    snapshot_every = 4;
  }

let test_escalation_ladder_shape () =
  let ladder = Tft_rvf.Pipeline.escalation_ladder Rvf.default_config in
  Alcotest.(check int) "five rungs" 5 (List.length ladder);
  (match ladder with
  | ("base", c) :: _ ->
      Alcotest.(check bool) "base rung is the untouched config" true
        (c = Rvf.default_config)
  | _ -> Alcotest.fail "first rung must be base");
  let relaxed = List.assoc "relaxed-min-imag" ladder in
  Alcotest.(check (float 1e-15)) "min_imag relaxed by 4x"
    (Rvf.default_config.Rvf.min_imag_fraction /. 4.0)
    relaxed.Rvf.min_imag_fraction;
  let more = List.assoc "more-start-poles" ladder in
  Alcotest.(check bool) "start poles bumped" true
    (more.Rvf.freq_start > Rvf.default_config.Rvf.freq_start)

let test_try_extract_matches_raising_path () =
  (* acceptance: when the base rung succeeds, the non-raising path must
     hand back bit-for-bit the model of the raising path *)
  let config = Tft_rvf.Pipeline.buffer_config ~snapshots:30 () in
  let netlist = Circuits.Buffer.netlist () in
  let input = Circuits.Buffer.input_name and output = Circuits.Buffer.output in
  let raising = Tft_rvf.Pipeline.extract ~config ~netlist ~input ~output () in
  let outcome, report =
    Tft_rvf.Pipeline.try_extract ~config ~netlist ~input ~output ()
  in
  match outcome with
  | None -> Alcotest.fail "try_extract failed on the buffer example"
  | Some o ->
      Alcotest.(check string) "identical equations"
        (Hammerstein.Hmodel.equations raising.Tft_rvf.Pipeline.model)
        (Hammerstein.Hmodel.equations o.Tft_rvf.Pipeline.model);
      (* the frozen-state transfer surface must agree exactly, not just
         to a tolerance: same config, same arithmetic, same bits *)
      List.iter
        (fun (x, f) ->
          let s = Complex.{ re = 0.0; im = 2.0 *. Float.pi *. f } in
          let a =
            Hammerstein.Hmodel.transfer raising.Tft_rvf.Pipeline.model ~x ~s
          in
          let b = Hammerstein.Hmodel.transfer o.Tft_rvf.Pipeline.model ~x ~s in
          Alcotest.(check bool)
            (Printf.sprintf "transfer at x=%.2f f=%.0e bit-identical" x f)
            true
            (a.Complex.re = b.Complex.re && a.Complex.im = b.Complex.im))
        [ (0.2, 1e4); (0.9, 1e6); (1.4, 1e9) ];
      Alcotest.(check (option string)) "base rung" (Some "base")
        (Diag.find_note report "pipeline.ladder_rung");
      Alcotest.(check bool) "no errors" false (Diag.has_errors report);
      let stages =
        List.map (fun (s : Diag.span) -> s.Diag.stage) report.Diag.spans
      in
      List.iter
        (fun st ->
          Alcotest.(check bool) (Printf.sprintf "span %s present" st) true
            (List.mem st stages))
        [ "pipeline.train"; "pipeline.tft"; "pipeline.fit" ];
      Alcotest.(check bool) "transient telemetry captured" true
        (Diag.counter report "tran.steps" > 0)

let test_try_extract_degenerate_names_stage () =
  (* 400 steps with snapshot_every = 200 yields 3 snapshots — below the
     4-sample floor of the fit, so every ladder rung must fail and the
     report must say which stage gave up *)
  let config =
    Tft_rvf.Pipeline.default_config_for ~f_min:1e4 ~f_max:1e9
      ~training:{ clipper_training with Tft_rvf.Pipeline.snapshot_every = 200 }
      ()
  in
  let outcome, report =
    Tft_rvf.Pipeline.try_extract ~config
      ~netlist:(Circuits.Library.clipper ())
      ~input:"Vin" ~output:Circuits.Library.clipper_output ()
  in
  Alcotest.(check bool) "no model" true (outcome = None);
  Alcotest.(check bool) "report has errors" true (Diag.has_errors report);
  Alcotest.(check int) "every rung retried" 5
    (Diag.counter report "pipeline.fit_retries");
  Alcotest.(check bool) "failure names the fit stage" true
    (List.exists
       (fun (e : Diag.event) ->
         e.Diag.level = Diag.Error && e.Diag.stage = "pipeline.fit")
       report.Diag.events)

let suite =
  [
    Alcotest.test_case "counters and stats" `Quick test_counters_and_stats;
    Alcotest.test_case "notes and events" `Quick test_notes_and_events;
    Alcotest.test_case "span survives raise" `Quick test_span_survives_raise;
    Alcotest.test_case "none is noop" `Quick test_none_is_noop;
    Alcotest.test_case "diag json shape" `Quick test_diag_json_shape_and_escaping;
    Alcotest.test_case "dc solve iteration counter" `Quick
      test_dc_solve_counts_iterations;
    Alcotest.test_case "newton counted per iteration" `Quick
      test_newton_counted_per_iteration;
    Alcotest.test_case "be fallback consistency" `Quick
      test_be_fallback_consistency;
    Alcotest.test_case "adaptive counters agree" `Quick
      test_adaptive_counters_agree;
    Alcotest.test_case "fit_auto failure reason" `Quick
      test_fit_auto_reports_reason;
    Alcotest.test_case "escalation ladder shape" `Quick
      test_escalation_ladder_shape;
    Alcotest.test_case "try_extract parity" `Slow
      test_try_extract_matches_raising_path;
    Alcotest.test_case "try_extract degenerate" `Quick
      test_try_extract_degenerate_names_stage;
  ]
