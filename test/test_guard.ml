(* Tests for the always-on numerical checks (typed Singular payloads,
   reciprocal-condition floors, step halving, snapshot quarantine, VF
   pole repair) and the deterministic fault-injection harness, including
   per-rung coverage of the escalation ladder and the recovery of the
   plain pipeline entry points. *)

let cx re im = { Complex.re; im }

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let cx_bits_equal (a : Complex.t) (b : Complex.t) =
  bits_equal a.Complex.re b.Complex.re && bits_equal a.Complex.im b.Complex.im

(* every test must leave the process-wide fault plan disarmed, even on
   an assertion failure, or it would poison the tests that follow *)
let with_plan f =
  Fun.protect ~finally:(fun () -> ignore (Fault.disarm ())) f

(* ---------------- typed Singular + rcond floors ---------------- *)

let test_lu_singular_payload () =
  let a = Linalg.Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  match Linalg.Lu.factor a with
  | exception Linalg.Lu.Singular { pivot_index; magnitude } ->
      Alcotest.(check int) "second pivot" 1 pivot_index;
      Alcotest.(check bool) "degenerate magnitude" true (magnitude < 1e-12)
  | _ -> Alcotest.fail "rank-1 matrix factored"

let test_lu_tiny_pivot () =
  (* below the 1e-300 floor: elimination would "succeed" with garbage *)
  let a = Linalg.Mat.of_arrays [| [| 1e-310; 0.0 |]; [| 0.0; 1.0 |] |] in
  match Linalg.Lu.factor a with
  | exception Linalg.Lu.Singular { magnitude; _ } ->
      Alcotest.(check bool) "tiny" true (magnitude < 1e-300)
  | _ -> Alcotest.fail "tiny pivot accepted"

let test_lu_rcond_floor () =
  let id = Linalg.Lu.factor (Linalg.Mat.identity 3) in
  Alcotest.(check (float 1e-12)) "identity rcond" 1.0
    (Linalg.Lu.rcond_estimate id);
  let diag d = Linalg.Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; d |] |] in
  (* a diagonal ratio of 1e-8 is above the 1e-12 floor ... *)
  let f = Linalg.Lu.factor (diag 1e-8) in
  Alcotest.(check bool) "diagonal ratio" true
    (let r = Linalg.Lu.rcond_estimate f in
     r > 1e-9 && r < 1e-7);
  (* ... one of 1e-13 is below it: the typed Singular names the weakest
     pivot *)
  match Linalg.Lu.factor (diag 1e-13) with
  | exception Linalg.Lu.Singular { pivot_index; magnitude } ->
      Alcotest.(check int) "weakest pivot index" 1 pivot_index;
      Alcotest.(check (float 1e-27)) "weakest pivot reported" 1e-13 magnitude
  | _ -> Alcotest.fail "rcond floor not enforced"

let test_clu_singular_and_rcond () =
  let sing =
    Linalg.Cmat.init 2 2 (fun _ _ -> cx 1.0 1.0)
  in
  (match Linalg.Clu.factor sing with
  | exception Linalg.Clu.Singular { pivot_index; magnitude } ->
      Alcotest.(check int) "second pivot" 1 pivot_index;
      Alcotest.(check bool) "degenerate" true (magnitude < 1e-12)
  | _ -> Alcotest.fail "rank-1 complex matrix factored");
  let ill =
    Linalg.Cmat.init 2 2 (fun i j ->
        if i <> j then Complex.zero else if i = 0 then cx 1.0 0.0 else cx 0.0 1e-8)
  in
  Alcotest.(check bool) "complex rcond" true
    (let r = Linalg.Clu.rcond_estimate (Linalg.Clu.factor ill) in
     r > 1e-9 && r < 1e-7)

let test_guard_violation_printable () =
  match Guard.fail ~site:"test.site" "synthetic" with
  | exception Guard.Violation v ->
      let text = Printexc.to_string (Guard.Violation v) in
      Alcotest.(check bool) "names the site" true
        (Guard.describe v = "guard violation at test.site: synthetic");
      Alcotest.(check bool) "registered printer" true
        (String.length text > 0
        && String.index_opt text '.' <> None)
  | _ -> Alcotest.fail "fail returned"

(* ---------------- the fault harness itself ---------------- *)

let test_fault_schedule () =
  Alcotest.(check (pair int int)) "seed 0" (1, 1) (Fault.schedule_of_seed 0);
  Alcotest.(check (pair int int)) "seed 9" (2, 2) (Fault.schedule_of_seed 9);
  Alcotest.(check (pair int int)) "seed 40" (1, 6) (Fault.schedule_of_seed 40);
  Alcotest.(check (pair (string) int)) "parse bare" ("a.b", 0) (Fault.parse "a.b");
  Alcotest.(check (pair (string) int)) "parse seeded" ("a.b", 7)
    (Fault.parse "a.b:7");
  Alcotest.(check bool) "bad seed rejected" true
    (match Fault.parse "a.b:x" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "unknown site rejected" true
    (match Fault.arm ~site:"no.such.site" () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check int) "14 sites registered" 14 (List.length Fault.sites)

let firing_pattern site n =
  List.init n (fun _ -> Fault.should_fire site)

let test_fault_determinism () =
  with_plan (fun () ->
      (* seed 9: fire on invocations 2 and 3 *)
      Fault.arm ~site:"lu.pivot_zero" ~seed:9 ();
      Alcotest.(check string) "armed" "lu.pivot_zero"
        (Option.value ~default:"-" (Fault.armed ()));
      let first = firing_pattern "lu.pivot_zero" 6 in
      Alcotest.(check (list bool)) "window [2,3]"
        [ false; true; true; false; false; false ]
        first;
      (* a probe for a different site neither fires nor counts *)
      Alcotest.(check bool) "other site inert" false
        (Fault.should_fire "clu.pivot_zero");
      (match Fault.stats () with
      | Some s ->
          Alcotest.(check int) "calls" 6 s.Fault.calls;
          Alcotest.(check int) "fires" 2 s.Fault.fires
      | None -> Alcotest.fail "no stats while armed");
      (* re-arming restarts the identical schedule *)
      Fault.arm ~site:"lu.pivot_zero" ~seed:9 ();
      Alcotest.(check (list bool)) "reproducible" first
        (firing_pattern "lu.pivot_zero" 6);
      ignore (Fault.disarm ());
      Alcotest.(check bool) "disarmed" true (Fault.armed () = None);
      Alcotest.(check bool) "inert after disarm" false
        (Fault.should_fire "lu.pivot_zero"))

(* ---------------- recovery paths under injection ---------------- *)

let test_dc_gmin_recovery () =
  with_plan (fun () ->
      let mna = Circuits.Buffer.mna ~input_wave:(Circuit.Netlist.Dc 0.9) () in
      let clean = Engine.Dc.solve mna in
      Fault.arm ~site:"dc.newton_diverge" ~seed:0 ();
      let obs = Obs.create () in
      let v = Engine.Dc.solve ~obs mna in
      let stats = Option.get (Fault.disarm ()) in
      Alcotest.(check bool) "probe fired" true (stats.Fault.fires >= 1);
      Alcotest.(check bool) "gmin stepping engaged" true
        (Obs.counter obs "dc.gmin_continuations" >= 1
        || Obs.counter obs "dc.gmin_levels" >= 1);
      let worst = ref 0.0 in
      Array.iteri
        (fun i x -> worst := Float.max !worst (Float.abs (x -. clean.(i))))
        v;
      Alcotest.(check bool)
        (Printf.sprintf "same operating point (%.2e)" !worst)
        true (!worst < 1e-6))

let test_tran_step_halving () =
  let mna =
    Circuits.Buffer.mna ~input_wave:(Circuits.Buffer.training_wave ()) ()
  in
  let dt = 1.0 /. 50e6 /. 400.0 in
  let t_stop = 20.0 *. dt in
  let clean = Engine.Tran.run mna ~t_stop ~dt in
  (* invocations 3 and 4 are one step's trapezoidal attempt and its
     backward-Euler retreat: the step is re-integrated as BE substeps *)
  with_plan (fun () ->
      Fault.arm_exact ~site:"tran.newton_diverge" ~fire_at:3 ~burst:2 ();
      let obs = Obs.create () in
      let halved = Engine.Tran.run ~obs mna ~t_stop ~dt in
      let stats = Option.get (Fault.disarm ()) in
      Alcotest.(check int) "both attempts hit" 2 stats.Fault.fires;
      Alcotest.(check bool) "halving recorded" true
        (Obs.counter obs "tran.step_halvings" >= 1);
      Alcotest.(check int) "step_rejections mirrors counter"
        (Obs.counter obs "tran.step_rejections")
        halved.Engine.Tran.step_rejections;
      Alcotest.(check int) "full step count"
        (Array.length clean.Engine.Tran.times)
        (Array.length halved.Engine.Tran.times);
      let n = Array.length clean.Engine.Tran.times - 1 in
      let diff =
        Float.abs
          (Linalg.Mat.get clean.Engine.Tran.outputs n 0
          -. Linalg.Mat.get halved.Engine.Tran.outputs n 0)
      in
      Alcotest.(check bool)
        (Printf.sprintf "endpoint agrees (%.2e)" diff)
        true (diff < 1e-3))

(* ---------------- snapshot quarantine ---------------- *)

let quarantine_fixture () =
  let nl =
    Circuit.Parser.parse_string
      {|
Vin in 0 SIN(0.5 0.4 1e6)
R1 in out 1k
C1 out 0 5p
|}
  in
  let mna =
    Engine.Mna.build ~inputs:[ "Vin" ] ~outputs:[ Engine.Mna.Node "out" ] nl
  in
  let opts = { Engine.Tran.default_opts with Engine.Tran.snapshot_every = 10 } in
  let run = Engine.Tran.run ~opts mna ~t_stop:1e-6 ~dt:1e-8 in
  let freqs = Signal.Grid.frequencies_hz ~f_min:1e3 ~f_max:1e8 ~points:6 in
  (mna, Tft.Estimator.make (), freqs, run.Engine.Tran.snapshots)

let dataset_finite (ds : Tft.Dataset.t) =
  Array.for_all
    (fun (s : Tft.Dataset.sample) ->
      Array.for_all
        (fun hm ->
          let ok = ref true in
          for i = 0 to Linalg.Cmat.rows hm - 1 do
            for j = 0 to Linalg.Cmat.cols hm - 1 do
              let v = Linalg.Cmat.get hm i j in
              if not (Float.is_finite v.Complex.re && Float.is_finite v.Complex.im)
              then ok := false
            done
          done;
          !ok)
        s.Tft.Dataset.h)
    ds.Tft.Dataset.samples

let test_quarantine_interpolate () =
  let mna, estimator, freqs_hz, snaps = quarantine_fixture () in
  let clean = Tft.Dataset.of_snapshots ~mna ~estimator ~freqs_hz snaps in
  with_plan (fun () ->
      Fault.arm_exact ~site:"dataset.snapshot_burst" ~fire_at:3 ~burst:2 ();
      let obs = Obs.create () in
      let ds =
        Tft.Dataset.of_snapshots ~obs ~mna ~estimator ~freqs_hz snaps
      in
      let stats = Option.get (Fault.disarm ()) in
      Alcotest.(check int) "two snapshots corrupted" 2 stats.Fault.fires;
      Alcotest.(check int) "quarantined" 2
        (Obs.counter obs "dataset.quarantined");
      Alcotest.(check int) "repaired" 2 (Obs.counter obs "dataset.repaired");
      Alcotest.(check int) "sample count kept"
        (Array.length clean.Tft.Dataset.samples)
        (Array.length ds.Tft.Dataset.samples);
      Alcotest.(check bool) "all finite after repair" true (dataset_finite ds))

let test_quarantine_pool_deterministic () =
  let mna, estimator, freqs_hz, snaps = quarantine_fixture () in
  let build ?pool () =
    with_plan (fun () ->
        Fault.arm_exact ~site:"dataset.snapshot_burst" ~fire_at:3 ~burst:2 ();
        Tft.Dataset.of_snapshots ?pool ~mna ~estimator ~freqs_hz snaps)
  in
  let seq = build () in
  let par = Exec.with_pool ~domains:2 (fun pool -> build ~pool ()) in
  Alcotest.(check int) "same sample count"
    (Array.length seq.Tft.Dataset.samples)
    (Array.length par.Tft.Dataset.samples);
  Array.iteri
    (fun k (a : Tft.Dataset.sample) ->
      let b = par.Tft.Dataset.samples.(k) in
      Array.iteri
        (fun l ha ->
          let hb = b.Tft.Dataset.h.(l) in
          for i = 0 to Linalg.Cmat.rows ha - 1 do
            for j = 0 to Linalg.Cmat.cols ha - 1 do
              Alcotest.(check bool) "bit-identical under pool" true
                (cx_bits_equal (Linalg.Cmat.get ha i j) (Linalg.Cmat.get hb i j))
            done
          done)
        a.Tft.Dataset.h)
    seq.Tft.Dataset.samples

(* ---------------- VF pole guard ---------------- *)

let test_vf_pole_flip_repaired () =
  let true_poles = [| cx (-1e4) 5e4; cx (-1e4) (-5e4) |] in
  let true_res = [| cx 5e3 1e3; cx 5e3 (-1e3) |] in
  let synth s =
    Array.fold_left
      (fun acc (a, r) -> Complex.add acc (Complex.div r (Complex.sub s a)))
      Complex.zero
      [| (true_poles.(0), true_res.(0)); (true_poles.(1), true_res.(1)) |]
  in
  let freqs = Signal.Grid.logspace 1e2 1e6 50 in
  let points = Array.map Signal.Grid.s_of_hz freqs in
  let data = [| Array.map synth points |] in
  let poles0 = Vf.Pole.initial_frequency ~f_min:1e2 ~f_max:1e6 ~count:2 in
  with_plan (fun () ->
      Fault.arm ~site:"vf.pole_flip" ~seed:0 ();
      let obs = Obs.create () in
      (* a single relocation sweep: the injected flip lands on the last
         sweep, so only the post-loop check can repair it *)
      let opts =
        { Vf.Vfit.default_frequency_opts with Vf.Vfit.iterations = 1 }
      in
      let model, _ =
        Vf.Vfit.fit ~opts ~obs ~poles:poles0 ~points ~data ()
      in
      let stats = Option.get (Fault.disarm ()) in
      Alcotest.(check bool) "flip injected" true (stats.Fault.fires >= 1);
      Array.iter
        (fun a ->
          Alcotest.(check bool) "repaired to LHP" true (a.Complex.re < 0.0))
        model.Vf.Model.poles;
      Alcotest.(check bool) "repair counted" true
        (Obs.counter obs "vfit.guard_stabilized" >= 1))

(* ---------------- error_json shape ---------------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* the CLI's error object is written from the failed run's hub: the
   first error names the stage, warnings and errors are inlined in
   recording order, notes carry their latest value, and every string
   is JSON-escaped *)
let test_error_json_shape () =
  let obs = Obs.create () in
  let o = Some obs in
  Obs.note o "guard.enabled" "false";
  Obs.warn o ~stage:"pipeline.fit" "rung \"base\" failed";
  Obs.error o ~stage:"pipeline.fit" "all rungs failed";
  Obs.note o "say \"hi\"" "line\nbreak\ttab";
  Obs.error o ~stage:"stage\t\"two\"" "second\nerror";
  Obs.note o "guard.enabled" "true";
  Obs.count o "pipeline.fit_retries" 5;
  let text = Tft_rvf.Report.error_json obs in
  let root = Minijson.parse text in
  Alcotest.(check (option (float 0.0))) "schema_version" (Some 1.0)
    (Minijson.num_field root "schema_version");
  let error = Option.get (Minijson.field root "error") in
  Alcotest.(check (option string)) "stage" (Some "pipeline.fit")
    (Minijson.str_field error "stage");
  Alcotest.(check (option string)) "message" (Some "all rungs failed")
    (Minijson.str_field error "message");
  Alcotest.(check (option (float 0.0))) "fit_retries" (Some 5.0)
    (Minijson.num_field root "fit_retries");
  let events = Option.get (Minijson.arr_field root "events") in
  Alcotest.(check (list (triple string string string)))
    "warning + errors inlined in order"
    [
      ("warning", "pipeline.fit", "rung \"base\" failed");
      ("error", "pipeline.fit", "all rungs failed");
      ("error", "stage\t\"two\"", "second\nerror");
    ]
    (List.map
       (fun e ->
         let f k = Option.get (Minijson.str_field e k) in
         (f "level", f "stage", f "message"))
       events);
  Alcotest.(check (list (pair string string))) "notes carried, latest last"
    [ ("say \"hi\"", "line\nbreak\ttab"); ("guard.enabled", "true") ]
    (List.map
       (fun (k, v) -> (k, Option.get (Minijson.as_str v)))
       (Option.get (Minijson.obj_field root "notes")));
  (* escaping: no raw quote, newline or tab survives inside a string *)
  let contains needle = contains ~needle text in
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "json has %s" s) true (contains s))
    [
      "rung \\\"base\\\" failed";
      "stage\\t\\\"two\\\"";
      "second\\nerror";
      "\"say \\\"hi\\\"\": \"line\\nbreak\\ttab\"";
    ];
  Alcotest.(check bool) "no raw tab" false (String.contains text '\t');
  Alcotest.(check bool) "no raw newline inside strings" false
    (contains "second\nerror")

(* ---------------- ladder rung coverage (slow) ---------------- *)

let buffer_try ?(config = Tft_rvf.Pipeline.buffer_config ~snapshots:30 ())
    ~arm () =
  with_plan (fun () ->
      arm ();
      Tft_rvf.Pipeline.try_extract ~config
        ~netlist:(Circuits.Buffer.netlist ())
        ~input:Circuits.Buffer.input_name ~output:Circuits.Buffer.output ())

let rung_of hub = List.assoc_opt "pipeline.ladder_rung" (Obs.notes hub)

let trace_nan_burst burst () =
  Fault.arm_exact ~site:"rvf.trace_nan" ~fire_at:1 ~burst ()

let test_ladder_every_rung () =
  (* rvf.trace_nan fires once per Rvf.extract call, so a burst of k
     defeats exactly the first k rungs: every rung of the PR-2
     escalation ladder is exercised by an injected fault *)
  let rungs =
    [ "base"; "more-start-poles"; "switched-weighting"; "relaxed-min-imag";
      "combined" ]
  in
  List.iteri
    (fun burst expected ->
      let outcome, hub = buffer_try ~arm:(trace_nan_burst burst) () in
      Alcotest.(check bool)
        (Printf.sprintf "burst %d yields a model" burst)
        true (outcome <> None);
      Alcotest.(check (option string))
        (Printf.sprintf "burst %d settles on rung %s" burst expected)
        (Some expected) (rung_of hub);
      Alcotest.(check int)
        (Printf.sprintf "burst %d retries" burst)
        burst
        (Obs.counter hub "pipeline.fit_retries"))
    rungs;
  (* one more than the ladder's length: exhaustion, typed error *)
  let outcome, hub =
    buffer_try ~arm:(trace_nan_burst (List.length rungs)) ()
  in
  Alcotest.(check bool) "exhausted ladder yields no model" true
    (outcome = None);
  Alcotest.(check bool) "failure recorded as Error" true
    (List.exists (fun (kind, _, _) -> kind = `Error) (Obs.messages hub))

(* ---------------- the plain entry points (slow) ---------------- *)

let finite_model (o : Tft_rvf.Pipeline.outcome) =
  let se =
    Tft_rvf.Report.surface_error ~model:o.Tft_rvf.Pipeline.model
      ~dataset:o.Tft_rvf.Pipeline.dataset ~input:0 ~output:0
  in
  Float.is_finite se.Tft_rvf.Report.rms

let test_snapshot_burst_repaired () =
  (* the first snapshot's transfer data turns NaN: the quarantine
     rebuilds it from its neighbour, so the base rung still fits *)
  let outcome, hub =
    buffer_try
      ~arm:(fun () -> Fault.arm ~site:"dataset.snapshot_burst" ~seed:0 ())
      ()
  in
  match outcome with
  | None -> Alcotest.fail "a repaired burst must still yield a model"
  | Some o ->
      Alcotest.(check bool) "finite model" true (finite_model o);
      Alcotest.(check (option string)) "base rung" (Some "base") (rung_of hub);
      Alcotest.(check bool) "sample repaired" true
        (Obs.counter hub "dataset.repaired" >= 1)

let test_trace_nan_escalates () =
  (* a NaN residue trace is caught before the state fit and the ladder
     climbs one rung *)
  let outcome, hub =
    buffer_try ~arm:(fun () -> Fault.arm ~site:"rvf.trace_nan" ~seed:0 ()) ()
  in
  Alcotest.(check bool) "model recovered" true (outcome <> None);
  Alcotest.(check (option string)) "second rung" (Some "more-start-poles")
    (rung_of hub);
  Alcotest.(check bool) "rvf.trace violation recorded" true
    (List.exists
       (fun (kind, _, message) ->
         kind = `Warning
         && contains ~needle:"guard violation at rvf.trace" message)
       (Obs.messages hub))

let test_slope_term_fails_typed () =
  (* a state-axis slope term cannot be integrated into a static
     function: every rung fails typed instead of raising *)
  let base = Tft_rvf.Pipeline.buffer_config ~snapshots:30 () in
  let rvf = base.Tft_rvf.Pipeline.rvf in
  let config =
    {
      base with
      Tft_rvf.Pipeline.rvf =
        {
          rvf with
          Rvf.state_opts =
            { rvf.Rvf.state_opts with Vf.Vfit.with_slope = true };
        };
    }
  in
  let outcome, hub = buffer_try ~config ~arm:ignore () in
  Alcotest.(check bool) "no model" true (outcome = None);
  Alcotest.(check bool) "Error event at pipeline.fit" true
    (List.exists
       (fun (kind, stage, _) -> kind = `Error && stage = "pipeline.fit")
       (Obs.messages hub))

let suite =
  [
    Alcotest.test_case "lu singular payload" `Quick test_lu_singular_payload;
    Alcotest.test_case "lu tiny pivot" `Quick test_lu_tiny_pivot;
    Alcotest.test_case "lu rcond floor" `Quick test_lu_rcond_floor;
    Alcotest.test_case "clu singular + rcond" `Quick test_clu_singular_and_rcond;
    Alcotest.test_case "violation printable" `Quick test_guard_violation_printable;
    Alcotest.test_case "fault schedule" `Quick test_fault_schedule;
    Alcotest.test_case "fault determinism" `Quick test_fault_determinism;
    Alcotest.test_case "dc gmin recovery" `Quick test_dc_gmin_recovery;
    Alcotest.test_case "tran step halving" `Quick test_tran_step_halving;
    Alcotest.test_case "quarantine interpolate" `Quick test_quarantine_interpolate;
    Alcotest.test_case "quarantine pool determinism" `Quick
      test_quarantine_pool_deterministic;
    Alcotest.test_case "vf pole flip repaired" `Quick test_vf_pole_flip_repaired;
    Alcotest.test_case "error json shape" `Quick test_error_json_shape;
    Alcotest.test_case "ladder every rung" `Slow test_ladder_every_rung;
    Alcotest.test_case "snapshot burst repaired" `Slow
      test_snapshot_burst_repaired;
    Alcotest.test_case "trace nan escalates" `Slow test_trace_nan_escalates;
    Alcotest.test_case "slope term fails typed" `Slow
      test_slope_term_fails_typed;
  ]
