(* Deadline supervisor, checkpoint store and escalation ladder:

   - cancellation token semantics (cancel, budgets, nesting, zero-cost
     None path measured against the Clock.reads counter)
   - checkpoint round trips, staleness, torn-file rejection and the
     chaos kill hook
   - per-rung deadline coverage: a hang parked (via a scoped fault
     plan) at each escalation rung must surface as a typed
     Deadline_exceeded whose stage carries the rung label, and
     try_extract must never return a model after a tripped deadline
   - pool exception safety: a poisoned fan-out leaves the pool usable *)

let with_clean_faults f =
  Fun.protect ~finally:(fun () -> ignore (Fault.disarm ())) f

(* --- cancellation token ---------------------------------------------- *)

let test_cancel_basics () =
  let t = Cancel.create () in
  Cancel.check (Some t) ~site:"test";
  Alcotest.(check bool) "not requested" false (Cancel.cancel_requested (Some t));
  Cancel.cancel t;
  Alcotest.(check bool) "requested" true (Cancel.cancel_requested (Some t));
  (match Cancel.check (Some t) ~site:"test.site" with
  | exception Cancel.Cancelled { site } ->
      Alcotest.(check string) "site recorded" "test.site" site
  | () -> Alcotest.fail "check did not raise after cancel");
  Cancel.check None ~site:"ignored"

let test_budget_trips () =
  let t = Cancel.create () in
  (match
     Cancel.with_budget (Some t) ~stage:"outer" ~seconds:60.0 (fun () ->
         Cancel.with_budget (Some t) ~stage:"inner" ~seconds:0.0 (fun () ->
             Cancel.check (Some t) ~site:"probe"))
   with
  | exception Cancel.Deadline_exceeded { site; stage; budget_seconds; _ } ->
      Alcotest.(check string) "innermost stage" "inner" stage;
      Alcotest.(check string) "probe site" "probe" site;
      Alcotest.(check (float 0.0)) "budget" 0.0 budget_seconds
  | () -> Alcotest.fail "nested zero budget did not trip");
  (* the scope must be popped: the token is reusable afterwards *)
  Cancel.check (Some t) ~site:"after";
  Alcotest.(check bool) "no deadline left" true
    (Cancel.remaining (Some t) = infinity)

let test_no_token_zero_clock_reads () =
  let t = Cancel.create () in
  (* no deadline armed anywhere: probes are an atomic load, never a
     clock read — on both the None and Some paths *)
  let r0 = Clock.reads () in
  for _ = 1 to 1000 do
    Cancel.check None ~site:"x";
    Cancel.check (Some t) ~site:"x"
  done;
  Alcotest.(check int) "zero clock reads" 0 (Clock.reads () - r0)

(* --- checkpoint store ------------------------------------------------- *)

let fresh_dir () =
  let marker = Filename.temp_file "test_resilience" ".ckptdir" in
  Sys.remove marker;
  marker

let test_checkpoint_round_trip () =
  let dir = fresh_dir () in
  let ck = Checkpoint.create ~dir ~fingerprint:"fp-1" in
  Alcotest.(check (option reject)) "missing reads as None" None
    (Checkpoint.load ck ~stage:"train");
  let x = 0.1 +. 0.2 in
  Checkpoint.store ck ~stage:"train"
    (Minijson.Obj [ ("x", Minijson.Num x) ]);
  (match Checkpoint.load ck ~stage:"train" with
  | Some (Minijson.Obj [ ("x", Minijson.Num y) ]) ->
      Alcotest.(check int64) "float bit-exact" (Int64.bits_of_float x)
        (Int64.bits_of_float y)
  | _ -> Alcotest.fail "round trip lost the payload");
  (* a different fingerprint is stale, not invalid *)
  let other = Checkpoint.create ~dir ~fingerprint:"fp-2" in
  Alcotest.(check bool) "stale reads as None" true
    (Checkpoint.load other ~stage:"train" = None);
  (* a torn file is typed-invalid *)
  let path = Checkpoint.file ck ~stage:"train" in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub text 0 (String.length text / 2)));
  (match Checkpoint.load ck ~stage:"train" with
  | exception Checkpoint.Invalid { file; _ } ->
      Alcotest.(check string) "invalid names the file" path file
  | _ -> Alcotest.fail "torn artifact was not rejected");
  Sys.remove path;
  Sys.rmdir dir

let test_checkpoint_kill_hook () =
  let dir = fresh_dir () in
  let ck = Checkpoint.create ~dir ~fingerprint:"fp" in
  Checkpoint.arm_kill ~after_stores:2;
  Checkpoint.store ck ~stage:"a" Minijson.Null;
  (match Checkpoint.store ck ~stage:"b" Minijson.Null with
  | exception Checkpoint.Killed { stage; stores } ->
      Alcotest.(check string) "killed at stage" "b" stage;
      Alcotest.(check int) "after two stores" 2 stores
  | () -> Alcotest.fail "armed kill never fired");
  (* self-disarmed: further stores survive, and the killed store's
     artifact is complete on disk *)
  Checkpoint.store ck ~stage:"c" Minijson.Null;
  Alcotest.(check bool) "killed store landed" true
    (Checkpoint.load ck ~stage:"b" = Some Minijson.Null);
  ignore (Checkpoint.disarm_kill ());
  List.iter
    (fun s -> Sys.remove (Checkpoint.file ck ~stage:s))
    [ "a"; "b"; "c" ];
  Sys.rmdir dir

(* Train artifacts written while snapshots carried their Jacobians have
   "g_mat"/"c_mat" keys in every snapshot object. They must decode to
   the snapshots of the state-only encoding, so checkpoint directories
   written then keep resuming under the same schema version. *)
let test_legacy_train_artifact () =
  let nl =
    Circuit.Parser.parse_string
      {|
Vin in 0 SIN(0.3 0.5 1e6)
R1 in out 1k
D1 out 0 IS=1e-9 N=1.8
C1 out 0 1p
|}
  in
  let mna =
    Engine.Mna.build ~inputs:[ "Vin" ] ~outputs:[ Engine.Mna.Node "out" ] nl
  in
  let run =
    Engine.Tran.run
      ~opts:{ Engine.Tran.default_opts with Engine.Tran.snapshot_every = 10 }
      mna ~t_stop:1e-6 ~dt:1e-8
  in
  (* the older writer's snapshot object: the state-only fields followed
     by G and C at the snapshot's state *)
  let with_jacobians (s : Engine.Tran.snapshot) = function
    | Minijson.Obj fields ->
        let ev =
          Engine.Mna.eval mna ~time:s.Engine.Tran.time s.Engine.Tran.state
        in
        Minijson.Obj
          (fields
          @ [
              ("g_mat", Tft_rvf.Artifact.json_of_mat (Option.get ev.Engine.Mna.g_mat));
              ("c_mat", Tft_rvf.Artifact.json_of_mat (Option.get ev.Engine.Mna.c_mat));
            ])
    | _ -> Alcotest.fail "snapshot is not a JSON object"
  in
  let encoded = Tft_rvf.Artifact.json_of_tran run in
  let legacy =
    match encoded with
    | Minijson.Obj fields ->
        Minijson.Obj
          (List.map
             (function
               | "snapshots", Minijson.Arr snaps ->
                   ( "snapshots",
                     Minijson.Arr
                       (List.map2 with_jacobians
                          (Array.to_list run.Engine.Tran.snapshots)
                          snaps) )
               | field -> field)
             fields)
    | _ -> Alcotest.fail "training run is not a JSON object"
  in
  let decode j = Tft_rvf.Artifact.tran_of_json (Minijson.parse (Minijson.emit j)) in
  let current = decode encoded and old = decode legacy in
  Alcotest.(check bool) "legacy artifact carries Jacobians" true
    (String.length (Minijson.emit legacy)
    > String.length (Minijson.emit encoded));
  Alcotest.(check int) "snapshot count" 11
    (Array.length old.Engine.Tran.snapshots);
  Alcotest.(check bool) "same snapshots, bit for bit" true
    (Marshal.to_string old.Engine.Tran.snapshots []
    = Marshal.to_string current.Engine.Tran.snapshots []);
  Alcotest.(check bool) "same as the run's own snapshots" true
    (Marshal.to_string old.Engine.Tran.snapshots []
    = Marshal.to_string run.Engine.Tran.snapshots [])

(* --- pool exception safety ------------------------------------------- *)

let test_poisoned_fanout () =
  Exec.with_pool ~domains:2 (fun pool ->
      (match
         Exec.parallel_init ~pool 64 (fun i ->
             if i = 13 then failwith "poison" else i)
       with
      | exception Failure m ->
          Alcotest.(check string) "task exception re-raised" "poison" m
      | _ -> Alcotest.fail "raising task did not propagate");
      (* the pool must not be wedged: both further fan-outs complete *)
      for _ = 1 to 2 do
        let a = Exec.parallel_init ~pool 64 (fun i -> i * i) in
        Alcotest.(check int) "pool still works" (63 * 63) a.(63)
      done)

(* --- pipeline-level supervision --------------------------------------- *)

let config = Tft_rvf.Pipeline.buffer_config ~snapshots:24 ()

let try_extract ?cancel ?budgets ?checkpoint_dir () =
  Tft_rvf.Pipeline.try_extract ?cancel ?budgets ?checkpoint_dir ~config
    ~netlist:(Circuits.Buffer.netlist ())
    ~input:Circuits.Buffer.input_name ~output:Circuits.Buffer.output ()

(* the messages of the hub's errors raised at [stage] *)
let errors_with_stage hub stage =
  List.filter_map
    (fun (kind, s, message) ->
      if kind = `Error && s = stage then Some message else None)
    (Obs.messages hub)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Park a hang at exactly the k-th escalation rung (1-based): the
   numeric fault defeats rungs 1..k-1 (one probe call per Rvf.extract),
   and a scope-restricted hang plan waits inside rung k's first VF
   relocation sweep. The rung budget must reap it with a typed
   deadline whose stage names the rung. *)
let test_rung_deadline k label () =
  with_clean_faults (fun () ->
      if k > 1 then begin
        Fault.arm_exact ~site:"rvf.trace_nan" ~fire_at:1 ~burst:(k - 1) ();
        Fault.arm_also_exact ~site:"vf.spin"
          ~scope:("rung:" ^ label)
          ~fire_at:1 ~burst:1 ()
      end
      else
        Fault.arm_exact ~site:"vf.spin"
          ~scope:("rung:" ^ label)
          ~fire_at:1 ~burst:1 ();
      let budgets =
        { Tft_rvf.Pipeline.no_budgets with Tft_rvf.Pipeline.rung = Some 0.25 }
      in
      let outcome, hub = try_extract ~budgets () in
      (match Fault.stats_for "vf.spin" with
      | Some s when s.Fault.fires = 1 -> ()
      | _ -> Alcotest.fail (label ^ ": scoped hang never fired"));
      Alcotest.(check bool)
        (label ^ ": no model after tripped deadline")
        true (outcome = None);
      let stage = "pipeline.fit:" ^ label in
      match errors_with_stage hub stage with
      | [] ->
          Alcotest.fail
            (Printf.sprintf "%s: no Error event with stage %S" label stage)
      | message :: _ ->
          Alcotest.(check bool)
            (label ^ ": typed deadline in message")
            true
            (contains ~needle:"Deadline_exceeded" message))

let test_budgets_arm_private_token () =
  (* budgets without an explicit token must still be live *)
  let budgets =
    { Tft_rvf.Pipeline.no_budgets with Tft_rvf.Pipeline.train = Some 0.0 }
  in
  let outcome, hub = try_extract ~budgets () in
  Alcotest.(check bool) "no model" true (outcome = None);
  match errors_with_stage hub "pipeline.train" with
  | [] -> Alcotest.fail "no Error event with stage pipeline.train"
  | message :: _ ->
      Alcotest.(check bool) "typed deadline" true
        (contains ~needle:"Deadline_exceeded" message)

let test_extract_checkpoint_resume () =
  (* the raising entry point's checkpoint path: run, then resume with
     every stage settled — bit-identical model, zero recompute *)
  let dir = fresh_dir () in
  let extract () =
    Tft_rvf.Pipeline.extract ~checkpoint_dir:dir ~config
      ~netlist:(Circuits.Buffer.netlist ())
      ~input:Circuits.Buffer.input_name ~output:Circuits.Buffer.output ()
  in
  let first = extract () in
  let o = Obs.create () in
  let resumed =
    Tft_rvf.Pipeline.extract ~checkpoint_dir:dir ~obs:o ~config
      ~netlist:(Circuits.Buffer.netlist ())
      ~input:Circuits.Buffer.input_name ~output:Circuits.Buffer.output ()
  in
  Alcotest.(check string) "bit-identical equations"
    (Hammerstein.Hmodel.equations first.Tft_rvf.Pipeline.model)
    (Hammerstein.Hmodel.equations resumed.Tft_rvf.Pipeline.model);
  List.iter
    (fun stage ->
      Alcotest.(check (option string))
        ("resumed " ^ stage) (Some "loaded")
        (List.assoc_opt ("checkpoint." ^ stage) (Obs.notes o)))
    [ "train"; "tft"; "fit-o0" ];
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Sys.rmdir dir

let rungs =
  [
    "base";
    "more-start-poles";
    "switched-weighting";
    "relaxed-min-imag";
    "combined";
  ]

let suite =
  [
    Alcotest.test_case "cancel basics" `Quick test_cancel_basics;
    Alcotest.test_case "budget trips innermost" `Quick test_budget_trips;
    Alcotest.test_case "probe is clock-free" `Quick
      test_no_token_zero_clock_reads;
    Alcotest.test_case "checkpoint round trip" `Quick
      test_checkpoint_round_trip;
    Alcotest.test_case "checkpoint kill hook" `Quick
      test_checkpoint_kill_hook;
    Alcotest.test_case "legacy train artifact" `Quick
      test_legacy_train_artifact;
    Alcotest.test_case "poisoned fan-out" `Quick test_poisoned_fanout;
    Alcotest.test_case "budgets arm private token" `Quick
      test_budgets_arm_private_token;
    Alcotest.test_case "extract checkpoint resume" `Quick
      test_extract_checkpoint_resume;
  ]
  @ List.mapi
      (fun i label ->
        Alcotest.test_case
          (Printf.sprintf "deadline at rung %s" label)
          `Quick
          (test_rung_deadline (i + 1) label))
      rungs
