(* Chaos soak for the deadline-aware extraction supervisor: interrupt a
   seeded buffer extraction at checkpoint boundaries (simulated crash,
   torn write, tripped deadline) and prove every resume is bit-identical
   to the uninterrupted run — and that every simulated hang is reaped by
   its deadline with a typed error, never a silent stall.

   Scenarios per cycle:
     - kill after store 1/2/3 (Checkpoint.Killed) + resume
     - torn train artifact (checkpoint.torn_write) + resume past it
     - whole-run deadline mid-extraction + un-deadlined resume
     - one hang site per pipeline stage (tran.stall, exec.chunk_hang,
       vf.spin) under a stage budget: typed Deadline_exceeded within
       the budget, never the 2 s hang-cap Failure
     - sparse-path faults (sp.singular, krylov.stall) against a
       sparse-backend extraction: a seeded singularity escalates to the
       dense rung (counted in pipeline.sparse_fallbacks), a Krylov
       stall degrades in-sweep — both still deliver a finite model

   Bit-identity is machine-checked on three axes: the analytical model's
   equation text, the pipeline.ladder_rung note, and the raw bytes of
   the settled fit artifact on disk.

   `--quick` runs the 8-scenario cycle once (the @chaos-smoke alias);
   the default soak repeats the interrupt/resume cycles three times.
   Exits 0 and prints "chaos ok" on success. *)

let failures = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

let config = Tft_rvf.Pipeline.buffer_config ~snapshots:24 ()

let netlist = Circuits.Buffer.netlist ()

let run ?cancel ?budgets ?checkpoint_dir () =
  Tft_rvf.Pipeline.try_extract ?cancel ?budgets ?checkpoint_dir ~config
    ~netlist ~input:Circuits.Buffer.input_name ~output:Circuits.Buffer.output
    ()

(* --- scratch checkpoint directories ---------------------------------- *)

let fresh_dir () =
  (* temp_file gives a unique path; reuse the name as a directory *)
  let marker = Filename.temp_file "chaos_check" ".ckptdir" in
  Sys.remove marker;
  marker

let rm_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* the one non-deterministic field in a fit artifact is its wall-clock
   build time; null it before comparing — everything numeric must be
   byte-identical *)
let rec scrub_build_seconds = function
  | Minijson.Obj fields ->
      Minijson.Obj
        (List.map
           (fun (k, v) ->
             if k = "build_seconds" then (k, Minijson.Num 0.0)
             else (k, scrub_build_seconds v))
           fields)
  | Minijson.Arr xs -> Minijson.Arr (List.map scrub_build_seconds xs)
  | j -> j

let read_fit_artifact path =
  Minijson.emit (scrub_build_seconds (Minijson.parse (read_file path)))

(* --- reference: the uninterrupted extraction -------------------------- *)

let equations (o : Tft_rvf.Pipeline.outcome) =
  Hammerstein.Hmodel.equations o.Tft_rvf.Pipeline.model

let note hub name = List.assoc_opt name (Obs.notes hub)

let rung_of hub =
  Option.value ~default:"<none>" (note hub "pipeline.ladder_rung")

let error_messages hub =
  List.filter_map
    (fun (kind, stage, message) ->
      if kind = `Error then Some (stage ^ ": " ^ message) else None)
    (Obs.messages hub)

let reference () =
  match run () with
  | Some o, hub -> (equations o, rung_of hub)
  | None, hub ->
      List.iter
        (fun (_, stage, message) -> Printf.eprintf "  %s: %s\n" stage message)
        (Obs.messages hub);
      prerr_endline "chaos_check: reference extraction failed; cannot soak";
      exit 1

let check_identical ~what ~ref_eq ~ref_rung outcome hub =
  match outcome with
  | None ->
      fail "%s: resumed extraction produced no model" what;
      None
  | Some o ->
      if equations o <> ref_eq then
        fail "%s: resumed model differs from the uninterrupted run" what;
      let rung = rung_of hub in
      if rung <> ref_rung then
        fail "%s: ladder rung %S differs from reference %S" what rung ref_rung;
      Some o

let loaded_stages hub =
  List.filter
    (fun stage -> note hub ("checkpoint." ^ stage) = Some "loaded")
    [ "train"; "tft"; "fit-o0" ]

(* --- scenario: clean checkpointed run == checkpoint-disabled run ------ *)

let check_clean_checkpointed ~ref_eq ~ref_rung =
  let dir = fresh_dir () in
  let outcome, hub = run ~checkpoint_dir:dir () in
  ignore
    (check_identical ~what:"clean-checkpointed" ~ref_eq ~ref_rung outcome hub);
  if loaded_stages hub <> [] then
    fail "clean-checkpointed: fresh run claims to have loaded a checkpoint";
  let fit_file = Filename.concat dir "fit-o0.ckpt.json" in
  if not (Sys.file_exists fit_file) then begin
    fail "clean-checkpointed: no settled fit artifact on disk";
    rm_dir dir;
    None
  end
  else begin
    let bytes = read_fit_artifact fit_file in
    rm_dir dir;
    Printf.printf "  %-28s bit-identical to uncheckpointed\n%!"
      "clean checkpointed";
    Some bytes
  end

(* --- scenario: simulated crash after the n-th store + resume ---------- *)

let check_kill_resume ~ref_eq ~ref_rung ~ref_fit_bytes n =
  let what = Printf.sprintf "kill-after-%d" n in
  let dir = fresh_dir () in
  Checkpoint.arm_kill ~after_stores:n;
  (match run ~checkpoint_dir:dir () with
  | exception Checkpoint.Killed { stores; _ } ->
      if stores <> n then
        fail "%s: crashed after %d stores, expected %d" what stores n
  | _, _ -> fail "%s: armed crash never fired" what);
  ignore (Checkpoint.disarm_kill ());
  let outcome, hub = run ~checkpoint_dir:dir () in
  ignore (check_identical ~what ~ref_eq ~ref_rung outcome hub);
  let expected =
    match n with
    | 1 -> [ "train" ]
    | 2 -> [ "train"; "tft" ]
    | _ -> [ "train"; "tft"; "fit-o0" ]
  in
  let loaded = loaded_stages hub in
  if loaded <> expected then
    fail "%s: resumed from [%s], expected [%s]" what
      (String.concat "," loaded)
      (String.concat "," expected);
  (match ref_fit_bytes with
  | Some bytes ->
      let fit = read_fit_artifact (Filename.concat dir "fit-o0.ckpt.json") in
      if fit <> bytes then
        fail "%s: settled fit artifact differs byte-for-byte from reference"
          what
  | None -> ());
  rm_dir dir;
  Printf.printf "  %-28s resumed from [%s], bit-identical\n%!" what
    (String.concat "," expected)

(* --- scenario: torn artifact rejected and recomputed on resume -------- *)

let check_torn_write ~ref_eq ~ref_rung =
  let what = "torn-write" in
  let dir = fresh_dir () in
  (* seed 0: the very first store (the train artifact) is torn *)
  Fault.arm ~site:"checkpoint.torn_write" ~seed:0 ();
  let first = run ~checkpoint_dir:dir () in
  ignore (Fault.disarm ());
  (match first with
  | Some o, _ ->
      if equations o <> ref_eq then
        fail "%s: in-memory model of the torn run differs" what
  | None, _ -> fail "%s: torn store failed the extraction itself" what);
  (* the torn file must be typed-rejected, warned about, and recomputed *)
  let outcome, hub = run ~checkpoint_dir:dir () in
  ignore (check_identical ~what ~ref_eq ~ref_rung outcome hub);
  let warned =
    List.exists
      (fun (kind, stage, message) ->
        kind = `Warning
        && stage = "pipeline.checkpoint"
        && String.starts_with ~prefix:"rejected" message)
      (Obs.messages hub)
  in
  if not warned then
    fail "%s: no rejected-artifact warning on resume (silent acceptance?)"
      what;
  if List.mem "train" (loaded_stages hub) then
    fail "%s: torn train artifact was loaded as-is" what;
  rm_dir dir;
  Printf.printf "  %-28s typed rejection + recompute\n%!" what

(* --- scenario: deadline interrupt + resume ---------------------------- *)

let check_deadline_resume ~ref_eq ~ref_rung ~deadline =
  let what = Printf.sprintf "deadline-%.2fs" deadline in
  let dir = fresh_dir () in
  let cancel = Cancel.create ~deadline_seconds:deadline () in
  (match run ~cancel ~checkpoint_dir:dir () with
  | Some _, _ ->
      (* generous deadlines can let the run finish; that is not a
         failure of the supervisor, just a fast host *)
      ()
  | None, hub ->
      if error_messages hub = [] then
        fail "%s: no model and no Error event — interrupt was silent" what);
  let outcome, hub = run ~checkpoint_dir:dir () in
  ignore (check_identical ~what ~ref_eq ~ref_rung outcome hub);
  rm_dir dir;
  Printf.printf "  %-28s resumed to a bit-identical model\n%!" what

(* --- scenario: hang sites reaped by their stage budget ----------------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_hang_reaped ~site ~budgets ~domains () =
  let budget = 0.4 in
  let config = { config with Tft_rvf.Pipeline.domains } in
  Fault.arm ~site ~seed:0 ();
  let t0 = Clock.now () in
  let result =
    try
      Ok
        (Tft_rvf.Pipeline.try_extract ~budgets ~config ~netlist
           ~input:Circuits.Buffer.input_name ~output:Circuits.Buffer.output ())
    with e -> Error e
  in
  let elapsed = Clock.now () -. t0 in
  let stats = Fault.disarm () in
  (match stats with
  | Some s when s.Fault.fires > 0 -> ()
  | _ -> fail "%s: hang probe never fired" site);
  (match result with
  | Error e ->
      fail "%s: exception escaped the supervisor: %s" site
        (Printexc.to_string e)
  | Ok (Some _, _) -> fail "%s: returned a model after a tripped deadline" site
  | Ok (None, hub) -> (
      match error_messages hub with
      | [] -> fail "%s: hang produced no Error event" site
      | msgs ->
          if not (List.exists (contains ~needle:"Deadline_exceeded") msgs)
          then
            fail "%s: error is not the typed deadline (got: %s)" site
              (String.concat " | " msgs)));
  (* reap latency: the budget plus generous slack for the non-hanging
     stages — and strictly inside the 2 s hang hard cap, proving the
     deadline (not the cap) did the reaping *)
  let reap_slack = 1.5 in
  if elapsed > budget +. reap_slack then
    fail "%s: reaped in %.2fs, budget %.2fs + %.1fs slack" site elapsed budget
      reap_slack;
  Printf.printf "  %-28s typed deadline in %.2fs (budget %.2fs)\n%!" site
    elapsed budget

let check_hangs () =
  let b = Tft_rvf.Pipeline.no_budgets in
  check_hang_reaped ~site:"tran.stall"
    ~budgets:{ b with Tft_rvf.Pipeline.train = Some 0.4 }
    ~domains:1 ();
  check_hang_reaped ~site:"exec.chunk_hang"
    ~budgets:{ b with Tft_rvf.Pipeline.tft = Some 0.4 }
    ~domains:2 ();
  check_hang_reaped ~site:"vf.spin"
    ~budgets:{ b with Tft_rvf.Pipeline.fit = Some 0.4 }
    ~domains:1 ()

(* --- scenario: sparse-path faults escalate to dense -------------------- *)

(* the sparse backend's failure contract: a sparse singularity seeded
   into the TFT stage (scope "stage:tft", so the training transient's
   own factorizations don't consume the schedule) must land in the
   dense-escalation rung — counted in pipeline.sparse_fallbacks — and
   still deliver a finite model; a Krylov stall degrades in-sweep to
   exact per-point solves and the extraction proceeds as if nothing
   happened *)
let check_sparse_escalation ~site () =
  let sparse_config =
    { config with Tft_rvf.Pipeline.backend = Engine.Mna.Sparse }
  in
  Fault.arm_exact ~site ~scope:"stage:tft" ~fire_at:1 ~burst:1 ();
  let result =
    try
      Ok
        (Tft_rvf.Pipeline.try_extract ~config:sparse_config ~netlist
           ~input:Circuits.Buffer.input_name ~output:Circuits.Buffer.output ())
    with e -> Error e
  in
  let stats = Fault.disarm () in
  (match stats with
  | Some s when s.Fault.fires > 0 -> ()
  | _ -> fail "%s: sparse probe never fired" site);
  match result with
  | Error e ->
      fail "%s: exception escaped the non-raising pipeline: %s" site
        (Printexc.to_string e)
  | Ok (None, _) -> fail "%s: sparse fault defeated the dense escalation" site
  | Ok (Some outcome, hub) ->
      let se =
        Tft_rvf.Report.surface_error ~model:outcome.Tft_rvf.Pipeline.model
          ~dataset:outcome.Tft_rvf.Pipeline.dataset ~input:0 ~output:0
      in
      if
        not
          (Float.is_finite se.Tft_rvf.Report.rms
          && Float.is_finite se.Tft_rvf.Report.max_err)
      then fail "%s: escalated model evaluates to NaN/Inf" site;
      let fallbacks = Obs.counter hub "pipeline.sparse_fallbacks" in
      if site = "sp.singular" && fallbacks = 0 then
        fail "%s: recovery did not record a sparse fallback" site;
      Printf.printf "  %-28s recovered (%d dense fallback(s))\n%!" site
        fallbacks

(* --- driver ----------------------------------------------------------- *)

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let cycles = if quick then 1 else 3 in
  Printf.printf "chaos soak (%d cycle%s):\n%!" cycles
    (if cycles = 1 then "" else "s");
  let ref_eq, ref_rung = reference () in
  let ref_fit_bytes = check_clean_checkpointed ~ref_eq ~ref_rung in
  for cycle = 1 to cycles do
    if cycles > 1 then Printf.printf "cycle %d:\n%!" cycle;
    List.iter
      (fun n -> check_kill_resume ~ref_eq ~ref_rung ~ref_fit_bytes n)
      [ 1; 2; 3 ];
    check_torn_write ~ref_eq ~ref_rung;
    check_deadline_resume ~ref_eq ~ref_rung
      ~deadline:(0.05 *. float_of_int cycle)
  done;
  check_hangs ();
  check_sparse_escalation ~site:"sp.singular" ();
  check_sparse_escalation ~site:"krylov.stall" ();
  match !failures with
  | [] -> print_endline "chaos ok"
  | fs ->
      List.iter (fun m -> Printf.eprintf "chaos_check: %s\n" m) (List.rev fs);
      exit 1
