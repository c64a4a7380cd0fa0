(* Chaos sweep over the fault-injection registry: arm every registered
   site in turn against a buffer extraction and check the recovery
   contract — each probe actually fires, and the pipeline either
   recovers to a finite model or returns a structured typed error. A
   silent NaN in a "successful" model or an escaped exception fails the
   sweep.

   With the tft_extract binary's path as argv(1), also validates the
   CLI failure contract end-to-end: an armed fault that defeats every
   escalation rung, an invalid netlist, a bad flag combination or grid
   and an uncreatable directory must each exit 1 with a schema-versioned
   JSON error object on stderr; an unknown enumerated flag value is a
   usage error (exit 124); a fault the numerical checks repair exits 0.
   No input may end in an uncaught exception.

   Exits 0 and prints "fault ok" on success. Wired into `dune runtest`
   as the @fault-smoke alias. *)

let failures = ref []

let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

let finite_model outcome =
  let se =
    Tft_rvf.Report.surface_error ~model:outcome.Tft_rvf.Pipeline.model
      ~dataset:outcome.Tft_rvf.Pipeline.dataset ~input:0 ~output:0
  in
  Float.is_finite se.Tft_rvf.Report.rms
  && Float.is_finite se.Tft_rvf.Report.max_err

let sweep_site (site : Fault.site) =
  let name = site.Fault.name in
  (* seed 0: fire on the probe's very first invocation, once — every
     recovery layer (gmin stepping, BE fallback, quarantine, the
     ladder) gets exercised from a deterministic point *)
  Fault.arm ~site:name ~seed:0 ();
  let config = Tft_rvf.Pipeline.buffer_config ~snapshots:30 () in
  (* the sparse-tier sites live on the sparse solve path: run those
     sweeps with the sparse backend so the probes are on-path, and the
     recovery under test is the pipeline's dense-escalation rung *)
  let config =
    if List.mem name [ "sp.singular"; "krylov.stall" ] then
      { config with Tft_rvf.Pipeline.backend = Engine.Mna.Sparse }
    else config
  in
  let result =
    try
      Ok
        (Tft_rvf.Pipeline.try_extract ~config
           ~netlist:(Circuits.Buffer.netlist ())
           ~input:Circuits.Buffer.input_name ~output:Circuits.Buffer.output ())
    with e -> Error e
  in
  let stats = Fault.disarm () in
  (match stats with
  | None -> fail "%s: plan vanished before disarm" name
  | Some s ->
      if s.Fault.fires = 0 then
        fail "%s: probe never fired (%d calls) — site not on the buffer path"
          name s.Fault.calls);
  match result with
  | Error e ->
      fail "%s: exception escaped the non-raising pipeline: %s" name
        (Printexc.to_string e)
  | Ok (Some outcome, hub) ->
      if not (finite_model outcome) then
        fail "%s: recovered model evaluates to NaN/Inf (silent corruption)"
          name;
      Printf.printf "  %-24s recovered (%d retries, rung %s)\n%!" name
        (Obs.counter hub "pipeline.fit_retries")
        (Option.value ~default:"base"
           (List.assoc_opt "pipeline.ladder_rung" (Obs.notes hub)))
  | Ok (None, hub) -> (
      let errors =
        List.filter (fun (kind, _, _) -> kind = `Error) (Obs.messages hub)
      in
      match errors with
      | [] -> fail "%s: no model and no Error event — failure was silent" name
      | (_, stage, message) :: _ ->
          Printf.printf "  %-24s typed error (%s: %s)\n%!" name stage message)

(* --- CLI failure contract (subprocess) ------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* run tft_extract with [args]; returns the exit status and stderr *)
let run_cli exe args =
  let err = Filename.temp_file "fault_check" ".stderr" in
  let cmd =
    Printf.sprintf "%s %s > /dev/null 2> %s" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote err)
  in
  let status = Sys.command cmd in
  let text = read_file err in
  Sys.remove err;
  (status, text)

(* the structured error object on stderr (it may follow progress
   lines such as the fault fire count) *)
let error_object ~what text =
  match String.index_opt text '{' with
  | None ->
      fail "%s: no JSON error object on stderr" what;
      None
  | Some i -> (
      let json = String.sub text i (String.length text - i) in
      match Minijson.parse json with
      | exception Minijson.Parse_error msg ->
          fail "%s: stderr JSON does not parse: %s" what msg;
          None
      | root ->
          if Minijson.num_field root "schema_version" <> Some 1.0 then
            fail "%s: error object schema_version <> 1" what;
          let error =
            Option.value ~default:Minijson.Null (Minijson.field root "error")
          in
          if Minijson.str_field error "stage" = None then
            fail "%s: error object missing error.stage" what;
          if Minijson.str_field error "message" = None then
            fail "%s: error object missing error.message" what;
          if Minijson.arr_field root "events" = None then
            fail "%s: error object missing events array" what;
          if Minijson.num_field root "fit_retries" = None then
            fail "%s: error object missing numeric fit_retries" what;
          if Minijson.obj_field root "notes" = None then
            fail "%s: error object missing notes object" what;
          Some root)

let check_cli_error_json exe =
  (* seed 40: fire_at 1, burst 6 — defeats all five escalation rungs,
     forcing the structured-error exit path *)
  let status, text =
    run_cli exe
      [ "--builtin"; "buffer"; "--snapshots"; "30"; "--fault";
        "rvf.trace_nan:40" ]
  in
  if status <> 1 then
    fail "cli: expected exit 1 on exhausted ladder, got %d" status;
  match error_object ~what:"cli" text with
  | None -> ()
  | Some root ->
      (match Minijson.num_field root "fit_retries" with
      | Some r when r >= 5.0 -> ()
      | _ -> fail "cli: fit_retries missing or < 5 with the ladder exhausted");
      Printf.printf "  %-24s exit 1 + JSON error object\n%!" "cli contract"

(* a corrupted snapshot burst is repaired by the dataset quarantine, so
   the run ends like a clean one *)
let check_cli_repaired exe =
  let status, _ =
    run_cli exe
      [ "--builtin"; "buffer"; "--snapshots"; "30"; "--fault";
        "dataset.snapshot_burst:0" ]
  in
  if status <> 0 then
    fail "cli repaired burst: expected exit 0, got %d" status
  else Printf.printf "  %-24s exit 0\n%!" "repaired snapshot burst"

(* every input boundary of the CLI fails typed: exit 1 with the JSON
   error object, or Cmdliner's usage error for an unknown enumerated
   value — never exit 125, Cmdliner's uncaught-exception status *)
let check_cli_inputs exe =
  let netlists = ref [] in
  let netlist text =
    let path = Filename.temp_file "fault_check" ".cir" in
    write_file path text;
    netlists := path :: !netlists;
    [ "-i"; path; "--output"; "out" ]
  in
  let plain_file = Filename.temp_file "fault_check" ".file" in
  let under_file = Filename.concat plain_file "sub" in
  let buffer = [ "--builtin"; "buffer"; "--snapshots"; "12" ] in
  let rc = netlist "Vin in 0 DC 1\nR1 in out 1k\nC1 out 0 1p\n" in
  List.iter
    (fun (what, args, expect) ->
      let status, text = run_cli exe args in
      match expect with
      | `Json ->
          if status <> 1 then fail "%s: expected exit 1, got %d" what status
          else if error_object ~what text <> None then
            Printf.printf "  %-24s exit 1 + JSON error object\n%!" what
      | `Usage ->
          if status <> 124 then
            fail "%s: expected usage error (exit 124), got %d" what status
          else Printf.printf "  %-24s usage error\n%!" what)
    [
      ( "malformed netlist",
        netlist "* malformed: a resistor without a value\nR1 in out\n",
        `Json );
      ("zero resistor", netlist "R1 in 0 0\n", `Json);
      ("negative capacitor", netlist "C1 in 0 -1p\n", `Json);
      ("duplicate name", netlist "R1 in 0 1k\nR1 in out 1k\n", `Json);
      ("no ground", netlist "R1 in out 1k\n", `Json);
      ("comment-only netlist", netlist "* nothing here\n", `Json);
      ("--points 0", rc @ [ "--points"; "0" ], `Json);
      ("--points -3", rc @ [ "--points=-3" ], `Json);
      ("--fmin 0", rc @ [ "--fmin"; "0" ], `Json);
      ("--fmin -1", rc @ [ "--fmin=-1" ], `Json);
      ("--fmax 0", rc @ [ "--fmax"; "0" ], `Json);
      ("--fmax -1e9", rc @ [ "--fmax=-1e9" ], `Json);
      ("--backend foo", buffer @ [ "--backend"; "foo" ], `Usage);
      ("--format foo", buffer @ [ "--format"; "foo" ], `Usage);
      ("--builtin nope", [ "--builtin"; "nope" ], `Usage);
      ("--fault bogus", buffer @ [ "--fault"; "bogus" ], `Json);
      ("--resume without dir", buffer @ [ "--resume" ], `Json);
      ( "bad --checkpoint-dir",
        buffer @ [ "--checkpoint-dir"; under_file ],
        `Json );
      ("bad --obs-dir", buffer @ [ "--obs-dir"; under_file ], `Json);
    ];
  List.iter Sys.remove !netlists;
  Sys.remove plain_file

let () =
  (* numeric-corruption sites only: the hang and storage sites have no
     recovery ladder to exercise — they are soaked by chaos_check, which
     arms deadlines and a checkpoint store around them *)
  let numeric =
    List.filter (fun (s : Fault.site) -> s.Fault.kind = Fault.Numeric)
      Fault.sites
  in
  Printf.printf "chaos sweep over %d fault sites:\n%!" (List.length numeric);
  List.iter sweep_site numeric;
  (match Sys.argv with
  | [| _; exe |] ->
      (* dune hands over a path relative to the rule's directory; anchor
         it so the shell doesn't fall back to a $PATH lookup *)
      let exe =
        if Filename.is_relative exe && not (String.contains exe '/') then
          Filename.concat Filename.current_dir_name exe
        else exe
      in
      check_cli_error_json exe;
      check_cli_repaired exe;
      check_cli_inputs exe
  | _ -> fail "usage: fault_check <tft_extract.exe>");
  match !failures with
  | [] -> print_endline "fault ok"
  | fs ->
      List.iter (fun m -> Printf.eprintf "fault_check: %s\n" m) (List.rev fs);
      exit 1
