(* Command-line front end for the extraction pipeline:

     tft_extract -i netlist.cir --input Vin --output out \
       --train-freq 1e6 --train-ampl 0.5 --train-offset 0.3 \
       --fmin 1e4 --fmax 1e9 -o model.va

   `--builtin buffer` swaps the netlist file for the programmatic
   Section-IV buffer example. `--obs-dir DIR` writes the record of the
   run's observability hub into DIR as a schema-versioned bundle
   (manifest, trace, metrics, convergence.jsonl — and, on failure, a
   replayable repro capsule) renderable with `obs_report`.
   `--fault SITE[:seed]` arms one deterministic fault-injection probe
   (`--fault list` prints the registry); the numerical checks that
   repair or report what it corrupts are always on. `--backend sparse`
   routes the engine stages through the compressed-column MNA
   assembly, sparse LU and rational-Krylov frequency sweeps (for large
   circuits; falls back to dense on a sparse-path failure). An unknown
   `--backend`, `--format` or `--builtin` value is a usage error (exit
   124); every other failure — a malformed netlist, a bad flag
   combination or grid, an unwritable directory, a failed extraction —
   ends with a structured JSON error object on stderr and exit 1. *)

let formats =
  [ ("equations", `Equations); ("verilog-a", `Verilog_a); ("matlab", `Matlab) ]

let backends = [ ("dense", Engine.Mna.Dense); ("sparse", Engine.Mna.Sparse) ]
let builtins = [ ("buffer", `Buffer) ]

(* the command-line spelling of an [Arg.enum] value *)
let name_of choices v = fst (List.find (fun (_, x) -> x = v) choices)

let export_model ~export_format ~out_path model =
  let text =
    match export_format with
    | `Verilog_a -> Hammerstein.Export.verilog_a model
    | `Matlab -> Hammerstein.Export.matlab model
    | `Equations -> Hammerstein.Hmodel.equations model
  in
  match out_path with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s\n" path

let list_fault_sites () =
  print_endline "registered fault-injection sites:";
  List.iter
    (fun (s : Fault.site) ->
      Printf.printf "  %-24s %-28s %s\n" s.Fault.name s.Fault.where s.Fault.what)
    Fault.sites

(* Print the structured error object and exit nonzero: the one failure
   path shared by the raising and non-raising pipelines and the input
   checks. *)
let fail_with_error_json hub =
  prerr_string (Tft_rvf.Report.error_json hub);
  exit 1

(* a failure outside the pipeline, reported as a one-error hub *)
let fail ~stage message =
  let hub = Obs.create () in
  Obs.error (Some hub) ~stage message;
  fail_with_error_json hub

let report_fault_stats () =
  match Fault.disarm () with
  | None -> ()
  | Some s ->
      Printf.eprintf "fault %s: %d probe calls, %d fired\n%!" s.Fault.site
        s.Fault.calls s.Fault.fires

(* input boundaries the pipeline does not own — the netlist text and
   the file system — fail typed, like the pipeline itself *)
let typed_input_failures f =
  try f () with
  | Circuit.Parser.Parse_error (line, msg) ->
      fail ~stage:"netlist" (Printf.sprintf "line %d: %s" line msg)
  | Sys_error msg -> fail ~stage:"io" msg

let run netlist_path builtin input output output_diff train_freq train_ampl
    train_offset f_min f_max points eps snapshots domains backend out_path
    export_format obs_dir fault_spec deadline checkpoint_dir resume verbose =
  typed_input_failures @@ fun () ->
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end;
  if resume && checkpoint_dir = None then
    fail ~stage:"cli" "--resume requires --checkpoint-dir";
  (* without --resume a checkpoint directory starts clean: stale
     artifacts from previous runs are dropped, not resumed from *)
  (match checkpoint_dir with
  | Some dir when (not resume) && Sys.file_exists dir ->
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".ckpt.json" then
            Sys.remove (Filename.concat dir f))
        (Sys.readdir dir)
  | _ -> ());
  let cancel =
    Option.map (fun s -> Cancel.create ~deadline_seconds:s ()) deadline
  in
  let fault_armed =
    match fault_spec with
    | None -> false
    | Some "list" ->
        list_fault_sites ();
        exit 0
    | Some spec ->
        let site, seed =
          try Fault.parse spec with Invalid_argument m -> fail ~stage:"cli" m
        in
        if not (Fault.known site) then
          fail ~stage:"cli"
            (Printf.sprintf "unknown fault site %S (try: --fault list)" site);
        Fault.arm ~site ~seed ();
        true
  in
  let netlist, input, out_spec, config =
    match (builtin, netlist_path) with
    | Some `Buffer, None ->
        let base = Tft_rvf.Pipeline.buffer_config ~snapshots ~domains () in
        let config =
          {
            base with
            Tft_rvf.Pipeline.backend;
            Tft_rvf.Pipeline.rvf = { base.Tft_rvf.Pipeline.rvf with Rvf.eps };
          }
        in
        ( Circuits.Buffer.netlist (),
          Circuits.Buffer.input_name,
          Circuits.Buffer.output,
          config )
    | Some _, Some _ ->
        fail ~stage:"cli" "give either --builtin or --netlist, not both"
    | None, None -> fail ~stage:"cli" "a netlist (-i) or --builtin is required"
    | None, Some path ->
        let netlist = Circuit.Parser.parse_file path in
        let out_spec =
          match (output, output_diff) with
          | Some node, None -> Engine.Mna.Node node
          | None, Some (p, n) -> Engine.Mna.Diff (p, n)
          | Some _, Some _ ->
              fail ~stage:"cli"
                "give either --output or --output-diff, not both"
          | None, None ->
              fail ~stage:"cli"
                "an output (--output or --output-diff) is required"
        in
        let period = 1.0 /. train_freq in
        let steps = snapshots * 4 in
        let training =
          {
            Tft_rvf.Pipeline.wave =
              Circuit.Netlist.Sine
                {
                  offset = train_offset;
                  ampl = train_ampl;
                  freq = train_freq;
                  phase = -.Float.pi /. 2.0;
                };
            t_stop = period;
            dt = period /. float_of_int steps;
            snapshot_every = 4;
          }
        in
        let config =
          match
            Tft_rvf.Pipeline.default_config_for ~points ~domains ~backend
              ~f_min ~f_max ~training ()
          with
          | exception Invalid_argument m ->
              fail ~stage:"cli" ("--points/--fmin/--fmax: " ^ m)
          | base ->
              let rvf = { base.Tft_rvf.Pipeline.rvf with Rvf.eps } in
              { base with Tft_rvf.Pipeline.rvf }
        in
        (netlist, input, out_spec, config)
  in
  let non_raising =
    obs_dir <> None || verbose || fault_armed || deadline <> None
  in
  if not non_raising then begin
    match
      Tft_rvf.Pipeline.extract ?cancel ?checkpoint_dir ~config ~netlist ~input
        ~output:out_spec ()
    with
    | outcome ->
        print_string (Tft_rvf.Report.summary outcome);
        export_model ~export_format ~out_path outcome.Tft_rvf.Pipeline.model
    | exception e when Tft_rvf.Pipeline.recoverable e ->
        fail ~stage:"pipeline" (Tft_rvf.Pipeline.describe_exn e)
  end
  else begin
    (* an obs bundle, an armed fault or a deadline: run the non-raising
       pipeline so a failed extraction still produces its hub and
       bundle — and a structured error object *)
    let outcome, hub =
      Tft_rvf.Pipeline.try_extract ?cancel ?checkpoint_dir ~config ~netlist
        ~input ~output:out_spec ()
    in
    report_fault_stats ();
    (match obs_dir with
    | Some dir ->
        let num_i n = Minijson.Num (float_of_int n) in
        let config_json =
          [
            ( "circuit",
              match (builtin, netlist_path) with
              | Some b, _ -> Minijson.Str ("builtin:" ^ name_of builtins b)
              | None, Some p -> Minijson.Str p
              | None, None -> Minijson.Null );
            ("input", Minijson.Str input);
            ( "output",
              match out_spec with
              | Engine.Mna.Node n -> Minijson.Str n
              | Engine.Mna.Diff (p, n) -> Minijson.Str (p ^ "," ^ n) );
            ("train_freq_hz", Minijson.Num train_freq);
            ("train_ampl", Minijson.Num train_ampl);
            ("train_offset", Minijson.Num train_offset);
            ("f_min_hz", Minijson.Num f_min);
            ("f_max_hz", Minijson.Num f_max);
            ("points", num_i points);
            ("eps", Minijson.Num eps);
            ("snapshots", num_i snapshots);
            ("domains", num_i domains);
            ("backend", Minijson.Str (name_of backends backend));
            ( "fault",
              match fault_spec with
              | Some s -> Minijson.Str s
              | None -> Minijson.Null );
            ( "deadline_seconds",
              match deadline with
              | Some s -> Minijson.Num s
              | None -> Minijson.Null );
            ( "checkpoint_dir",
              match checkpoint_dir with
              | Some d -> Minijson.Str d
              | None -> Minijson.Null );
            ("resume", Minijson.Bool resume);
          ]
        in
        let seed =
          match fault_spec with
          | Some spec -> snd (Fault.parse spec)
          | None -> 0
        in
        let status = if outcome = None then "failed" else "ok" in
        let manifest =
          Obs_bundle.manifest ~tool:"tft_extract" ~status ~seed
            ~config:config_json ()
        in
        let repro =
          (* the replayable capsule: everything needed to re-run the
             failing extraction (circuit + options + seed) *)
          if outcome = None then
            Some
              (Minijson.Obj
                 [
                   ("kind", Minijson.Str "repro-capsule");
                   ("tool", Minijson.Str "tft_extract");
                   ("options", Minijson.Obj config_json);
                   ("seed", num_i seed);
                 ])
          else None
        in
        Obs_bundle.write ~dir ~manifest ?repro hub;
        Printf.eprintf "wrote obs bundle to %s\n%!" dir
    | None -> ());
    if verbose then begin
      prerr_string (Trace.summary (Obs.tracer hub));
      prerr_string (Metrics.summary (Metrics.snapshot (Obs.metrics hub)));
      List.iter (fun (k, v) -> Printf.eprintf "note %s: %s\n" k v)
        (Obs.notes hub);
      List.iter
        (fun (kind, stage, message) ->
          Printf.eprintf "%s %s: %s\n"
            (match kind with `Warning -> "warning" | `Error -> "error")
            stage message)
        (Obs.messages hub)
    end;
    match outcome with
    | None -> fail_with_error_json hub
    | Some outcome ->
        print_string (Tft_rvf.Report.summary outcome);
        export_model ~export_format ~out_path outcome.Tft_rvf.Pipeline.model
  end

open Cmdliner

let netlist_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "i"; "netlist" ] ~docv:"FILE"
        ~doc:"SPICE-like netlist file (or use $(b,--builtin)).")

let builtin_arg =
  Arg.(
    value
    & opt (some (enum builtins)) None
    & info [ "builtin" ] ~docv:"NAME"
        ~doc:
          "Use a built-in example circuit instead of a netlist file. \
           Currently: $(b,buffer) (the paper's Section-IV four-stage \
           buffer, with its tuned training wave, grid and input/output \
           selection).")

let input_arg =
  Arg.(
    value & opt string "Vin"
    & info [ "input" ] ~docv:"NAME" ~doc:"Input source component name.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "output" ] ~docv:"NODE" ~doc:"Output node.")

let output_diff_arg =
  Arg.(
    value
    & opt (some (pair ~sep:',' string string)) None
    & info [ "output-diff" ] ~docv:"P,N" ~doc:"Differential output node pair.")

let ffloat names ~default ~doc =
  Arg.(value & opt float default & info names ~doc)

let points_arg =
  Arg.(value & opt int 40 & info [ "points" ] ~doc:"Frequency grid points.")

let snapshots_arg =
  Arg.(value & opt int 100 & info [ "snapshots" ] ~doc:"TFT trajectory samples.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Run the extraction on a warm pool of $(docv) OCaml domains, \
           spawned once and reused by every stage: TFT pencil solves, \
           VF relocation blocks and per-pole residue fits all fan out \
           (bit-identical to the sequential result; 1 = sequential). \
           Worthwhile only when the host actually has $(docv) cores.")

let backend_arg =
  Arg.(
    value
    & opt (enum backends) Engine.Mna.Dense
    & info [ "backend" ] ~docv:"NAME"
        ~doc:
          "Linear-algebra backend for the engine stages: $(b,dense) \
           (LAPACK-style dense LU at every linearization and grid point) \
           or $(b,sparse) (compressed-column MNA assembly, sparse LU \
           Newton solves and rational-Krylov frequency sweeps — a few \
           shifted factorizations per snapshot instead of one dense \
           factorization per grid point, with every projected transfer \
           value certified against the true sparse residual). The two \
           backends agree to solver tolerance; sparse is built for \
           circuits with thousands of nodes. A sparse-path failure \
           escalates back to the dense backend automatically.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the exported model here.")

let format_arg =
  Arg.(
    value
    & opt (enum formats) `Equations
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Export format: equations, verilog-a or matlab.")

let obs_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "obs-dir" ] ~docv:"DIR"
        ~doc:
          "Write the run's complete observability bundle into $(docv) \
           (created if missing): manifest.json (schema version, host \
           shape, seed, configuration), trace.json, metrics.json, \
           convergence.jsonl (per-iteration VF pole positions, sigma \
           residuals, rcond series, escalations, notes, warnings and \
           errors) and — on failure — repro.json, a replayable capsule. \
           One hub feeds every file. Open trace.json in Perfetto \
           (ui.perfetto.dev) or chrome://tracing; render the whole bundle \
           with $(b,obs_report). Implies the non-raising pipeline.")

let fault_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault" ] ~docv:"SITE[:SEED]"
        ~doc:
          "Arm one deterministic fault-injection probe before the \
           extraction (for testing the recovery paths; implies the \
           non-raising pipeline). $(docv) names a registered site, \
           optionally with a seed selecting the firing schedule. \
           $(b,--fault list) prints the site registry and exits.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Abort the extraction after $(docv) of wall clock. The token is \
           probed at every Newton iteration, transient step, pencil solve, \
           VF relocation sweep and pool chunk boundary, so even a hung \
           stage is reaped promptly. A tripped deadline exits nonzero with \
           a structured JSON error object naming the stage that overran \
           (implies the non-raising pipeline).")

let checkpoint_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR"
        ~doc:
          "Persist each completed pipeline stage (training transient, TFT \
           dataset, settled fit) into $(docv) as schema-versioned, \
           fingerprint-addressed JSON artifacts. Without $(b,--resume) the \
           directory is cleared of previous artifacts first. Combine with \
           $(b,--deadline) to make interrupted runs resumable.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume from the artifacts already in $(b,--checkpoint-dir): \
           stages with a settled artifact matching this run's fingerprint \
           (same netlist, training schedule, grid and fitting config) are \
           loaded from disk instead of recomputed, and the resumed model \
           is bit-identical to an uninterrupted run's. Artifacts from a \
           different configuration are ignored and recomputed.")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:
          "Log fitting progress and print the trace and metrics \
           summaries, then every note, warning and error of the run, to \
           stderr.")

let cmd =
  let doc =
    "extract an analytical Hammerstein model from a nonlinear analog circuit \
     by recursive vector fitting of transfer function trajectories"
  in
  Cmd.v
    (Cmd.info "tft_extract" ~doc)
    Term.(
      const run $ netlist_arg $ builtin_arg $ input_arg $ output_arg
      $ output_diff_arg
      $ ffloat [ "train-freq" ] ~default:1e6 ~doc:"Training sine frequency [Hz]."
      $ ffloat [ "train-ampl" ] ~default:0.5 ~doc:"Training sine amplitude [V]."
      $ ffloat [ "train-offset" ] ~default:0.0 ~doc:"Training sine offset [V]."
      $ ffloat [ "fmin" ] ~default:1e3 ~doc:"Lowest TFT frequency [Hz]."
      $ ffloat [ "fmax" ] ~default:1e10 ~doc:"Highest TFT frequency [Hz]."
      $ points_arg
      $ ffloat [ "eps" ] ~default:1e-3 ~doc:"RVF error bound (relative)."
      $ snapshots_arg $ domains_arg $ backend_arg $ out_arg $ format_arg
      $ obs_dir_arg $ fault_arg $ deadline_arg
      $ checkpoint_dir_arg $ resume_arg $ verbose_arg)

let () = exit (Cmd.eval cmd)
