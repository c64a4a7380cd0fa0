(* Tests for the unified observability hub and its on-disk run bundles:
   the disabled-path no-op contract (zero clock reads, bit-identical
   extraction), the event-stream invariants (ordered seq, stamped
   timestamps), a manifest/convergence.jsonl round-trip through
   Minijson, typed rejection of malformed bundles, and the
   monotone-residual property of the streamed VF pole trajectories on
   an in-class oracle workload. *)

let fresh_dir tag =
  let path = Filename.temp_file "test_obs" tag in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let events_of_kind kind events =
  List.filter (fun e -> Minijson.str_field e "type" = Some kind) events

(* ---------------- the disabled path ---------------- *)

let test_none_is_noop_zero_clock_reads () =
  (* every emitter with [None] must return without reading the clock:
     the whole point of the [?obs] threading is that an un-instrumented
     run pays nothing *)
  let before = Clock.reads () in
  Obs.rcond None ~site:"dc.lu" Fun.id 0.5;
  Obs.vf_iteration None ~label:"vf" ~iteration:1 ~sigma_rms:1.0 ~d_tilde:1.0
    ~scale_spread:1.0 ~flips:0 [| Complex.one |];
  Obs.vf_attempt None ~label:"vf" ~pole_count:2 ~rms:1.0 ~tol:1e-3
    ~accepted:false;
  Obs.vf_settled None ~label:"vf" ~pole_count:2 ~rms:1.0;
  Obs.escalation None ~rung:"base" ~outcome:"ok" ~detail:"";
  Obs.violation None ~site:"s" "d";
  Obs.quarantine None ~n_bad:0 ~repaired:0 ~dropped:0;
  Obs.stage None "s" ignore;
  Obs.span None ~args:[ ("k", Trace.Int 1) ] "s" ignore;
  Obs.add_args None [ ("k", Trace.Int 1) ];
  Obs.count None "c" 1;
  Obs.observe None "v" 1.0;
  Obs.observe_since_ns None "ns" (Obs.now_if None);
  Obs.note None "k" "v";
  Obs.warn None ~stage:"s" "w";
  Obs.error None ~stage:"s" "e";
  Alcotest.(check int) "zero clock reads on the disabled path" before
    (Clock.reads ())

(* ---------------- event-stream invariants ---------------- *)

let test_event_stream_shape () =
  let o = Obs.create () in
  let h = Some o in
  Obs.stage h "a" ignore;
  Obs.rcond h ~site:"dc.lu" Fun.id 0.25;
  Obs.vf_iteration h ~label:"vf.freq" ~iteration:0 ~sigma_rms:2.0
    ~d_tilde:1.0 ~scale_spread:3.0 ~flips:1
    [| { Complex.re = -1.0; im = 2.0 }; { Complex.re = -1.0; im = -2.0 } |];
  Alcotest.(check int) "event count" 3 (Obs.event_count o);
  let events = Obs.events o in
  List.iteri
    (fun i e ->
      Alcotest.(check (option (float 0.0))) "seq is the emission index"
        (Some (float_of_int i))
        (Minijson.num_field e "seq");
      match Minijson.num_field e "t" with
      | Some t when t >= 0.0 -> ()
      | _ -> Alcotest.fail "event missing a non-negative timestamp")
    events;
  let iter = List.nth events 2 in
  Alcotest.(check (option string)) "type stamped" (Some "vf_iteration")
    (Minijson.str_field iter "type");
  (match Minijson.arr_field iter "poles" with
  | Some [ Minijson.Arr [ Minijson.Num re; Minijson.Num im ]; _ ] ->
      Alcotest.(check (float 0.0)) "pole re" (-1.0) re;
      Alcotest.(check (float 0.0)) "pole im" 2.0 im
  | _ -> Alcotest.fail "vf_iteration poles not serialized as [re, im] pairs");
  let lines = String.split_on_char '\n' (Obs.convergence_jsonl o) in
  Alcotest.(check int) "jsonl: one line per event + trailing newline" 4
    (List.length lines);
  Alcotest.(check string) "jsonl ends with a newline" ""
    (List.nth lines 3)

(* ---------------- bundle round-trip ---------------- *)

let roundtrip_manifest () =
  Obs_bundle.manifest ~tool:"test_obs" ~status:"ok" ~seed:7
    ~config:[ ("circuit", Minijson.Str "builtin:buffer"); ("points", Minijson.Num 40.0) ]
    ()

let test_bundle_roundtrip () =
  let o = Obs.create () in
  let h = Some o in
  Obs.stage h "pipeline.train" ignore;
  Obs.rcond h ~site:"ac.pencil" Fun.id 1e-3;
  Obs.vf_iteration h ~label:"vf.freq" ~iteration:0 ~sigma_rms:0.5
    ~d_tilde:1.25 ~scale_spread:10.0 ~flips:0
    [| { Complex.re = -3.5e8; im = 1.25e9 } |];
  Obs.vf_settled h ~label:"vf.freq" ~pole_count:2 ~rms:1e-4;
  let dir = fresh_dir ".rt" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Obs_bundle.write ~dir ~manifest:(roundtrip_manifest ()) o;
      let b = Obs_bundle.load dir in
      Alcotest.(check (option string)) "tool survives" (Some "test_obs")
        (Minijson.str_field b.Obs_bundle.manifest "tool");
      Alcotest.(check (option (float 0.0))) "seed survives" (Some 7.0)
        (Minijson.num_field b.Obs_bundle.manifest "seed");
      (match Minijson.obj_field b.Obs_bundle.manifest "config" with
      | Some config ->
          Alcotest.(check (option string)) "config survives"
            (Some "builtin:buffer")
            (Minijson.str_field (Minijson.Obj config) "circuit")
      | None -> Alcotest.fail "manifest lost its config object");
      Alcotest.(check int) "every event survives" (Obs.event_count o)
        (List.length b.Obs_bundle.events);
      (* the stream round-trips exactly: re-emitting the parsed events
         reproduces convergence.jsonl byte for byte *)
      let reemitted =
        String.concat ""
          (List.map (fun e -> Minijson.emit e ^ "\n") b.Obs_bundle.events)
      in
      Alcotest.(check string) "convergence.jsonl round-trips through Minijson"
        (Obs.convergence_jsonl o) reemitted;
      match
        events_of_kind "vf_iteration" b.Obs_bundle.events
        |> List.concat_map (fun e ->
               Option.value ~default:[] (Minijson.arr_field e "poles"))
      with
      | [ Minijson.Arr [ Minijson.Num re; Minijson.Num im ] ] ->
          (* float fields go through Minijson.float and back without loss *)
          Alcotest.(check (float 0.0)) "pole re exact" (-3.5e8) re;
          Alcotest.(check (float 0.0)) "pole im exact" 1.25e9 im
      | _ -> Alcotest.fail "loaded stream lost the pole positions")

(* ---------------- malformed bundles ---------------- *)

let write_minimal_bundle () =
  let o = Obs.create () in
  Obs.stage (Some o) "a" ignore;
  Obs.stage (Some o) "b" ignore;
  let dir = fresh_dir ".bad" in
  Obs_bundle.write ~dir ~manifest:(roundtrip_manifest ()) o;
  dir

let check_invalid ~expect_file what f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": loader accepted a malformed bundle")
  | exception Obs_bundle.Invalid { file; _ } ->
      Alcotest.(check string) (what ^ ": blames the offending file")
        expect_file file

let test_malformed_rejection () =
  check_invalid ~expect_file:"." "missing dir" (fun () ->
      Obs_bundle.load "/nonexistent/obs/bundle");
  let with_bundle f =
    let dir = write_minimal_bundle () in
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
  in
  with_bundle (fun dir ->
      Sys.remove (Filename.concat dir "manifest.json");
      check_invalid ~expect_file:"manifest.json" "missing manifest" (fun () ->
          Obs_bundle.load dir));
  with_bundle (fun dir ->
      write_file (Filename.concat dir "manifest.json")
        "{\"schema_version\": 99, \"kind\": \"obs-bundle\"}";
      check_invalid ~expect_file:"manifest.json" "wrong schema version"
        (fun () -> Obs_bundle.load dir));
  with_bundle (fun dir ->
      write_file (Filename.concat dir "trace.json") "not json at all";
      check_invalid ~expect_file:"trace.json" "unparsable trace" (fun () ->
          Obs_bundle.load dir));
  with_bundle (fun dir ->
      (* break the seq numbering: drop the first line of the stream *)
      let path = Filename.concat dir "convergence.jsonl" in
      let lines = String.split_on_char '\n' (read_file path) in
      write_file path (String.concat "\n" (List.tl lines));
      check_invalid ~expect_file:"convergence.jsonl" "broken seq" (fun () ->
          Obs_bundle.load dir))

(* ---------------- bit-identity through the pipeline ---------------- *)

let test_extraction_bit_identical_with_obs () =
  let config = Tft_rvf.Pipeline.buffer_config ~snapshots:30 () in
  let netlist = Circuits.Buffer.netlist () in
  let extract ?obs () =
    Tft_rvf.Pipeline.extract ?obs ~config ~netlist
      ~input:Circuits.Buffer.input_name ~output:Circuits.Buffer.output ()
  in
  let plain = extract () in
  let o = Obs.create () in
  let observed = extract ~obs:o () in
  Alcotest.(check string)
    "extracted model is bit-for-bit identical with the hub attached"
    (Hammerstein.Hmodel.equations plain.Tft_rvf.Pipeline.model)
    (Hammerstein.Hmodel.equations observed.Tft_rvf.Pipeline.model);
  Alcotest.(check bool) "the observed run streamed pole trajectories" true
    (events_of_kind "vf_iteration" (Obs.events o) <> []);
  Alcotest.(check bool) "rcond series recorded" true
    (events_of_kind "rcond" (Obs.events o) <> [])

(* ---------------- one handle ---------------- *)

(* Each stage function takes [?obs] as its only telemetry argument: given
   nothing else, it must write every collector its documentation names. *)

let metrics_snap o = Metrics.snapshot (Obs.metrics o)

let metric_counter o name =
  Option.value ~default:0 (List.assoc_opt name (metrics_snap o).Metrics.counters)

let hist_samples o name =
  List.fold_left
    (fun n (h : Metrics.histogram) ->
      if h.Metrics.hist_name = name then n + h.Metrics.count else n)
    0 (metrics_snap o).Metrics.histograms

let trace_spans o name =
  List.length
    (List.filter
       (fun (sp : Trace.span) -> sp.Trace.name = name)
       (Trace.spans (Obs.tracer o)))

let check_count what expected actual =
  Alcotest.(check int) what expected actual

let clipper_mna () =
  Engine.Mna.build ~inputs:[ "Vin" ] ~outputs:[ Engine.Mna.Node "out" ]
    (Circuit.Parser.parse_string
       "Vin in 0 SIN(0.3 0.5 1e6)\nR1 in out 1k\nD1 out 0 IS=1e-9 N=1.8\n\
        C1 out 0 1p\n")

let test_stage_functions_take_one_handle () =
  let mna = clipper_mna () in
  (* transient: counters in Metrics, a tran.run span over one
     tran.step span per step, per-step and LU histograms *)
  let o = Obs.create () in
  let run =
    Engine.Tran.run ~obs:o
      ~opts:{ Engine.Tran.default_opts with Engine.Tran.snapshot_every = 4 }
      mna ~t_stop:1e-6 ~dt:2.5e-8
  in
  let steps = Array.length run.Engine.Tran.times - 1 in
  let newton = run.Engine.Tran.newton_iterations in
  check_count "metrics tran.steps" steps (metric_counter o "tran.steps");
  check_count "metrics tran.newton_iterations" newton
    (metric_counter o "tran.newton_iterations");
  check_count "tran.newton_iters_per_step samples" steps
    (hist_samples o "tran.newton_iters_per_step");
  check_count "one tran.run span" 1 (trace_spans o "tran.run");
  check_count "one tran.step span per step" steps (trace_spans o "tran.step");
  check_count "one dc.solve span" 1 (trace_spans o "dc.solve");
  Alcotest.(check bool) "dc.lu_factor_ns samples" true
    (hist_samples o "dc.lu_factor_ns" > 0);
  Alcotest.(check bool) "dc.lu rcond events" true
    (events_of_kind "rcond" (Obs.events o) <> []);
  (* TFT transform: one timed pencil solve per (snapshot, frequency),
     one rcond event per point including each H(0), and a clean buffer
     answered entirely by the Hessenberg sweep *)
  let snapshots = run.Engine.Tran.snapshots in
  let freqs_hz = Signal.Grid.frequencies_hz ~f_min:1e3 ~f_max:1e9 ~points:6 in
  let o = Obs.create () in
  let _ =
    Tft.Dataset.of_snapshots ~obs:o ~mna ~estimator:(Tft.Estimator.make ())
      ~freqs_hz snapshots
  in
  let k = Array.length snapshots and l = Array.length freqs_hz in
  check_count "ac.pencil_solve_ns samples = pencil solves" (k * l)
    (hist_samples o "ac.pencil_solve_ns");
  check_count "ac.pencil rcond events" (k * (l + 1))
    (List.length (events_of_kind "rcond" (Obs.events o)));
  Alcotest.(check (option int)) "no point left the Hessenberg sweep" (Some 0)
    (List.assoc_opt "ac.sweep_fallbacks" (metrics_snap o).Metrics.counters);
  check_count "one tft.dataset span" 1 (trace_spans o "tft.dataset");
  check_count "one tft.chunk span" 1 (trace_spans o "tft.chunk");
  check_count "tft.chunk_run_ns samples" 1 (hist_samples o "tft.chunk_run_ns");
  (* VF engine: attempt counter and sigma histogram, one vf_iteration
     event per relocation *)
  let ds = Oracle.Synth.dataset_of Oracle.Synth.default in
  let _, data = Tft.Dataset.siso (Tft.Dataset.dynamic_part ds) ~input:0 ~output:0 in
  let points = Array.map Signal.Grid.s_of_hz ds.Tft.Dataset.freqs_hz in
  let o = Obs.create () in
  let _ =
    Vf.Vfit.fit_auto ~obs:o ~label:"vf.t"
      ~make_poles:(fun count ->
        Vf.Pole.initial_frequency ~f_min:1e3 ~f_max:1e10 ~count)
      ~tol:1e-6 ~points ~data ()
  in
  let attempts = List.length (events_of_kind "vf_attempt" (Obs.events o)) in
  let sweeps = List.length (events_of_kind "vf_iteration" (Obs.events o)) in
  Alcotest.(check bool) "at least one attempt" true (attempts > 0);
  check_count "metrics vf.t.attempts" attempts (metric_counter o "vf.t.attempts");
  check_count "metrics vf.t.sigma_rms samples" sweeps
    (hist_samples o "vf.t.sigma_rms");
  check_count "one vf.relocate span per sweep" sweeps (trace_spans o "vf.relocate");
  check_count "one vf.fit span per attempt" attempts (trace_spans o "vf.fit");
  check_count "one vf.fit_auto span" 1 (trace_spans o "vf.fit_auto");
  Alcotest.(check bool) "settled note" true
    (List.mem_assoc "vf.t.settled_poles" (Obs.notes o));
  (* RVF: each stage is a stage event and a Trace span *)
  let o = Obs.create () in
  let _ = Rvf.extract ~obs:o ~dataset:ds ~input:0 ~output:0 () in
  List.iter
    (fun stage -> check_count (stage ^ " trace span") 1 (trace_spans o stage))
    [ "rvf.frequency_stage"; "rvf.state_stage"; "rvf.static_stage" ];
  check_count "stage events" 3
    (List.length (events_of_kind "stage" (Obs.events o)));
  Alcotest.(check bool) "vf.freq.attempts in metrics" true
    (metric_counter o "vf.freq.attempts" > 0);
  Alcotest.(check bool) "rvf.freq_poles note" true
    (List.mem_assoc "rvf.freq_poles" (Obs.notes o))

(* ---------------- reading a run ---------------- *)

let test_readers () =
  let o = Obs.create () in
  let h = Some o in
  Obs.note h "a" "1";
  Obs.warn h ~stage:"s1" "w1";
  Obs.note h "b" "2";
  Obs.error h ~stage:"s2" "e1";
  Obs.note h "a" "3";
  Obs.warn h ~stage:"s3" "w2";
  Obs.count h "c" 2;
  Obs.count h "c" 3;
  Alcotest.(check (list (pair string string)))
    "latest note wins and moves to the end" [ ("b", "2"); ("a", "3") ]
    (Obs.notes o);
  Alcotest.(check bool) "messages in order, with kind" true
    (Obs.messages o
    = [ (`Warning, "s1", "w1"); (`Error, "s2", "e1"); (`Warning, "s3", "w2") ]);
  Alcotest.(check int) "counter accumulates" 5 (Obs.counter o "c");
  Alcotest.(check int) "absent counter reads 0" 0 (Obs.counter o "absent");
  Alcotest.(check (list string)) "one log record per note and message"
    [ "note"; "warning"; "note"; "error"; "note"; "warning" ]
    (List.filter_map (fun e -> Minijson.str_field e "type") (Obs.events o))

(* every recording call but stage/span/add_args may run in pool
   workers: totals stay exact and the log's seq stays dense *)
let test_worker_safe_recording () =
  let o = Obs.create () in
  let h = Some o in
  let n = 400 in
  Exec.with_pool ~domains:2 (fun pool ->
      ignore
        (Exec.parallel_init ~pool n (fun i ->
             Obs.count h "w.count" 1;
             Obs.observe h "w.value" (float_of_int (i + 1));
             Obs.note h (Printf.sprintf "w.note%d" (i mod 7)) "v";
             Obs.warn h ~stage:"w" (string_of_int i))));
  Alcotest.(check int) "counter total exact" n (Obs.counter o "w.count");
  Alcotest.(check int) "histogram count exact" n (hist_samples o "w.value");
  Alcotest.(check int) "every warning kept" n (List.length (Obs.messages o));
  Alcotest.(check (list int)) "every message once" (List.init n Fun.id)
    (List.sort compare
       (List.map (fun (_, _, m) -> int_of_string m) (Obs.messages o)));
  Alcotest.(check int) "one note per key" 7 (List.length (Obs.notes o));
  Alcotest.(check int) "event count" (2 * n) (Obs.event_count o);
  List.iteri
    (fun i e ->
      Alcotest.(check (option (float 0.0))) "seq dense" (Some (float_of_int i))
        (Minijson.num_field e "seq"))
    (Obs.events o)

(* ---------------- pole-trajectory residual decay ---------------- *)

(* Group the streamed vf_iteration events into relocation trajectories:
   one per (label, pole_count) escalation attempt, in emission order. *)
let trajectories events =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun e ->
      match
        ( Minijson.str_field e "label",
          Minijson.num_field e "pole_count",
          Minijson.num_field e "sigma_rms" )
      with
      | Some label, Some pc, Some sigma ->
          let key = (label, int_of_float pc) in
          if not (Hashtbl.mem tbl key) then begin
            Hashtbl.add tbl key [];
            order := key :: !order
          end;
          Hashtbl.replace tbl key (sigma :: Hashtbl.find tbl key)
      | _ -> Alcotest.fail "vf_iteration event missing label/poles/sigma")
    (events_of_kind "vf_iteration" events);
  List.rev_map (fun key -> (key, List.rev (Hashtbl.find tbl key))) !order

let test_synth_residual_decay () =
  (* an in-class oracle workload: the synthetic Hammerstein dataset is
     exactly representable, so every fit's sigma residual must collapse
     across its relocation sweeps — the convergence the stream exists to
     make visible *)
  let ds = Oracle.Synth.dataset_of Oracle.Synth.default in
  let o = Obs.create () in
  let result = Rvf.extract ~obs:o ~dataset:ds ~input:0 ~output:0 () in
  ignore result;
  let trajs = trajectories (Obs.events o) in
  Alcotest.(check bool) "at least one relocation trajectory streamed" true
    (trajs <> []);
  List.iter
    (fun (((label : string), pc), sigmas) ->
      match sigmas with
      | [] | [ _ ] -> ()
      | first :: _ ->
          let last = List.nth sigmas (List.length sigmas - 1) in
          let least = List.fold_left Float.min Float.infinity sigmas in
          if not (Float.is_finite last) || last > first *. 1.000001 then
            Alcotest.fail
              (Printf.sprintf
                 "%s (%d poles): sigma residual grew across relocation \
                  sweeps: first %.3e, last %.3e"
                 label pc first last);
          Alcotest.(check bool)
            (Printf.sprintf "%s (%d poles): residual decayed" label pc)
            true
            (least <= first))
    trajs;
  (* the escalation left its audit trail too *)
  Alcotest.(check bool) "vf_attempt events streamed" true
    (events_of_kind "vf_attempt" (Obs.events o) <> []);
  Alcotest.(check bool) "vf_settled events streamed" true
    (events_of_kind "vf_settled" (Obs.events o) <> [])

let suite =
  [
    Alcotest.test_case "none is noop (zero clock reads)" `Quick
      test_none_is_noop_zero_clock_reads;
    Alcotest.test_case "event stream shape" `Quick test_event_stream_shape;
    Alcotest.test_case "hub readers" `Quick test_readers;
    Alcotest.test_case "worker-safe recording" `Quick
      test_worker_safe_recording;
    Alcotest.test_case "bundle roundtrip" `Quick test_bundle_roundtrip;
    Alcotest.test_case "malformed bundles rejected" `Quick
      test_malformed_rejection;
    Alcotest.test_case "bit-identical extraction" `Slow
      test_extraction_bit_identical_with_obs;
    Alcotest.test_case "synth residual decay" `Slow test_synth_residual_decay;
    Alcotest.test_case "stage functions take one handle" `Quick
      test_stage_functions_take_one_handle;
  ]
