(* The repository benchmark: seeded workloads run as a closed loop (one
   operation at a time, one domain), every output checked, and one JSON
   result line printed last.

     bench --workload buffer_extract|ladder_extract|bitstream_sim
           --seed N --seconds S --trace 0|1

   With --trace 0 the loop times the product path and reports the
   end-to-end metrics. With --trace 1 it alternates the product path
   with the same work rebuilt from the layers' public calls, and reports
   the per-layer split of the median traced operation. See README.md in
   this directory for the workloads and the layer → metric predictions. *)

let setups = 3 (* set-up repeats; setup_s is their median *)
let model_reps = 5 (* model simulations per pattern, for model_sim_s *)

(* ---- command line ---------------------------------------------------- *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let workload_names = [ "buffer_extract"; "ladder_extract"; "bitstream_sim" ]

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref (-1) in
  let usage =
    "bench --workload NAME --seed N --seconds S --trace 0|1\n  workloads: "
    ^ String.concat ", " workload_names
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are drawn from (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S how long the loop measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if
    (not (List.mem !workload workload_names))
    || !seed < 0
    || !seconds <= 0.0
    || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1 }

(* ---- operations and checks ------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

(* run one operation; it returns the checks it violated *)
let operation name f =
  incr attempted;
  match f () with
  | [] -> ()
  | problems ->
      incr failed;
      List.iter (Printf.eprintf "perfbench: %s: %s\n%!" name) problems
  | exception e ->
      incr failed;
      Printf.eprintf "perfbench: %s raised %s\n%!" name (Printexc.to_string e)

(* closed loop for [seconds]: at least one operation *)
let loop ~seconds f =
  let t0 = Clock.now () in
  let i = ref 0 in
  while !i = 0 || Clock.elapsed t0 < seconds do
    f !i;
    incr i
  done

let collect () =
  let xs = ref [] in
  ((fun x -> xs := x :: !xs), fun () -> Array.of_list (List.rev !xs))

(* Set-up, repeated [setups] times: generate the inputs and run one
   extraction (the warm-up, and the model bitstream_sim simulates). The
   first set-up's model bytes are the reference every later extraction
   of this seed must reproduce. *)
type setup = {
  spec : Specs.spec;
  outcome : Tft_rvf.Pipeline.outcome;
  reference : string;
  setup_s : float;
  setup_extracts : float array;  (** seconds of each set-up extraction *)
  setup_ok : bool;
}

let set_up args =
  let runs =
    Array.init setups (fun _ ->
        let (spec, (outcome, ex)), s =
          Measure.timed (fun () ->
              let spec = Specs.spec_of ~workload:args.workload ~seed:args.seed in
              let outcome, ex =
                Measure.timed (fun () -> Stages.extract spec.Specs.extraction)
              in
              (* warm the simulation path too *)
              ignore (Stages.simulate outcome.Tft_rvf.Pipeline.model (spec.Specs.pattern 1));
              (spec, (outcome, ex)))
        in
        (spec, outcome, s.Measure.seconds, ex.Measure.seconds))
  in
  let spec, outcome, _, _ = runs.(0) in
  let reference = Stages.model_bytes outcome.Tft_rvf.Pipeline.model in
  let problems =
    List.concat_map
      (fun (_, o, _, _) -> Specs.model_checks spec ~reference o)
      (Array.to_list runs)
  in
  List.iter (Printf.eprintf "perfbench: set-up: %s\n%!") problems;
  {
    spec;
    outcome;
    reference;
    setup_s = Measure.median (Array.map (fun (_, _, s, _) -> s) runs);
    setup_extracts = Array.map (fun (_, _, _, e) -> e) runs;
    setup_ok = problems = [];
  }

(* one model-vs-reference comparison: reference seconds, the model's
   [model_reps] simulation seconds, RMSE *)
let compare_once spec model (p : Workloads.pattern) =
  let run, spice = Measure.timed (fun () -> Stages.reference spec.Specs.extraction p) in
  let sims =
    Array.init model_reps (fun _ -> Measure.timed (fun () -> Stages.simulate model p))
  in
  ( spice.Measure.seconds,
    Array.map (fun (_, s) -> s.Measure.seconds) sims,
    Stages.time_rmse run (fst sims.(0)) )

(* Timing samples of one run. The timed metrics are the fastest sample:
   on a shared host the speed shifts by up to 1.8x for seconds at a time,
   which moves a median with the neighbours' load; the fastest of N
   operations tracks the code. Medians are printed beside them. *)
type e2e = {
  extracts : float array;
  spices : float array;
  models : float array;
  rmses : float array;
  words : float array;  (** per operation *)
}

let end_to_end args (s : setup) =
  let spec = s.spec in
  let pattern_seeds = Workloads.pattern_seeds ~seed:args.seed 4096 in
  let add_extract, extracts = collect () in
  let add_words, words = collect () in
  let add_cmp, cmps = collect () in
  let compare_op name model i =
    let p = spec.Specs.pattern pattern_seeds.(i mod Array.length pattern_seeds) in
    operation name (fun () ->
        let spice, model_s, rmse = compare_once spec model p in
        add_cmp (spice, model_s, rmse);
        Specs.bound "time_rmse_v" rmse spec.Specs.rmse_bound)
  in
  (match args.workload with
  | "bitstream_sim" ->
      loop ~seconds:args.seconds (fun i ->
          let (), m =
            Measure.timed (fun () ->
                compare_op "bitstream" s.outcome.Tft_rvf.Pipeline.model i)
          in
          add_words m.Measure.words)
  | _ ->
      (* each extraction is followed by the model's use: one bit
         pattern, transistor level against the model *)
      loop ~seconds:args.seconds (fun i ->
          let model = ref None in
          operation "extract" (fun () ->
              let o, m = Measure.timed (fun () -> Stages.extract spec.Specs.extraction) in
              add_extract m.Measure.seconds;
              add_words m.Measure.words;
              model := Some o.Tft_rvf.Pipeline.model;
              Specs.model_checks spec ~reference:s.reference o);
          Option.iter (fun m -> compare_op "validate" m i) !model));
  let cmps = cmps () in
  {
    extracts =
      (match extracts () with [||] -> s.setup_extracts | xs -> xs);
    spices = Array.map (fun (a, _, _) -> a) cmps;
    models = Array.concat (Array.to_list (Array.map (fun (_, b, _) -> b) cmps));
    rmses = Array.map (fun (_, _, c) -> c) cmps;
    words = words ();
  }

(* ---- per-layer run ----------------------------------------------------- *)

let per_layer args (s : setup) =
  let spec = s.spec in
  let model = s.outcome.Tft_rvf.Pipeline.model in
  (* every traced operation of a run takes the same input, so its
     counters can be compared exactly *)
  let p = spec.Specs.pattern (Workloads.pattern_seeds ~seed:args.seed 1).(0) in
  (* the work counts come from one more pass with a registry attached *)
  let registry = ref Stages.empty_registry in
  if args.workload <> "bitstream_sim" then
    operation "extract with registry" (fun () ->
        let t = Stages.traced_extract ~metrics:(Metrics.create ()) spec.Specs.extraction in
        registry := t.Stages.registry;
        Specs.same "registry-attached and Pipeline.extract model bytes" s.reference
          t.Stages.bytes);
  let registry = !registry in
  let add_plain, plains = collect () in
  let add_traced, traceds = collect () in
  let first = ref None in
  let exact (t : Stages.traced) =
    let c = Stages.alloc_counts t @ Stages.work_counts t in
    match !first with
    | None ->
        first := Some c;
        []
    | Some c0 -> (
        match Stages.differing c0 c with
        | [] -> []
        | d ->
            [
              "counters differ between traced operations on one input: "
              ^ String.concat ", " d;
            ])
  in
  loop ~seconds:args.seconds (fun _ ->
      match args.workload with
      | "bitstream_sim" ->
          operation "bitstream" (fun () ->
              let rmse, m =
                Measure.timed (fun () ->
                    let run = Stages.reference spec.Specs.extraction p in
                    Stages.time_rmse run (Stages.simulate model p))
              in
              add_plain m.Measure.seconds;
              Specs.bound "time_rmse_v" rmse spec.Specs.rmse_bound);
          operation "bitstream traced" (fun () ->
              let t, rmse = Stages.traced_compare spec.Specs.extraction model p in
              add_traced t;
              Specs.bound "time_rmse_v" rmse spec.Specs.rmse_bound @ exact t)
      | _ ->
          operation "extract" (fun () ->
              let o, m = Measure.timed (fun () -> Stages.extract spec.Specs.extraction) in
              add_plain m.Measure.seconds;
              Specs.model_checks spec ~reference:s.reference o);
          operation "extract traced" (fun () ->
              let t = Stages.traced_extract spec.Specs.extraction in
              add_traced t;
              (* the composed model must be the product path's, byte for byte *)
              Specs.same "traced and Pipeline.extract model bytes" s.reference t.Stages.bytes
              @ exact t));
  let traceds = traceds () in
  let totals = Array.map (fun (t : Stages.traced) -> t.Stages.total.Measure.seconds) traceds in
  let m = traceds.(Measure.median_index totals) in
  let sec n = (Stages.layer m.Stages.layers n).Measure.seconds in
  let words n = (Stages.layer m.Stages.layers n).Measure.words in
  let mwords n = words n /. 1e6 in
  let sum f = List.fold_left (fun a l -> a + f l) 0 Stages.vf_labels in
  let attempts = sum (fun l -> Stages.counter registry (l ^ ".attempts")) in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let run_count f = match m.Stages.tran with Some r -> f r | None -> 0 in
  let attributed = List.fold_left (fun a n -> a +. sec n) 0.0 Stages.layer_names in
  let poles f = match m.Stages.rvf with Some r -> f r | None -> 0 in
  let per_step v = if m.Stages.steps = 0 then 0.0 else v /. float_of_int m.Stages.steps in
  let c name v = Measure.metric name "count" (float_of_int v) in
  let secs name v = Measure.metric name "s" v in
  [
    secs "tran.busy_s" (sec "tran");
    c "tran.newton_iters" (run_count (fun r -> r.Engine.Tran.newton_iterations));
    c "tran.step_rejections" (run_count (fun r -> r.Engine.Tran.step_rejections));
    Measure.metric "tran.alloc_mwords" "Mword" (mwords "tran");
    secs "dataset.busy_s" (sec "dataset");
    Measure.metric "dataset.us_per_point" "us"
      (if m.Stages.points = 0 then 0.0
       else sec "dataset" *. 1e6 /. float_of_int m.Stages.points);
    c "dataset.pencil_factorizations" (Stages.hist_count registry "ac.pencil_solve_ns");
    Measure.metric "dataset.alloc_mwords" "Mword" (mwords "dataset");
    secs "mna.sparse_compile_s" (sec "mna.sparse_compile");
    c "ratkrylov.shifts" (Stages.counter registry "krylov.shifts");
    Measure.metric "ratkrylov.certified_frac" "ratio"
      (if m.Stages.krylov_points = 0 then 0.0
       else
         1.0 -. ratio (Stages.counter registry "krylov.fallback_points") m.Stages.krylov_points);
    secs "rvf.busy_s" (sec "rvf");
    c "vfit.iterations" (sum (fun l -> Stages.hist_count registry (l ^ ".sigma_rms")));
    c "vfit.attempts" attempts;
    Measure.metric "vfit.settled_frac" "ratio"
      (if attempts = 0 then 0.0 else ratio (List.length Stages.vf_labels) attempts);
    c "rvf.freq_poles" (poles (fun r -> r.Rvf.freq_info.Vf.Vfit.pole_count));
    c "rvf.state_poles" (poles (fun r -> r.Rvf.residue_info.Vf.Vfit.pole_count));
    Measure.metric "rvf.alloc_mwords" "Mword" (mwords "rvf");
    secs "export.busy_s" (sec "export");
    Measure.metric "export.bytes" "B" (float_of_int (String.length m.Stages.bytes));
    secs "hmodel.busy_s" (sec "hmodel");
    Measure.metric "hmodel.ns_per_step" "ns" (per_step (sec "hmodel" *. 1e9));
    Measure.metric "hmodel.alloc_words_per_step" "word" (per_step (words "hmodel"));
    secs "trace.op_s" m.Stages.total.Measure.seconds;
    secs "pipeline.unattributed_s" (m.Stages.total.Measure.seconds -. attributed);
    Measure.metric "trace.overhead_frac" "ratio"
      ((Measure.median totals /. Measure.median (plains ())) -. 1.0);
  ]

(* ---- report ------------------------------------------------------------ *)

(* Table I of the paper, for the derived speedup line *)
let paper_table1 = "RVF -62 dB | 0.0098 V | 2 min | 7X | analytic"

let () =
  let args = parse_args () in
  Printf.printf "# perfbench %s seed %d, %g s, trace %d, domains 1\n%!" args.workload
    args.seed args.seconds (if args.trace then 1 else 0);
  let s = set_up args in
  Printf.printf "# inputs: %s\n# setup_s %.4f (median of %d)\n%!" s.spec.Specs.sizes s.setup_s
    setups;
  let metrics =
    if args.trace then per_layer args s
    else begin
      let e = end_to_end args s in
      let model = s.outcome.Tft_rvf.Pipeline.model in
      let timing name xs =
        Printf.printf "# %s: fastest %.6g s, median %.6g s, n = %d\n" name
          (Measure.best xs) (Measure.median xs) (Array.length xs);
        Measure.metric name "s" (Measure.best xs)
      in
      let extract_s = timing "extract_s" e.extracts in
      let spice_sim_s = timing "spice_sim_s" e.spices in
      (* printed, not gated: a process draws a fast or a 1.6x slower
         state for these short simulations and keeps it for its lifetime,
         so the fastest of a run spreads past any bound across runs; the
         traced run's hmodel.* metrics carry the layer instead *)
      ignore (timing "model_sim_s" e.models);
      Printf.printf
        "# derived sim_speedup %.1fX (spice_sim_s / model_sim_s, not gated); paper Table I: %s\n"
        (Measure.best e.spices /. Measure.best e.models)
        paper_table1;
      let surface = Specs.surface_rms s.outcome in
      Printf.printf "# surface_rms %.2f dB\n" (Signal.Metrics.db20 surface);
      (match s.spec.Specs.oracle with
      | Some f ->
          Printf.printf "# oracle_rel_err %.4g (bound %g)\n" (f model)
            Specs.oracle_bound
      | None -> ());
      let m = Measure.metric in
      [
        extract_s;
        spice_sim_s;
        m "surface_rms" "V/V" surface;
        m "time_rmse_v" "V" (Measure.median e.rmses);
        m "model_order" "count" (float_of_int (Hammerstein.Hmodel.order model));
        m "alloc_mwords" "Mword" (Measure.median e.words /. 1e6);
        m "peak_heap_mb" "MB" (Measure.peak_heap_mb ());
        m "setup_s" "s" s.setup_s;
      ]
    end
  in
  List.iter
    (fun (mt : Measure.metric) ->
      Printf.printf "# %-30s %14.6g %s\n" mt.Measure.name mt.Measure.value mt.Measure.unit)
    metrics;
  Printf.printf "# fail_frac %.4g (%d of %d)\n"
    (float_of_int !failed /. float_of_int (max 1 !attempted)) !failed !attempted;
  let finite = List.for_all (fun (mt : Measure.metric) -> Float.is_finite mt.Measure.value) metrics in
  let correct = !failed = 0 && s.setup_ok && finite in
  print_endline
    (Measure.result_line ~correct ~attempted:!attempted ~failed:!failed metrics);
  exit (if correct then 0 else 1)
