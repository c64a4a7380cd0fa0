(* Observability-bundle smoke: drive `tft_extract --obs-dir` on the
   built-in buffer circuit across 2 domains, validate the written
   bundle end-to-end with the typed loader, check what each file
   means — trace.json (the three pipeline stage spans, well-formed
   nested spans on one named track per domain, non-negative self
   times) and metrics.json (transient work counters, VF and timing
   histograms, ascending buckets, one factorization or one pencil
   reuse per Newton iteration) — check the convergence stream actually
   carries the algorithmic telemetry (per-iteration VF pole positions,
   rcond samples, stage boundaries, a settled pole count, the
   ladder-rung note), render it through obs_report (whose event table
   must show that note), and confirm obs_report rejects a deliberately
   corrupted bundle with a nonzero exit. Schema versions, field types
   and histogram bucket sums are the loader's job and are not
   re-checked here.

   Exits 0 and prints "obs ok" on success. Wired into `dune runtest`
   as the @obs-smoke alias. *)

let failures = ref []

let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

let anchor exe =
  (* dune hands over a path relative to the rule's directory; anchor it
     so the shell doesn't fall back to a $PATH lookup *)
  if Filename.is_relative exe && not (String.contains exe '/') then
    Filename.concat Filename.current_dir_name exe
  else exe

let fresh_dir tag =
  let path = Filename.temp_file "obs_check" tag in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

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

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let events_of_kind kind (bundle : Obs_bundle.t) =
  List.filter
    (fun e -> Minijson.str_field e "type" = Some kind)
    bundle.Obs_bundle.events

(* --- trace.json: the span tree --------------------------------------- *)

(* generous slack for float roundoff in the µs timestamps *)
let eps_us = 0.5

type span = { name : string; ts : float; dur : float; tid : int; parent : int }

let check_trace root =
  let events =
    Option.value ~default:[] (Minijson.arr_field root "traceEvents")
  in
  let phase ph =
    List.filter (fun e -> Minijson.str_field e "ph" = Some ph) events
  in
  let xs = phase "X" in
  if xs = [] then fail "trace: no complete (X) events";
  (* every X event carries ts, dur >= 0, tid, and id/parent in args *)
  let spans =
    List.filter_map
      (fun e ->
        let args =
          Option.value ~default:Minijson.Null (Minijson.field e "args")
        in
        match
          ( Minijson.num_field e "ts",
            Minijson.num_field e "dur",
            Minijson.num_field e "tid",
            Minijson.str_field e "name",
            Minijson.num_field args "id",
            Minijson.num_field args "parent" )
        with
        | Some ts, Some dur, Some tid, Some name, Some id, Some parent ->
            if dur < 0.0 then fail "trace: span %S has negative duration" name;
            Some
              ( int_of_float id,
                {
                  name;
                  ts;
                  dur;
                  tid = int_of_float tid;
                  parent = int_of_float parent;
                } )
        | _ ->
            fail
              "trace: an X event is missing \
               ts/dur/tid/name/args.id/args.parent";
            None)
      xs
  in
  let distinct f =
    List.sort_uniq compare (List.map (fun (_, sp) -> f sp) spans)
  in
  let names = distinct (fun sp -> sp.name) in
  if List.length names < 5 then
    fail "trace: only %d distinct span names (want >= 5)" (List.length names);
  List.iter
    (fun stage ->
      if not (List.mem stage names) then
        fail "trace: missing pipeline span %S" stage)
    [ "pipeline.train"; "pipeline.tft"; "pipeline.fit" ];
  let tids = distinct (fun sp -> sp.tid) in
  if List.length tids < 2 then
    fail "trace: only %d track(s) (want >= 2 with --domains 2)"
      (List.length tids);
  let ids = List.map fst spans in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    fail "trace: duplicate span ids";
  (* every track has thread-name metadata *)
  let named_tids =
    List.filter_map
      (fun e ->
        if Minijson.str_field e "name" = Some "thread_name" then
          Option.map int_of_float (Minijson.num_field e "tid")
        else None)
      (phase "M")
  in
  List.iter
    (fun t ->
      if not (List.mem t named_tids) then
        fail "trace: track %d has no thread_name metadata" t)
    tids;
  (* parent links resolve, stay on-track nested, and children fit inside
     their parent (so per-span self time is non-negative) *)
  let by_id = Hashtbl.create 256 in
  List.iter (fun (id, sp) -> Hashtbl.replace by_id id sp) spans;
  let child_sum = Hashtbl.create 256 in
  let nested = ref false in
  List.iter
    (fun (_, sp) ->
      if sp.parent >= 0 then
        match Hashtbl.find_opt by_id sp.parent with
        | None -> fail "trace: span %S has dangling parent %d" sp.name sp.parent
        | Some p when p.tid = sp.tid ->
            nested := true;
            if
              sp.ts +. eps_us < p.ts
              || sp.ts +. sp.dur > p.ts +. p.dur +. eps_us
            then fail "trace: span %S escapes its parent %S" sp.name p.name;
            Hashtbl.replace child_sum sp.parent
              (sp.dur
              +. Option.value ~default:0.0
                   (Hashtbl.find_opt child_sum sp.parent))
        | Some _ -> ())
    spans;
  Hashtbl.iter
    (fun parent sum ->
      let p = Hashtbl.find by_id parent in
      if sum > p.dur +. eps_us then
        fail
          "trace: children of %S sum to %.1fus > parent %.1fus (self time \
           would be negative)"
          p.name sum p.dur)
    child_sum;
  if not !nested then fail "trace: no nested spans at all"

(* --- metrics.json: the quantitative registry ------------------------- *)

let check_metrics root =
  let counters =
    Option.value ~default:[] (Minijson.obj_field root "counters")
  in
  List.iter
    (fun name ->
      match Option.bind (List.assoc_opt name counters) Minijson.as_num with
      | Some n when n > 0.0 -> ()
      | _ -> fail "metrics: %s missing or zero" name)
    [ "tran.steps"; "tran.newton_iterations" ];
  (* an absent counter or histogram counts as 0 *)
  let count name =
    Option.value ~default:0.0
      (Option.bind (List.assoc_opt name counters) Minijson.as_num)
  in
  if count "tran.newton_iterations" < count "tran.steps" then
    fail
      "metrics: tran.newton_iterations < tran.steps (per-step counting \
       regressed)";
  let hists = Option.value ~default:[] (Minijson.arr_field root "histograms") in
  if hists = [] then fail "metrics: no histograms";
  (* every Newton iteration either factors its pencil or reuses the
     held factorization: a path that does neither cannot hide *)
  let samples name =
    List.fold_left
      (fun acc h ->
        if Minijson.str_field h "name" = Some name then
          acc +. Option.value ~default:0.0 (Minijson.num_field h "count")
        else acc)
      0.0 hists
  in
  let factored = samples "dc.lu_factor_ns"
  and reused = count "dc.lu_reuses"
  and iterations = count "dc.newton_iterations" in
  if factored +. reused <> iterations then
    fail
      "metrics: dc.lu_factor_ns samples (%.0f) + dc.lu_reuses (%.0f) <> \
       dc.newton_iterations (%.0f)"
      factored reused iterations;
  let hist_names =
    List.filter_map (fun h -> Minijson.str_field h "name") hists
  in
  List.iter
    (fun name ->
      if not (List.mem name hist_names) then
        fail "metrics: missing histogram %S" name)
    [ "ac.pencil_solve_ns"; "dc.lu_factor_ns"; "tran.newton_iters_per_step" ];
  if not (List.exists (String.starts_with ~prefix:"vf.") hist_names) then
    fail "metrics: no vector-fitting histograms recorded";
  List.iter
    (fun h ->
      let name = Option.value ~default:"?" (Minijson.str_field h "name") in
      if Minijson.num_field h "mean" = None then
        fail "metrics: histogram %S missing mean" name;
      let les =
        List.filter_map
          (fun b -> Minijson.num_field b "le")
          (Option.value ~default:[] (Minijson.arr_field h "buckets"))
      in
      let rec ascending = function
        | a :: (b :: _ as rest) -> a < b && ascending rest
        | _ -> true
      in
      if not (ascending les) then
        fail "metrics: histogram %S bucket bounds not ascending" name)
    hists

(* --- the happy path: extract, load, inspect, render ----------------- *)

let check_stream (bundle : Obs_bundle.t) =
  (match Minijson.str_field bundle.Obs_bundle.manifest "status" with
  | Some "ok" -> ()
  | s ->
      fail "manifest status %S, expected \"ok\""
        (Option.value ~default:"<missing>" s));
  (match Minijson.obj_field bundle.Obs_bundle.manifest "host" with
  | None -> fail "manifest missing host object"
  | Some host -> (
      match Minijson.num_field (Minijson.Obj host) "cores" with
      | Some c when c >= 1.0 -> ()
      | _ -> fail "manifest host.cores missing or < 1"));
  let iters = events_of_kind "vf_iteration" bundle in
  if iters = [] then fail "no vf_iteration events in convergence.jsonl";
  List.iter
    (fun e ->
      match Minijson.arr_field e "poles" with
      | None | Some [] ->
          fail "a vf_iteration event carries no pole positions"
      | Some poles ->
          List.iter
            (fun p ->
              match p with
              | Minijson.Arr [ Minijson.Num _; Minijson.Num _ ] -> ()
              | _ -> fail "a vf_iteration pole is not a [re, im] pair")
            poles)
    iters;
  (* every relocation sweep of every fit must stream its pole set: the
     vf.sigma_rms histogram counts exactly the relocation sweeps *)
  (match Minijson.field bundle.Obs_bundle.metrics "histograms" with
  | Some (Minijson.Arr hists) ->
      let sweeps =
        List.fold_left
          (fun acc h ->
            match Minijson.str_field h "name" with
            | Some name
              when String.length name >= 10
                   && String.sub name (String.length name - 9) 9 = "sigma_rms"
              ->
                acc
                + int_of_float (Option.value ~default:0.0 (Minijson.num_field h "count"))
            | _ -> acc)
          0 hists
      in
      if sweeps <> List.length iters then
        fail "vf_iteration events (%d) <> recorded relocation sweeps (%d)"
          (List.length iters) sweeps
  | _ -> fail "metrics.json missing histograms array");
  if events_of_kind "vf_settled" bundle = [] then
    fail "no vf_settled event: fit_auto escalation left no record";
  if events_of_kind "stage" bundle = [] then fail "no stage boundary events";
  if
    not
      (List.exists
         (fun e -> Minijson.str_field e "name" = Some "pipeline.ladder_rung")
         (events_of_kind "note" bundle))
  then fail "no pipeline.ladder_rung note in convergence.jsonl";
  let rconds = events_of_kind "rcond" bundle in
  let sites =
    List.sort_uniq compare
      (List.filter_map (fun e -> Minijson.str_field e "site") rconds)
  in
  List.iter
    (fun want ->
      if not (List.mem want sites) then
        fail "no rcond samples from site %S (saw: %s)" want
          (String.concat ", " sites))
    [ "dc.lu"; "ac.pencil"; "vf.sigma_qr" ];
  List.iter
    (fun e ->
      match Minijson.num_field e "value" with
      | Some v when Float.is_finite v && v >= 0.0 && v <= 1.0 -> ()
      | _ -> fail "an rcond sample is outside [0, 1]")
    rconds

let check_report out_dir =
  let html = read_file (Filename.concat out_dir "report.html") in
  if not (String.length html > 0 && String.sub html 0 15 = "<!DOCTYPE html>") then
    fail "report.html does not start with a doctype";
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      if not (contains html needle) then
        fail "report.html missing %S" needle)
    [ "<svg"; "Pole migration"; "Residual decay"; "Self time";
      "pipeline.ladder_rung" ];
  let om = read_file (Filename.concat out_dir "metrics.om") in
  let n = String.length om in
  if n < 6 || String.sub om (n - 6) 6 <> "# EOF\n" then
    fail "metrics.om is not terminated by \"# EOF\""

(* --- the failure contract: corrupted bundle → typed nonzero exit ---- *)

let check_malformed report_exe bundle_dir =
  let bad = fresh_dir ".bad" in
  Array.iter
    (fun f ->
      write_file (Filename.concat bad f)
        (read_file (Filename.concat bundle_dir f)))
    (Sys.readdir bundle_dir);
  write_file (Filename.concat bad "metrics.json") "{ not json";
  (match Obs_bundle.load bad with
  | _ -> fail "loader accepted a bundle with unparsable metrics.json"
  | exception Obs_bundle.Invalid { file = "metrics.json"; _ } -> ()
  | exception Obs_bundle.Invalid { file; _ } ->
      fail "loader blamed %S for corrupt metrics.json" file);
  let status =
    Sys.command
      (Printf.sprintf "%s %s > /dev/null 2> /dev/null"
         (Filename.quote report_exe) (Filename.quote bad))
  in
  if status = 0 then fail "obs_report exited 0 on a malformed bundle";
  rm_rf bad

let () =
  let extract_exe, report_exe =
    match Sys.argv with
    | [| _; e; r |] -> (anchor e, anchor r)
    | _ ->
        prerr_endline "usage: obs_check <tft_extract.exe> <obs_report.exe>";
        exit 2
  in
  let dir = fresh_dir ".bundle" in
  let status =
    Sys.command
      (Printf.sprintf
         "%s --builtin buffer --snapshots 30 --domains 2 --obs-dir %s > \
          /dev/null 2> /dev/null"
         (Filename.quote extract_exe) (Filename.quote dir))
  in
  if status <> 0 then begin
    Printf.eprintf "obs_check: tft_extract --obs-dir exited %d\n" status;
    exit 1
  end;
  (match Obs_bundle.load dir with
  | bundle ->
      check_trace bundle.Obs_bundle.trace;
      check_metrics bundle.Obs_bundle.metrics;
      check_stream bundle;
      Printf.printf "  bundle valid (%d events)\n%!"
        (List.length bundle.Obs_bundle.events)
  | exception Obs_bundle.Invalid { file; reason } ->
      fail "fresh bundle invalid: %s"
        (Obs_bundle.describe_invalid ~file ~reason));
  let rstatus =
    Sys.command
      (Printf.sprintf "%s %s > /dev/null 2> /dev/null"
         (Filename.quote report_exe) (Filename.quote dir))
  in
  if rstatus <> 0 then fail "obs_report exited %d on a valid bundle" rstatus
  else check_report dir;
  check_malformed report_exe dir;
  rm_rf dir;
  match !failures with
  | [] -> print_endline "obs ok"
  | fs ->
      List.iter (fun m -> Printf.eprintf "obs_check: %s\n" m) (List.rev fs);
      exit 1
