(* The benchmark's own tests: `dune build @perfbench/check`.

   - Exact counters: two traced runs of one seed repeat every work count
     (Newton iterations, pencil factorizations, Krylov shifts, VF
     attempts and iterations) and every per-layer allocation exactly.
   - Parity: the model composed from the stage calls is byte for byte
     the model [Pipeline.extract] returns.
   - Predictions on the current code: the TFT transform is the largest
     layer of both extractions, the ladder does no dense pencil
     factorization, and a bit-pattern comparison calls no TFT or VF
     layer.
   - Seeded generation: every seed of the check set extracts without
     raising and passes the model checks. *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      Printf.printf "FAIL %s\n%!" m)
    fmt

let expect name problems = List.iter (fail "%s: %s" name) problems

let exact name c1 c2 =
  match Stages.differing c1 c2 with
  | [] -> ()
  | d -> fail "%s: counters differ: %s" name (String.concat ", " d)

let largest_layer (t : Stages.traced) =
  List.fold_left
    (fun (best, bs) n ->
      let s = (Stages.layer t.Stages.layers n).Measure.seconds in
      if s > bs then (n, s) else (best, bs))
    ("none", 0.0) Stages.layer_names
  |> fst

let check_extraction workload =
  let spec = Specs.spec_of ~workload ~seed:1 in
  let e = spec.Specs.extraction in
  let reference = Stages.model_bytes (Stages.extract e).Tft_rvf.Pipeline.model in
  let counted () = Stages.traced_extract ~metrics:(Metrics.create ()) e in
  let c1 = counted () in
  let c2 = counted () in
  exact (workload ^ " work") (Stages.work_counts c1) (Stages.work_counts c2);
  let t1 = Stages.traced_extract e in
  let t2 = Stages.traced_extract e in
  exact (workload ^ " allocation") (Stages.alloc_counts t1) (Stages.alloc_counts t2);
  List.iter
    (fun (t : Stages.traced) ->
      expect (workload ^ " parity")
        (Specs.same "traced and Pipeline.extract model bytes" reference t.Stages.bytes))
    [ c1; c2; t1; t2 ];
  if largest_layer t2 <> "dataset" then
    fail "%s: largest layer is %s, predicted dataset" workload (largest_layer t2);
  let pencils = Stages.hist_count c1.Stages.registry "ac.pencil_solve_ns" in
  let shifts = Stages.counter c1.Stages.registry "krylov.shifts" in
  (match workload with
  | "ladder_extract" ->
      if pencils <> 0 then fail "ladder: %d dense pencil factorizations" pencils;
      if shifts = 0 then fail "ladder: no rational-Krylov shifts"
  | _ ->
      if pencils = 0 then fail "buffer: no dense pencil factorizations";
      if shifts <> 0 then fail "buffer: %d rational-Krylov shifts" shifts);
  Printf.printf "ok %s: counters exact, parity, largest layer %s\n%!" workload
    (largest_layer t2)

let check_bitstream () =
  let spec = Specs.spec_of ~workload:"bitstream_sim" ~seed:1 in
  let e = spec.Specs.extraction in
  let model = (Stages.extract e).Tft_rvf.Pipeline.model in
  let p = spec.Specs.pattern 5 in
  let t1, _ = Stages.traced_compare e model p in
  let t2, rmse = Stages.traced_compare e model p in
  exact "bitstream_sim"
    (Stages.alloc_counts t1 @ Stages.work_counts t1)
    (Stages.alloc_counts t2 @ Stages.work_counts t2);
  expect "bitstream_sim" (Specs.bound "time_rmse_v" rmse spec.Specs.rmse_bound);
  List.iter
    (fun n ->
      if Hashtbl.mem t2.Stages.layers n then fail "bitstream_sim: called layer %s" n)
    [ "mna.sparse_compile"; "dataset"; "rvf"; "export" ];
  Printf.printf "ok bitstream_sim: counters exact, no TFT or VF work\n%!"

(* every seed of the check set extracts and passes the model checks *)
let check_seeds workload seeds =
  List.iter
    (fun seed ->
      let spec = Specs.spec_of ~workload ~seed in
      match Stages.extract spec.Specs.extraction with
      | o ->
          let reference = Stages.model_bytes o.Tft_rvf.Pipeline.model in
          expect
            (Printf.sprintf "%s seed %d" workload seed)
            (Specs.model_checks spec ~reference o)
      | exception e ->
          fail "%s seed %d raised %s" workload seed (Printexc.to_string e))
    seeds;
  Printf.printf "ok %s: seeds %s extract\n%!" workload
    (String.concat " " (List.map string_of_int seeds))

let () =
  check_extraction "buffer_extract";
  check_extraction "ladder_extract";
  check_bitstream ();
  let seeds = List.init 10 (fun i -> i + 1) in
  check_seeds "buffer_extract" seeds;
  check_seeds "ladder_extract" seeds;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
