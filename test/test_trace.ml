(* Tests for the hierarchical tracer and the metrics registry: span
   nesting and argument capture, race-free merging of worker-domain
   buffers under the Exec pool, non-negative self times, a Chrome
   trace-event JSON round-trip through Minijson, histogram bucket
   invariants — and the load-bearing guarantee that threading a tracer
   through the full extraction pipeline leaves the model bit-for-bit
   identical to the untraced run. *)

let spans_named name spans =
  List.filter (fun (s : Trace.span) -> s.Trace.name = name) spans

(* ---------------- span recording ---------------- *)

let test_nesting_and_args () =
  let tr = Trace.create () in
  let buf = Some (Trace.main tr) in
  Alcotest.(check int) "no open span yet" (-1) (Trace.current buf);
  let r =
    Trace.span buf ~args:[ ("k", Trace.Int 3) ] "outer" (fun () ->
        Trace.span buf "inner" (fun () -> ());
        Trace.add_args buf [ ("late", Trace.Bool true) ];
        41 + 1)
  in
  Alcotest.(check int) "span returns f's value" 42 r;
  let spans = Trace.spans tr in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let outer = List.hd (spans_named "outer" spans) in
  let inner = List.hd (spans_named "inner" spans) in
  Alcotest.(check int) "outer is a root" (-1) outer.Trace.parent;
  Alcotest.(check int) "inner nests under outer" outer.Trace.id
    inner.Trace.parent;
  Alcotest.(check bool) "same track" true
    (outer.Trace.track = inner.Trace.track);
  Alcotest.(check bool) "durations non-negative" true
    (outer.Trace.dur >= 0.0 && inner.Trace.dur >= 0.0);
  Alcotest.(check bool) "inner inside outer" true
    (inner.Trace.t_start >= outer.Trace.t_start
    && inner.Trace.t_start +. inner.Trace.dur
       <= outer.Trace.t_start +. outer.Trace.dur);
  Alcotest.(check bool) "static arg captured" true
    (List.assoc_opt "k" outer.Trace.args = Some (Trace.Int 3));
  Alcotest.(check bool) "late arg captured" true
    (List.assoc_opt "late" outer.Trace.args = Some (Trace.Bool true))

let test_none_is_noop () =
  Alcotest.(check int) "span still runs f" 7
    (Trace.span None "x" (fun () -> 7));
  Alcotest.(check int) "current of None" (-1) (Trace.current None);
  Trace.add_args None [ ("k", Trace.Int 1) ]

let test_span_survives_raise () =
  let tr = Trace.create () in
  let buf = Some (Trace.main tr) in
  (try Trace.span buf "bad" (fun () -> failwith "x") with Failure _ -> ());
  Trace.span buf "good" (fun () -> ());
  let spans = Trace.spans tr in
  Alcotest.(check int) "both spans recorded" 2 (List.length spans);
  let bad = List.hd (spans_named "bad" spans) in
  Alcotest.(check bool) "raising span closed" true (bad.Trace.dur >= 0.0);
  (* the stack unwound: "good" is a sibling, not a child of "bad" *)
  let good = List.hd (spans_named "good" spans) in
  Alcotest.(check int) "stack unwound on raise" (-1) good.Trace.parent

(* ---------------- worker-domain merging ---------------- *)

let test_worker_spans_merge_race_free () =
  (* many traced pool sweeps in a row: every chunk span must survive the
     merge with a unique id and a parent link to the submitting span *)
  let rounds = 25 and n = 40 in
  let tr = Trace.create () in
  let buf = Trace.main tr in
  Exec.with_pool ~domains:3 (fun pool ->
      for round = 1 to rounds do
        let a =
          Trace.span (Some buf) "iter" (fun () ->
              Exec.parallel_init ~pool ~trace:buf ~label:"t" n (fun i ->
                  (round * i) + i))
        in
        Alcotest.(check int) "results intact" ((round * (n - 1)) + n - 1)
          a.(n - 1)
      done);
  let spans = Trace.spans tr in
  let ids = List.map (fun (s : Trace.span) -> s.Trace.id) spans in
  Alcotest.(check int) "ids unique after merge"
    (List.length ids)
    (List.length (List.sort_uniq compare ids));
  let iters = spans_named "iter" spans in
  Alcotest.(check int) "every round's span merged" rounds (List.length iters);
  let chunks = spans_named "t.chunk" spans in
  Alcotest.(check bool)
    (Printf.sprintf "%d chunk spans (>= one per round)" (List.length chunks))
    true
    (List.length chunks >= rounds);
  let tbl = Hashtbl.create 256 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace tbl s.Trace.id s) spans;
  List.iter
    (fun (c : Trace.span) ->
      match Hashtbl.find_opt tbl c.Trace.parent with
      | Some (p : Trace.span) ->
          Alcotest.(check string) "chunk hangs off its submitter" "iter"
            p.Trace.name
      | None -> Alcotest.fail "chunk span has a dangling parent")
    chunks;
  let tracks =
    List.sort_uniq compare (List.map (fun (s : Trace.span) -> s.Trace.track) chunks)
  in
  Alcotest.(check bool)
    (Printf.sprintf "chunks ran on %d tracks (want >= 2)" (List.length tracks))
    true
    (List.length tracks >= 2)

let test_traced_pool_propagates_exception () =
  Exec.with_pool ~domains:2 (fun pool ->
      let tr = Trace.create () in
      let buf = Trace.main tr in
      (try
         ignore
           (Trace.span (Some buf) "iter" (fun () ->
                Exec.parallel_init ~pool ~trace:buf ~label:"boom" 16 (fun i ->
                    if i = 7 then failwith "kaboom" else i)));
         Alcotest.fail "expected the chunk's exception"
       with Failure m -> Alcotest.(check string) "original exception" "kaboom" m);
      let spans = Trace.spans tr in
      Alcotest.(check bool) "chunk spans recorded despite the raise" true
        (spans_named "boom.chunk" spans <> []);
      Alcotest.(check bool) "submitting span closed" true
        (List.for_all
           (fun (s : Trace.span) -> s.Trace.dur >= 0.0)
           (spans_named "iter" spans)))

let test_aggregate_self_time_non_negative () =
  let tr = Trace.create () in
  let buf = Trace.main tr in
  Exec.with_pool ~domains:2 (fun pool ->
      Trace.span (Some buf) "outer" (fun () ->
          Trace.span (Some buf) "mid" (fun () ->
              ignore
                (Exec.parallel_init ~pool ~trace:buf ~label:"w" 8 (fun i -> i)));
          Trace.span (Some buf) "mid" (fun () -> ())));
  let aggs = Trace.aggregate tr in
  Alcotest.(check bool) "aggregate non-empty" true (aggs <> []);
  List.iter
    (fun (a : Trace.agg) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: 0 <= self <= total" a.Trace.agg_name)
        true
        (a.Trace.agg_self >= 0.0 && a.Trace.agg_self <= a.Trace.agg_total))
    aggs;
  let mid = List.find (fun (a : Trace.agg) -> a.Trace.agg_name = "mid") aggs in
  Alcotest.(check int) "same-name spans pooled" 2 mid.Trace.agg_count

(* ---------------- Chrome JSON round-trip ---------------- *)

let test_chrome_json_roundtrip () =
  let tr = Trace.create () in
  let buf = Trace.main tr in
  Exec.with_pool ~domains:2 (fun pool ->
      Trace.span (Some buf) ~args:[ ("k", Trace.Int 1) ] "outer" (fun () ->
          Trace.span (Some buf) "inner" (fun () -> ());
          ignore (Exec.parallel_init ~pool ~trace:buf ~label:"w" 12 (fun i -> i))));
  let root = Minijson.parse (Trace.chrome_json tr) in
  Alcotest.(check (option (float 0.0))) "schema_version" (Some 1.0)
    (Minijson.num_field root "schema_version");
  let events = Option.value ~default:[] (Minijson.arr_field root "traceEvents") in
  let xs = List.filter (fun e -> Minijson.str_field e "ph" = Some "X") events in
  let ms = List.filter (fun e -> Minijson.str_field e "ph" = Some "M") events in
  Alcotest.(check int) "one X event per span" (List.length (Trace.spans tr))
    (List.length xs);
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let args = Option.value ~default:Minijson.Null (Minijson.field e "args") in
      match Minijson.num_field args "id" with
      | Some id -> Hashtbl.replace tbl (int_of_float id) e
      | None -> Alcotest.fail "X event without args.id")
    xs;
  List.iter
    (fun e ->
      Alcotest.(check bool) "ts/dur/tid/name present" true
        (Minijson.num_field e "ts" <> None
        && Minijson.num_field e "dur" <> None
        && Minijson.num_field e "tid" <> None
        && Minijson.str_field e "name" <> None);
      let args = Option.value ~default:Minijson.Null (Minijson.field e "args") in
      match Minijson.num_field args "parent" with
      | None -> Alcotest.fail "X event without args.parent"
      | Some p ->
          let p = int_of_float p in
          Alcotest.(check bool) "parent resolves or is a root" true
            (p = -1 || Hashtbl.mem tbl p))
    xs;
  (* the user arg survived the round-trip on the outer span *)
  let outer =
    List.find (fun e -> Minijson.str_field e "name" = Some "outer") xs
  in
  let args = Option.value ~default:Minijson.Null (Minijson.field outer "args") in
  Alcotest.(check (option (float 0.0))) "user arg k" (Some 1.0)
    (Minijson.num_field args "k");
  (* every track used by an X event carries thread_name metadata *)
  let x_tids =
    List.sort_uniq compare
      (List.filter_map (fun e -> Minijson.num_field e "tid") xs)
  in
  let named_tids =
    List.filter_map
      (fun e ->
        if Minijson.str_field e "name" = Some "thread_name" then
          Minijson.num_field e "tid"
        else None)
      ms
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) "track has thread_name metadata" true
        (List.mem t named_tids))
    x_tids

(* ---------------- metrics registry ---------------- *)

let test_metrics_counters_and_gauges () =
  let m = Metrics.create () in
  let mm = Some m in
  Metrics.add mm "c" 1;
  Metrics.add mm "c" 4;
  Metrics.add mm "d" 1;
  Metrics.gauge mm "g" 2.5;
  Metrics.gauge mm "g" 3.5;
  let s = Metrics.snapshot m in
  Alcotest.(check (list (pair string int))) "counters, first-seen order"
    [ ("c", 5); ("d", 1) ] s.Metrics.counters;
  Alcotest.(check (list (pair string (float 0.0)))) "latest gauge wins"
    [ ("g", 3.5) ] s.Metrics.gauges;
  (* None is a no-op everywhere *)
  Metrics.add None "c" 1;
  Metrics.observe None "h" 1.0;
  Metrics.gauge None "g" 9.9

let test_metrics_histogram_invariants () =
  let m = Metrics.create () in
  let mm = Some m in
  List.iter (Metrics.observe mm "h") [ 1.0; 9.0; 120.0; 0.0; -3.0 ];
  Metrics.observe mm "weird" Float.nan;
  let s = Metrics.snapshot m in
  let h =
    List.find (fun h -> h.Metrics.hist_name = "h") s.Metrics.histograms
  in
  Alcotest.(check int) "count" 5 h.Metrics.count;
  Alcotest.(check (float 1e-12)) "sum" 127.0 h.Metrics.sum;
  Alcotest.(check (float 1e-12)) "min" (-3.0) h.Metrics.hist_min;
  Alcotest.(check (float 1e-12)) "max" 120.0 h.Metrics.hist_max;
  Alcotest.(check (float 1e-12)) "mean" 25.4 (Metrics.hist_mean h);
  let counts = List.map (fun b -> b.Metrics.bucket_count) h.Metrics.buckets in
  Alcotest.(check int) "bucket counts sum to count" h.Metrics.count
    (List.fold_left ( + ) 0 counts);
  let les = List.map (fun b -> b.Metrics.le) h.Metrics.buckets in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "bucket bounds strictly ascending" true (ascending les);
  (match h.Metrics.buckets with
  | first :: _ ->
      Alcotest.(check (float 0.0)) "underflow bucket bound" 0.0
        first.Metrics.le;
      Alcotest.(check int) "non-positive values underflow" 2
        first.Metrics.bucket_count
  | [] -> Alcotest.fail "no buckets");
  (* each finite positive value sits in the bucket whose bound covers it *)
  List.iter
    (fun v ->
      let covering = List.find (fun le -> v <= le) les in
      Alcotest.(check bool)
        (Printf.sprintf "%g within a quarter-decade of its bound" v)
        true
        (covering < v *. Float.pow 10.0 0.25 +. 1e-9))
    [ 1.0; 9.0; 120.0 ];
  let w =
    List.find (fun h -> h.Metrics.hist_name = "weird") s.Metrics.histograms
  in
  (match w.Metrics.buckets with
  | [ b ] ->
      Alcotest.(check (float 0.0)) "nan underflows" 0.0 b.Metrics.le;
      Alcotest.(check int) "nan counted" 1 b.Metrics.bucket_count
  | _ -> Alcotest.fail "nan must land in exactly the underflow bucket");
  (* the JSON document parses and carries the schema version *)
  let root = Minijson.parse (Metrics.to_json s) in
  Alcotest.(check (option (float 0.0))) "metrics json schema" (Some 1.0)
    (Minijson.num_field root "schema_version");
  Alcotest.(check bool) "histograms serialized" true
    (Minijson.arr_field root "histograms" <> None)

let test_metrics_from_worker_domains () =
  let m = Metrics.create () in
  Exec.with_pool ~domains:4 (fun pool ->
      ignore
        (Exec.parallel_init ~pool ~metrics:m ~label:"w" 64 (fun i ->
             Metrics.add (Some m) "w.calls" 1;
             Metrics.observe (Some m) "w.values" (float_of_int (i + 1));
             i)));
  let s = Metrics.snapshot m in
  Alcotest.(check (option int)) "no increment lost" (Some 64)
    (List.assoc_opt "w.calls" s.Metrics.counters);
  let h =
    List.find (fun h -> h.Metrics.hist_name = "w.values") s.Metrics.histograms
  in
  Alcotest.(check int) "every observation kept" 64 h.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum exact" 2080.0 h.Metrics.sum;
  (* the pool's own instrumentation rode along *)
  Alcotest.(check bool) "chunk run-time histogram present" true
    (List.exists
       (fun h -> h.Metrics.hist_name = "w.chunk_run_ns")
       s.Metrics.histograms)

(* ---------------- pipeline parity ---------------- *)

let test_traced_extraction_bit_identical () =
  (* acceptance: tracing must observe, never perturb — the traced and
     untraced extractions of the same config share every bit *)
  let config = Tft_rvf.Pipeline.buffer_config ~snapshots:30 () in
  let netlist = Circuits.Buffer.netlist () in
  let input = Circuits.Buffer.input_name and output = Circuits.Buffer.output in
  let plain = Tft_rvf.Pipeline.extract ~config ~netlist ~input ~output () in
  let o = Obs.create () in
  let traced =
    Tft_rvf.Pipeline.extract ~obs:o ~config ~netlist ~input ~output ()
  in
  let tr = Obs.tracer o and m = Obs.metrics o in
  Alcotest.(check string) "identical equations"
    (Hammerstein.Hmodel.equations plain.Tft_rvf.Pipeline.model)
    (Hammerstein.Hmodel.equations traced.Tft_rvf.Pipeline.model);
  List.iter
    (fun (x, f) ->
      let s = Complex.{ re = 0.0; im = 2.0 *. Float.pi *. f } in
      let a = Hammerstein.Hmodel.transfer plain.Tft_rvf.Pipeline.model ~x ~s in
      let b = Hammerstein.Hmodel.transfer traced.Tft_rvf.Pipeline.model ~x ~s in
      Alcotest.(check bool)
        (Printf.sprintf "transfer at x=%.2f f=%.0e bit-identical" x f)
        true
        (a.Complex.re = b.Complex.re && a.Complex.im = b.Complex.im))
    [ (0.2, 1e4); (0.9, 1e6); (1.4, 1e9) ];
  (* and the trace really observed the run, deep into every layer *)
  let names =
    List.sort_uniq compare
      (List.map (fun (s : Trace.span) -> s.Trace.name) (Trace.spans tr))
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "span %s recorded" n) true
        (List.mem n names))
    [ "pipeline.train"; "pipeline.tft"; "pipeline.fit"; "tran.step";
      "vf.relocate" ];
  let s = Metrics.snapshot m in
  Alcotest.(check bool) "newton iteration counter flowed" true
    (match List.assoc_opt "tran.newton_iterations" s.Metrics.counters with
    | Some n -> n > 0
    | None -> false)

let suite =
  [
    Alcotest.test_case "nesting and args" `Quick test_nesting_and_args;
    Alcotest.test_case "none is noop" `Quick test_none_is_noop;
    Alcotest.test_case "span survives raise" `Quick test_span_survives_raise;
    Alcotest.test_case "worker spans merge race-free" `Quick
      test_worker_spans_merge_race_free;
    Alcotest.test_case "traced pool propagates exception" `Quick
      test_traced_pool_propagates_exception;
    Alcotest.test_case "self time non-negative" `Quick
      test_aggregate_self_time_non_negative;
    Alcotest.test_case "chrome json round-trip" `Quick
      test_chrome_json_roundtrip;
    Alcotest.test_case "metrics counters and gauges" `Quick
      test_metrics_counters_and_gauges;
    Alcotest.test_case "metrics histogram invariants" `Quick
      test_metrics_histogram_invariants;
    Alcotest.test_case "metrics from worker domains" `Quick
      test_metrics_from_worker_domains;
    Alcotest.test_case "traced extraction parity" `Slow
      test_traced_extraction_bit_identical;
  ]
