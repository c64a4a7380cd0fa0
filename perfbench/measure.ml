(* Timing, allocation and summary helpers. Every figure the benchmark
   reports is taken here, from outside the program's own telemetry: wall
   time from the monotonic clock, allocation from the runtime's GC
   counters (single domain, so the counters cover all the work). *)

(* Words allocated by this domain so far: minor-heap allocations plus
   direct major-heap ones (major − promoted). [Gc.minor_words] is exact;
   the minor figure of [Gc.counters] varies with collection timing. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

type sample = { seconds : float; words : float }

(* A forced minor collection, outside the timed window, starts every
   sample from an empty minor heap. *)
let timed f =
  Gc.minor ();
  let w0 = words () in
  let t0 = Clock.now () in
  let r = f () in
  let seconds = Clock.elapsed t0 in
  (r, { seconds; words = words () -. w0 })

(* lower median: always an observed value, so a split read off the
   median operation adds up exactly *)
let median_index xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Measure.median_index: no samples";
  let order = Array.init n (fun i -> i) in
  Array.stable_sort (fun a b -> Float.compare xs.(a) xs.(b)) order;
  order.((n - 1) / 2)

let median xs = xs.(median_index xs)
let best xs = Array.fold_left Float.min Float.infinity xs

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

(* ---- the result line ------------------------------------------------- *)

type metric = { name : string; unit : string; value : float }

let metric name unit value = { name; unit; value }

(* a non-finite reading cannot be written as JSON; it is reported as a
   failed check instead *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "-1"

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)
