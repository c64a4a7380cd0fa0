(* Counters, gauges and log-bucketed histograms behind one small mutex.

   The mutex makes the registry safe to share across the Exec pool's
   domains (per-frequency pencil solves record from workers); the
   critical sections are a handful of hashtable operations, orders of
   magnitude cheaper than the kernels being measured. The [None] path
   is a single branch. *)

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : (int, int ref) Hashtbl.t;  (* bucket index -> count *)
}

type t = {
  mutex : Mutex.t;
  counter_tbl : (string, int ref) Hashtbl.t;
  mutable counter_order : string list;  (* first-seen order, reversed *)
  gauge_tbl : (string, float ref) Hashtbl.t;
  mutable gauge_order : string list;
  hist_tbl : (string, hist) Hashtbl.t;
  mutable hist_order : string list;
}

let create () =
  {
    mutex = Mutex.create ();
    counter_tbl = Hashtbl.create 16;
    counter_order = [];
    gauge_tbl = Hashtbl.create 16;
    gauge_order = [];
    hist_tbl = Hashtbl.create 16;
    hist_order = [];
  }

let locked m f =
  Mutex.lock m.mutex;
  let r = try f m with e -> Mutex.unlock m.mutex; raise e in
  Mutex.unlock m.mutex;
  r

let add m name n =
  match m with
  | None -> ()
  | Some m ->
      locked m (fun m ->
          match Hashtbl.find_opt m.counter_tbl name with
          | Some r -> r := !r + n
          | None ->
              Hashtbl.add m.counter_tbl name (ref n);
              m.counter_order <- name :: m.counter_order)

let gauge m name v =
  match m with
  | None -> ()
  | Some m ->
      locked m (fun m ->
          match Hashtbl.find_opt m.gauge_tbl name with
          | Some r -> r := v
          | None ->
              Hashtbl.add m.gauge_tbl name (ref v);
              m.gauge_order <- name :: m.gauge_order)

(* four log buckets per decade; index i covers (10^((i-1)/4), 10^(i/4)].
   Non-positive / non-finite observations use a sentinel underflow
   index below every representable bucket. *)
let underflow_idx = min_int

let bucket_idx v =
  if Float.is_finite v && v > 0.0 then
    (* the epsilon keeps exact powers (log10 = k/4 up to roundoff) in
       their own bucket instead of spilling into the next one *)
    int_of_float (Float.ceil ((4.0 *. Float.log10 v) -. 1e-9))
  else underflow_idx

let bucket_le idx =
  if idx = underflow_idx then 0.0 else Float.pow 10.0 (float_of_int idx /. 4.0)

let observe m name v =
  match m with
  | None -> ()
  | Some m ->
      locked m (fun m ->
          let h =
            match Hashtbl.find_opt m.hist_tbl name with
            | Some h -> h
            | None ->
                let h =
                  {
                    h_count = 0;
                    h_sum = 0.0;
                    h_min = Float.infinity;
                    h_max = Float.neg_infinity;
                    h_buckets = Hashtbl.create 16;
                  }
                in
                Hashtbl.add m.hist_tbl name h;
                m.hist_order <- name :: m.hist_order;
                h
          in
          h.h_count <- h.h_count + 1;
          h.h_sum <- h.h_sum +. v;
          h.h_min <- Float.min h.h_min v;
          h.h_max <- Float.max h.h_max v;
          let idx = bucket_idx v in
          match Hashtbl.find_opt h.h_buckets idx with
          | Some r -> Stdlib.incr r
          | None -> Hashtbl.add h.h_buckets idx (ref 1))

let observe_since_ns m name t0 =
  match m with
  | None -> ()
  | Some _ -> observe m name ((Clock.now () -. t0) *. 1e9)

(* --- snapshots -------------------------------------------------------- *)

type bucket = { le : float; bucket_count : int }

type histogram = {
  hist_name : string;
  count : int;
  sum : float;
  hist_min : float;
  hist_max : float;
  buckets : bucket list;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : histogram list;
}

let snapshot m =
  locked m (fun m ->
      {
        counters =
          List.rev_map
            (fun name -> (name, !(Hashtbl.find m.counter_tbl name)))
            m.counter_order;
        gauges =
          List.rev_map
            (fun name -> (name, !(Hashtbl.find m.gauge_tbl name)))
            m.gauge_order;
        histograms =
          List.rev_map
            (fun name ->
              let h = Hashtbl.find m.hist_tbl name in
              let buckets =
                Hashtbl.fold
                  (fun idx r acc -> (idx, !r) :: acc)
                  h.h_buckets []
                |> List.sort (fun (a, _) (b, _) -> compare a b)
                |> List.map (fun (idx, n) ->
                       { le = bucket_le idx; bucket_count = n })
              in
              {
                hist_name = name;
                count = h.h_count;
                sum = h.h_sum;
                hist_min = h.h_min;
                hist_max = h.h_max;
                buckets;
              })
            m.hist_order;
      })

let hist_mean h = h.sum /. float_of_int (Stdlib.max 1 h.count)

(* Quantile estimate from the log-bucket boundaries: walk the cumulative
   counts to the bucket holding rank q·count, then interpolate linearly
   between the bucket's bounds (the lower bound of bucket [le] is
   [le/10^(1/4)], the underflow bucket is pinned at 0). The estimate is
   clamped to the exact [min, max] envelope, so single-bucket and
   single-observation histograms report exact quantiles. *)
let quantile h q =
  if h.count = 0 || not (Float.is_finite q) then Float.nan
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let target = q *. float_of_int h.count in
    let rec walk cum = function
      | [] -> h.hist_max
      | b :: rest ->
          let cum' = cum +. float_of_int b.bucket_count in
          if cum' >= target && b.bucket_count > 0 then begin
            let hi = b.le in
            let lo =
              if hi <= 0.0 then 0.0
              else hi /. Float.pow 10.0 0.25
            in
            let frac = (target -. cum) /. float_of_int b.bucket_count in
            lo +. (frac *. (hi -. lo))
          end
          else walk cum' rest
    in
    let v = walk 0.0 h.buckets in
    (* clamp into the observed envelope when it is finite *)
    let v =
      if Float.is_finite h.hist_min then Float.max v h.hist_min else v
    in
    if Float.is_finite h.hist_max then Float.min v h.hist_max else v
  end

let to_json (s : snapshot) =
  let buf = Buffer.create 4096 in
  let sep = ref "" in
  let item fmt =
    Buffer.add_string buf !sep;
    sep := ",";
    Printf.bprintf buf fmt
  in
  let fresh () = sep := "" in
  Buffer.add_string buf "{\n  \"schema_version\": 1,\n  \"counters\": {";
  fresh ();
  List.iter
    (fun (name, n) -> item "\n    \"%s\": %d" (Minijson.escape name) n)
    s.counters;
  Buffer.add_string buf "\n  },\n  \"gauges\": {";
  fresh ();
  List.iter
    (fun (name, v) ->
      item "\n    \"%s\": %s" (Minijson.escape name) (Minijson.float v))
    s.gauges;
  Buffer.add_string buf "\n  },\n  \"histograms\": [";
  fresh ();
  List.iter
    (fun h ->
      item
        "\n    {\"name\": \"%s\", \"count\": %d, \"sum\": %s, \"min\": %s, \
         \"max\": %s, \"mean\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s, \
         \"buckets\": ["
        (Minijson.escape h.hist_name) h.count (Minijson.float h.sum)
        (Minijson.float h.hist_min) (Minijson.float h.hist_max)
        (Minijson.float (hist_mean h))
        (Minijson.float (quantile h 0.50))
        (Minijson.float (quantile h 0.95))
        (Minijson.float (quantile h 0.99));
      List.iteri
        (fun i b ->
          if i > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf "{\"le\": %s, \"count\": %d}" (Minijson.float b.le)
            b.bucket_count)
        h.buckets;
      Buffer.add_string buf "]}")
    s.histograms;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let summary (s : snapshot) =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "metrics\n";
  if s.counters <> [] then begin
    Printf.bprintf buf "  counters:\n";
    List.iter
      (fun (name, n) -> Printf.bprintf buf "    %-36s %d\n" name n)
      s.counters
  end;
  if s.gauges <> [] then begin
    Printf.bprintf buf "  gauges:\n";
    List.iter
      (fun (name, v) -> Printf.bprintf buf "    %-36s %.3e\n" name v)
      s.gauges
  end;
  if s.histograms <> [] then begin
    Printf.bprintf buf "  histograms:\n";
    List.iter
      (fun h ->
        Printf.bprintf buf
          "    %-36s n=%d mean=%.3e p50=%.3e p95=%.3e p99=%.3e min=%.3e \
           max=%.3e (%d buckets)\n"
          h.hist_name h.count (hist_mean h) (quantile h 0.50)
          (quantile h 0.95) (quantile h 0.99) h.hist_min h.hist_max
          (List.length h.buckets))
      s.histograms
  end;
  Buffer.contents buf
