type t = {
  size : int;  (** total parallelism: workers + the submitting domain *)
  mutex : Mutex.t;
  work_ready : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  mutable busy : bool;
      (** a [parallel_*] call is in flight; nested or concurrent calls
          fall back to sequential execution instead of deadlocking *)
  slots : (int * int, exn) Hashtbl.t;
      (** pool-owned workspaces: [(key id, chunk) -> embedded value] *)
}

let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.queue && not pool.closed do
    Condition.wait pool.work_ready pool.mutex
  done;
  if Queue.is_empty pool.queue && pool.closed then Mutex.unlock pool.mutex
  else begin
    let task = Queue.pop pool.queue in
    Mutex.unlock pool.mutex;
    (* tasks do their own exception bookkeeping; a task that still
       raises must not take the worker down with it, or the pool would
       silently lose parallelism for the rest of the process *)
    (try task () with _ -> ());
    worker_loop pool
  end

let create ?domains () =
  let size =
    match domains with
    | Some d -> Stdlib.max 1 d
    | None -> Domain.recommended_domain_count ()
  in
  let pool =
    {
      size;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [];
      busy = false;
      slots = Hashtbl.create 16;
    }
  in
  pool.workers <-
    List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let domains pool = pool.size

let shutdown pool =
  Mutex.lock pool.mutex;
  let workers = pool.workers in
  pool.closed <- true;
  pool.workers <- [];
  Hashtbl.reset pool.slots;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.mutex;
  List.iter Domain.join workers

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* --- pool-owned workspace slots -------------------------------------- *)

(* Heterogeneous workspaces live in one hashtable via the classic
   universal-embedding trick: each key carries a locally defined
   exception constructor used as an injection/projection pair. *)
type 'a key = { key_id : int; inj : 'a -> exn; proj : exn -> 'a option }

let key_counter = Atomic.make 0

let new_key (type a) () =
  let module M = struct
    exception E of a
  end in
  {
    key_id = Atomic.fetch_and_add key_counter 1;
    inj = (fun v -> M.E v);
    proj = (function M.E v -> Some v | _ -> None);
  }

let slot pool key ~chunk ~valid ~make =
  Mutex.lock pool.mutex;
  let existing = Hashtbl.find_opt pool.slots (key.key_id, chunk) in
  Mutex.unlock pool.mutex;
  match Option.bind existing key.proj with
  | Some ws when valid ws -> ws
  | _ ->
      let ws = make () in
      Mutex.lock pool.mutex;
      Hashtbl.replace pool.slots (key.key_id, chunk) (key.inj ws);
      Mutex.unlock pool.mutex;
      ws

(* Chunked fan-out: one fixed contiguous chunk per domain (fewer when
   n is smaller); workers take chunks 1..chunks-1 from the queue while
   the submitting domain runs chunk 0, then waits for the stragglers.
   Each chunk writes disjoint slots of [results], so no ordering
   decision ever reaches the output.

   With [?trace]/[?metrics] attached, each chunk runs inside a
   [<label>.chunk] span on the executing domain's track (worker-side
   buffers attach under the caller's innermost open span). Per-chunk
   wait/run times land in [<label>.chunk_wait_ns]/[<label>.chunk_run_ns]
   histograms; load balance is judged per worker *domain* (a domain that
   finishes early may take a second chunk): busy time summed by executing
   domain feeds [<label>.domain_run_ns] / [<label>.domain_wait_ns] and the
   [<label>.imbalance] max/mean ratio, mirrored into the merged
   [exec.pool.imbalance] gauge. Instrumentation never touches [results]
   or the chunk boundaries, and the uninstrumented path performs no clock
   reads, so outputs stay bit-identical. *)
let run_ws ?cancel ?trace ?metrics ?(label = "exec") pool make_ws n f =
  if n = 0 then [||]
  else begin
    let instrumented = Option.is_some trace || Option.is_some metrics in
    let results = Array.make n None in
    let chunk_site = label ^ ".chunk" in
    let run_chunk c lo hi =
      Cancel.check cancel ~site:chunk_site;
      if Fault.should_fire "exec.chunk_hang" then
        Cancel.hang cancel ~site:chunk_site;
      let ws = make_ws c in
      for i = lo to hi - 1 do
        results.(i) <- Some (f ws i)
      done
    in
    let seq_chunk () =
      if not instrumented then run_chunk 0 0 n
      else begin
        let t0 = Clock.now () in
        Fun.protect
          ~finally:(fun () ->
            Metrics.observe_since_ns metrics (label ^ ".chunk_run_ns") t0)
          (fun () ->
            Trace.span trace
              ~args:
                [ ("chunk", Trace.Int 0); ("lo", Trace.Int 0);
                  ("hi", Trace.Int n) ]
              (label ^ ".chunk")
              (fun () -> run_chunk 0 0 n))
      end
    in
    let try_acquire pool =
      Mutex.lock pool.mutex;
      let free = (not pool.busy) && not pool.closed in
      if free then pool.busy <- true;
      Mutex.unlock pool.mutex;
      free
    in
    let release pool =
      Mutex.lock pool.mutex;
      pool.busy <- false;
      Mutex.unlock pool.mutex
    in
    (match pool with
    | None -> seq_chunk ()
    | Some pool when pool.size <= 1 || n <= 1 -> seq_chunk ()
    | Some pool when not (try_acquire pool) ->
        (* nested (worker-side) or concurrent call: run inline rather
           than queueing work the busy pool could never start *)
        seq_chunk ()
    | Some pool ->
        Fun.protect ~finally:(fun () -> release pool) @@ fun () ->
        let chunks = Stdlib.min pool.size n in
        let bound c = c * n / chunks in
        let remaining = ref (chunks - 1) in
        let first_exn = ref None in
        let done_cond = Condition.create () in
        (* per-chunk slots are single-writer and only read after the
           join below, so no extra synchronisation is needed *)
        let run_ns = if instrumented then Array.make chunks 0.0 else [||] in
        let wait_ns = if instrumented then Array.make chunks 0.0 else [||] in
        let who = if instrumented then Array.make chunks (-1) else [||] in
        let parent = Trace.current trace in
        let t_submit = if instrumented then Clock.now () else 0.0 in
        let timed_chunk c tbuf lo hi =
          who.(c) <- (Domain.self () :> int);
          wait_ns.(c) <- (Clock.now () -. t_submit) *. 1e9;
          let t0 = Clock.now () in
          Fun.protect
            ~finally:(fun () -> run_ns.(c) <- (Clock.now () -. t0) *. 1e9)
            (fun () ->
              Trace.span tbuf
                ~args:
                  [ ("chunk", Trace.Int c); ("lo", Trace.Int lo);
                    ("hi", Trace.Int hi) ]
                (label ^ ".chunk")
                (fun () -> run_chunk c lo hi))
        in
        let task c () =
          (* the join bookkeeping must run no matter how the chunk dies
             (including exceptions raised while *recording* the chunk's
             exception), or the submitting domain waits forever on
             [done_cond] and every later fan-out wedges behind the
             stuck busy flag *)
          Fun.protect
            ~finally:(fun () ->
              Mutex.lock pool.mutex;
              decr remaining;
              if !remaining = 0 then Condition.signal done_cond;
              Mutex.unlock pool.mutex)
            (fun () ->
              try
                if instrumented then
                  let tbuf =
                    match trace with
                    | None -> None
                    | Some b -> Some (Trace.attach (Trace.owner b) ~parent ())
                  in
                  timed_chunk c tbuf (bound c) (bound (c + 1))
                else run_chunk c (bound c) (bound (c + 1))
              with exn ->
                Mutex.lock pool.mutex;
                if !first_exn = None then first_exn := Some exn;
                Mutex.unlock pool.mutex)
        in
        Mutex.lock pool.mutex;
        for c = 1 to chunks - 1 do
          Queue.add (task c) pool.queue
        done;
        Condition.broadcast pool.work_ready;
        Mutex.unlock pool.mutex;
        let own_exn =
          try
            (if instrumented then timed_chunk 0 trace 0 (bound 1)
             else run_chunk 0 0 (bound 1));
            None
          with exn -> Some exn
        in
        Mutex.lock pool.mutex;
        while !remaining > 0 do
          Condition.wait done_cond pool.mutex
        done;
        Mutex.unlock pool.mutex;
        if instrumented then begin
          (* per-chunk histograms keep their historical names; balance is
             judged on busy time aggregated per executing domain *)
          for c = 0 to chunks - 1 do
            Metrics.observe metrics (label ^ ".chunk_run_ns") run_ns.(c);
            Metrics.observe metrics (label ^ ".chunk_wait_ns") wait_ns.(c)
          done;
          let by_domain = Hashtbl.create 8 in
          for c = 0 to chunks - 1 do
            let rt, wt =
              match Hashtbl.find_opt by_domain who.(c) with
              | Some (r, w) -> (r, w)
              | None -> (0.0, 0.0)
            in
            Hashtbl.replace by_domain who.(c)
              (rt +. run_ns.(c), wt +. wait_ns.(c))
          done;
          let n_dom = Hashtbl.length by_domain in
          let sum = ref 0.0 and max_run = ref 0.0 in
          Hashtbl.iter
            (fun _ (rt, wt) ->
              Metrics.observe metrics (label ^ ".domain_run_ns") rt;
              Metrics.observe metrics (label ^ ".domain_wait_ns") wt;
              sum := !sum +. rt;
              if rt > !max_run then max_run := rt)
            by_domain;
          let mean = !sum /. float_of_int (Stdlib.max 1 n_dom) in
          if mean > 0.0 then begin
            Metrics.observe metrics (label ^ ".imbalance") (!max_run /. mean);
            Metrics.gauge metrics "exec.pool.imbalance" (!max_run /. mean)
          end
        end;
        (match (own_exn, !first_exn) with
        | Some exn, _ | None, Some exn -> raise exn
        | None, None -> ()));
    Array.map
      (function Some v -> v | None -> assert false (* every chunk ran *))
      results
  end

let parallel_init_ws ?pool ?cancel ?trace ?metrics ?label ~ws n f =
  run_ws ?cancel ?trace ?metrics ?label pool ws n f

let parallel_init ?pool ?cancel ?trace ?metrics ?label n f =
  run_ws ?cancel ?trace ?metrics ?label pool
    (fun _ -> ())
    n
    (fun () i -> f i)

let parallel_map_ws ?pool ?cancel ?trace ?metrics ?label ~ws f arr =
  run_ws ?cancel ?trace ?metrics ?label pool ws
    (Array.length arr)
    (fun w i -> f w arr.(i))

let parallel_map ?pool ?cancel ?trace ?metrics ?label f arr =
  run_ws ?cancel ?trace ?metrics ?label pool
    (fun _ -> ())
    (Array.length arr)
    (fun () i -> f arr.(i))
