(* Tests for the domain pool: deterministic ordering, sequential
   equivalence, workspace reuse and exception propagation. *)

let test_parallel_init_matches_sequential () =
  Exec.with_pool ~domains:4 (fun pool ->
      let f i = (i * i) - (3 * i) in
      List.iter
        (fun n ->
          Alcotest.(check (array int))
            (Printf.sprintf "n = %d" n)
            (Array.init n f)
            (Exec.parallel_init ~pool n f))
        [ 0; 1; 2; 3; 7; 64; 1000 ])

let test_parallel_map_matches_sequential () =
  Exec.with_pool ~domains:3 (fun pool ->
      let arr = Array.init 101 (fun i -> float_of_int i /. 7.0) in
      let f x = sin x +. (x *. x) in
      Alcotest.(check (array (float 0.0)))
        "map identical" (Array.map f arr)
        (Exec.parallel_map ~pool f arr))

let test_single_domain_pool_is_sequential () =
  Exec.with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "no workers" 1 (Exec.domains pool);
      Alcotest.(check (array int))
        "still correct" (Array.init 10 succ)
        (Exec.parallel_init ~pool 10 succ))

let test_workspace_per_chunk () =
  (* each chunk gets its own workspace: with [domains] chunks working on
     disjoint slots, reusing a buffer inside a chunk must never race *)
  Exec.with_pool ~domains:4 (fun pool ->
      let made = Atomic.make 0 in
      let out =
        Exec.parallel_init_ws ~pool
          ~ws:(fun _chunk ->
            ignore (Atomic.fetch_and_add made 1);
            Bytes.create 8)
          64
          (fun buf i ->
            (* overwrite the whole workspace, then read it back *)
            Bytes.set_int64_le buf 0 (Int64.of_int (i * 17));
            Int64.to_int (Bytes.get_int64_le buf 0))
      in
      Alcotest.(check (array int)) "values" (Array.init 64 (fun i -> i * 17)) out;
      Alcotest.(check bool)
        (Printf.sprintf "at most one ws per domain (%d)" (Atomic.get made))
        true
        (Atomic.get made <= 4))

let exception_of_pool domains =
  Exec.with_pool ~domains (fun pool ->
      match
        Exec.parallel_init ~pool 32 (fun i ->
            if i = 13 then failwith "boom" else i)
      with
      | _ -> None
      | exception exn -> Some exn)

let test_exception_propagates () =
  match exception_of_pool 4 with
  | Some (Failure msg) when msg = "boom" -> ()
  | Some exn -> Alcotest.failf "wrong exception: %s" (Printexc.to_string exn)
  | None -> Alcotest.fail "no exception raised"

let test_exception_sequential_fallback () =
  match exception_of_pool 1 with
  | Some (Failure msg) when msg = "boom" -> ()
  | Some exn -> Alcotest.failf "wrong exception: %s" (Printexc.to_string exn)
  | None -> Alcotest.fail "no exception raised"

let test_pool_reusable_after_exception () =
  Exec.with_pool ~domains:4 (fun pool ->
      (try ignore (Exec.parallel_init ~pool 16 (fun _ -> failwith "first"))
       with Failure _ -> ());
      Alcotest.(check (array int))
        "second fan-out fine" (Array.init 16 (fun i -> 2 * i))
        (Exec.parallel_init ~pool 16 (fun i -> 2 * i)))

let test_shutdown_idempotent () =
  let pool = Exec.create ~domains:3 () in
  Alcotest.(check int) "domains" 3 (Exec.domains pool);
  Exec.shutdown pool;
  Exec.shutdown pool

(* ---------------- warm-pool slots and nesting ---------------- *)

let test_slot_cached_across_runs () =
  Exec.with_pool ~domains:2 (fun pool ->
      let key : int ref Exec.key = Exec.new_key () in
      let made = Atomic.make 0 in
      let run () =
        Exec.parallel_init_ws ~pool
          ~ws:(fun chunk ->
            Exec.slot pool key ~chunk
              ~valid:(fun _ -> true)
              ~make:(fun () ->
                ignore (Atomic.fetch_and_add made 1);
                ref 0))
          16
          (fun r i ->
            incr r;
            i)
      in
      ignore (run ());
      ignore (run ());
      ignore (run ());
      (* slots survive between runs: at most one build per chunk slot *)
      Alcotest.(check bool)
        (Printf.sprintf "slots reused (%d made)" (Atomic.get made))
        true
        (Atomic.get made <= 2))

let test_slot_invalidation_rebuilds () =
  Exec.with_pool ~domains:2 (fun pool ->
      let key : int ref Exec.key = Exec.new_key () in
      let made = Atomic.make 0 in
      let run ~valid =
        Exec.parallel_init_ws ~pool
          ~ws:(fun chunk ->
            Exec.slot pool key ~chunk ~valid
              ~make:(fun () ->
                ignore (Atomic.fetch_and_add made 1);
                ref 0))
          8
          (fun _ i -> i)
      in
      ignore (run ~valid:(fun _ -> true));
      let after_first = Atomic.get made in
      ignore (run ~valid:(fun _ -> false));
      Alcotest.(check bool)
        (Printf.sprintf "stale slots rebuilt (%d then %d)" after_first
           (Atomic.get made))
        true
        (Atomic.get made > after_first))

let test_nested_fan_out_falls_back () =
  (* a worker re-entering its own pool must not deadlock: the busy guard
     runs the inner fan-out sequentially inline *)
  Exec.with_pool ~domains:3 (fun pool ->
      let out =
        Exec.parallel_init ~pool 6 (fun i ->
            Array.fold_left ( + ) 0
              (Exec.parallel_init ~pool 5 (fun j -> (10 * i) + j)))
      in
      Alcotest.(check (array int))
        "nested results correct"
        (Array.init 6 (fun i -> (50 * i) + 10))
        out;
      Alcotest.(check (array int))
        "pool usable afterwards" (Array.init 4 succ)
        (Exec.parallel_init ~pool 4 succ))

let ran_outside_caller pool n =
  let caller = (Domain.self () :> int) in
  let ids = Exec.parallel_init ~pool n (fun _ -> (Domain.self () :> int)) in
  Array.exists (fun id -> id <> caller) ids

let test_busy_flag_reset_after_exception () =
  Exec.with_pool ~domains:4 (fun pool ->
      (try
         ignore
           (Exec.parallel_init ~pool 16 (fun i ->
                if i = 3 then failwith "mid-run" else i))
       with Failure _ -> ());
      (* if the busy flag leaked, this would silently run sequentially
         in the calling domain only *)
      Alcotest.(check bool)
        "fan-out still reaches workers" true
        (ran_outside_caller pool 64))

let test_clock_monotonic () =
  let t0 = Clock.now () in
  let acc = ref 0.0 in
  for i = 1 to 100_000 do
    acc := !acc +. float_of_int i
  done;
  ignore !acc;
  let dt = Clock.elapsed t0 in
  Alcotest.(check bool) (Printf.sprintf "elapsed %g >= 0" dt) true (dt >= 0.0);
  Alcotest.(check bool) "still monotone" true (Clock.now () >= t0 +. dt)

let suite =
  [
    Alcotest.test_case "parallel_init = Array.init" `Quick
      test_parallel_init_matches_sequential;
    Alcotest.test_case "parallel_map = Array.map" `Quick
      test_parallel_map_matches_sequential;
    Alcotest.test_case "single-domain pool" `Quick test_single_domain_pool_is_sequential;
    Alcotest.test_case "workspace per chunk" `Quick test_workspace_per_chunk;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "exception sequential" `Quick test_exception_sequential_fallback;
    Alcotest.test_case "pool reusable after exn" `Quick test_pool_reusable_after_exception;
    Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "slot cached across runs" `Quick
      test_slot_cached_across_runs;
    Alcotest.test_case "slot invalidation rebuilds" `Quick
      test_slot_invalidation_rebuilds;
    Alcotest.test_case "nested fan-out falls back" `Quick
      test_nested_fan_out_falls_back;
    Alcotest.test_case "busy flag reset after exn" `Quick
      test_busy_flag_reset_after_exception;
    Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
  ]
