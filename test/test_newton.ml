(* The Newton path of the MNA engine: the transient pinned bit for bit,
   pencil reuse (exact, counted, and never of a factorization that
   raised), and the allocation bounds of a step and of its kernels. *)

module Mna = Engine.Mna
module Tran = Engine.Tran
module Dc = Engine.Dc

(* (Newton iterations, reuses, factorizations) recorded by [obs] *)
let lu_counts obs =
  let snap = Metrics.snapshot (Obs.metrics obs) in
  let counter name =
    Option.value (List.assoc_opt name snap.Metrics.counters) ~default:0
  in
  let factorizations =
    List.fold_left
      (fun a (h : Metrics.histogram) ->
        if h.Metrics.hist_name = "dc.lu_factor_ns" then a + h.Metrics.count else a)
      0 snap.Metrics.histograms
  in
  (counter "dc.newton_iterations", counter "dc.lu_reuses", factorizations)

(* ---------------- bit pins ---------------- *)

(* MD5 of the IEEE bit patterns, in order *)
let bits_digest (rows : float array list) =
  let b = Buffer.create 65536 in
  List.iter
    (Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)))
    rows;
  Digest.to_hex (Digest.string (Buffer.contents b))

let states_digest (r : Tran.result) = bits_digest (Array.to_list r.Tran.states)
let outputs_digest (r : Tran.result) =
  bits_digest [ Linalg.Mat.unsafe_data r.Tran.outputs ]

let snapshots_digest (r : Tran.result) =
  bits_digest
    (Array.to_list
       (Array.map (fun (s : Tran.snapshot) -> s.Tran.state) r.Tran.snapshots))

(* the buffer under an 8-bit 2.5 GS/s PRBS, 80 steps per bit *)
let buffer_prbs () =
  let t_stop = 8.0 /. 2.5e9 in
  let mna =
    Circuits.Buffer.mna ~input_wave:(Circuits.Buffer.bit_wave ~length:8 ()) ()
  in
  Tran.run ~backend:Mna.Dense mna ~t_stop ~dt:(t_stop /. 640.0)

(* slowest pole magnitude (rad/s) of a uniform RC ladder *)
let slowest_pole stages =
  Array.fold_left
    (fun a p -> Float.min a (Complex.norm p))
    Float.infinity (Oracle.Ladder.rc ~stages ()).Oracle.Ladder.exact.Oracle.Ladder.poles

(* an 8-bit PRBS at two slowest time constants per bit, and its length *)
let ladder_bits ~stages ~seed =
  let rate = slowest_pole stages /. 2.0 in
  ( Circuit.Netlist.Bits
      {
        low = 0.1;
        high = 0.9;
        rate;
        rise = 0.25 /. rate;
        bits = Signal.Source.prbs_bits ~seed ~length:8;
      },
    8.0 /. rate )

(* a uniform RC ladder, optionally with a diode to ground from the node
   that comes last in the unknown order *)
let ladder_mna ?(diode = false) ~stages wave =
  let o = Oracle.Ladder.rc ~stages ~input_wave:wave () in
  let components = o.Oracle.Ladder.netlist.Circuit.Netlist.components in
  let last = List.hd (List.rev (Circuit.Netlist.nodes o.Oracle.Ladder.netlist)) in
  Mna.build ~inputs:[ o.Oracle.Ladder.input ] ~outputs:[ o.Oracle.Ladder.output ]
    (Circuit.Netlist.make
       (if diode then components @ [ Circuit.Netlist.diode ~name:"D1" last "0" () ]
        else components))

(* a 64-stage ladder under the PRBS; 437 steps make h = t_k − t_(k−1)
   round differently across steps, so the Newton pencil G + (2/h)·C
   repeats on some steps and not on others *)
let ladder_steps = 437

let ladder_prbs backend =
  let wave, t_stop = ladder_bits ~stages:64 ~seed:5 in
  Tran.run ~backend (ladder_mna ~stages:64 wave) ~t_stop
    ~dt:(t_stop /. float_of_int ladder_steps)

(* a 16-stage ladder with the diode: from one iteration to the next the
   pencil changes only in the diode's entry, near the end of both
   layouts *)
let diode_ladder_prbs backend =
  let wave, t_stop = ladder_bits ~stages:16 ~seed:3 in
  Tran.run ~backend (ladder_mna ~diode:true ~stages:16 wave) ~t_stop
    ~dt:(t_stop /. 300.0)

(* its DC operating point at 0.9 V, Newton from zero: the diode's entry
   moves by orders of magnitude between iterations, so a pencil taken
   for unchanged when it is not would change the Newton path *)
let diode_ladder_dc backend =
  let obs = Obs.create () in
  let v =
    Dc.solve ~obs ~backend
      (ladder_mna ~diode:true ~stages:16 (Circuit.Netlist.Dc 0.9))
  in
  let iters, _, _ = lu_counts obs in
  (bits_digest [ v ], iters)

(* the training transients of the buffer (Table I) and of a 512-stage
   sparse ladder pumped as the large-circuit workload pumps it *)
let buffer_training () =
  let tr = (Tft_rvf.Pipeline.buffer_config ()).Tft_rvf.Pipeline.training in
  let mna = Circuits.Buffer.mna ~input_wave:tr.Tft_rvf.Pipeline.wave () in
  Tran.run
    ~opts:
      { Tran.default_opts with Tran.snapshot_every = tr.Tft_rvf.Pipeline.snapshot_every }
    ~backend:Mna.Dense mna ~t_stop:tr.Tft_rvf.Pipeline.t_stop ~dt:tr.Tft_rvf.Pipeline.dt

let ladder_training () =
  let f_train = slowest_pole 512 /. (2.0 *. Float.pi) /. 50.0 in
  let t_stop = 1.0 /. f_train in
  let wave =
    Circuit.Netlist.Sine { offset = 0.5; ampl = 0.4; freq = f_train; phase = 0.0 }
  in
  Tran.run
    ~opts:{ Tran.default_opts with Tran.snapshot_every = 4 }
    ~backend:Mna.Sparse (ladder_mna ~stages:512 wave) ~t_stop ~dt:(t_stop /. 100.0)

let check_digest name expected actual =
  Alcotest.(check string) name expected actual

let test_pin_buffer_prbs () =
  let r = buffer_prbs () in
  check_digest "states" "ebae3727279ce039d8966c179764b4cf" (states_digest r);
  check_digest "outputs" "25cd4fc694af1cb33b70cc453bb94394" (outputs_digest r)

let test_pin_ladder_prbs () =
  let r = ladder_prbs Mna.Dense and rs = ladder_prbs Mna.Sparse in
  (* the step sizes must both repeat and change, or the pin would not
     exercise a pencil that is reused on some steps and refactored on
     others *)
  let repeats = ref 0 in
  for k = 2 to ladder_steps do
    let h k = r.Tran.times.(k) -. r.Tran.times.(k - 1) in
    if Int64.equal (Int64.bits_of_float (h k)) (Int64.bits_of_float (h (k - 1)))
    then incr repeats
  done;
  Alcotest.(check bool) "h repeats on some steps" true (!repeats > 0);
  Alcotest.(check bool) "h changes on some steps" true (!repeats < ladder_steps - 1);
  check_digest "dense states" "5f5bc40ff29c0d5d8fe18ba62e4a2512" (states_digest r);
  check_digest "dense outputs" "d57a9d3e7764acd4074fdb3441b24677" (outputs_digest r);
  check_digest "sparse states" "8de16af549484ceb56602f70f34e6d2a" (states_digest rs);
  check_digest "sparse outputs" "b6541c8890802cd6ea26230a4c5b1d7d" (outputs_digest rs)

let test_pin_diode_ladder () =
  let r = diode_ladder_prbs Mna.Dense and rs = diode_ladder_prbs Mna.Sparse in
  let dc, dc_iters = diode_ladder_dc Mna.Dense
  and dcs, dcs_iters = diode_ladder_dc Mna.Sparse in
  check_digest "dense dc" "a68a6dcde0ef000acd5805e304feaa18" dc;
  Alcotest.(check int) "dense dc iterations" 19 dc_iters;
  check_digest "sparse dc" "a68a6dcde0ef000acd5805e304feaa18" dcs;
  Alcotest.(check int) "sparse dc iterations" 19 dcs_iters;
  check_digest "dense states" "627cc95c91a787a6d5bba1eb84038d0e" (states_digest r);
  check_digest "dense outputs" "4aed7663c25d6dbaa1679951da76aab0" (outputs_digest r);
  check_digest "sparse states" "4e41acf7cc04bb84b9323e98ddeb4037" (states_digest rs);
  check_digest "sparse outputs" "5c82c61b82d292588fb7a0c2a50c950f" (outputs_digest rs)

let test_pin_training () =
  let b = buffer_training () and l = ladder_training () in
  check_digest "buffer snapshot states" "12ec061cc13f5fa2904b8ad8823f95ed"
    (snapshots_digest b);
  check_digest "ladder snapshot states" "18a2f455932643c1e0c00b7c12f989c6"
    (snapshots_digest l)

(* ---------------- pencil reuse ---------------- *)

(* a linear ladder at a DC input: its pencil G + gmin is the same on
   every Newton iteration *)
let linear_ladder ?(stages = 16) () = ladder_mna ~stages (Circuit.Netlist.Dc 0.7)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let test_reuse_counted backend () =
  let mna = linear_ladder () in
  let ws = Dc.workspace ~backend mna in
  let obs = Obs.create () in
  let v1 = Dc.solve_ws ~obs ws in
  let v2 = Dc.solve_ws ~obs ws in
  let iters, reuses, factorizations = lu_counts obs in
  Alcotest.(check int) "one factorization" 1 factorizations;
  Alcotest.(check int) "every other iteration reuses" (iters - 1) reuses;
  Alcotest.(check bool) "more than one iteration" true (iters > 2);
  (* a fresh workspace factors for itself: a reuse is exactly a
     refactorization *)
  let fresh = Dc.solve ~backend mna in
  Alcotest.(check bool) "first solve = fresh solve" true (same_bits v1 fresh);
  Alcotest.(check bool) "second solve = fresh solve" true (same_bits v2 fresh);
  (* a pencil one ulp away is another pencil. gmin 0.5 dominates the
     node diagonals, so its one-ulp neighbour moves each of them by
     exactly one ulp (a default-sized gmin's neighbour rounds away) *)
  let with_gmin g = { Dc.default_opts with Dc.gmin_final = g } in
  let obs = Obs.create () in
  ignore (Dc.solve_ws ~opts:(with_gmin 0.5) ~obs ws);
  ignore (Dc.solve_ws ~opts:(with_gmin (Float.succ 0.5)) ~obs ws);
  ignore (Dc.solve_ws ~opts:(with_gmin (Float.succ 0.5)) ~obs ws);
  let iters, reuses, factorizations = lu_counts obs in
  Alcotest.(check int) "one ulp away refactors" 2 factorizations;
  Alcotest.(check int) "the rest reuse" (iters - 2) reuses

(* every factorization raises, so each Newton run ends at its first
   iteration. With gmin_final above every stepping level, all ten runs
   (the plain one and nine gmin levels) assemble the same pencil: each
   must still factor (and raise) instead of reusing the one before *)
let test_raised_never_reused (backend, site) () =
  Fun.protect ~finally:(fun () -> ignore (Fault.disarm ())) @@ fun () ->
  let mna = linear_ladder () in
  let ws = Dc.workspace ~backend mna in
  let obs = Obs.create () in
  let opts = { Dc.default_opts with Dc.gmin_final = 1e-2 } in
  Fault.arm_exact ~site ~fire_at:1 ~burst:1_000_000 ();
  (match Dc.solve_ws ~opts ~obs ws with
  | _ -> Alcotest.fail "solved with every factorization failing"
  | exception Dc.No_convergence _ -> ());
  let stats = Option.get (Fault.stats ()) in
  let iters, reuses, factorizations = lu_counts obs in
  Alcotest.(check int) "no reuse" 0 reuses;
  Alcotest.(check int) "one probe call per iteration" iters stats.Fault.calls;
  Alcotest.(check int) "one factorization per iteration" iters factorizations;
  Alcotest.(check int) "plain run and nine gmin levels" 10 iters

(* ---------------- allocation bounds ---------------- *)

let words_of f =
  let b0 = Gc.allocated_bytes () in
  f ();
  (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8)

(* a step stores its state (n + 1 words) and a few constant-size
   records; the workspace's n×n arrays amortize over the run *)
let test_tran_step_allocation () =
  let steps = 400 in
  let mna =
    ladder_mna ~stages:100
      (Circuit.Netlist.Sine { offset = 0.5; ampl = 0.4; freq = 1e3; phase = 0.0 })
  in
  let n = Mna.size mna in
  let run () =
    ignore
      (Tran.run ~backend:Mna.Dense mna ~t_stop:1e-3
         ~dt:(1e-3 /. float_of_int steps))
  in
  run ();
  let per_step = words_of run /. float_of_int steps in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per step (bound 10n = %d)" per_step (10 * n))
    true
    (per_step <= float_of_int (10 * n))

let test_kernel_allocation () =
  let mna = linear_ladder ~stages:512 () in
  let ctx = Mna.sparse_ctx mna in
  let at = Dc.solve ~backend:Mna.Sparse mna in
  let sev = Mna.eval_sparse mna ctx ~time:0.0 at in
  let slu = Linalg.Splu.workspace (Mna.sparse_pattern ctx) in
  Linalg.Splu.factor_into slu sev.Mna.sg;
  let w = words_of (fun () -> Linalg.Splu.factor_into slu sev.Mna.sg) in
  Alcotest.(check bool)
    (Printf.sprintf "Splu.factor_into: %.0f words at n = %d (bound 64)" w
       (Mna.size mna))
    true (w <= 64.0);
  let x = Array.init 514 (fun k -> sin (float_of_int k)) in
  let w = words_of (fun () -> ignore (Sys.opaque_identity (Linalg.Vec.norm_inf x))) in
  Alcotest.(check bool)
    (Printf.sprintf "Vec.norm_inf: %.0f words at n = 514 (bound 8)" w)
    true (w <= 8.0)

let suite =
  [
    Alcotest.test_case "pin buffer prbs" `Quick test_pin_buffer_prbs;
    Alcotest.test_case "pin ladder prbs" `Quick test_pin_ladder_prbs;
    Alcotest.test_case "pin diode-ended ladder" `Quick test_pin_diode_ladder;
    Alcotest.test_case "pin training snapshots" `Quick test_pin_training;
    Alcotest.test_case "reuse counted dense" `Quick (test_reuse_counted Mna.Dense);
    Alcotest.test_case "reuse counted sparse" `Quick (test_reuse_counted Mna.Sparse);
    Alcotest.test_case "raised never reused dense" `Quick
      (test_raised_never_reused (Mna.Dense, "lu.pivot_zero"));
    Alcotest.test_case "raised never reused sparse" `Quick
      (test_raised_never_reused (Mna.Sparse, "sp.singular"));
    Alcotest.test_case "tran step allocation" `Quick test_tran_step_allocation;
    Alcotest.test_case "kernel allocation" `Quick test_kernel_allocation;
  ]
