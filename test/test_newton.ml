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

(* a PRBS of [length] bits (8 by default) at two slowest time constants
   per bit, and its length *)
let ladder_bits ?(length = 8) ~stages ~seed () =
  let rate = slowest_pole stages /. 2.0 in
  ( Circuit.Netlist.Bits
      {
        low = 0.1;
        high = 0.9;
        rate;
        rise = 0.25 /. rate;
        bits = Signal.Source.prbs_bits ~seed ~length;
      },
    float_of_int length /. rate )

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
  let wave, t_stop = ladder_bits ~stages:64 ~seed:5 () in
  Tran.run ~backend (ladder_mna ~stages:64 wave) ~t_stop
    ~dt:(t_stop /. float_of_int ladder_steps)

(* a 16-stage ladder with the diode: from one iteration to the next the
   pencil changes only in the diode's entry, near the end of both
   layouts *)
let diode_ladder_prbs backend =
  let wave, t_stop = ladder_bits ~stages:16 ~seed:3 () in
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

let ladder_training ?obs () =
  let f_train = slowest_pole 512 /. (2.0 *. Float.pi) /. 50.0 in
  let t_stop = 1.0 /. f_train in
  let wave =
    Circuit.Netlist.Sine { offset = 0.5; ampl = 0.4; freq = f_train; phase = 0.0 }
  in
  Tran.run ?obs
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

(* The 512-stage ladder's reference transient at the benchmark's scale:
   a 32-bit PRBS in 2,560 steps. t_k = k·dt rounds h = t_k − t_(k−1) to a
   dozen distinct values, and consecutive steps alternate between two
   of them; the two held factorizations miss only at a new value. Its
   training transient's step sizes differ in their last bits, which α·C
   is too small against G to carry into J: one pencil for the DC solve
   and one for every step. *)
let test_ladder_reference_factorizations () =
  let wave, t_stop = ladder_bits ~length:32 ~stages:512 ~seed:77 () in
  let obs = Obs.create () in
  ignore
    (Tran.run ~obs ~backend:Mna.Sparse (ladder_mna ~stages:512 wave) ~t_stop
       ~dt:(t_stop /. 2560.0));
  let iters, reuses, factorizations = lu_counts obs in
  Alcotest.(check bool)
    (Printf.sprintf "%d factorizations (bound 16)" factorizations)
    true (factorizations <= 16);
  Alcotest.(check int) "factorizations + reuses = iterations" iters
    (factorizations + reuses);
  let obs = Obs.create () in
  ignore (ladder_training ~obs ());
  let iters, reuses, factorizations = lu_counts obs in
  Alcotest.(check bool)
    (Printf.sprintf "training: %d factorizations (bound 2)" factorizations)
    true (factorizations <= 2);
  Alcotest.(check int) "training: factorizations + reuses = iterations" iters
    (factorizations + reuses)

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

(* ---------------- the stamp program against the reference ---------------- *)

let bits x = Int64.bits_of_float x

(* the first index where two arrays differ in any bit *)
let first_difference a b =
  let k = ref 0 and n = Array.length a in
  if Array.length b <> n then Some (-1)
  else begin
    while !k < n && Int64.equal (bits a.(!k)) (bits b.(!k)) do
      incr k
    done;
    if !k = n then None else Some !k
  end

(* [Mna]'s dense and sparse assemblies, charge pass and allocating
   evaluations against {!Ref_stamp}, bit for bit, at three random states
   in turn: the assemblies are reused, so an entry the previous state
   left behind would show. [Error] names the first difference. *)
let stamp_parity st nl =
  let mna = Mna.build nl in
  let n = Mna.size mna in
  let dense = Mna.dense_assembly mna in
  let ctx = Mna.sparse_ctx mna in
  let sparse = Mna.sparse_assembly ctx in
  let pat = Mna.sparse_pattern ctx in
  let errors = ref [] in
  let same what expected actual =
    match first_difference expected actual with
    | None -> ()
    | Some k -> errors := Printf.sprintf "%s differs at %d" what k :: !errors
  in
  (* a CSC value array spread over the dense layout; the entries outside
     the pattern stay +0, which the reference must also hold *)
  let spread vals =
    let m = Array.make (n * n) 0.0 in
    for c = 0 to n - 1 do
      for p = pat.Linalg.Sp.colptr.(c) to pat.Linalg.Sp.colptr.(c + 1) - 1 do
        m.((pat.Linalg.Sp.rowind.(p) * n) + c) <- vals.(p)
      done
    done;
    m
  in
  for round = 1 to 3 do
    let v = Oracle.Gen.mixed_state st mna in
    let time = Random.State.float st 1e-5 in
    let r = Ref_stamp.eval nl ~time v in
    let tag what = Printf.sprintf "state %d: %s" round what in
    Mna.assemble mna dense ~time v;
    same (tag "dense i") r.Ref_stamp.i_vec (Mna.residual dense);
    same (tag "dense q") r.Ref_stamp.q_vec (Mna.charge dense);
    same (tag "dense G") r.Ref_stamp.g (Mna.g_values dense);
    same (tag "dense C") r.Ref_stamp.c (Mna.c_values dense);
    Mna.assemble mna sparse ~time v;
    same (tag "sparse i") r.Ref_stamp.i_vec (Mna.residual sparse);
    same (tag "sparse q") r.Ref_stamp.q_vec (Mna.charge sparse);
    same (tag "sparse G") r.Ref_stamp.g (spread (Mna.g_values sparse));
    same (tag "sparse C") r.Ref_stamp.c (spread (Mna.c_values sparse));
    let q = Array.make n Float.nan in
    Mna.charge_into mna dense v q;
    same (tag "charge_into") r.Ref_stamp.q_vec q;
    let ev = Mna.eval mna ~time v in
    same (tag "eval i") r.Ref_stamp.i_vec ev.Mna.i_vec;
    same (tag "eval q") r.Ref_stamp.q_vec ev.Mna.q_vec;
    same (tag "eval G") r.Ref_stamp.g (Linalg.Mat.unsafe_data (Option.get ev.Mna.g_mat));
    same (tag "eval C") r.Ref_stamp.c (Linalg.Mat.unsafe_data (Option.get ev.Mna.c_mat));
    let ev = Mna.eval mna ~with_matrices:false ~time v in
    same (tag "eval i, no matrices") r.Ref_stamp.i_vec ev.Mna.i_vec;
    same (tag "eval q, no matrices") r.Ref_stamp.q_vec ev.Mna.q_vec
  done;
  match List.rev !errors with [] -> Ok () | e :: _ -> Error e

let prop_stamp_program =
  QCheck.Test.make ~count:150 ~name:"stamp program equals per-element stamps"
    (Oracle.Gen.arb ~max_size:6 ())
    (fun s ->
      let nl = Oracle.Gen.mixed_circuit s in
      match stamp_parity (Oracle.Gen.rand_state s) nl with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "%s" e)

(* the buffer's load resistors stamp after the pair transistors on the
   drain nodes: entries shared by linear and nonlinear stamps *)
let test_stamp_program_buffer () =
  match stamp_parity (Random.State.make [| 25 |]) (Circuits.Buffer.netlist ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ---------------- allocation bounds ---------------- *)

(* a step stores its state (n + 1 words) and allocates a few
   constant-size results; the workspace amortizes over the run, so the
   per-step figure is the difference between runs of 800 and 400 steps
   at one step size (the first 400 steps are the same) *)
(* words a transient step allocates beyond its state, measured on this
   test's ladder on either backend: its Newton solve's closures and
   results, the boxed step time and α, and the output row *)
let per_step_beyond_state = 62.0

let test_tran_step_allocation () =
  let mna =
    ladder_mna ~stages:100
      (Circuit.Netlist.Sine { offset = 0.5; ampl = 0.4; freq = 1e3; phase = 0.0 })
  in
  let n = Mna.size mna in
  let dt = 2.5e-6 in
  List.iter
    (fun backend ->
      let run steps () =
        ignore
          (Tran.run ~backend mna ~t_stop:(float_of_int steps *. dt) ~dt)
      in
      run 400 ();
      let per_step =
        (Alloc.words_of (run 800) -. Alloc.words_of (run 400)) /. 400.0
      in
      let bound = float_of_int (n + 1) +. (1.25 *. per_step_beyond_state) in
      Alcotest.(check bool)
        (Printf.sprintf "%.1f words per step (bound n + 1 + 1.25 × %.0f = %.1f)"
           per_step per_step_beyond_state bound)
        true (per_step <= bound))
    [ Mna.Dense; Mna.Sparse ]

(* one stamp pass of the buffer: the devices evaluate in place and the
   linear elements run from data, so what is left is the boxed values
   of the time-dependent sources *)
let test_assemble_allocation () =
  let mna =
    Circuits.Buffer.mna ~input_wave:(Circuits.Buffer.bit_wave ~length:8 ()) ()
  in
  let a = Mna.dense_assembly mna in
  let v = Array.init (Mna.size mna) (fun k -> 0.1 *. float_of_int (k mod 13)) in
  Mna.assemble mna a ~time:1e-10 v;
  let w = Alloc.words_of (fun () -> Mna.assemble mna a ~time:1e-10 v) in
  Alcotest.(check bool)
    (Printf.sprintf "Mna.assemble: %.0f words on the buffer (bound 32)" w)
    true (w <= 32.0)

let test_kernel_allocation () =
  let mna = linear_ladder ~stages:512 () in
  let ctx = Mna.sparse_ctx mna in
  let at = Dc.solve ~backend:Mna.Sparse mna in
  let sev = Mna.eval_sparse mna ctx ~time:0.0 at in
  let slu = Linalg.Splu.workspace (Mna.sparse_pattern ctx) in
  Linalg.Splu.factor_into slu sev.Mna.sg;
  let w = Alloc.words_of (fun () -> Linalg.Splu.factor_into slu sev.Mna.sg) in
  Alcotest.(check bool)
    (Printf.sprintf "Splu.factor_into: %.0f words at n = %d (bound 64)" w
       (Mna.size mna))
    true (w <= 64.0);
  let x = Array.init 514 (fun k -> sin (float_of_int k)) in
  let w =
    Alloc.words_of (fun () ->
        ignore (Sys.opaque_identity (Linalg.Vec.norm_inf x)))
  in
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
    Alcotest.test_case "stamp program buffer" `Quick test_stamp_program_buffer;
    QCheck_alcotest.to_alcotest ~long:false prop_stamp_program;
    Alcotest.test_case "ladder reference factorizations" `Quick
      test_ladder_reference_factorizations;
    Alcotest.test_case "tran step allocation" `Quick test_tran_step_allocation;
    Alcotest.test_case "assemble allocation" `Quick test_assemble_allocation;
    Alcotest.test_case "kernel allocation" `Quick test_kernel_allocation;
  ]

