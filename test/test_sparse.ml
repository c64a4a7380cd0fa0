(* The sparse tier's differential battery: every sparse-backend layer is
   checked against its dense twin on randomized circuits — CSC assembly
   against the dense Jacobians entrywise, sparse LU against Lu/Clu,
   rational-Krylov sweeps against the dense AC pencil, and the full
   pipeline across both backends. Properties are driven by Oracle.Gen's
   {seed; size} records, so failures shrink toward small circuits and
   print a reproducible case; QCHECK_SEED reproduces a whole run. *)

module Sp = Linalg.Sp
module Mna = Engine.Mna

let check_close tol = Alcotest.(check (float tol))

(* deterministic per-case test state: perturb the DC operating point so
   nonlinear elements are exercised off their bias point *)
let perturbed_state st mna at =
  let n = Mna.size mna in
  Array.init n (fun k -> at.(k) +. (0.2 *. (Random.State.float st 1.0 -. 0.5)))

let mna_of (netlist, input, output) =
  Mna.build ~inputs:[ input ] ~outputs:[ output ] netlist

(* the sparse tier's fitting band for random mesh elements
   (r ∈ [1e2, 1e4], c ∈ [1e-10, 1e-8] ⇒ ω ∈ ~[1e4, 1e8] rad/s) *)
let mesh_freqs ~points =
  Signal.Grid.frequencies_hz ~f_min:1e2 ~f_max:1e9 ~points

(* ---------------- assembly: CSC refill = dense Jacobians ---------------- *)

(* the compiled pattern accumulates stamps in the same order as the
   dense eval, so agreement is exact — and every dense entry outside
   the pattern must be exactly zero *)
let prop_assembly_parity =
  QCheck.Test.make ~count:50 ~name:"sparse assembly equals dense jacobians"
    (Oracle.Gen.arb ~max_size:3 ())
    (fun s ->
      let st = Oracle.Gen.rand_state s in
      let mna = mna_of (Oracle.Gen.rc_grid s) in
      let ctx = Mna.sparse_ctx mna in
      let at = Engine.Dc.solve mna in
      let state = perturbed_state st mna at in
      let ev = Mna.eval mna ~time:0.0 state in
      let sev = Mna.eval_sparse mna ctx ~time:0.0 state in
      let g = Option.get ev.Mna.g_mat and c = Option.get ev.Mna.c_mat in
      let n = Mna.size mna in
      let worst = ref 0.0 and site = ref (-1, -1) in
      for r = 0 to n - 1 do
        for cl = 0 to n - 1 do
          let dg = Float.abs (Sp.get sev.Mna.sg r cl -. Linalg.Mat.get g r cl)
          and dc = Float.abs (Sp.get sev.Mna.sc r cl -. Linalg.Mat.get c r cl) in
          let d = Float.max dg dc in
          if d > !worst then begin
            worst := d;
            site := (r, cl)
          end
        done
      done;
      (* residual pieces ride the same stamps: compare them too *)
      for k = 0 to n - 1 do
        worst := Float.max !worst (Float.abs (sev.Mna.si_vec.(k) -. ev.Mna.i_vec.(k)));
        worst := Float.max !worst (Float.abs (sev.Mna.sq_vec.(k) -. ev.Mna.q_vec.(k)))
      done;
      if !worst = 0.0 then true
      else
        let r, cl = !site in
        QCheck.Test.fail_reportf "assembly mismatch %.3e at (%d,%d), n=%d"
          !worst r cl n)

(* ---------------- sparse LU vs dense LU ---------------- *)

let rel_err_vec x y =
  let scale =
    Array.fold_left (fun a v -> Float.max a (Float.abs v)) 1e-300 y
  in
  let worst = ref 0.0 in
  Array.iteri
    (fun k v -> worst := Float.max !worst (Float.abs (v -. y.(k)) /. scale))
    x;
  !worst

let prop_splu_vs_lu =
  QCheck.Test.make ~count:50 ~name:"sparse real lu matches dense lu"
    (Oracle.Gen.arb ~max_size:3 ())
    (fun s ->
      let st = Oracle.Gen.rand_state s in
      let mna = mna_of (Oracle.Gen.rc_mesh s) in
      let ctx = Mna.sparse_ctx mna in
      let at = Engine.Dc.solve mna in
      let sev = Mna.eval_sparse mna ctx ~time:0.0 at in
      let ev = Mna.eval mna ~time:0.0 at in
      let g = Option.get ev.Mna.g_mat in
      let n = Mna.size mna in
      let rhs = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let xs = Linalg.Splu.solve (Linalg.Splu.factor sev.Mna.sg) rhs in
      let xd = Linalg.Lu.solve (Linalg.Lu.factor (Linalg.Mat.copy g)) rhs in
      let err = rel_err_vec xs xd in
      if err <= 1e-12 then true
      else QCheck.Test.fail_reportf "splu vs lu rel err %.3e (n=%d)" err n)

let prop_spclu_vs_clu =
  QCheck.Test.make ~count:50 ~name:"sparse complex lu matches dense clu"
    (Oracle.Gen.arb ~max_size:3 ())
    (fun s ->
      let st = Oracle.Gen.rand_state s in
      let mna = mna_of (Oracle.Gen.rc_mesh s) in
      let ctx = Mna.sparse_ctx mna in
      let at = Engine.Dc.solve mna in
      let sev = Mna.eval_sparse mna ctx ~time:0.0 at in
      let ev = Mna.eval mna ~time:0.0 at in
      let g = Option.get ev.Mna.g_mat and c = Option.get ev.Mna.c_mat in
      let n = Mna.size mna in
      let sv =
        { Complex.re = 0.0; im = 2.0 *. Float.pi *. (10.0 ** (4.0 +. (4.0 *. Random.State.float st 1.0))) }
      in
      (* sparse pencil over the shared pattern *)
      let pencil = Sp.ccreate (Mna.sparse_pattern ctx) in
      Sp.pencil_into pencil sev.Mna.sg sev.Mna.sc sv;
      let rhs =
        Array.init n (fun _ ->
            {
              Complex.re = Random.State.float st 2.0 -. 1.0;
              im = Random.State.float st 2.0 -. 1.0;
            })
      in
      let xs = Linalg.Spclu.solve (Linalg.Spclu.factor pencil) rhs in
      (* dense pencil from the dense Jacobians *)
      let dense =
        Linalg.Cmat.init n n (fun r cl ->
            Complex.add
              { Complex.re = Linalg.Mat.get g r cl; im = 0.0 }
              (Complex.mul sv { Complex.re = Linalg.Mat.get c r cl; im = 0.0 }))
      in
      let xd = Linalg.Clu.solve (Linalg.Clu.factor dense) rhs in
      let scale =
        Array.fold_left (fun a z -> Float.max a (Complex.norm z)) 1e-300 xd
      in
      let err =
        ref 0.0
      in
      Array.iteri
        (fun k z ->
          err := Float.max !err (Complex.norm (Complex.sub z xd.(k)) /. scale))
        xs;
      if !err <= 1e-12 then true
      else QCheck.Test.fail_reportf "spclu vs clu rel err %.3e (n=%d)" !err n)

(* ---------------- rational Krylov vs dense AC sweep ---------------- *)

let prop_krylov_vs_ac =
  QCheck.Test.make ~count:25 ~name:"rational-krylov sweep matches dense ac"
    (Oracle.Gen.arb ~max_size:3 ())
    (fun s ->
      let ((_, _, _) as case) = Oracle.Gen.rc_mesh s in
      let mna = mna_of case in
      let ctx = Mna.sparse_ctx mna in
      let at = Engine.Dc.solve mna in
      let freqs = mesh_freqs ~points:24 in
      let hd = Engine.Ac.sweep_siso mna ~at ~freqs_hz:freqs in
      let sev = Mna.eval_sparse mna ctx ~time:0.0 at in
      let ws =
        Engine.Ratkrylov.make_ws
          ~pat:(Mna.sparse_pattern ctx)
          ~b:(Mna.b_matrix mna) ~d:(Mna.d_matrix mna)
      in
      let ss = Array.map Signal.Grid.s_of_hz freqs in
      let hs, _ =
        Engine.Ratkrylov.sweep ws ~g:sev.Mna.sg ~c:sev.Mna.sc ~ss
      in
      let scale =
        Array.fold_left (fun a z -> Float.max a (Complex.norm z)) 1e-300 hd
      in
      let err = ref 0.0 in
      Array.iteri
        (fun l z ->
          err :=
            Float.max !err
              (Complex.norm (Complex.sub (Linalg.Cmat.get hs.(l) 0 0) z)
              /. scale))
        hd;
      if !err <= 1e-8 then true
      else
        QCheck.Test.fail_reportf "krylov vs ac trajectory rel err %.3e" !err)

(* ---------------- one pilot basis per TFT transform ---------------- *)

(* the generator's netlist with its input source pumped, so the diodes
   move between snapshots and so does every snapshot's pencil *)
let pumped netlist ~input =
  let wave =
    Circuit.Netlist.Sine { offset = 0.5; ampl = 0.4; freq = 1e3; phase = 0.0 }
  in
  Circuit.Netlist.make
    (List.map
       (fun (c : Circuit.Netlist.component) ->
         match c.Circuit.Netlist.element with
         | Circuit.Netlist.Vsource { p; n; _ }
           when c.Circuit.Netlist.name = input ->
             Circuit.Netlist.vsource ~name:input p n wave
         | _ -> c)
       netlist.Circuit.Netlist.components)

(* one pump period, [steps] steps, a snapshot every [every] *)
let training_snapshots ~steps ~every (netlist, input, output) =
  let mna = mna_of (pumped netlist ~input, input, output) in
  let opts =
    { Engine.Tran.default_opts with Engine.Tran.snapshot_every = every }
  in
  let t_stop = 1e-3 in
  let run =
    Engine.Tran.run ~opts ~backend:Mna.Sparse mna ~t_stop
      ~dt:(t_stop /. float_of_int steps)
  in
  (mna, run.Engine.Tran.snapshots)

let transform ?pool ?obs ~freqs_hz backend (mna, snapshots) =
  Tft.Dataset.of_snapshots ?pool ?obs ~backend ~mna
    ~estimator:(Tft.Estimator.make ()) ~freqs_hz snapshots

(* worst |H_sparse − H_dense| over samples, grid and H(0), relative to
   the dense response scale — the measure of sparse-tft-parity *)
let dataset_rel_err (dense : Tft.Dataset.t) (sparse : Tft.Dataset.t) =
  let get hm = Linalg.Cmat.get hm 0 0 in
  let scale = ref 1e-300 and err = ref 0.0 in
  Array.iteri
    (fun k (d : Tft.Dataset.sample) ->
      let sp = sparse.Tft.Dataset.samples.(k) in
      let diff a b =
        scale := Float.max !scale (Complex.norm (get a));
        err := Float.max !err (Complex.norm (Complex.sub (get a) (get b)))
      in
      diff d.Tft.Dataset.h0 sp.Tft.Dataset.h0;
      Array.iteri (fun l hm -> diff hm sp.Tft.Dataset.h.(l)) d.Tft.Dataset.h)
    dense.Tft.Dataset.samples;
  !err /. !scale

let counter m name =
  match List.assoc_opt name (Metrics.snapshot m).Metrics.counters with
  | Some v -> v
  | None -> 0

let grid_freqs = mesh_freqs ~points:16

(* a diode grid under a pump: every snapshot sweeps its own pencil from
   snapshot 0's pilot basis, so round 0 meets pencils the basis was not
   built for. The certificate must keep the sparse transform on the
   dense one, and the answers must not depend on the domain count. *)
let prop_pilot_basis_nonlinear =
  QCheck.Test.make ~count:15 ~name:"pilot basis on a pumped diode grid"
    (Oracle.Gen.arb ~max_size:3 ())
    (fun s ->
      let case = training_snapshots ~steps:48 ~every:6 (Oracle.Gen.rc_grid s) in
      let dense = transform ~freqs_hz:grid_freqs Mna.Dense case in
      let sparse = transform ~freqs_hz:grid_freqs Mna.Sparse case in
      let pooled =
        Exec.with_pool ~domains:2 (fun pool ->
            transform ~pool ~freqs_hz:grid_freqs Mna.Sparse case)
      in
      let err = dataset_rel_err dense sparse in
      if err > 1e-8 then
        QCheck.Test.fail_reportf "sparse vs dense dataset rel err %.3e" err
      else if Marshal.to_string sparse [] <> Marshal.to_string pooled [] then
        QCheck.Test.fail_reportf
          "2-domain sparse dataset differs from sequential"
      else true)

(* a stall fired on the pilot (the probe's first invocation) leaves an
   empty basis: no point is final after round 0, every snapshot runs
   its own greedy, and the transform still meets the dense one *)
let test_pilot_stall () =
  let case =
    training_snapshots ~steps:48 ~every:6
      (Oracle.Gen.rc_grid { Oracle.Gen.seed = 3; size = 2 })
  in
  let run () =
    let m = Metrics.create () in
    let ds =
      transform ~obs:(Obs.of_metrics m) ~freqs_hz:grid_freqs Mna.Sparse case
    in
    (ds, counter m "krylov.pilot_certified")
  in
  let _, clean_certified = run () in
  Alcotest.(check bool) "round 0 certifies points without the fault" true
    (clean_certified > 0);
  let (stalled, certified), fires =
    Fun.protect ~finally:(fun () -> ignore (Fault.disarm ())) @@ fun () ->
    Fault.arm_exact ~site:"krylov.stall" ~fire_at:1 ~burst:1 ();
    let r = run () in
    (r, Option.fold ~none:0 ~some:(fun st -> st.Fault.fires) (Fault.stats ()))
  in
  Alcotest.(check int) "the stall fired once" 1 fires;
  Alcotest.(check int) "pilot_certified" 0 certified;
  let dense = transform ~freqs_hz:grid_freqs Mna.Dense case in
  let err = dataset_rel_err dense stalled in
  Alcotest.(check bool)
    (Printf.sprintf "stalled transform within 1e-8 of dense (%.3e)" err)
    true (err <= 1e-8)

(* Exact work of one transform of a linear 48-stage ladder: its five
   snapshots share one pencil. The pilot takes 12 shifts; round 0
   certifies 20 of each snapshot's 24 points, and a 4-shift private
   restart answers the rest, so the only exact solves are the five
   H(0) points. Sweeping every snapshot without the pilot takes 12
   shifts and 187 reduced solves each. *)
let test_pilot_exact_work () =
  let stages = 48 in
  let case =
    training_snapshots ~steps:32 ~every:8
      ( Circuits.Library.rc_ladder_n ~stages (),
        "Vin",
        Circuits.Library.rc_ladder_output stages )
  in
  let mna, snapshots = case in
  let freqs_hz = Signal.Grid.frequencies_hz ~f_min:1e2 ~f_max:1e8 ~points:24 in
  let m = Metrics.create () in
  ignore (transform ~obs:(Obs.of_metrics m) ~freqs_hz Mna.Sparse case);
  Alcotest.(check int) "snapshots" 5 (Array.length snapshots);
  Alcotest.(check int) "krylov.pilot_certified" 100
    (counter m "krylov.pilot_certified");
  Alcotest.(check int) "krylov.projected_points" 322
    (counter m "krylov.projected_points");
  Alcotest.(check int) "krylov.shifts" 32 (counter m "krylov.shifts");
  Alcotest.(check int) "krylov.fallback_points (H(0) only)" 5
    (counter m "krylov.fallback_points");
  (* the same pencils swept one by one, each from scratch *)
  let ctx = Mna.sparse_ctx mna in
  let ws =
    Engine.Ratkrylov.make_ws
      ~pat:(Mna.sparse_pattern ctx)
      ~b:(Mna.b_matrix mna) ~d:(Mna.d_matrix mna)
  in
  let alone = Metrics.create () in
  let ss = Array.map Signal.Grid.s_of_hz freqs_hz in
  Array.iter
    (fun (snap : Engine.Tran.snapshot) ->
      let sev =
        Mna.eval_sparse mna ctx ~time:snap.Engine.Tran.time
          snap.Engine.Tran.state
      in
      ignore
        (Engine.Ratkrylov.sweep ~obs:(Obs.of_metrics alone) ws ~g:sev.Mna.sg
           ~c:sev.Mna.sc ~ss))
    snapshots;
  let per_snapshot = counter alone "krylov.projected_points" in
  Alcotest.(check bool)
    (Printf.sprintf "pilot transform needs fewer reduced solves (%d < %d)"
       (counter m "krylov.projected_points") per_snapshot)
    true
    (counter m "krylov.projected_points" < per_snapshot)

(* ---------------- full pipeline, both backends ---------------- *)

(* a linear mesh is inside the model class, so both extractions converge
   to machine-precision fits of transfer trajectories that agree to
   ~1e-10 — the two model surfaces must then coincide far below the RVF
   error bound *)
let prop_pipeline_backend_parity =
  QCheck.Test.make ~count:8 ~name:"pipeline sparse backend matches dense"
    (Oracle.Gen.arb ~max_size:2 ())
    (fun s ->
      let netlist, input, output = Oracle.Gen.rc_mesh s in
      let f_train = 1e2 in
      let t_stop = 1.0 /. f_train in
      let steps = 128 in
      let training =
        {
          Tft_rvf.Pipeline.wave =
            Circuit.Netlist.Sine
              { offset = 0.5; ampl = 0.4; freq = f_train; phase = 0.0 };
          t_stop;
          dt = t_stop /. float_of_int steps;
          snapshot_every = 8;
        }
      in
      let config backend =
        Tft_rvf.Pipeline.default_config_for ~points:16 ~backend ~f_min:1e2
          ~f_max:1e9 ~training ()
      in
      let extract backend =
        Tft_rvf.Pipeline.extract ~config:(config backend) ~netlist ~input
          ~output ()
      in
      let md = extract Mna.Dense and ms = extract Mna.Sparse in
      let ss = Array.map Signal.Grid.s_of_hz (mesh_freqs ~points:12) in
      let scale = ref 1e-300 and err = ref 0.0 in
      Array.iter
        (fun x ->
          Array.iter
            (fun sv ->
              let hd =
                Hammerstein.Hmodel.transfer md.Tft_rvf.Pipeline.model ~x ~s:sv
              in
              let hs =
                Hammerstein.Hmodel.transfer ms.Tft_rvf.Pipeline.model ~x ~s:sv
              in
              scale := Float.max !scale (Complex.norm hd);
              err := Float.max !err (Complex.norm (Complex.sub hs hd)))
            ss)
        [| 0.2; 0.5; 0.8 |];
      if !err /. !scale <= 1e-6 then true
      else
        QCheck.Test.fail_reportf "model surfaces differ by %.3e (rel)"
          (!err /. !scale))

(* ---------------- deterministic edge cases ---------------- *)

(* the 1×1 "mesh" degenerates to a single RC — the smallest pattern the
   compiler and the Krylov sweep must survive *)
let test_single_stage_ladder () =
  let netlist = Circuits.Library.rc_ladder_n ~stages:1 () in
  let mna =
    Mna.build ~inputs:[ "Vin" ]
      ~outputs:[ Circuits.Library.rc_ladder_output 1 ]
      netlist
  in
  let ctx = Mna.sparse_ctx mna in
  let at = Engine.Dc.solve ~backend:Mna.Sparse mna in
  let sev = Mna.eval_sparse mna ctx ~time:0.0 at in
  let ws =
    Engine.Ratkrylov.make_ws
      ~pat:(Mna.sparse_pattern ctx)
      ~b:(Mna.b_matrix mna) ~d:(Mna.d_matrix mna)
  in
  let h, _ =
    Engine.Ratkrylov.sweep ws ~g:sev.Mna.sg ~c:sev.Mna.sc
      ~ss:[| Complex.zero |]
  in
  check_close 1e-12 "dc gain" 1.0 (Linalg.Cmat.get h.(0) 0 0).Complex.re

(* a singular system must raise the typed sparse exception, mirroring
   the dense Lu.Singular contract the pipeline's escalation relies on *)
let test_splu_singular_typed () =
  let sing =
    Sp.of_triplets ~nrows:2 ~ncols:2 [| (0, 0, 1.0); (1, 0, 1.0) |]
  in
  Alcotest.(check bool) "raises Singular" true
    (match Linalg.Splu.factor sing with
    | exception Linalg.Splu.Singular _ -> true
    | _ -> false)

(* sparse transient backend: the state trajectories of the two
   backends must agree to Newton tolerance *)
let test_tran_backend_parity () =
  let netlist = Circuits.Library.rc_grid ~rows:4 ~cols:4 () in
  let mna =
    Mna.build
      ~inputs:[ Circuits.Library.grid_input ]
      ~outputs:[ Circuits.Library.grid_output ~rows:4 ~cols:4 ]
      netlist
  in
  let t_stop = 1e-4 in
  let dt = 1e-6 in
  let opts = { Engine.Tran.default_opts with Engine.Tran.snapshot_every = 10 } in
  let rd = Engine.Tran.run ~opts mna ~t_stop ~dt in
  let rs = Engine.Tran.run ~opts ~backend:Mna.Sparse mna ~t_stop ~dt in
  Alcotest.(check int) "dense snapshot count" 11
    (Array.length rd.Engine.Tran.snapshots);
  Alcotest.(check int) "same snapshot count"
    (Array.length rd.Engine.Tran.snapshots)
    (Array.length rs.Engine.Tran.snapshots);
  let worst = ref 0.0 in
  Array.iteri
    (fun k (sd : Engine.Tran.snapshot) ->
      let sp = rs.Engine.Tran.snapshots.(k) in
      Array.iteri
        (fun j v ->
          worst :=
            Float.max !worst (Float.abs (v -. sp.Engine.Tran.state.(j))))
        sd.Engine.Tran.state)
    rd.Engine.Tran.snapshots;
  Alcotest.(check bool)
    (Printf.sprintf "state trajectories agree (%.3e)" !worst)
    true (!worst <= 1e-9)

(* the TFT stage's sparse→dense retry: a sparse singularity injected
   into the transform (scope "stage:tft", so the training transient's
   own factorizations do not consume the schedule) is retried densely
   over the training run's state-only snapshots, and the dataset that
   comes back is the dense transform of those snapshots bit for bit *)
let test_tft_dense_retry () =
  let config =
    {
      (Tft_rvf.Pipeline.buffer_config ~snapshots:24 ()) with
      Tft_rvf.Pipeline.backend = Mna.Sparse;
    }
  in
  let obs = Obs.create () in
  let outcome =
    Fun.protect ~finally:(fun () -> ignore (Fault.disarm ())) @@ fun () ->
    Fault.arm_exact ~site:"sp.singular" ~scope:"stage:tft" ~fire_at:1
      ~burst:1 ();
    Tft_rvf.Pipeline.extract ~obs ~config ~netlist:(Circuits.Buffer.netlist ())
      ~input:Circuits.Buffer.input_name ~output:Circuits.Buffer.output ()
  in
  Alcotest.(check int) "one sparse fallback" 1
    (Obs.counter obs "pipeline.sparse_fallbacks");
  let dense =
    Tft.Dataset.of_snapshots ~backend:Mna.Dense ~mna:outcome.Tft_rvf.Pipeline.mna
      ~estimator:
        (Tft.Estimator.make ~delays:config.Tft_rvf.Pipeline.estimator_delays ())
      ~freqs_hz:config.Tft_rvf.Pipeline.freqs_hz
      outcome.Tft_rvf.Pipeline.training_run.Engine.Tran.snapshots
  in
  Alcotest.(check bool) "retry dataset = dense transform, bit for bit" true
    (Marshal.to_string outcome.Tft_rvf.Pipeline.dataset []
    = Marshal.to_string dense [])

let suite =
  [
    Alcotest.test_case "single-stage sparse ladder" `Quick
      test_single_stage_ladder;
    Alcotest.test_case "splu singular is typed" `Quick
      test_splu_singular_typed;
    Alcotest.test_case "transient backend parity" `Quick
      test_tran_backend_parity;
    Alcotest.test_case "tft sparse fault retries dense" `Quick
      test_tft_dense_retry;
    Alcotest.test_case "pilot stall keeps the transform" `Quick
      test_pilot_stall;
    Alcotest.test_case "pilot exact work on a linear ladder" `Quick
      test_pilot_exact_work;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [
        prop_assembly_parity;
        prop_splu_vs_lu;
        prop_spclu_vs_clu;
        prop_krylov_vs_ac;
        prop_pilot_basis_nonlinear;
        prop_pipeline_backend_parity;
      ]
