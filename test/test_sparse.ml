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
    (Diag.counter (Diag.report (Obs.diag obs)) "pipeline.sparse_fallbacks");
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
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [
        prop_assembly_parity;
        prop_splu_vs_lu;
        prop_spclu_vs_clu;
        prop_krylov_vs_ac;
        prop_pipeline_backend_parity;
      ]
