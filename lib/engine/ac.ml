(* Workspace for repeated pencil solves sharing one (B, D) pair: the
   pencil buffer, the LU workspace and the column scratch are allocated
   once and fully overwritten per frequency, so a whole K×L TFT sweep
   allocates only its small n_outputs × n_inputs results. *)
type ws = {
  b : Linalg.Mat.t;
  d : Linalg.Mat.t;
  pencil : Linalg.Cmat.t;  (** G + s·C, rebuilt in place per frequency *)
  lu : Linalg.Clu.t;
  rhs : Linalg.Cmat.t;  (** complex copy of B, fixed *)
  bcol : Linalg.Cmat.vec;
  xcol : Linalg.Cmat.vec;
  x : Linalg.Cmat.t;  (** (G + s·C)⁻¹ B solution buffer *)
}

let make_ws ~b ~d =
  let n = Linalg.Mat.rows b and mi = Linalg.Mat.cols b in
  if Linalg.Mat.rows d <> n then invalid_arg "Ac.make_ws: B/D row mismatch";
  {
    b;
    d;
    pencil = Linalg.Cmat.create n n;
    lu = Linalg.Clu.workspace n;
    rhs = Linalg.Cmat.of_real b;
    bcol = Array.make n Linalg.Cx.zero;
    xcol = Array.make n Linalg.Cx.zero;
    x = Linalg.Cmat.create n mi;
  }

(* H = Dᵀ X, allocating only the small output matrix *)
let output_transfer ~d ~x =
  let mo = Linalg.Mat.cols d and mi = Linalg.Cmat.cols x in
  let n = Linalg.Mat.rows d in
  Linalg.Cmat.init mo mi (fun o i ->
      let acc = ref Linalg.Cx.zero in
      for k = 0 to n - 1 do
        let dk = Linalg.Mat.get d k o in
        let xki = Linalg.Cmat.get x k i in
        if dk <> 0.0 then acc := Linalg.Cx.(!acc +: scale dk xki)
      done;
      !acc)

let transfer_ws ?guard ?obs ws ~g ~c ~s =
  Linalg.Cmat.lincomb_into ws.pencil Linalg.Cx.one g s c;
  Linalg.Clu.factor_into ?guard ws.lu ws.pencil;
  Obs.rcond obs ~site:"ac.pencil" Linalg.Clu.rcond_estimate ws.lu;
  let inject = Fault.should_fire "ac.pencil_nan" in
  for j = 0 to Linalg.Cmat.cols ws.rhs - 1 do
    Linalg.Cmat.get_col ws.rhs j ws.bcol;
    Linalg.Clu.solve_into ws.lu ws.bcol ws.xcol;
    if inject && j = 0 then
      ws.xcol.(0) <- { Complex.re = Float.nan; im = Float.nan };
    Guard.check_complex_vec guard ~site:"ac.transfer" ws.xcol;
    Linalg.Cmat.set_col ws.x j ws.xcol
  done;
  output_transfer ~d:ws.d ~x:ws.x

let ws_matches ws ~b ~d =
  let same a b' =
    a == b'
    || Linalg.Mat.rows a = Linalg.Mat.rows b'
       && Linalg.Mat.cols a = Linalg.Mat.cols b'
       && Linalg.Mat.unsafe_data a = Linalg.Mat.unsafe_data b'
  in
  same ws.b b && same ws.d d

(* pool-owned clones of a sweep workspace, one per chunk > 0 (chunk 0
   reuses the caller's); revalidated against the caller's (B, D) so a
   warm pool can serve successive circuits *)
let sweep_ws_key : ws Exec.key = Exec.new_key ()

(* matched on [obs] first so the unrecorded path is exactly the plain
   map — no clock reads, bit-identical results. Sweeps run inside
   dataset workers, so they record only worker-safe calls. *)
let transfer_sweep ?guard ?cancel ?obs ?pool ws ~g ~c ~ss =
  let solve ws s =
    Cancel.check cancel ~site:"ac.sweep";
    match obs with
    | None -> transfer_ws ?guard ws ~g ~c ~s
    | Some _ ->
        let t0 = Obs.now_if obs in
        let h = transfer_ws ?guard ?obs ws ~g ~c ~s in
        Obs.observe_since_ns obs "ac.pencil_solve_ns" t0;
        h
  in
  match pool with
  | Some pool when Array.length ss > 1 && Fault.armed () = None ->
      (* frequencies are independent pencil solves — the natural parallel
         axis for a standalone sweep. Fault probes fire per solve in a
         global sequence, so an armed probe forces the sequential path to
         keep the injection site deterministic. *)
      Exec.parallel_map_ws ~pool ?cancel ?metrics:(Option.map Obs.metrics obs)
        ~label:"ac.sweep"
        ~ws:(fun chunk ->
          if chunk = 0 then ws
          else
            Exec.slot pool sweep_ws_key ~chunk
              ~valid:(fun w -> ws_matches w ~b:ws.b ~d:ws.d)
              ~make:(fun () -> make_ws ~b:ws.b ~d:ws.d))
        (fun w s -> solve w s)
        ss
  | _ -> Array.map (solve ws) ss

let transfer_at ~g ~c ~b ~d ~s = transfer_ws (make_ws ~b ~d) ~g ~c ~s

let sweep ?pool mna ~at ~freqs_hz =
  let ev = Mna.eval mna ~with_matrices:true ~time:0.0 at in
  let g, c =
    match (ev.Mna.g_mat, ev.Mna.c_mat) with
    | Some g, Some c -> (g, c)
    | _, _ -> assert false
  in
  let ws = make_ws ~b:(Mna.b_matrix mna) ~d:(Mna.d_matrix mna) in
  transfer_sweep ?pool ws ~g ~c ~ss:(Array.map Signal.Grid.s_of_hz freqs_hz)

let sweep_siso ?pool mna ~at ~freqs_hz =
  Array.map (fun h -> Linalg.Cmat.get h 0 0) (sweep ?pool mna ~at ~freqs_hz)
