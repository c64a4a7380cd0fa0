(* Rational-Krylov frequency sweeps over a sparse MNA pencil.

   A dense AC sweep factors (G + s·C) once per grid point; the sparse
   per-point variant does the same with Splu-grade cost. For large
   circuits the transfer trajectory is far cheaper than either: factor
   the pencil at a handful of *shifts* drawn from the grid, collect the
   solutions (G + σ·C)⁻¹B into a real orthonormal basis V (a complex
   solve at σ = jω contributes Re X and Im X, which together span the
   conjugate pair ±jω — the real-arithmetic pairing), and answer every
   other grid point from the Galerkin-projected pencil
   (VᵀGV + s·VᵀCV)⁻¹VᵀB, a dense solve of subspace dimension k ≪ n
   (answered by the dense tier's own sweep, Ac.transfer_sweep).

   The projection is trusted only where it can prove itself: every
   grid point's reduced solution is expanded back to x = V·x_r and its
   true residual ‖(G + s·C)x − b‖/‖b‖ measured with sparse matvecs. A
   point at or below tolerance keeps that answer; later rounds evaluate
   only the points still open. Open points attract new shifts (at the
   worst offender, the classic greedy choice), and a shift point takes
   its own solve as its answer. The greedy stops when a shift adds no
   direction (the projection cannot change), at the shift budget or at
   full dimension; whatever is still open is solved exactly per point,
   so the sweep degrades to the plain sparse sweep rather than
   returning an unverified answer.

   Snapshots of one TFT transform share most of their subspace, so a
   pilot basis built once (on one snapshot) gives every sweep a round 0
   over all points. Only the points that round leaves open start a
   private basis of their own — a restart, not an extension: a
   neighbour's basis that fails the certificate is not worth growing. *)

type opts = {
  max_shifts : int;
  tol : float;
  drop_tol : float;
}

(* residual→transfer error amplification is bounded by the pencil
   conditioning (~100× on the RC families); tol = 1e-12 keeps the
   certified trajectories at ≤1e-10, inside every oracle tolerance *)
let default_opts = { max_shifts = 12; tol = 1e-12; drop_tol = 1e-10 }

type stats = {
  shifts_used : int;
  subspace_dim : int;
  fallback_points : int;
  worst_residual : float;
}

(* orthonormal columns, oldest first; never mutated once returned *)
type basis = float array array

type ws = {
  pat : Linalg.Sp.pattern;
  b : Linalg.Mat.t;
  d : Linalg.Mat.t;
  bcols : float array array;  (** B's columns *)
  bnorm : float array;  (** ‖b_j‖ per column, for relative residuals *)
  pencil : Linalg.Sp.ct;  (** G + σ·C, refilled in place per shift *)
  slu : Linalg.Spclu.t;
  bcol : Linalg.Cmat.vec;
  xcol : Linalg.Cmat.vec;
  xre : float array;  (** a full-space solution, real part *)
  xim : float array;
  gx : float array;  (** residual matvec scratch *)
  cx : float array;
  gy : float array;
  cy : float array;
}

let make_ws ~pat ~b ~d =
  let n = pat.Linalg.Sp.nrows in
  if pat.Linalg.Sp.ncols <> n then
    invalid_arg "Ratkrylov.make_ws: square pattern required";
  if Linalg.Mat.rows b <> n || Linalg.Mat.rows d <> n then
    invalid_arg "Ratkrylov.make_ws: B/D row dimension mismatch";
  let bcols = Array.init (Linalg.Mat.cols b) (Linalg.Mat.col b) in
  let vec () = Array.make n 0.0 in
  {
    pat;
    b;
    d;
    bcols;
    bnorm =
      Array.map (fun col -> Float.max (Linalg.Vec.norm2 col) 1e-300) bcols;
    pencil = Linalg.Sp.ccreate pat;
    slu = Linalg.Spclu.workspace pat;
    bcol = Array.make n Linalg.Cx.zero;
    xcol = Array.make n Linalg.Cx.zero;
    xre = vec ();
    xim = vec ();
    gx = vec ();
    cx = vec ();
    gy = vec ();
    cy = vec ();
  }

let ws_matches ws ~pat ~b ~d =
  let same a b' =
    a == b'
    || Linalg.Mat.rows a = Linalg.Mat.rows b'
       && Linalg.Mat.cols a = Linalg.Mat.cols b'
       && Linalg.Mat.unsafe_data a = Linalg.Mat.unsafe_data b'
  in
  ws.pat == pat && same ws.b b && same ws.d d

(* H column j from the full-space solution held in ws.xre/xim *)
let output_col_into ws h j =
  let d = ws.d in
  let p = Linalg.Mat.cols d and n = Linalg.Mat.rows d in
  for o = 0 to p - 1 do
    let are = ref 0.0 and aim = ref 0.0 in
    for i = 0 to n - 1 do
      let dk = Linalg.Mat.get d i o in
      if dk <> 0.0 then begin
        are := !are +. (dk *. ws.xre.(i));
        aim := !aim +. (dk *. ws.xim.(i))
      end
    done;
    Linalg.Cmat.set h o j (Linalg.Cx.make !are !aim)
  done

(* one sweep over one pencil: the grid and the answers found so far *)
type run = {
  ws : ws;
  g : Linalg.Sp.t;
  c : Linalg.Sp.t;
  ss : Complex.t array;
  opts : opts;
  cancel : Cancel.t option;
  obs : Obs.t option;
  hs : Linalg.Cmat.t array;
  final : bool array;  (** the point holds its last answer *)
  res : float array;  (** last residual measured at an open point *)
  mutable projected : int;  (** reduced solves *)
  mutable worst : float;  (** largest residual among certified answers *)
}

let start fn ?(opts = default_opts) ?cancel ?obs ws ~g ~c ~ss =
  if not (g.Linalg.Sp.pat == ws.pat && c.Linalg.Sp.pat == ws.pat) then
    invalid_arg (fn ^ ": G/C must carry the workspace pattern");
  let l = Array.length ss in
  {
    ws;
    g;
    c;
    ss;
    opts;
    cancel;
    obs;
    hs = Array.make l (Linalg.Cmat.create 0 0);
    final = Array.make l false;
    res = Array.make l Float.infinity;
    projected = 0;
    worst = 0.0;
  }

let open_points r =
  Array.fold_left (fun a f -> if f then a else a + 1) 0 r.final

(* factor G + s·C, then solve every B column into ws.xre/xim and hand
   its index to [k] *)
let factor_solve r s k =
  let ws = r.ws in
  let n = ws.pat.Linalg.Sp.nrows in
  Cancel.check r.cancel ~site:"krylov.sweep";
  Linalg.Sp.pencil_into ws.pencil r.g r.c s;
  Linalg.Spclu.factor_into ws.slu ws.pencil;
  Obs.rcond r.obs ~site:"krylov.pencil" Linalg.Spclu.rcond_estimate ws.slu;
  for j = 0 to Linalg.Mat.cols ws.b - 1 do
    Array.iteri (fun i bi -> ws.bcol.(i) <- Linalg.Cx.re bi) ws.bcols.(j);
    Linalg.Spclu.solve_into ws.slu ws.bcol ws.xcol;
    for i = 0 to n - 1 do
      ws.xre.(i) <- ws.xcol.(i).Complex.re;
      ws.xim.(i) <- ws.xcol.(i).Complex.im
    done;
    k j
  done

(* the exact answer at one point; with [on_col], each column's
   solution is also offered to it (a shift's basis candidates) *)
let solve_point ?(on_col = ignore) r i =
  let ws = r.ws in
  let h = Linalg.Cmat.create (Linalg.Mat.cols ws.d) (Linalg.Mat.cols ws.b) in
  factor_solve r r.ss.(i) (fun j ->
      output_col_into ws h j;
      on_col j);
  r.hs.(i) <- h;
  r.final.(i) <- true

(* One projected round over the open points: an answer whose true
   residual is within [tol] is final. The reduced pencil VᵀGV + s·VᵀCV
   is small and dense, so the dense tier's sweep answers it: one
   Hessenberg reduction per round and an O(k²) certified solve per
   point (Ac.transfer_sweep, with D = I so that its outputs are the
   reduced solutions themselves). A reduced pencil that is singular at
   some point leaves the round's points open. *)
let eval_round r (vs : basis) =
  let ws = r.ws and g = r.g and c = r.c in
  let n = ws.pat.Linalg.Sp.nrows in
  let m = Linalg.Mat.cols ws.b and p = Linalg.Mat.cols ws.d in
  let k = Array.length vs in
  let gv = Array.map (fun v -> Linalg.Sp.mulv g v) vs in
  let cv = Array.map (fun v -> Linalg.Sp.mulv c v) vs in
  let grm = Linalg.Mat.init k k (fun i j -> Linalg.Vec.dot vs.(i) gv.(j)) in
  let crm = Linalg.Mat.init k k (fun i j -> Linalg.Vec.dot vs.(i) cv.(j)) in
  let vtb =
    Linalg.Mat.init k m (fun t j -> Linalg.Vec.dot vs.(t) ws.bcols.(j))
  in
  let pts =
    List.init (Array.length r.ss) Fun.id
    |> List.filter (fun pt -> not r.final.(pt))
    |> Array.of_list
  in
  match
    Ac.transfer_sweep
      (Ac.make_ws ~b:vtb ~d:(Linalg.Mat.identity k))
      ~g:grm ~c:crm
      ~ss:(Array.map (fun pt -> r.ss.(pt)) pts)
  with
  | exception Linalg.Clu.Singular _ ->
      r.projected <- r.projected + Array.length pts;
      Array.iter (fun pt -> r.res.(pt) <- Float.infinity) pts
  | xrs ->
      let xre = ws.xre and xim = ws.xim in
      Array.iteri
        (fun q pt ->
          Cancel.check r.cancel ~site:"krylov.sweep";
          r.projected <- r.projected + 1;
          let s = r.ss.(pt) in
          let h = Linalg.Cmat.create p m in
          let worst = ref 0.0 in
          for j = 0 to m - 1 do
            (* expand x = V·x_r *)
            Array.fill xre 0 n 0.0;
            Array.fill xim 0 n 0.0;
            for t = 0 to k - 1 do
              let z = Linalg.Cmat.get xrs.(q) t j in
              Linalg.Vec.axpy z.Complex.re vs.(t) xre;
              Linalg.Vec.axpy z.Complex.im vs.(t) xim
            done;
            (* true residual (G + s·C)x − b via sparse matvecs *)
            Linalg.Sp.mulv_into g xre ws.gx;
            Linalg.Sp.mulv_into c xre ws.cx;
            Linalg.Sp.mulv_into g xim ws.gy;
            Linalg.Sp.mulv_into c xim ws.cy;
            let sr = s.Complex.re and si = s.Complex.im and b = ws.bcols.(j) in
            let r2 = ref 0.0 in
            for i = 0 to n - 1 do
              let rre =
                ws.gx.(i) +. (sr *. ws.cx.(i)) -. (si *. ws.cy.(i)) -. b.(i)
              and rim = ws.gy.(i) +. (sr *. ws.cy.(i)) +. (si *. ws.cx.(i)) in
              r2 := !r2 +. (rre *. rre) +. (rim *. rim)
            done;
            worst := Float.max !worst (sqrt !r2 /. ws.bnorm.(j));
            output_col_into ws h j
          done;
          (* NaN compares false against any threshold — pin it to ∞ so
             a non-finite projected solution always stays open *)
          let res = if Float.is_finite !worst then !worst else Float.infinity in
          if res <= r.opts.tol then begin
            r.hs.(pt) <- h;
            r.final.(pt) <- true;
            r.worst <- Float.max r.worst res
          end
          else r.res.(pt) <- res)
        pts

(* The greedy over the open points: a fresh basis from shifts at the
   first and last of them, then one round and one shift at the worst
   open point per step. It stops when every point is final, at the
   shift budget, at full dimension, or when a shift adds no direction.
   Returns the basis and the shifts taken. *)
let greedy r =
  let n = r.ws.pat.Linalg.Sp.nrows and l = Array.length r.ss in
  let basis = ref [] (* newest first; each unit 2-norm *) and nb = ref 0 in
  let add_vec w =
    let norm0 = Linalg.Vec.norm2 w in
    if norm0 > 0.0 && Float.is_finite norm0 then begin
      (* modified Gram–Schmidt, twice (re-orthogonalization keeps the
         basis orthonormal to working precision even for clustered
         shifts) *)
      for _pass = 1 to 2 do
        List.iter
          (fun v ->
            let dv = Linalg.Vec.dot v w in
            Linalg.Vec.axpy (-.dv) v w)
          !basis
      done;
      let nrm = Linalg.Vec.norm2 w in
      if nrm > r.opts.drop_tol *. Float.max norm0 1.0 then begin
        let inv = 1.0 /. nrm in
        for i = 0 to n - 1 do
          w.(i) <- w.(i) *. inv
        done;
        basis := w :: !basis;
        incr nb
      end
    end
  in
  let shifts = ref 0 in
  (* a shift point is answered by its own solve; true when the shift
     added a direction *)
  let take i =
    let before = !nb in
    incr shifts;
    solve_point r i ~on_col:(fun _ ->
        add_vec (Array.copy r.ws.xre);
        add_vec (Array.copy r.ws.xim));
    !nb > before
  in
  let first = ref 0 and last = ref (l - 1) in
  while r.final.(!first) do incr first done;
  while r.final.(!last) do decr last done;
  ignore (take !first);
  if !last <> !first then ignore (take !last);
  let continue_ = ref true in
  while !continue_ && !nb > 0 && open_points r > 0 do
    eval_round r (Array.of_list (List.rev !basis));
    let idx = ref (-1) and rmax = ref r.opts.tol in
    Array.iteri
      (fun i ri ->
        if (not r.final.(i)) && ri > !rmax then begin
          idx := i;
          rmax := ri
        end)
      r.res;
    (* [take] runs only within budget; a shift that adds no direction
       ends the greedy, since another round would repeat this one *)
    continue_ :=
      !idx >= 0 && !shifts < r.opts.max_shifts && !nb < n && take !idx
  done;
  (Array.of_list (List.rev !basis), !shifts)

(* tiny grids cannot amortize a subspace; m = 0 has nothing to project *)
let projectable r =
  Array.length r.ss > 2 && Linalg.Mat.cols r.ws.b > 0

let pilot ?opts ?cancel ?obs ws ~g ~c ~ss =
  let r = start "Ratkrylov.pilot" ?opts ?cancel ?obs ws ~g ~c ~ss in
  if Fault.should_fire "krylov.stall" || not (projectable r) then [||]
  else begin
    let vs, shifts = greedy r in
    Obs.count obs "krylov.shifts" shifts;
    Obs.count obs "krylov.projected_points" r.projected;
    vs
  end

let sweep ?opts ?cancel ?obs ?(basis = [||]) ws ~g ~c ~ss =
  let r = start "Ratkrylov.sweep" ?opts ?cancel ?obs ws ~g ~c ~ss in
  if Array.length basis > 0
     && Array.length basis.(0) <> ws.pat.Linalg.Sp.nrows
  then invalid_arg "Ratkrylov.sweep: basis built for another pattern";
  let degraded = Fault.should_fire "krylov.stall" in
  let l = Array.length ss in
  let pilot_certified, shifts_used, subspace_dim =
    if degraded || not (projectable r) then (0, 0, 0)
    else begin
      (* round 0 on the pilot basis, over every point *)
      if Array.length basis > 0 then eval_round r basis;
      let certified = l - open_points r in
      if certified = l then (certified, 0, 0)
      else
        let vs, shifts = greedy r in
        (certified, shifts, Array.length vs)
    end
  in
  let fallback_points = open_points r in
  Array.iteri (fun i f -> if not f then solve_point r i) r.final;
  (* sweeps run inside dataset workers: worker-safe records only *)
  Obs.count obs "krylov.shifts" shifts_used;
  Obs.count obs "krylov.fallback_points" fallback_points;
  Obs.count obs "krylov.projected_points" r.projected;
  Obs.count obs "krylov.pilot_certified" pilot_certified;
  Obs.observe obs "krylov.subspace_dim" (float_of_int subspace_dim);
  ( r.hs,
    { shifts_used; subspace_dim; fallback_points; worst_residual = r.worst } )
