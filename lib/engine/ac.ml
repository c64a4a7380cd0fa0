(* Dense frequency sweeps of the MNA pencil, H(s) = Dᵀ(G + s·C)⁻¹B.

   Two algorithms answer a grid point. The reference is one complex LU
   of the pencil per point ([Clu], about (8/3)n³ complex work each).
   The sweep's algorithm is Laub's Hessenberg frequency response (IEEE
   TAC 1981): factor the real G once ([Lu]), form A = G⁻¹C and reduce
   A = Q·H·Qᵀ to upper Hessenberg form ([Eig.hessenberg_into], about
   7n³ with Q). Since G + s·C = G·Q·(I + s·H)·Qᵀ, every grid point is
   then the O(n²) shifted solve (I + s·H)y = Qᵀ·G⁻¹B ([Hess]) and
   x = Q·y, and the DC point is G⁻¹B itself.

   A Hessenberg answer x = Q·y is trusted only once its true relative
   residual ‖(G + s·C)x − b‖/‖b‖ is at most [tol], the tolerance
   [Ratkrylov] certifies its projected points with, and is then refined
   once against that residual (see [solve_hessenberg]). A point that
   fails the certificate, or whose elimination meets a zero pivot, is
   answered by the per-point LU instead; a G that is singular, or whose
   LU falls below the [Guard.rcond_min] floor, sends the whole sweep
   there.

   The reduction costs about as much as three complex LUs, so it is
   used when the grid has at least three nonzero points. Which
   algorithm answers a point depends on the operands alone: a hub, a
   cancel token or an armed fault probe only add checks and records
   around the same arithmetic. *)

let tol = 1e-12
let certified r = r <= tol

(* the per-snapshot Hessenberg reduction of G⁻¹C, allocated on first
   use so that single-point callers never pay its n² buffers *)
type reduction = {
  glu : Linalg.Lu.t;
  hm : Linalg.Mat.t;  (** G⁻¹C, reduced in place to H *)
  q : Linalg.Mat.t;
  gb : float array array;  (** per input: G⁻¹b, the solution at s = 0 *)
  bt : float array array;  (** per input: Qᵀ·G⁻¹b *)
  hs : Linalg.Hess.t;
  yre : float array;  (** the reduced solution y *)
  yim : float array;
  rre : float array;  (** the residual r = (G + s·C)x − b *)
  rim : float array;
  gx : float array;  (** its parts G·Re x, C·Re x, G·Im x, C·Im x *)
  cx : float array;
  gy : float array;
  cy : float array;
  tre : float array;  (** G⁻¹r, then the correction Q·(I + s·H)⁻¹·Qᵀ·G⁻¹r *)
  tim : float array;
}

type ws = {
  b : Linalg.Mat.t;
  d : Linalg.Mat.t;
  bcols : float array array;  (** B's columns *)
  bnorm : float array;  (** ‖b‖₂ per column, floored at 1e-300 *)
  dcols : float array array;  (** D's columns *)
  pencil : Linalg.Cmat.t;  (** G + s·C, rebuilt in place per LU point *)
  lu : Linalg.Clu.t;
  rhs : Linalg.Cmat.t;  (** complex copy of B, fixed *)
  bcol : Linalg.Cmat.vec;
  xcol : Linalg.Cmat.vec;
  xre : float array array;  (** per input: the answered point's solution *)
  xim : float array array;
  reduction : reduction Lazy.t;
}

let make_ws ~b ~d =
  let n = Linalg.Mat.rows b and mi = Linalg.Mat.cols b in
  if Linalg.Mat.rows d <> n then invalid_arg "Ac.make_ws: B/D row mismatch";
  let bcols = Array.init mi (Linalg.Mat.col b) in
  let vecs () = Array.init mi (fun _ -> Array.make n 0.0) in
  {
    b;
    d;
    bcols;
    bnorm =
      Array.map (fun col -> Float.max (Linalg.Vec.norm2 col) 1e-300) bcols;
    dcols = Array.init (Linalg.Mat.cols d) (Linalg.Mat.col d);
    pencil = Linalg.Cmat.create n n;
    lu = Linalg.Clu.workspace n;
    rhs = Linalg.Cmat.of_real b;
    bcol = Array.make n Linalg.Cx.zero;
    xcol = Array.make n Linalg.Cx.zero;
    xre = vecs ();
    xim = vecs ();
    reduction =
      lazy
        {
          glu = Linalg.Lu.workspace n;
          hm = Linalg.Mat.create n n;
          q = Linalg.Mat.create n n;
          gb = vecs ();
          bt = vecs ();
          hs = Linalg.Hess.workspace n;
          yre = Array.make n 0.0;
          yim = Array.make n 0.0;
          rre = Array.make n 0.0;
          rim = Array.make n 0.0;
          gx = Array.make n 0.0;
          cx = Array.make n 0.0;
          gy = Array.make n 0.0;
          cy = Array.make n 0.0;
          tre = Array.make n 0.0;
          tim = Array.make n 0.0;
        };
  }

let ws_matches ws ~b ~d =
  let same a b' =
    a == b'
    || Linalg.Mat.rows a = Linalg.Mat.rows b'
       && Linalg.Mat.cols a = Linalg.Mat.cols b'
       && Linalg.Mat.unsafe_data a = Linalg.Mat.unsafe_data b'
  in
  same ws.b b && same ws.d d

(* The reference: one complex LU of G + s·C, solution into xre/xim *)
let solve_lu ?obs ws ~g ~c ~s =
  Linalg.Cmat.lincomb_into ws.pencil Linalg.Cx.one g s c;
  Linalg.Clu.factor_into ws.lu ws.pencil;
  Obs.rcond obs ~site:"ac.pencil" Linalg.Clu.rcond_estimate ws.lu;
  Array.iteri
    (fun j xr ->
      let xi = ws.xim.(j) in
      Linalg.Cmat.get_col ws.rhs j ws.bcol;
      Linalg.Clu.solve_into ws.lu ws.bcol ws.xcol;
      Array.iteri
        (fun i (z : Complex.t) ->
          xr.(i) <- z.Complex.re;
          xi.(i) <- z.Complex.im)
        ws.xcol)
    ws.xre

(* one snapshot's reduction, with Qᵀ and sparse copies of its G and C
   for the residuals (MNA Jacobians are mostly zeros) *)
type reduced = {
  red : reduction;
  qt : Linalg.Mat.t;
  gs : Linalg.Sp.t;
  cs : Linalg.Sp.t;
}

(* Once per snapshot: G's factorization, H, Q and Qᵀ·G⁻¹B. [None] when
   G is singular or below the rcond floor. *)
let reduce ws ~g ~c =
  let red = Lazy.force ws.reduction in
  match Linalg.Lu.factor_into red.glu g with
  | exception Linalg.Lu.Singular _ -> None
  | () ->
      Linalg.Lu.solve_mat_into red.glu c red.hm;
      Linalg.Eig.hessenberg_into ~q:red.q red.hm;
      let qt = Linalg.Mat.transpose red.q in
      Array.iteri
        (fun j gb ->
          Linalg.Lu.solve_into red.glu ws.bcols.(j) gb;
          Linalg.Mat.mulv_into qt gb red.bt.(j))
        red.gb;
      Some { red; qt; gs = Linalg.Sp.of_dense g; cs = Linalg.Sp.of_dense c }

(* r = (G + s·C)x − b into rre/rim; returns ‖r‖ *)
let residual { red; gs; cs; _ } (s : Complex.t) xr xi b =
  Linalg.Sp.mulv_into gs xr red.gx;
  Linalg.Sp.mulv_into cs xr red.cx;
  Linalg.Sp.mulv_into gs xi red.gy;
  Linalg.Sp.mulv_into cs xi red.cy;
  let sr = s.Complex.re and si = s.Complex.im in
  let r2 = ref 0.0 in
  for i = 0 to Array.length b - 1 do
    let rre = red.gx.(i) +. (sr *. red.cx.(i)) -. (si *. red.cy.(i)) -. b.(i)
    and rim = red.gy.(i) +. (sr *. red.cy.(i)) +. (si *. red.cx.(i)) in
    red.rre.(i) <- rre;
    red.rim.(i) <- rim;
    r2 := !r2 +. (rre *. rre) +. (rim *. rim)
  done;
  sqrt !r2

(* re + i·im <- Q·(I + s·H)⁻¹·(yre + i·yim), consuming y *)
let solve_reduced red re im =
  Linalg.Hess.solve_into red.hs red.yre red.yim;
  Linalg.Mat.mulv2_into red.q red.yre red.yim re im

(* One Hessenberg point, solution into xre/xim; [false] when the
   elimination fails or any column misses the certificate, which is
   taken on x = Q·y as it comes out of the reduced solve. A certified
   column then gets one step of fixed-precision iterative refinement
   (Skeel 1980) with the residual the certificate computed,
   x ← x − Q·(I + s·H)⁻¹·Qᵀ·G⁻¹·r, r = (G + s·C)x − b: the round trip
   through Q leaves every entry of x an error of about ε‖x‖, which
   swamps outputs many decades below the state (the buffer's is 1e-11
   of it at 1 Hz); the refined x has the per-entry accuracy of the
   complex LU (on the buffer, also a residual of 1e-17, not 2e-15). *)
let solve_hessenberg ws ({ red; _ } as r) ~s =
  Linalg.Hess.factor red.hs red.hm s
  &&
  let ok = ref true and j = ref 0 in
  while !ok && !j < Array.length ws.xre do
    let xr = ws.xre.(!j) and xi = ws.xim.(!j) and b = ws.bcols.(!j) in
    Array.blit red.bt.(!j) 0 red.yre 0 (Array.length b);
    Array.fill red.yim 0 (Array.length b) 0.0;
    solve_reduced red xr xi;
    ok := certified (residual r s xr xi b /. ws.bnorm.(!j));
    if !ok then begin
      Linalg.Lu.solve_into red.glu red.rre red.tre;
      Linalg.Lu.solve_into red.glu red.rim red.tim;
      Linalg.Mat.mulv2_into r.qt red.tre red.tim red.yre red.yim;
      solve_reduced red red.tre red.tim;
      for i = 0 to Array.length b - 1 do
        xr.(i) <- xr.(i) -. red.tre.(i);
        xi.(i) <- xi.(i) -. red.tim.(i)
      done
    end;
    incr j
  done;
  !ok

(* the answered point's tail: fault probe, H = Dᵀx *)
let output ws =
  if Fault.should_fire "ac.pencil_nan" && Array.length ws.xre > 0 then begin
    ws.xre.(0).(0) <- Float.nan;
    ws.xim.(0).(0) <- Float.nan
  end;
  Linalg.Cmat.init (Array.length ws.dcols) (Array.length ws.xre) (fun o j ->
      let dc = ws.dcols.(o) and xr = ws.xre.(j) and xi = ws.xim.(j) in
      let are = ref 0.0 and aim = ref 0.0 in
      for k = 0 to Array.length dc - 1 do
        let dk = dc.(k) in
        if dk <> 0.0 then begin
          are := !are +. (dk *. xr.(k));
          aim := !aim +. (dk *. xi.(k))
        end
      done;
      { Complex.re = !are; im = !aim })

let is_zero (s : Complex.t) = s.Complex.re = 0.0 && s.Complex.im = 0.0

(* Sweeps run inside dataset workers, so they record only worker-safe
   calls. Without [obs] there are no clock reads. *)
let transfer_sweep ?cancel ?obs ws ~g ~c ~ss =
  let nonzero =
    Array.fold_left (fun k s -> if is_zero s then k else k + 1) 0 ss
  in
  let reduced = nonzero >= 3 in
  let red = if reduced then reduce ws ~g ~c else None in
  let fallbacks = ref 0 in
  let point s =
    Cancel.check cancel ~site:"ac.sweep";
    (match red with
    | Some { red; _ } when is_zero s ->
        Obs.rcond obs ~site:"ac.pencil" Linalg.Lu.rcond_estimate red.glu;
        Array.iteri
          (fun j gb ->
            Array.blit gb 0 ws.xre.(j) 0 (Array.length gb);
            Array.fill ws.xim.(j) 0 (Array.length gb) 0.0)
          red.gb
    | _ ->
        let t0 = Obs.now_if obs in
        (match red with
        | Some r when solve_hessenberg ws r ~s ->
            Obs.rcond obs ~site:"ac.pencil" Linalg.Hess.rcond_estimate r.red.hs
        | _ ->
            if reduced then incr fallbacks;
            solve_lu ?obs ws ~g ~c ~s);
        if not (is_zero s) then
          Obs.observe_since_ns obs "ac.pencil_solve_ns" t0);
    output ws
  in
  let hs = Array.map point ss in
  if reduced then
    Obs.count obs "ac.sweep_fallbacks" !fallbacks;
  hs

let transfer_at ~g ~c ~b ~d ~s =
  (transfer_sweep (make_ws ~b ~d) ~g ~c ~ss:[| s |]).(0)

let sweep_siso mna ~at ~freqs_hz =
  let ev = Mna.eval mna ~with_matrices:true ~time:0.0 at in
  let g, c =
    match (ev.Mna.g_mat, ev.Mna.c_mat) with
    | Some g, Some c -> (g, c)
    | _, _ -> assert false
  in
  let ws = make_ws ~b:(Mna.b_matrix mna) ~d:(Mna.d_matrix mna) in
  Array.map
    (fun h -> Linalg.Cmat.get h 0 0)
    (transfer_sweep ws ~g ~c ~ss:(Array.map Signal.Grid.s_of_hz freqs_hz))
