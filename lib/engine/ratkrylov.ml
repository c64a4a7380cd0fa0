(* Rational-Krylov frequency sweeps over a sparse MNA pencil.

   A dense AC sweep factors (G + s·C) once per grid point; the sparse
   per-point variant does the same with Splu-grade cost. For large
   circuits the transfer trajectory is far cheaper than either: factor
   the pencil at a handful of *shifts* drawn from the grid, collect the
   solutions (G + σ·C)⁻¹B into a real orthonormal basis V (a complex
   solve at σ = jω contributes Re X and Im X, which together span the
   conjugate pair ±jω — the real-arithmetic pairing), and answer every
   other grid point from the Galerkin-projected pencil
   (VᵀGV + s·VᵀCV)⁻¹VᵀB, a dense solve of subspace dimension k ≪ n.

   The projection is trusted only where it can prove itself: every
   grid point's reduced solution is expanded back to x = V·x_r and its
   true residual ‖(G + s·C)x − b‖/‖b‖ measured with sparse matvecs.
   Points above tolerance first attract new shifts (at the worst
   offender, the classic greedy choice); whatever still misses after
   [max_shifts] is solved exactly per point, so the sweep degrades to
   the plain sparse sweep rather than returning an unverified answer. *)

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

type ws = {
  pat : Linalg.Sp.pattern;
  b : Linalg.Mat.t;
  d : Linalg.Mat.t;
  pencil : Linalg.Sp.ct;  (** G + σ·C, refilled in place per shift *)
  slu : Linalg.Spclu.t;
  bcol : Linalg.Cmat.vec;
  xcol : Linalg.Cmat.vec;
}

let make_ws ~pat ~b ~d =
  let n = pat.Linalg.Sp.nrows in
  if pat.Linalg.Sp.ncols <> n then
    invalid_arg "Ratkrylov.make_ws: square pattern required";
  if Linalg.Mat.rows b <> n || Linalg.Mat.rows d <> n then
    invalid_arg "Ratkrylov.make_ws: B/D row dimension mismatch";
  {
    pat;
    b;
    d;
    pencil = Linalg.Sp.ccreate pat;
    slu = Linalg.Spclu.workspace pat;
    bcol = Array.make n Linalg.Cx.zero;
    xcol = Array.make n Linalg.Cx.zero;
  }

let ws_matches ws ~pat ~b ~d =
  let same a b' =
    a == b'
    || Linalg.Mat.rows a = Linalg.Mat.rows b'
       && Linalg.Mat.cols a = Linalg.Mat.cols b'
       && Linalg.Mat.unsafe_data a = Linalg.Mat.unsafe_data b'
  in
  ws.pat == pat && same ws.b b && same ws.d d

(* H column j from a full-space complex solution held as re/im parts *)
let output_col_into h ~d ~xre ~xim j =
  let p = Linalg.Mat.cols d and n = Linalg.Mat.rows d in
  for o = 0 to p - 1 do
    let are = ref 0.0 and aim = ref 0.0 in
    for i = 0 to n - 1 do
      let dk = Linalg.Mat.get d i o in
      if dk <> 0.0 then begin
        are := !are +. (dk *. xre.(i));
        aim := !aim +. (dk *. xim.(i))
      end
    done;
    Linalg.Cmat.set h o j (Linalg.Cx.make !are !aim)
  done

let sweep ?(opts = default_opts) ?cancel ?obs ws ~g ~c ~ss =
  if not (g.Linalg.Sp.pat == ws.pat && c.Linalg.Sp.pat == ws.pat) then
    invalid_arg "Ratkrylov.sweep: G/C must carry the workspace pattern";
  let n = ws.pat.Linalg.Sp.nrows in
  let m = Linalg.Mat.cols ws.b and p = Linalg.Mat.cols ws.d in
  let l = Array.length ss in
  let xre_full = Array.make n 0.0 and xim_full = Array.make n 0.0 in
  (* exact per-point solve: the fallback rung, and the whole sweep when
     the subspace is declared stalled *)
  let exact s =
    Cancel.check cancel ~site:"krylov.sweep";
    Linalg.Sp.pencil_into ws.pencil g c s;
    Linalg.Spclu.factor_into ws.slu ws.pencil;
    Obs.rcond obs ~site:"krylov.pencil" Linalg.Spclu.rcond_estimate ws.slu;
    let h = Linalg.Cmat.create p m in
    for j = 0 to m - 1 do
      for i = 0 to n - 1 do
        ws.bcol.(i) <- Linalg.Cx.re (Linalg.Mat.get ws.b i j)
      done;
      Linalg.Spclu.solve_into ws.slu ws.bcol ws.xcol;
      for i = 0 to n - 1 do
        xre_full.(i) <- ws.xcol.(i).Complex.re;
        xim_full.(i) <- ws.xcol.(i).Complex.im
      done;
      output_col_into h ~d:ws.d ~xre:xre_full ~xim:xim_full j
    done;
    h
  in
  let finish ~shifts_used ~subspace_dim ~fallback_points ~worst_residual hs =
    (* sweeps run inside dataset workers: worker-safe records only *)
    Obs.count ~only:`Metrics obs "krylov.shifts" shifts_used;
    Obs.count ~only:`Metrics obs "krylov.fallback_points" fallback_points;
    Obs.observe ~only:`Metrics obs "krylov.subspace_dim"
      (float_of_int subspace_dim);
    (hs, { shifts_used; subspace_dim; fallback_points; worst_residual })
  in
  let degraded = Fault.should_fire "krylov.stall" in
  (* tiny grids cannot amortize a subspace; m = 0 has nothing to project *)
  if degraded || l <= 2 || m = 0 then
    finish ~shifts_used:0 ~subspace_dim:0 ~fallback_points:l
      ~worst_residual:0.0 (Array.map exact ss)
  else begin
    (* --- basis management ------------------------------------------- *)
    let basis = ref [] (* newest first; each unit 2-norm *) in
    let nb = ref 0 in
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
        if nrm > opts.drop_tol *. Float.max norm0 1.0 then begin
          let inv = 1.0 /. nrm in
          for i = 0 to n - 1 do
            w.(i) <- w.(i) *. inv
          done;
          basis := w :: !basis;
          incr nb
        end
      end
    in
    let add_shift s =
      Cancel.check cancel ~site:"krylov.sweep";
      Linalg.Sp.pencil_into ws.pencil g c s;
      Linalg.Spclu.factor_into ws.slu ws.pencil;
      Obs.rcond obs ~site:"krylov.pencil" Linalg.Spclu.rcond_estimate ws.slu;
      for j = 0 to m - 1 do
        for i = 0 to n - 1 do
          ws.bcol.(i) <- Linalg.Cx.re (Linalg.Mat.get ws.b i j)
        done;
        Linalg.Spclu.solve_into ws.slu ws.bcol ws.xcol;
        add_vec (Array.init n (fun i -> ws.xcol.(i).Complex.re));
        add_vec (Array.init n (fun i -> ws.xcol.(i).Complex.im))
      done
    in
    (* --- projected evaluation of the whole grid --------------------- *)
    let gx = Array.make n 0.0
    and cx = Array.make n 0.0
    and gy = Array.make n 0.0
    and cy = Array.make n 0.0 in
    let eval_round () =
      let vs = Array.of_list (List.rev !basis) in
      let k = Array.length vs in
      let gv = Array.map (fun v -> Linalg.Sp.mulv g v) vs in
      let cv = Array.map (fun v -> Linalg.Sp.mulv c v) vs in
      let grm =
        Linalg.Mat.init k k (fun i j -> Linalg.Vec.dot vs.(i) gv.(j))
      in
      let crm =
        Linalg.Mat.init k k (fun i j -> Linalg.Vec.dot vs.(i) cv.(j))
      in
      (* Vᵀ·B column dots, and per-column ‖b‖ for relative residuals *)
      let br = Array.make_matrix m k 0.0 in
      let bnorm = Array.make m 0.0 in
      for j = 0 to m - 1 do
        let s2 = ref 0.0 in
        for i = 0 to n - 1 do
          let bij = Linalg.Mat.get ws.b i j in
          s2 := !s2 +. (bij *. bij);
          if bij <> 0.0 then
            for t = 0 to k - 1 do
              br.(j).(t) <- br.(j).(t) +. (vs.(t).(i) *. bij)
            done
        done;
        bnorm.(j) <- Float.max (sqrt !s2) 1e-300
      done;
      let small = Linalg.Cmat.create k k in
      let clu = Linalg.Clu.workspace k in
      let brc = Array.make k Linalg.Cx.zero in
      let xr = Array.make k Linalg.Cx.zero in
      let hs = Array.make l (Linalg.Cmat.create 0 0) in
      let res = Array.make l Float.infinity in
      for pt = 0 to l - 1 do
        Cancel.check cancel ~site:"krylov.sweep";
        let s = ss.(pt) in
        Linalg.Cmat.lincomb_into small Linalg.Cx.one grm s crm;
        match Linalg.Clu.factor_into clu small with
        | exception Linalg.Clu.Singular _ ->
            () (* projected pencil degenerate here: leave res = ∞ *)
        | () ->
            let h = Linalg.Cmat.create p m in
            let worst = ref 0.0 in
            for j = 0 to m - 1 do
              for t = 0 to k - 1 do
                brc.(t) <- Linalg.Cx.re br.(j).(t)
              done;
              Linalg.Clu.solve_into clu brc xr;
              (* expand x = V·x_r *)
              Array.fill xre_full 0 n 0.0;
              Array.fill xim_full 0 n 0.0;
              for t = 0 to k - 1 do
                Linalg.Vec.axpy xr.(t).Complex.re vs.(t) xre_full;
                Linalg.Vec.axpy xr.(t).Complex.im vs.(t) xim_full
              done;
              (* true residual (G + s·C)x − b via sparse matvecs *)
              Linalg.Sp.mulv_into g xre_full gx;
              Linalg.Sp.mulv_into c xre_full cx;
              Linalg.Sp.mulv_into g xim_full gy;
              Linalg.Sp.mulv_into c xim_full cy;
              let sr = s.Complex.re and si = s.Complex.im in
              let r2 = ref 0.0 in
              for i = 0 to n - 1 do
                let rre =
                  gx.(i) +. (sr *. cx.(i)) -. (si *. cy.(i))
                  -. Linalg.Mat.get ws.b i j
                and rim = gy.(i) +. (sr *. cy.(i)) +. (si *. cx.(i)) in
                r2 := !r2 +. (rre *. rre) +. (rim *. rim)
              done;
              worst := Float.max !worst (sqrt !r2 /. bnorm.(j));
              output_col_into h ~d:ws.d ~xre:xre_full ~xim:xim_full j
            done;
            hs.(pt) <- h;
            (* NaN compares false against any threshold — pin it to ∞ so
               a non-finite projected solution always falls back *)
            res.(pt) <-
              (if Float.is_finite !worst then !worst else Float.infinity)
      done;
      (hs, res)
    in
    (* --- greedy shift loop ------------------------------------------ *)
    let used = Array.make l false in
    let shifts_used = ref 0 in
    let take i =
      add_shift ss.(i);
      used.(i) <- true;
      incr shifts_used
    in
    take 0;
    take (l - 1);
    let hs = ref [||] and res = ref [||] in
    let continue_ = ref true in
    while !continue_ do
      if !nb = 0 then begin
        (* B orthogonal to every solve direction — nothing to project *)
        hs := Array.make l (Linalg.Cmat.create 0 0);
        res := Array.make l Float.infinity;
        continue_ := false
      end
      else begin
        let h, r = eval_round () in
        hs := h;
        res := r;
        (* worst unconverged point not already a shift *)
        let idx = ref (-1) and rmax = ref opts.tol in
        Array.iteri
          (fun i ri ->
            if (not used.(i)) && ri > !rmax then begin
              idx := i;
              rmax := ri
            end)
          r;
        if !idx >= 0 && !shifts_used < opts.max_shifts && !nb < n then
          take !idx
        else continue_ := false
      end
    done;
    let fallback = ref 0 in
    let worst = ref 0.0 in
    Array.iteri
      (fun i ri ->
        if ri > opts.tol then begin
          (!hs).(i) <- exact ss.(i);
          incr fallback
        end
        else worst := Float.max !worst ri)
      !res;
    finish ~shifts_used:!shifts_used ~subspace_dim:!nb
      ~fallback_points:!fallback ~worst_residual:!worst !hs
  end
