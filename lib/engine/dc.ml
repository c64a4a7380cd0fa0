type opts = {
  max_iter : int;
  abstol : float;
  vtol : float;
  dv_max : float;
  gmin_final : float;
}

let default_opts =
  { max_iter = 100; abstol = 1e-9; vtol = 1e-9; dv_max = 1.0; gmin_final = 1e-12 }

exception No_convergence of string

let src = Logs.Src.create "engine.dc" ~doc:"DC operating point solver"

module Log = (val Logs.src_log src : Logs.LOG)

(* One Newton run at a fixed gmin level. [residual_of] must fill i_vec with
   the full residual and g_mat/c_mat with the Jacobians; the dynamic term
   is folded in by the caller. Returns ((solution, last eval) option,
   iterations actually run) — the count is meaningful on failure too. *)
let newton ?cancel ?obs ~opts ~mna ~gmin ~residual_of ~jac_of
    ~initial () =
  let n = Mna.size mna in
  let n_nodes = Mna.n_nodes mna in
  let v = Linalg.Vec.copy initial in
  let iters = ref 0 in
  let rec iterate it =
    Cancel.check cancel ~site:"dc.newton";
    if it >= opts.max_iter then None
    else begin
      incr iters;
      let ev : Mna.eval = residual_of v in
      let f = ev.Mna.i_vec in
      let j =
        match jac_of ev with
        | Some j -> j
        | None -> invalid_arg "Dc.newton: evaluation without Jacobian"
      in
      (* gmin to ground on node rows keeps the matrix nonsingular *)
      if gmin > 0.0 then
        for k = 0 to n_nodes - 1 do
          Linalg.Mat.update j k k (fun x -> x +. gmin);
          f.(k) <- f.(k) +. (gmin *. v.(k))
        done;
      let f_norm = Linalg.Vec.norm_inf f in
      let t_factor = Obs.now_if obs in
      match Linalg.Lu.factor j with
      | exception Linalg.Lu.Singular _ ->
          Obs.observe_since_ns obs "dc.lu_factor_ns" t_factor;
          None
      | lu ->
          Obs.observe_since_ns obs "dc.lu_factor_ns" t_factor;
          Obs.rcond obs ~site:"dc.lu" Linalg.Lu.rcond_estimate lu;
          let t_solve = Obs.now_if obs in
          let dv = Linalg.Lu.solve lu (Linalg.Vec.neg f) in
          Obs.observe_since_ns obs "dc.lu_solve_ns" t_solve;
          let dv_norm = Linalg.Vec.norm_inf dv in
          let scale =
            if dv_norm > opts.dv_max then opts.dv_max /. dv_norm else 1.0
          in
          for k = 0 to n - 1 do
            v.(k) <- v.(k) +. (scale *. dv.(k))
          done;
          if
            Float.is_finite dv_norm
            && dv_norm *. scale < opts.vtol
            && f_norm < opts.abstol
          then Some (v, ev)
          else iterate (it + 1)
    end
  in
  (* bind before building the pair: OCaml evaluates tuple components
     right-to-left, so [(iterate 0, !iters)] would read a stale 0 *)
  let result =
    (* injected divergence: report failure before running an iteration,
       exactly as a Newton run that never contracted *)
    if Fault.should_fire "dc.newton_diverge" then None else iterate 0
  in
  (result, !iters)

(* --- sparse Newton --------------------------------------------------- *)

(* Everything one sparse Newton solve needs, compiled once per system
   and reused across iterations, gmin levels and transient steps: the
   assembly context, the pencil value buffer J = G + α·C over the same
   pattern, the LU workspace (which caches the fill-reducing ordering),
   and the diagonal slots gmin regularization lands in. *)
type sparse_ws = {
  ctx : Mna.sparse_ctx;
  j : Linalg.Sp.t;
  slu : Linalg.Splu.t;
  diag_slots : int array;
  neg_f : Linalg.Vec.t;
  dv : Linalg.Vec.t;
}

let sparse_ws ?ctx mna =
  let ctx = match ctx with Some c -> c | None -> Mna.sparse_ctx mna in
  let pattern = Mna.sparse_pattern ctx in
  let n = Mna.size mna in
  {
    ctx;
    j = Linalg.Sp.create pattern;
    slu = Linalg.Splu.workspace pattern;
    diag_slots =
      Array.init (Mna.n_nodes mna) (fun k ->
          match Linalg.Sp.find pattern k k with
          | Some s -> s
          | None -> assert false (* the union pattern includes the diagonal *));
    neg_f = Linalg.Vec.create n;
    dv = Linalg.Vec.create n;
  }

(* Sparse twin of [newton]: same contraction test, step limiting, gmin
   regularization, fault probe and telemetry sites, with the residual
   fold for the dynamic term passed in as a closure and the Jacobian
   pencil J = G + α·C blended over the shared pattern. Returns the
   solution only — the caller re-evaluates if it needs residual pieces
   at the solution. *)
let newton_sparse ?cancel ?obs ~opts ~mna ~sws ~gmin ~time
    ~alpha ~fold ~initial () =
  let n = Mna.size mna in
  let n_nodes = Mna.n_nodes mna in
  let v = Linalg.Vec.copy initial in
  let iters = ref 0 in
  let jv = sws.j.Linalg.Sp.v in
  let rec iterate it =
    Cancel.check cancel ~site:"dc.newton";
    if it >= opts.max_iter then None
    else begin
      incr iters;
      let sev = Mna.eval_sparse mna sws.ctx ~time v in
      let f = sev.Mna.si_vec in
      fold f sev.Mna.sq_vec;
      let gv = sev.Mna.sg.Linalg.Sp.v and cv = sev.Mna.sc.Linalg.Sp.v in
      for k = 0 to Array.length jv - 1 do
        jv.(k) <- gv.(k) +. (alpha *. cv.(k))
      done;
      if gmin > 0.0 then
        for k = 0 to n_nodes - 1 do
          let s = sws.diag_slots.(k) in
          jv.(s) <- jv.(s) +. gmin;
          f.(k) <- f.(k) +. (gmin *. v.(k))
        done;
      let f_norm = Linalg.Vec.norm_inf f in
      let t_factor = Obs.now_if obs in
      match Linalg.Splu.factor_into sws.slu sws.j with
      | exception Linalg.Splu.Singular _ ->
          Obs.observe_since_ns obs "dc.lu_factor_ns" t_factor;
          None
      | () ->
          Obs.observe_since_ns obs "dc.lu_factor_ns" t_factor;
          Obs.rcond obs ~site:"dc.lu" Linalg.Splu.rcond_estimate sws.slu;
          let t_solve = Obs.now_if obs in
          for k = 0 to n - 1 do
            sws.neg_f.(k) <- -.f.(k)
          done;
          Linalg.Splu.solve_into sws.slu sws.neg_f sws.dv;
          Obs.observe_since_ns obs "dc.lu_solve_ns" t_solve;
          let dv_norm = Linalg.Vec.norm_inf sws.dv in
          let scale =
            if dv_norm > opts.dv_max then opts.dv_max /. dv_norm else 1.0
          in
          for k = 0 to n - 1 do
            v.(k) <- v.(k) +. (scale *. sws.dv.(k))
          done;
          if
            Float.is_finite dv_norm
            && dv_norm *. scale < opts.vtol
            && f_norm < opts.abstol
          then Some v
          else iterate (it + 1)
    end
  in
  let result =
    if Fault.should_fire "dc.newton_diverge" then None else iterate 0
  in
  (result, !iters)

let dc_residual mna time v =
  let ev = Mna.eval mna ~with_matrices:true ~time v in
  (* DC: drop the dq/dt term entirely *)
  ev

let solve ?(opts = default_opts) ?cancel ?obs ?initial ?(time = 0.0)
    ?(backend = Mna.Dense) ?sparse mna =
  Obs.span obs "dc.solve" @@ fun () ->
  let n = Mna.size mna in
  let initial =
    match initial with Some v -> v | None -> Linalg.Vec.create n
  in
  let sws =
    match backend with
    | Mna.Dense -> None
    | Mna.Sparse ->
        Some (match sparse with Some s -> s | None -> sparse_ws mna)
  in
  let jac_of (ev : Mna.eval) = ev.Mna.g_mat in
  let attempt gmin start =
    let r, iters =
      match sws with
      | None ->
          let r, iters =
            newton ?cancel ?obs ~opts ~mna ~gmin
              ~residual_of:(dc_residual mna time) ~jac_of ~initial:start ()
          in
          ((match r with Some (v, _) -> Some v | None -> None), iters)
      | Some sws ->
          newton_sparse ?cancel ?obs ~opts ~mna ~sws ~gmin
            ~time ~alpha:0.0
            ~fold:(fun _ _ -> ())
            ~initial:start ()
    in
    Obs.count obs "dc.newton_iterations" iters;
    r
  in
  let finish v =
    Guard.check_vec ~site:"dc.solve" v;
    v
  in
  match attempt opts.gmin_final initial with
  | Some v -> finish v
  | None ->
      (* gmin stepping continuation *)
      Log.debug (fun m -> m "plain Newton failed; starting gmin stepping");
      Obs.count ~only:`Diag obs "dc.gmin_continuations" 1;
      let levels = [ 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-7; 1e-8; 1e-10; 1e-12 ] in
      let rec steps v_start = function
        | [] ->
            Obs.error obs ~stage:"engine.dc" "gmin stepping exhausted";
            raise (No_convergence "gmin stepping exhausted")
        | gmin :: rest -> begin
            Obs.count ~only:`Diag obs "dc.gmin_levels" 1;
            match attempt (Float.max gmin opts.gmin_final) v_start with
            | Some v -> if rest = [] then finish v else steps v rest
            | None ->
                (* restart the level from the best guess we have *)
                if rest = [] then begin
                  Obs.error obs ~stage:"engine.dc" "gmin stepping failed";
                  raise (No_convergence "gmin stepping failed")
                end
                else steps v_start rest
          end
      in
      steps initial levels

let newton_dynamic ?(opts = default_opts) ?cancel ?obs
    ?(backend = Mna.Dense) ?sparse ~mna ~time ~alpha ~q_prev ~qdot_term
    ~initial () =
  match backend with
  | Mna.Sparse ->
      let sws = match sparse with Some s -> s | None -> sparse_ws mna in
      let n = Mna.size mna in
      let fold f q =
        for k = 0 to n - 1 do
          f.(k) <- f.(k) +. (alpha *. (q.(k) -. q_prev.(k))) -. qdot_term.(k)
        done
      in
      let result, iters =
        newton_sparse ?cancel ?obs ~opts ~mna ~sws
          ~gmin:opts.gmin_final ~time ~alpha ~fold ~initial ()
      in
      Obs.count obs "dc.newton_iterations" iters;
      (match result with
      | Some v ->
          Guard.check_vec ~site:"dc.newton_dynamic" v;
          (* residual pieces at the solution, without dense Jacobians —
             the transient needs q(v), not G/C matrices *)
          let ev = Mna.eval mna ~with_matrices:false ~time v in
          (v, ev, iters)
      | None ->
          raise
            (No_convergence
               (Printf.sprintf "transient Newton failed at t=%.6e" time)))
  | Mna.Dense ->
  let n = Mna.size mna in
  let residual_of v =
    let ev = Mna.eval mna ~with_matrices:true ~time v in
    let f = ev.Mna.i_vec in
    for k = 0 to n - 1 do
      f.(k) <-
        f.(k) +. (alpha *. (ev.Mna.q_vec.(k) -. q_prev.(k))) -. qdot_term.(k)
    done;
    ev
  in
  let jac_of (ev : Mna.eval) =
    match (ev.Mna.g_mat, ev.Mna.c_mat) with
    | Some g, Some c ->
        (* J = G + alpha·C; reuse G's storage *)
        let nmat = Linalg.Mat.rows g in
        for r = 0 to nmat - 1 do
          for col = 0 to nmat - 1 do
            Linalg.Mat.update g r col (fun x ->
                x +. (alpha *. Linalg.Mat.get c r col))
          done
        done;
        Some g
    | _, _ -> None
  in
  let result, iters =
    newton ?cancel ?obs ~opts ~mna ~gmin:opts.gmin_final
      ~residual_of ~jac_of ~initial ()
  in
  (* the count covers failed attempts too, so the diagnostics layer sees
     the true cost of steps that later retreat to another integrator *)
  Obs.count obs "dc.newton_iterations" iters;
  match result with
  | Some (v, _) ->
      Guard.check_vec ~site:"dc.newton_dynamic" v;
      (* re-evaluate to return clean (unmodified) Jacobians at the solution *)
      let ev = Mna.eval mna ~with_matrices:true ~time v in
      (v, ev, iters)
  | None ->
      raise
        (No_convergence (Printf.sprintf "transient Newton failed at t=%.6e" time))
