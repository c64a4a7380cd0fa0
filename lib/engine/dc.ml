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

(* --- the Newton workspace --------------------------------------------- *)

(* The backend half of a workspace: the Newton pencil J in its
   backend's storage and two LU workspaces that factor it. *)
type lin =
  | Dense_lin of { j : Linalg.Mat.t; lus : Linalg.Lu.t array }
  | Sparse_lin of { j : Linalg.Sp.t; slus : Linalg.Splu.t array }

(* What LU workspace [k] holds: a copy of the J it factored and an
   (α, gmin) that blends to it, valid while [holds]. *)
type held = {
  vals : float array;
  mutable alpha : float;
  mutable gmin : float;
  mutable holds : bool;
}

(* Everything one system's Newton solves need, allocated once and
   reused across iterations, gmin levels and transient steps: the
   assembly that every evaluation refills in place (i, q and the value
   arrays of G and C, in [jv]'s layout); the backend half; [jv], the
   flat value array of J that the loop fills (the dense matrix's
   row-major store or the CSC values); the slots of [jv] that can change
   while (α, gmin) does not, and the node-diagonal slots gmin lands in,
   all and varying; the (α, gmin) of the last full blend of J; what the
   two LU workspaces hold, [newest] the one that solves; and the
   right-hand side and update vectors. *)
type ws = {
  mna : Mna.t;
  asm : Mna.assembly;
  lin : lin;
  jv : float array;
  var_slots : int array;
  diag_slots : int array;
  var_diag_slots : int array;
  mutable blended : bool;
  mutable blend_alpha : float;
  mutable blend_gmin : float;
  held : held array;
  mutable newest : int;
  neg_f : Linalg.Vec.t;
  dv : Linalg.Vec.t;
}

let workspace ~backend mna =
  let n = Mna.size mna in
  let asm, lin, jv, diag_slot =
    match backend with
    | Mna.Dense ->
        let j = Linalg.Mat.create n n in
        ( Mna.dense_assembly mna,
          Dense_lin
            { j; lus = [| Linalg.Lu.workspace n; Linalg.Lu.workspace n |] },
          Linalg.Mat.unsafe_data j,
          fun k -> (k * n) + k )
    | Mna.Sparse ->
        let ctx = Mna.sparse_ctx mna in
        let pattern = Mna.sparse_pattern ctx in
        let j = Linalg.Sp.create pattern in
        let slu = Linalg.Splu.workspace pattern in
        ( Mna.sparse_assembly ctx,
          (* the second workspace shares the first one's ordering *)
          Sparse_lin { j; slus = [| slu; Linalg.Splu.sibling slu |] },
          j.Linalg.Sp.v,
          fun k ->
            match Linalg.Sp.find pattern k k with
            | Some s -> s
            | None -> assert false (* the union pattern includes the diagonal *)
        )
  in
  let var_slots = Mna.varying_slots asm in
  let diag_slots = Array.init (Mna.n_nodes mna) diag_slot in
  let held () =
    {
      vals = Array.make (Array.length jv) 0.0;
      alpha = 0.0;
      gmin = 0.0;
      holds = false;
    }
  in
  {
    mna;
    asm;
    lin;
    jv;
    var_slots;
    diag_slots;
    var_diag_slots =
      Array.of_list
        (Array.fold_right
           (fun s a -> if Array.mem s var_slots then s :: a else a)
           diag_slots []);
    blended = false;
    blend_alpha = 0.0;
    blend_gmin = 0.0;
    held = [| held (); held () |];
    newest = 0;
    neg_f = Linalg.Vec.create n;
    dv = Linalg.Vec.create n;
  }

(* factor J into LU workspace [k] *)
let factor ws k =
  match ws.lin with
  | Dense_lin { j; lus } -> Linalg.Lu.factor_into lus.(k) j
  | Sparse_lin { j; slus } -> Linalg.Splu.factor_into slus.(k) j

let rcond_estimate ws k =
  match ws.lin with
  | Dense_lin { lus; _ } -> Linalg.Lu.rcond_estimate lus.(k)
  | Sparse_lin { slus; _ } -> Linalg.Splu.rcond_estimate slus.(k)

(* dv := J⁻¹·neg_f with the newest held factorization *)
let solve_update ws =
  match ws.lin with
  | Dense_lin { lus; _ } -> Linalg.Lu.solve_into lus.(ws.newest) ws.neg_f ws.dv
  | Sparse_lin { slus; _ } ->
      Linalg.Splu.solve_into slus.(ws.newest) ws.neg_f ws.dv

(* Bit equality without a C call per entry: equal floats have equal
   bits except +0 and −0, which their reciprocals tell apart, and a NaN
   equals nothing, so NaNs compare by their bits. *)
let[@inline] same_bits x y =
  if x = y then x <> 0.0 || 1.0 /. x = 1.0 /. y
  else
    x <> x && y <> y
    && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* J := G + α·C (G itself at α = 0) plus gmin on the node diagonal. The
   constant slots of J are a function of the (α, gmin) bits alone, since
   the assembly never rewrites the constant slots of G and C; so they
   are blended only when (α, gmin) changes, and otherwise only the
   varying slots are. Either way every slot holds the bits of a full
   blend. *)
let blend ws ~alpha ~gmin =
  let jv = ws.jv in
  let gv = Mna.g_values ws.asm and cv = Mna.c_values ws.asm in
  if ws.blended && same_bits ws.blend_alpha alpha && same_bits ws.blend_gmin gmin
  then begin
    let slots = ws.var_slots in
    if alpha = 0.0 then
      for k = 0 to Array.length slots - 1 do
        let s = slots.(k) in
        jv.(s) <- gv.(s)
      done
    else
      for k = 0 to Array.length slots - 1 do
        let s = slots.(k) in
        jv.(s) <- gv.(s) +. (alpha *. cv.(s))
      done;
    if gmin > 0.0 then
      for k = 0 to Array.length ws.var_diag_slots - 1 do
        let s = ws.var_diag_slots.(k) in
        jv.(s) <- jv.(s) +. gmin
      done
  end
  else begin
    if alpha = 0.0 then Array.blit gv 0 jv 0 (Array.length jv)
    else
      for k = 0 to Array.length jv - 1 do
        jv.(k) <- gv.(k) +. (alpha *. cv.(k))
      done;
    if gmin > 0.0 then
      for k = 0 to Array.length ws.diag_slots - 1 do
        let s = ws.diag_slots.(k) in
        jv.(s) <- jv.(s) +. gmin
      done;
    ws.blended <- true;
    ws.blend_alpha <- alpha;
    ws.blend_gmin <- gmin
  end

(* whether [h] holds the factorization of J, stopping at the first
   difference. Under its own (α, gmin) only the varying slots can
   differ, since the constant ones follow from (α, gmin). Another
   (α, gmin) can still round to the same J — on a linear ladder α·C sits
   far enough below G that a last-bit change of α moves no entry — so
   then every slot is compared, and on a match [h] takes the new
   (α, gmin). *)
let holds_pencil ws h ~alpha ~gmin =
  h.holds
  &&
  let jv = ws.jv and vals = h.vals in
  if same_bits h.alpha alpha && same_bits h.gmin gmin then begin
    let slots = ws.var_slots in
    let k = ref 0 and n = Array.length slots in
    while !k < n && same_bits jv.(slots.(!k)) vals.(slots.(!k)) do
      incr k
    done;
    !k = n
  end
  else begin
    let k = ref 0 and n = Array.length jv in
    while !k < n && same_bits jv.(!k) vals.(!k) do
      incr k
    done;
    !k = n
    && begin
         h.alpha <- alpha;
         h.gmin <- gmin;
         true
       end
  end

(* Make the newest held factorization the one of J: reuse whichever of
   the two holds it, else factor J into the older one. A factorization
   is a deterministic function of its input bits and a held one has
   passed the rcond floor, so a reuse is exactly a refactorization.
   Holding two serves a step size that alternates between two values.
   [false] when the factorization raised Singular; whatever it raised,
   its slot is already cleared, so a failed factorization is never
   reused. *)
let factor_or_reuse ?obs ws ~alpha ~gmin =
  let older = 1 - ws.newest in
  if holds_pencil ws ws.held.(ws.newest) ~alpha ~gmin then begin
    Obs.count obs "dc.lu_reuses" 1;
    true
  end
  else if holds_pencil ws ws.held.(older) ~alpha ~gmin then begin
    ws.newest <- older;
    Obs.count obs "dc.lu_reuses" 1;
    true
  end
  else begin
    let h = ws.held.(older) in
    h.holds <- false;
    let t_factor = Obs.now_if obs in
    let ok =
      match factor ws older with
      | () -> true
      | exception (Linalg.Lu.Singular _ | Linalg.Splu.Singular _) -> false
    in
    Obs.observe_since_ns obs "dc.lu_factor_ns" t_factor;
    if ok then begin
      Obs.rcond obs ~site:"dc.lu" (rcond_estimate ws) older;
      Array.blit ws.jv 0 h.vals 0 (Array.length ws.jv);
      h.alpha <- alpha;
      h.gmin <- gmin;
      h.holds <- true;
      ws.newest <- older
    end;
    ok
  end

(* --- the Newton loop --------------------------------------------------- *)

(* One Newton run at a fixed gmin level on
   i(v) − s(t) + α·(q(v) − q_prev) − qdot_term = 0, with [fold] adding
   the charge term to the residual. DC is α = 0 with a no-op fold, and
   its Jacobian is G itself; a transient step's is J = G + α·C. Returns
   the solution, a private copy of [initial] updated in place, when the
   run contracted, and the iterations actually run — the count is
   meaningful on failure too. An iteration allocates nothing that grows
   with the circuit. *)
let newton_loop ?cancel ?obs ~opts ws ~gmin ~time ~alpha ~fold ~initial () =
  let n = Mna.size ws.mna in
  let dv = ws.dv in
  let f = Mna.residual ws.asm and q = Mna.charge ws.asm in
  let v = Linalg.Vec.copy initial in
  let iters = ref 0 in
  let rec iterate it =
    Cancel.check cancel ~site:"dc.newton";
    if it >= opts.max_iter then None
    else begin
      incr iters;
      Mna.assemble ws.mna ws.asm ~time v;
      fold f q;
      (* gmin to ground on node rows keeps the matrix nonsingular *)
      blend ws ~alpha ~gmin;
      if gmin > 0.0 then
        for k = 0 to Mna.n_nodes ws.mna - 1 do
          f.(k) <- f.(k) +. (gmin *. v.(k))
        done;
      let f_norm = Linalg.Vec.norm_inf f in
      if not (factor_or_reuse ?obs ws ~alpha ~gmin) then None
      else begin
        let t_solve = Obs.now_if obs in
        for k = 0 to n - 1 do
          ws.neg_f.(k) <- -.f.(k)
        done;
        solve_update ws;
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
        then Some v
        else iterate (it + 1)
      end
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

let solve_ws ?(opts = default_opts) ?cancel ?obs ?initial ?(time = 0.0) ws =
  Obs.span obs "dc.solve" @@ fun () ->
  let initial =
    match initial with
    | Some v -> v
    | None -> Linalg.Vec.create (Mna.size ws.mna)
  in
  let attempt gmin start =
    let r, iters =
      newton_loop ?cancel ?obs ~opts ws ~gmin ~time ~alpha:0.0
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
      Obs.count obs "dc.gmin_continuations" 1;
      let levels = [ 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-7; 1e-8; 1e-10; 1e-12 ] in
      let rec steps v_start = function
        | [] ->
            Obs.error obs ~stage:"engine.dc" "gmin stepping exhausted";
            raise (No_convergence "gmin stepping exhausted")
        | gmin :: rest -> begin
            Obs.count obs "dc.gmin_levels" 1;
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

let solve ?opts ?cancel ?obs ?initial ?time ?(backend = Mna.Dense) mna =
  solve_ws ?opts ?cancel ?obs ?initial ?time (workspace ~backend mna)

let newton_dynamic ?(opts = default_opts) ?cancel ?obs ws ~time ~alpha ~q_prev
    ~qdot_term ~initial ~q_out () =
  let n = Mna.size ws.mna in
  let fold f q =
    for k = 0 to n - 1 do
      f.(k) <- f.(k) +. (alpha *. (q.(k) -. q_prev.(k))) -. qdot_term.(k)
    done
  in
  let result, iters =
    newton_loop ?cancel ?obs ~opts ws ~gmin:opts.gmin_final ~time ~alpha ~fold
      ~initial ()
  in
  (* the count covers failed attempts too, so the diagnostics layer sees
     the true cost of steps that later retreat to another integrator *)
  Obs.count obs "dc.newton_iterations" iters;
  match result with
  | Some v ->
      Guard.check_vec ~site:"dc.newton_dynamic" v;
      (* the charge at the solution is all the integrator carries on *)
      Mna.charge_into ws.mna ws.asm v q_out;
      (v, iters)
  | None ->
      raise
        (No_convergence (Printf.sprintf "transient Newton failed at t=%.6e" time))
