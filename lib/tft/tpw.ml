type t = {
  xs : float array;  (** snapshot input values, ascending *)
  states : Linalg.Vec.t array;
  gs : Linalg.Mat.t array;
  cs : Linalg.Mat.t array;
  b : Linalg.Vec.t;  (** single input column *)
  d : Linalg.Vec.t;  (** single output column *)
  n : int;
}

let finite_mat m =
  let ok = ref true in
  for r = 0 to Linalg.Mat.rows m - 1 do
    for c = 0 to Linalg.Mat.cols m - 1 do
      if not (Float.is_finite (Linalg.Mat.get m r c)) then ok := false
    done
  done;
  !ok

(* A snapshot with its linearization (G_k, C_k), stamped from its state
   — the bits its transient step's last evaluation held — or [None]
   when the state, the inputs or the stamped matrices are not finite. *)
let linearize mna (s : Engine.Tran.snapshot) =
  if
    not
      (Guard.finite_array s.Engine.Tran.state
      && Guard.finite_array s.Engine.Tran.inputs)
  then None
  else
    let ev = Engine.Mna.eval mna ~time:s.Engine.Tran.time s.Engine.Tran.state in
    let g = Option.get ev.Engine.Mna.g_mat
    and c = Option.get ev.Engine.Mna.c_mat in
    if finite_mat g && finite_mat c then Some (s, g, c) else None

let build ~mna snapshots =
  (* snapshot quarantine: the TPW database interpolates raw snapshots
     directly, so a corrupt one is dropped before indexing (there is no
     meaningful neighbor repair once the x-ordering is rebuilt) *)
  let snapshots =
    Array.of_list (List.filter_map (linearize mna) (Array.to_list snapshots))
  in
  if Array.length snapshots < 2 then invalid_arg "Tpw.build: need >= 2 snapshots";
  if Engine.Mna.n_inputs mna <> 1 || Engine.Mna.n_outputs mna <> 1 then
    invalid_arg "Tpw.build: SISO configuration required";
  let order =
    Array.init (Array.length snapshots) (fun k -> k)
  in
  let x_of k =
    let s, _, _ = snapshots.(k) in
    s.Engine.Tran.inputs.(0)
  in
  Array.sort (fun a b -> Float.compare (x_of a) (x_of b)) order;
  (* drop duplicates in x to keep interpolation well defined *)
  let kept = ref [] in
  Array.iter
    (fun k ->
      match !kept with
      | k' :: _ when Float.abs (x_of k' -. x_of k) < 1e-12 -> ()
      | _ -> kept := k :: !kept)
    order;
  let kept = Array.of_list (List.rev !kept) in
  if Array.length kept < 2 then invalid_arg "Tpw.build: degenerate trajectory";
  let pick f = Array.map (fun k -> f snapshots.(k)) kept in
  {
    xs = Array.map x_of kept;
    states = pick (fun (s, _, _) -> Linalg.Vec.copy s.Engine.Tran.state);
    gs = pick (fun (_, g, _) -> g);
    cs = pick (fun (_, _, c) -> c);
    b = Linalg.Mat.col (Engine.Mna.b_matrix mna) 0;
    d = Linalg.Mat.col (Engine.Mna.d_matrix mna) 0;
    n = Engine.Mna.size mna;
  }

let size_in_floats t =
  let per = (2 * t.n * t.n) + t.n + 1 in
  (Array.length t.xs * per) + (2 * t.n)

(* bracketing snapshots and interpolation weight for input value w *)
let locate t w =
  let m = Array.length t.xs in
  if w <= t.xs.(0) then (0, 0, 0.0)
  else if w >= t.xs.(m - 1) then (m - 1, m - 1, 0.0)
  else begin
    let lo = ref 0 and hi = ref (m - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if t.xs.(mid) <= w then lo := mid else hi := mid
    done;
    (!lo, !hi, (w -. t.xs.(!lo)) /. (t.xs.(!hi) -. t.xs.(!lo)))
  end

let blend_mat_into dst a b lambda =
  if lambda = 0.0 then Linalg.Mat.blit ~src:a ~dst
  else Linalg.Mat.lincomb_into dst (1.0 -. lambda) a lambda b

let blend_vec a b lambda =
  Array.init (Array.length a) (fun i ->
      ((1.0 -. lambda) *. a.(i)) +. (lambda *. b.(i)))

(* The interpolated linearization around the point (v_star, u_star):
   G·z + C·dz/dt = B·(u(t) − u_star)  with  z = v − v_star; trapezoidal:
   (G + 2C/h)·z_next = B·(u_next − u_star) + rhs_history.
   Freezing the interpolation per step keeps the update linear. *)
let simulate t ~u ~t_stop ~dt =
  if dt <= 0.0 || t_stop <= 0.0 then invalid_arg "Tpw.simulate: dt, t_stop > 0";
  let steps = Stdlib.max 1 (int_of_float (Float.ceil ((t_stop /. dt) -. 1e-9))) in
  let times = Array.make (steps + 1) 0.0 in
  let values = Array.make (steps + 1) 0.0 in
  (* initial state: interpolated trajectory state at u(0) *)
  let v =
    let k0, k1, lambda = locate t (u 0.0) in
    ref (blend_vec t.states.(k0) t.states.(k1) lambda)
  in
  let dvdt = ref (Linalg.Vec.create t.n) in
  (* per-step scratch, blended/factored into in place: the old path
     allocated G, C and the full A = G + 2C/h matrix every step *)
  let g = Linalg.Mat.create t.n t.n in
  let c = Linalg.Mat.create t.n t.n in
  let a = Linalg.Mat.create t.n t.n in
  let lu = Linalg.Lu.workspace t.n in
  let zdot = Linalg.Vec.create t.n in
  let hist = Linalg.Vec.create t.n in
  let z_next = Linalg.Vec.create t.n in
  let output v = Linalg.Vec.dot t.d v in
  values.(0) <- output !v;
  for k = 1 to steps do
    let time = Float.min (float_of_int k *. dt) t_stop in
    let h = time -. times.(k - 1) in
    let w = u time in
    let k0, k1, lambda = locate t w in
    blend_mat_into g t.gs.(k0) t.gs.(k1) lambda;
    blend_mat_into c t.cs.(k0) t.cs.(k1) lambda;
    let v_star = blend_vec t.states.(k0) t.states.(k1) lambda in
    let u_star = ((1.0 -. lambda) *. t.xs.(k0)) +. (lambda *. t.xs.(k1)) in
    (* trapezoidal on z = v − v_star, using dz/dt ≈ dv/dt since v_star
       is frozen within the step *)
    Linalg.Mat.lincomb_into a 1.0 g (2.0 /. h) c;
    Linalg.Lu.factor_into lu a;
    let z_n = Linalg.Vec.sub !v v_star in
    for i = 0 to t.n - 1 do
      zdot.(i) <- ((2.0 /. h) *. z_n.(i)) +. (!dvdt).(i)
    done;
    Linalg.Mat.mulv_into c zdot hist;
    let rhs =
      Array.init t.n (fun i -> (t.b.(i) *. (w -. u_star)) +. hist.(i))
    in
    Linalg.Lu.solve_into lu rhs z_next;
    Guard.check_vec ~site:"tpw.simulate" z_next;
    let v_next = Linalg.Vec.add v_star z_next in
    dvdt :=
      Array.init t.n (fun i -> ((v_next.(i) -. (!v).(i)) *. 2.0 /. h) -. (!dvdt).(i));
    v := v_next;
    times.(k) <- time;
    values.(k) <- output !v
  done;
  Signal.Waveform.make times values
