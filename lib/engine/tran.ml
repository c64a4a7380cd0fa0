type integration = Backward_euler | Trapezoidal

type opts = {
  integration : integration;
  snapshot_every : int;
  newton : Dc.opts;
}

let default_opts =
  { integration = Trapezoidal; snapshot_every = 0; newton = Dc.default_opts }

type snapshot = {
  time : float;
  state : Linalg.Vec.t;
  inputs : Linalg.Vec.t;
  outputs : Linalg.Vec.t;
}

type result = {
  times : float array;
  states : Linalg.Vec.t array;
  outputs : Linalg.Mat.t;
  snapshots : snapshot array;
  newton_iterations : int;
  be_fallbacks : int;
  step_rejections : int;
}

(* A snapshot records where the trajectory was; its Jacobians G_k and
   C_k are functions of the state alone, so consumers stamp them with
   [Mna.eval] at [state] — the bits the step's last evaluation held. *)
let take_snapshot mna snapshots time v =
  snapshots :=
    {
      time;
      state = Linalg.Vec.copy v;
      inputs = Mna.input_values mna time;
      outputs = Mna.output_values mna v;
    }
    :: !snapshots

let run ?(opts = default_opts) ?cancel ?metrics ?obs ?initial
    ?(backend = Mna.Dense) mna ~t_stop ~dt =
  if dt <= 0.0 || t_stop <= 0.0 then invalid_arg "Tran.run: dt and t_stop must be > 0";
  let obs =
    if Option.is_none obs then Option.map Obs.of_metrics metrics else obs
  in
  let ws = Dc.workspace ~backend mna in
  let n = Mna.size mna in
  (* the small slack avoids a spurious zero-length final step when
     t_stop/dt is an integer up to roundoff *)
  let steps = Stdlib.max 1 (int_of_float (Float.ceil ((t_stop /. dt) -. 1e-9))) in
  Obs.span obs ~args:[ ("steps", Trace.Int steps) ] "tran.run"
  @@ fun () ->
  let v0 =
    match initial with
    | Some v -> Linalg.Vec.copy v
    | None ->
        Dc.solve_ws ~opts:opts.newton ?cancel ?obs ~time:0.0 ws
  in
  let q0 = (Mna.eval mna ~with_matrices:false ~time:0.0 v0).Mna.q_vec in
  let times = Array.make (steps + 1) 0.0 in
  let states = Array.make (steps + 1) v0 in
  let outputs = Linalg.Mat.create (steps + 1) (Mna.n_outputs mna) in
  let record_output k v =
    let y = Mna.output_values mna v in
    Array.iteri (fun j yv -> Linalg.Mat.set outputs k j yv) y
  in
  record_output 0 v0;
  let snapshots = ref [] in
  if opts.snapshot_every > 0 then take_snapshot mna snapshots 0.0 v0;
  let newton_count = ref 0 in
  let fallback_count = ref 0 in
  let halving_count = ref 0 in
  let q_prev = ref q0 in
  let qdot_prev = ref (Linalg.Vec.create n) in
  let v_prev = ref v0 in
  (* recovery of last resort for a step no integrator could take
     whole: re-integrate [t_prev, time] as 2^j backward-Euler substeps,
     doubling the split until the halving budget runs out. Returns the
     end-of-step solution and charge and total Newton iterations. *)
  let halve_step ~t_prev ~time =
    let rec attempt j =
      if j > Guard.max_step_halvings then None
      else begin
        incr halving_count;
        (* each halving attempt rejects the step at its previous
           resolution, so the rejection counter stays in agreement with
           the result's [step_rejections] field *)
        Obs.count obs "tran.step_halvings" 1;
        Obs.count obs "tran.step_rejections" 1;
        let m = 1 lsl j in
        let hs = (time -. t_prev) /. float_of_int m in
        let rec substeps i q v iters =
          if i = m then Some (v, q, iters)
          else
            let t_sub =
              if i = m - 1 then time else t_prev +. (float_of_int (i + 1) *. hs)
            in
            match
              Dc.newton_dynamic ~opts:opts.newton ?cancel ?obs ws ~time:t_sub
                ~alpha:(1.0 /. hs) ~q_prev:q ~qdot_term:(Linalg.Vec.create n)
                ~initial:v ()
            with
            | exception Dc.No_convergence _ -> None
            | v', q', it -> substeps (i + 1) q' v' (iters + it)
        in
        match substeps 0 !q_prev !v_prev 0 with
        | Some _ as recovered ->
            Obs.warn obs ~stage:"engine.tran"
              (Printf.sprintf
                 "step at t=%.6e recovered as %d backward-Euler substeps" time
                 m);
            recovered
        | None -> attempt (j + 1)
      end
    in
    attempt 1
  in
  for k = 1 to steps do
    Obs.span obs ~args:[ ("k", Trace.Int k) ] "tran.step" @@ fun () ->
    Cancel.check cancel ~site:"tran.step";
    if Fault.should_fire "tran.stall" then Cancel.hang cancel ~site:"tran.step";
    let time = Float.min (float_of_int k *. dt) t_stop in
    let h = time -. times.(k - 1) in
    let alpha, qdot_term =
      match opts.integration with
      | Backward_euler -> (1.0 /. h, Linalg.Vec.create n)
      | Trapezoidal -> (2.0 /. h, Linalg.Vec.copy !qdot_prev)
    in
    (* [fell_back] records which integrator actually produced this step
       (backward Euler, whole or in substeps), so the qdot update below
       can use the matching formula *)
    let inject_diverge () =
      if Fault.should_fire "tran.newton_diverge" then
        raise
          (Dc.No_convergence
             (Printf.sprintf "injected Newton divergence at t=%.6e" time))
    in
    let be_retry () =
      (* retreat to backward Euler for this step *)
      incr fallback_count;
      Obs.count obs "tran.be_fallbacks" 1;
      Obs.warn obs ~stage:"engine.tran"
        (Printf.sprintf
           "trapezoidal step at t=%.6e retreated to backward Euler" time);
      inject_diverge ();
      let v, q, iters =
        Dc.newton_dynamic ~opts:opts.newton ?cancel ?obs ws ~time
          ~alpha:(1.0 /. h) ~q_prev:!q_prev ~qdot_term:(Linalg.Vec.create n)
          ~initial:!v_prev ()
      in
      (v, q, iters, true)
    in
    let recover exn =
      match halve_step ~t_prev:times.(k - 1) ~time with
      | Some (v, q, iters) -> (v, q, iters, true)
      | None -> raise exn
    in
    let v, q_new, iters, fell_back =
      try
        inject_diverge ();
        let v, q, iters =
          Dc.newton_dynamic ~opts:opts.newton ?cancel ?obs ws ~time ~alpha
            ~q_prev:!q_prev ~qdot_term ~initial:!v_prev ()
        in
        (v, q, iters, false)
      with
      | Dc.No_convergence _ when opts.integration = Trapezoidal -> (
          try be_retry () with Dc.No_convergence _ as e -> recover e)
      | Dc.No_convergence _ as e -> recover e
    in
    newton_count := !newton_count + iters;
    Obs.add_args obs
      [ ("iters", Trace.Int iters); ("be_fallback", Trace.Bool fell_back) ];
    Obs.observe ~only:`Metrics obs "tran.newton_iters_per_step"
      (float_of_int iters);
    let qdot_new =
      (* the derivative estimate must match the integrator that actually
         produced the step: applying the trapezoidal formula to a
         backward-Euler step would feed a persistent qdot error into
         every subsequent trapezoidal step *)
      if fell_back then
        Array.init n (fun j -> (q_new.(j) -. (!q_prev).(j)) /. h)
      else
        match opts.integration with
        | Backward_euler ->
            Array.init n (fun j -> (q_new.(j) -. (!q_prev).(j)) /. h)
        | Trapezoidal ->
            Array.init n (fun j ->
                ((2.0 /. h) *. (q_new.(j) -. (!q_prev).(j))) -. (!qdot_prev).(j))
    in
    times.(k) <- time;
    states.(k) <- Linalg.Vec.copy v;
    record_output k v;
    if opts.snapshot_every > 0 && k mod opts.snapshot_every = 0 then
      take_snapshot mna snapshots time v;
    q_prev := q_new;
    qdot_prev := qdot_new;
    v_prev := v
  done;
  Obs.count obs "tran.steps" steps;
  Obs.count obs "tran.newton_iterations" !newton_count;
  {
    times;
    states;
    outputs;
    snapshots = Array.of_list (List.rev !snapshots);
    newton_iterations = !newton_count;
    be_fallbacks = !fallback_count;
    step_rejections = !halving_count;
  }

let output_waveform r j =
  Signal.Waveform.make r.times (Linalg.Mat.col r.outputs j)

let run_adaptive ?(opts = default_opts) ?cancel ?obs ?initial
    ?(reltol = 1e-3) ?(abstol = 1e-6) ?dt_min ?dt_max ?(backend = Mna.Dense)
    mna ~t_stop ~dt =
  if dt <= 0.0 || t_stop <= 0.0 then
    invalid_arg "Tran.run_adaptive: dt and t_stop must be > 0";
  Obs.span obs "tran.run_adaptive" @@ fun () ->
  let ws = Dc.workspace ~backend mna in
  let dt_min = match dt_min with Some v -> v | None -> dt /. 1e6 in
  let dt_max = match dt_max with Some v -> v | None -> 50.0 *. dt in
  let n = Mna.size mna in
  let v0 =
    match initial with
    | Some v -> Linalg.Vec.copy v
    | None ->
        Dc.solve_ws ~opts:opts.newton ?cancel ?obs ~time:0.0 ws
  in
  let q0 = (Mna.eval mna ~with_matrices:false ~time:0.0 v0).Mna.q_vec in
  let times = ref [ 0.0 ] in
  let states = ref [ v0 ] in
  let outputs = ref [ Mna.output_values mna v0 ] in
  let snapshots = ref [] in
  if opts.snapshot_every > 0 then take_snapshot mna snapshots 0.0 v0;
  let newton_count = ref 0 in
  let rejections = ref 0 in
  let q_prev = ref q0 in
  let qdot_prev = ref (Linalg.Vec.create n) in
  let v_prev = ref v0 in
  let t_now = ref 0.0 in
  let h = ref dt in
  let accepted = ref 0 in
  while !t_now < t_stop -. 1e-15 *. t_stop do
    Cancel.check cancel ~site:"tran.step";
    if Fault.should_fire "tran.stall" then Cancel.hang cancel ~site:"tran.step";
    let h_try = Float.min !h (t_stop -. !t_now) in
    let time = !t_now +. h_try in
    let step_ok, v_new, q_new =
      try
        let v, q, iters =
          Dc.newton_dynamic ~opts:opts.newton ?cancel ?obs ws ~time
            ~alpha:(2.0 /. h_try) ~q_prev:!q_prev
            ~qdot_term:(Linalg.Vec.copy !qdot_prev) ~initial:!v_prev ()
        in
        newton_count := !newton_count + iters;
        Obs.observe ~only:`Metrics obs "tran.newton_iters_per_step"
          (float_of_int iters);
        (true, v, q)
      with Dc.No_convergence _ -> (false, !v_prev, q0)
    in
    if not step_ok then begin
      (* convergence failure: halve the step *)
      incr rejections;
      Obs.count obs "tran.step_rejections" 1;
      h := Float.max dt_min (0.5 *. h_try);
      if h_try <= dt_min *. 1.0000001 then begin
        Obs.error obs ~stage:"engine.tran"
          (Printf.sprintf "adaptive step underflow at t=%.6e" time);
        raise (Dc.No_convergence
                 (Printf.sprintf "adaptive step underflow at t=%.6e" time))
      end
    end
    else begin
      (* predictor: forward Euler with the previous dv/dt estimate *)
      let dvdt_prev =
        match !times with
        | t1 :: t2 :: _ ->
            let hp = t1 -. t2 in
            let v1 = List.nth !states 0 and v2 = List.nth !states 1 in
            Array.init n (fun i -> (v1.(i) -. v2.(i)) /. hp)
        | _ -> Linalg.Vec.create n
      in
      let err = ref 0.0 in
      Array.iteri
        (fun i vi ->
          let pred = (!v_prev).(i) +. (h_try *. dvdt_prev.(i)) in
          let scale = abstol +. (reltol *. Float.max (Float.abs vi) (Float.abs (!v_prev).(i))) in
          err := Float.max !err (Float.abs (vi -. pred) /. scale))
        v_new;
      if !err > 2.0 && h_try > dt_min *. 1.0000001 then begin
        (* reject: shrink *)
        incr rejections;
        Obs.count obs "tran.step_rejections" 1;
        h := Float.max dt_min (h_try *. Float.max 0.2 (0.9 /. sqrt !err))
      end
      else begin
        (* accept *)
        let qdot_new =
          Array.init n (fun j ->
              ((2.0 /. h_try) *. (q_new.(j) -. (!q_prev).(j))) -. (!qdot_prev).(j))
        in
        t_now := time;
        times := time :: !times;
        states := Linalg.Vec.copy v_new :: !states;
        outputs := Mna.output_values mna v_new :: !outputs;
        incr accepted;
        if opts.snapshot_every > 0 && !accepted mod opts.snapshot_every = 0 then
          take_snapshot mna snapshots time v_new;
        q_prev := q_new;
        qdot_prev := qdot_new;
        v_prev := v_new;
        let grow = if !err <= 0.0 then 2.0 else Float.min 2.0 (0.9 /. sqrt !err) in
        h := Float.min dt_max (Float.max dt_min (h_try *. Float.max 0.5 grow))
      end
    end
  done;
  let times = Array.of_list (List.rev !times) in
  let states = Array.of_list (List.rev !states) in
  let outs = Array.of_list (List.rev !outputs) in
  let mo = Mna.n_outputs mna in
  let outputs = Linalg.Mat.create (Array.length times) mo in
  Array.iteri
    (fun k row -> Array.iteri (fun j v -> Linalg.Mat.set outputs k j v) row)
    outs;
  Obs.count obs "tran.steps" !accepted;
  Obs.count obs "tran.newton_iterations" !newton_count;
  {
    times;
    states;
    outputs;
    snapshots = Array.of_list (List.rev !snapshots);
    newton_iterations = !newton_count;
    be_fallbacks = 0;
    step_rejections = !rejections;
  }
