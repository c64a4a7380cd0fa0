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
  let mo = Mna.n_outputs mna in
  let outputs = Linalg.Mat.create (steps + 1) mo in
  let record_output k v =
    Array.blit (Mna.output_values mna v) 0 (Linalg.Mat.unsafe_data outputs)
      (k * mo) mo
  in
  record_output 0 v0;
  let snapshots = ref [] in
  if opts.snapshot_every > 0 then take_snapshot mna snapshots 0.0 v0;
  let newton_count = ref 0 in
  let fallback_count = ref 0 in
  let halving_count = ref 0 in
  (* q and q̇ are double-buffered: a step writes the [next] pair from
     the [prev] pair, then the two swap; [zeros] is backward Euler's
     q̇ term and is never written *)
  let q_prev = ref q0 and q_next = ref (Linalg.Vec.create n) in
  let qdot_prev = ref (Linalg.Vec.create n)
  and qdot_next = ref (Linalg.Vec.create n) in
  let zeros = Linalg.Vec.create n in
  let v_prev = ref v0 in
  (* recovery of last resort for a step no integrator could take
     whole: re-integrate [t_prev, time] as 2^j backward-Euler substeps,
     doubling the split until the halving budget runs out. Returns the
     end-of-step solution and total Newton iterations, and leaves the
     end-of-step charge in [q_out]. *)
  let halve_step ~t_prev ~time ~q_out =
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
            let q' = Linalg.Vec.create n in
            match
              Dc.newton_dynamic ~opts:opts.newton ?cancel ?obs ws ~time:t_sub
                ~alpha:(1.0 /. hs) ~q_prev:q ~qdot_term:zeros ~initial:v
                ~q_out:q' ()
            with
            | exception Dc.No_convergence _ -> None
            | v', it -> substeps (i + 1) q' v' (iters + it)
        in
        match substeps 0 !q_prev !v_prev 0 with
        | Some (v, q, iters) ->
            Obs.warn obs ~stage:"engine.tran"
              (Printf.sprintf
                 "step at t=%.6e recovered as %d backward-Euler substeps" time
                 m);
            Array.blit q 0 q_out 0 n;
            Some (v, iters)
        | None -> attempt (j + 1)
      end
    in
    attempt 1
  in
  (* A step's retreat paths and its telemetry run only when they are
     needed: the closures, argument lists and messages they build are
     made here once or on the failing path, so a step that converges
     allocates only its Newton solution and a few words of results. *)
  let diverge time =
    raise
      (Dc.No_convergence
         (Printf.sprintf "injected Newton divergence at t=%.6e" time))
  in
  (* retreat to backward Euler for the step to [time] *)
  let be_retry ~time ~h ~q_prev_k ~q_new =
    incr fallback_count;
    Obs.count obs "tran.be_fallbacks" 1;
    Obs.warn obs ~stage:"engine.tran"
      (Printf.sprintf
         "trapezoidal step at t=%.6e retreated to backward Euler" time);
    if Fault.should_fire "tran.newton_diverge" then diverge time;
    Dc.newton_dynamic ~opts:opts.newton ?cancel ?obs ws ~time
      ~alpha:(1.0 /. h) ~q_prev:q_prev_k ~qdot_term:zeros ~initial:!v_prev
      ~q_out:q_new ()
  in
  let recover exn ~k ~time ~q_new =
    match halve_step ~t_prev:times.(k - 1) ~time ~q_out:q_new with
    | Some r -> r
    | None -> raise exn
  in
  (* [fell_back] records which integrator actually produced a step
     (backward Euler, whole or in substeps), so the qdot update can use
     the matching formula *)
  let fell_back = ref false in
  let step k =
    Cancel.check cancel ~site:"tran.step";
    if Fault.should_fire "tran.stall" then Cancel.hang cancel ~site:"tran.step";
    let time = Float.min (float_of_int k *. dt) t_stop in
    let h = time -. times.(k - 1) in
    let trapezoidal = opts.integration = Trapezoidal in
    let q_prev_k = !q_prev and q_new = !q_next in
    fell_back := false;
    let v, iters =
      try
        if Fault.should_fire "tran.newton_diverge" then diverge time;
        Dc.newton_dynamic ~opts:opts.newton ?cancel ?obs ws ~time
          ~alpha:(if trapezoidal then 2.0 /. h else 1.0 /. h)
          ~q_prev:q_prev_k
          ~qdot_term:(if trapezoidal then !qdot_prev else zeros)
          ~initial:!v_prev ~q_out:q_new ()
      with
      | Dc.No_convergence _ when trapezoidal -> (
          fell_back := true;
          try be_retry ~time ~h ~q_prev_k ~q_new
          with Dc.No_convergence _ as e -> recover e ~k ~time ~q_new)
      | Dc.No_convergence _ as e ->
          fell_back := true;
          recover e ~k ~time ~q_new
    in
    newton_count := !newton_count + iters;
    if Option.is_some obs then begin
      Obs.add_args obs
        [ ("iters", Trace.Int iters); ("be_fallback", Trace.Bool !fell_back) ];
      Obs.observe obs "tran.newton_iters_per_step" (float_of_int iters)
    end;
    (* the derivative estimate must match the integrator that actually
       produced the step: applying the trapezoidal formula to a
       backward-Euler step would feed a persistent qdot error into
       every subsequent trapezoidal step *)
    let qdot_p = !qdot_prev and qdot_new = !qdot_next in
    if !fell_back || not trapezoidal then
      for j = 0 to n - 1 do
        qdot_new.(j) <- (q_new.(j) -. q_prev_k.(j)) /. h
      done
    else
      for j = 0 to n - 1 do
        qdot_new.(j) <- ((2.0 /. h) *. (q_new.(j) -. q_prev_k.(j))) -. qdot_p.(j)
      done;
    times.(k) <- time;
    (* the Newton solution is already a private copy *)
    states.(k) <- v;
    record_output k v;
    if opts.snapshot_every > 0 && k mod opts.snapshot_every = 0 then
      take_snapshot mna snapshots time v;
    q_prev := q_new;
    q_next := q_prev_k;
    qdot_prev := qdot_new;
    qdot_next := qdot_p;
    v_prev := v
  in
  for k = 1 to steps do
    match obs with
    | None -> step k
    | Some _ ->
        Obs.span obs ~args:[ ("k", Trace.Int k) ] "tran.step" (fun () -> step k)
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
  (* double-buffered q and q̇ as in [run]; [dvdt] holds the predictor's
     slope *)
  let q_prev = ref q0 and q_next = ref (Linalg.Vec.create n) in
  let qdot_prev = ref (Linalg.Vec.create n)
  and qdot_next = ref (Linalg.Vec.create n) in
  let dvdt = Linalg.Vec.create n in
  let v_prev = ref v0 in
  let t_now = ref 0.0 in
  let h = ref dt in
  let accepted = ref 0 in
  while !t_now < t_stop -. 1e-15 *. t_stop do
    Cancel.check cancel ~site:"tran.step";
    if Fault.should_fire "tran.stall" then Cancel.hang cancel ~site:"tran.step";
    let h_try = Float.min !h (t_stop -. !t_now) in
    let time = !t_now +. h_try in
    let q_new = !q_next in
    let step_ok, v_new =
      try
        let v, iters =
          Dc.newton_dynamic ~opts:opts.newton ?cancel ?obs ws ~time
            ~alpha:(2.0 /. h_try) ~q_prev:!q_prev ~qdot_term:!qdot_prev
            ~initial:!v_prev ~q_out:q_new ()
        in
        newton_count := !newton_count + iters;
        Obs.observe obs "tran.newton_iters_per_step" (float_of_int iters);
        (true, v)
      with Dc.No_convergence _ -> (false, !v_prev)
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
      (match (!times, !states) with
      | t1 :: t2 :: _, v1 :: v2 :: _ ->
          let hp = t1 -. t2 in
          for i = 0 to n - 1 do
            dvdt.(i) <- (v1.(i) -. v2.(i)) /. hp
          done
      | _ -> Array.fill dvdt 0 n 0.0);
      let err = ref 0.0 and vp = !v_prev in
      for i = 0 to n - 1 do
        let vi = v_new.(i) in
        let pred = vp.(i) +. (h_try *. dvdt.(i)) in
        let scale =
          abstol +. (reltol *. Float.max (Float.abs vi) (Float.abs vp.(i)))
        in
        err := Float.max !err (Float.abs (vi -. pred) /. scale)
      done;
      if !err > 2.0 && h_try > dt_min *. 1.0000001 then begin
        (* reject: shrink *)
        incr rejections;
        Obs.count obs "tran.step_rejections" 1;
        h := Float.max dt_min (h_try *. Float.max 0.2 (0.9 /. sqrt !err))
      end
      else begin
        (* accept *)
        let q_p = !q_prev and qdot_p = !qdot_prev and qdot_new = !qdot_next in
        for j = 0 to n - 1 do
          qdot_new.(j) <- ((2.0 /. h_try) *. (q_new.(j) -. q_p.(j))) -. qdot_p.(j)
        done;
        t_now := time;
        times := time :: !times;
        (* the Newton solution is already a private copy *)
        states := v_new :: !states;
        outputs := Mna.output_values mna v_new :: !outputs;
        incr accepted;
        if opts.snapshot_every > 0 && !accepted mod opts.snapshot_every = 0 then
          take_snapshot mna snapshots time v_new;
        q_prev := q_new;
        q_next := q_p;
        qdot_prev := qdot_new;
        qdot_next := qdot_p;
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
