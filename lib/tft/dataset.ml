type sample = {
  time : float;
  x : float array;
  u : float array;
  y : float array;
  h : Linalg.Cmat.t array;
  h0 : Linalg.Cmat.t;
}

type t = {
  freqs_hz : float array;
  samples : sample array;
  n_inputs : int;
  n_outputs : int;
}

let finite_cmat m =
  let ok = ref true in
  for r = 0 to Linalg.Cmat.rows m - 1 do
    for c = 0 to Linalg.Cmat.cols m - 1 do
      let z = Linalg.Cmat.get m r c in
      if not (Float.is_finite z.Complex.re && Float.is_finite z.Complex.im)
      then ok := false
    done
  done;
  !ok

let sample_finite s =
  Guard.finite_array s.x && Guard.finite_array s.u && Guard.finite_array s.y
  && finite_cmat s.h0
  && Array.for_all finite_cmat s.h

(* elementwise (1-w)·a + w·b, the neighbor-interpolation repair *)
let lerp_cmat a b w =
  Linalg.Cmat.init (Linalg.Cmat.rows a) (Linalg.Cmat.cols a) (fun r c ->
      let za = Linalg.Cmat.get a r c and zb = Linalg.Cmat.get b r c in
      {
        Complex.re = ((1.0 -. w) *. za.Complex.re) +. (w *. zb.Complex.re);
        im = ((1.0 -. w) *. za.Complex.im) +. (w *. zb.Complex.im);
      })

(* Snapshot quarantine: flag samples with non-finite transfer data and
   rebuild their H matrices from the nearest healthy neighbors
   (time-weighted linear interpolation, one-sided copy at the ends). A
   sample whose state/input/output coordinates are themselves corrupt
   cannot keep its place on the trajectory and is dropped. Raises when
   nothing is left to repair from. *)
let quarantine obs t =
  let n = Array.length t.samples in
  let bad = Array.map (fun s -> not (sample_finite s)) t.samples in
  let n_bad = Array.fold_left (fun a b -> if b then a + 1 else a) 0 bad in
  if n_bad = 0 then t
  else begin
    Obs.count obs "dataset.quarantined" n_bad;
    if n_bad = n then
      Guard.fail ~site:"dataset.quarantine" "every snapshot sample is corrupt";
    let repaired = ref 0 and dropped = ref 0 in
    let healthy_before i =
      let j = ref (i - 1) in
      while !j >= 0 && bad.(!j) do decr j done;
      if !j >= 0 then Some t.samples.(!j) else None
    in
    let healthy_after i =
      let j = ref (i + 1) in
      while !j < n && bad.(!j) do incr j done;
      if !j < n then Some t.samples.(!j) else None
    in
    let repair i s =
      if
        not
          (Guard.finite_array s.x && Guard.finite_array s.u
         && Guard.finite_array s.y)
      then None
      else begin
        match (healthy_before i, healthy_after i) with
        | None, None -> None
        | Some a, None -> Some { s with h = a.h; h0 = a.h0 }
        | None, Some b -> Some { s with h = b.h; h0 = b.h0 }
        | Some a, Some b ->
            let span = b.time -. a.time in
            let w = if span <= 0.0 then 0.5 else (s.time -. a.time) /. span in
            Some
              {
                s with
                h = Array.map2 (fun ha hb -> lerp_cmat ha hb w) a.h b.h;
                h0 = lerp_cmat a.h0 b.h0 w;
              }
      end
    in
    let kept = ref [] in
    Array.iteri
      (fun i s ->
        if not bad.(i) then kept := s :: !kept
        else
          match repair i s with
          | Some s' ->
              incr repaired;
              kept := s' :: !kept
          | None -> incr dropped)
      t.samples;
    Obs.count obs "dataset.repaired" !repaired;
    Obs.count obs "dataset.dropped" !dropped;
    Obs.warn obs ~stage:"tft.dataset"
      (Printf.sprintf
         "quarantined %d snapshot sample(s): %d repaired by interpolate, %d \
          dropped"
         n_bad !repaired !dropped);
    Obs.quarantine obs ~n_bad ~repaired:!repaired ~dropped:!dropped;
    { t with samples = Array.of_list (List.rev !kept) }
  end

(* per-chunk pencil-solve workspaces parked in the warm pool between
   calls; revalidated against the current (B, D) so one pool can serve
   successive escalation rungs and even different circuits *)
let ac_ws_key : Engine.Ac.ws Exec.key = Exec.new_key ()
let rk_ws_key : Engine.Ratkrylov.ws Exec.key = Exec.new_key ()

let of_snapshots ?pool ?cancel ?metrics ?obs
    ?(backend = Engine.Mna.Dense) ?sparse_ctx ~mna ~estimator ~freqs_hz
    snapshots =
  let obs =
    if Option.is_none obs then Option.map Obs.of_metrics metrics else obs
  in
  (* the fan-out lives in [Exec], below the hub, so it takes the
     collectors themselves *)
  let trace = Option.map (fun o -> Trace.main (Obs.tracer o)) obs
  and metrics = Option.map Obs.metrics obs in
  let b = Engine.Mna.b_matrix mna in
  let d = Engine.Mna.d_matrix mna in
  let mi = Linalg.Mat.cols b and mo = Linalg.Mat.cols d in
  if mi = 0 || mo = 0 then
    invalid_arg "Dataset.of_snapshots: system needs designated inputs and outputs";
  (* the estimator needs the input signal u(t); inputs are per-source *)
  let u_fun time = (Engine.Mna.input_values mna time).(0) in
  let ss = Array.map Signal.Grid.s_of_hz freqs_hz in
  (* fault pre-pass, sequential by construction: firing is decided per
     snapshot index before the fan-out, so the injected burst lands on
     the same snapshots for any domain count *)
  let corrupt =
    if Fault.armed () = Some "dataset.snapshot_burst" then
      Array.map (fun _ -> Fault.should_fire "dataset.snapshot_burst") snapshots
    else Array.make (Array.length snapshots) false
  in
  (* snapshots are independent: fan them out across the pool, one solve
     workspace per domain. Each sample depends only on its own snapshot,
     so the result is bit-identical to the sequential path. The
     finite checks run in the quarantine pass below, not in the workers,
     so corrupt samples are collected rather than racing to raise. *)
  let make_sample (snap : Engine.Tran.snapshot) i h h0 =
    if corrupt.(i) then
      Array.iter
        (fun hm ->
          Linalg.Cmat.set hm 0 0 { Complex.re = Float.nan; im = Float.nan })
        h;
    {
      time = snap.Engine.Tran.time;
      x = Estimator.coords estimator ~u:u_fun snap.Engine.Tran.time;
      u = Array.copy snap.Engine.Tran.inputs;
      y = Array.copy snap.Engine.Tran.outputs;
      h;
      h0;
    }
  in
  let samples =
    Obs.span obs
      ~args:[ ("snapshots", Trace.Int (Array.length snapshots)) ]
      "tft.dataset"
    @@ fun () ->
    match backend with
    | Engine.Mna.Dense ->
        (* one sweep call per snapshot: H(0) rides last on the grid and
           comes from the same factorization of G *)
        let l = Array.length ss in
        let ss_dc = Array.append ss [| Complex.zero |] in
        Exec.parallel_map_ws ?pool ?cancel ?trace ?metrics ~label:"tft"
          ~ws:(fun chunk ->
            match pool with
            | Some p ->
                Exec.slot p ac_ws_key ~chunk
                  ~valid:(fun w -> Engine.Ac.ws_matches w ~b ~d)
                  ~make:(fun () -> Engine.Ac.make_ws ~b ~d)
            | None -> Engine.Ac.make_ws ~b ~d)
          (fun ws ((i, snap) : int * Engine.Tran.snapshot) ->
            (* G_k and C_k stamped from the snapshot's state: the bits
               its step's last evaluation held *)
            let ev =
              Engine.Mna.eval mna ~time:snap.Engine.Tran.time
                snap.Engine.Tran.state
            in
            let g = Option.get ev.Engine.Mna.g_mat
            and c = Option.get ev.Engine.Mna.c_mat in
            let h = Engine.Ac.transfer_sweep ?cancel ?obs ws ~g ~c ~ss:ss_dc in
            make_sample snap i (Array.sub h 0 l) h.(l))
          (Array.mapi (fun i snap -> (i, snap)) snapshots)
    | Engine.Mna.Sparse ->
        (* The sequential pre-pass stamps G/C from each snapshot's
           converged state through the compiled pattern (bit-identical
           values — same accumulation order as the dense stamps) and
           keeps only the nnz-sized value arrays: the context is shared
           and refilled in place. Workers then run the rational-Krylov
           sweep on private views, so nothing shared is mutated during
           the fan-out. *)
        let ctx =
          match sparse_ctx with
          | Some c -> c
          | None -> Engine.Mna.sparse_ctx mna
        in
        let pat = Engine.Mna.sparse_pattern ctx in
        let per_snap =
          Array.map
            (fun (snap : Engine.Tran.snapshot) ->
              let sev =
                Engine.Mna.eval_sparse mna ctx ~time:snap.Engine.Tran.time
                  snap.Engine.Tran.state
              in
              ( Array.copy sev.Engine.Mna.sg.Linalg.Sp.v,
                Array.copy sev.Engine.Mna.sc.Linalg.Sp.v ))
            snapshots
        in
        (* an armed fault must fire at a deterministic point in the
           solve sequence, so injections force the sequential path *)
        let pool = if Fault.armed () = None then pool else None in
        let seq_ws = lazy (Engine.Ratkrylov.make_ws ~pat ~b ~d) in
        let ws_of chunk =
          match pool with
          | Some p ->
              Exec.slot p rk_ws_key ~chunk
                ~valid:(fun w -> Engine.Ratkrylov.ws_matches w ~pat ~b ~d)
                ~make:(fun () -> Engine.Ratkrylov.make_ws ~pat ~b ~d)
          | None -> Lazy.force seq_ws
        in
        let pencil i =
          let gv, cv = per_snap.(i) in
          ({ Linalg.Sp.pat; v = gv }, { Linalg.Sp.pat; v = cv })
        in
        (* the pilot basis, built from snapshot 0 before the fan-out on
           chunk 0's workspace and only read by the workers: every
           sample still depends on its own snapshot and this basis *)
        let basis =
          if Array.length snapshots = 0 then None
          else
            let g, c = pencil 0 in
            Some (Engine.Ratkrylov.pilot ?cancel ?obs (ws_of 0) ~g ~c ~ss)
        in
        Exec.parallel_map_ws ?pool ?cancel ?trace ?metrics ~label:"tft"
          ~ws:ws_of
          (fun ws ((i, snap) : int * Engine.Tran.snapshot) ->
            let g, c = pencil i in
            let h, _ =
              Engine.Ratkrylov.sweep ?cancel ?obs ?basis ws ~g ~c ~ss
            in
            let h0, _ =
              Engine.Ratkrylov.sweep ?cancel ?obs ws ~g ~c
                ~ss:[| Complex.zero |]
            in
            make_sample snap i h h0.(0))
          (Array.mapi (fun i snap -> (i, snap)) snapshots)
  in
  quarantine obs { freqs_hz; samples; n_inputs = mi; n_outputs = mo }

let dynamic_part t =
  let samples =
    Array.map
      (fun s ->
        let h =
          Array.map
            (fun hm ->
              Linalg.Cmat.init (Linalg.Cmat.rows hm) (Linalg.Cmat.cols hm)
                (fun r c ->
                  Complex.sub (Linalg.Cmat.get hm r c) (Linalg.Cmat.get s.h0 r c)))
            s.h
        in
        { s with h })
      t.samples
  in
  { t with samples }

let siso t ~input ~output =
  let xs = Array.map (fun s -> s.x) t.samples in
  let data =
    Array.map
      (fun s -> Array.map (fun hm -> Linalg.Cmat.get hm output input) s.h)
      t.samples
  in
  (xs, data)

let dc_trace t ~input ~output =
  Array.map (fun s -> (Linalg.Cmat.get s.h0 output input).Complex.re) t.samples

let thin t ~min_dx =
  let kept = ref [] in
  let close a b =
    let worst = ref 0.0 in
    Array.iteri (fun k x -> worst := Float.max !worst (Float.abs (x -. b.(k)))) a;
    !worst < min_dx
  in
  Array.iter
    (fun s ->
      if not (List.exists (fun k -> close s.x k.x) !kept) then kept := s :: !kept)
    t.samples;
  { t with samples = Array.of_list (List.rev !kept) }

let sort_by_x0 t =
  let samples = Array.copy t.samples in
  Array.sort (fun a b -> Float.compare a.x.(0) b.x.(0)) samples;
  { t with samples }
