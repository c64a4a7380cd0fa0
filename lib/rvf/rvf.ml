module Ratfn = Ratfn
module Assemble = Assemble
module Recursion = Recursion

type config = {
  eps : float;
  freq_opts : Vf.Vfit.opts;
  state_opts : Vf.Vfit.opts;
  freq_start : int;
  freq_step : int;
  max_freq_poles : int;
  state_start : int;
  state_step : int;
  max_state_poles : int;
  include_dc_point : bool;
  min_imag_fraction : float;
}

let default_config =
  {
    eps = 1e-3;
    freq_opts = Vf.Vfit.default_frequency_opts;
    state_opts = Vf.Vfit.default_state_opts;
    freq_start = 2;
    freq_step = 2;
    max_freq_poles = 24;
    state_start = 2;
    state_step = 2;
    max_state_poles = 24;
    include_dc_point = true;
    min_imag_fraction = 0.02;
  }

type result = {
  model : Hammerstein.Hmodel.t;
  freq_model : Vf.Model.t;
  freq_info : Vf.Vfit.info;
  residue_model : Vf.Model.t;
  residue_info : Vf.Vfit.info;
  static_model : Vf.Model.t;
  static_info : Vf.Vfit.info;
  x_range : float * float;
  x0 : float;
  y0 : float;
  has_const : bool;
  build_seconds : float;
}

let src = Logs.Src.create "rvf" ~doc:"recursive vector fitting"

module Log = (val Logs.src_log src : Logs.LOG)

let rms_of_rows rows =
  let acc = ref 0.0 and count = ref 0 in
  Array.iter
    (Array.iter (fun z ->
         acc := !acc +. Complex.norm2 z;
         incr count))
    rows;
  sqrt (!acc /. float_of_int (Stdlib.max 1 !count))

type freq_stage = {
  fs_model : Vf.Model.t;
  fs_info : Vf.Vfit.info;
  xs : float array;
  x_lo : float;
  x_hi : float;
  x0 : float;
  y0 : float;
  dc : float array;
}

let frequency_stage ?(config = default_config) ?cancel ?obs ?pool
    ~dataset ~input ~output () =
  let samples = dataset.Tft.Dataset.samples in
  if Array.length samples < 4 then begin
    Obs.error obs ~stage:"rvf.freq"
      (Printf.sprintf "need at least 4 trajectory samples, got %d"
         (Array.length samples));
    invalid_arg "Rvf.extract: need at least 4 trajectory samples"
  end;
  if Array.length samples.(0).Tft.Dataset.x <> 1 then
    invalid_arg
      "Rvf.extract: state estimator must be one-dimensional (use Recursion for \
       gridded multivariate fitting)";
  let dyn = Tft.Dataset.dynamic_part dataset in
  let _, dyn_data = Tft.Dataset.siso dyn ~input ~output in
  let freqs = dataset.Tft.Dataset.freqs_hz in
  let points_f = Array.map Signal.Grid.s_of_hz freqs in
  let points_f, dyn_data =
    if config.include_dc_point then
      ( Array.append [| Complex.zero |] points_f,
        Array.map (fun row -> Array.append [| Complex.zero |] row) dyn_data )
    else (points_f, dyn_data)
  in
  (* --- frequency stage: common poles across all trajectory samples --- *)
  let f_min = Array.fold_left Float.min Float.infinity freqs in
  let f_max = Array.fold_left Float.max 0.0 freqs in
  (* initial poles spread over the band where the dynamic data has energy;
     poles seeded decades below the first dynamics stall the relocation *)
  let f_active =
    let offset = if config.include_dc_point then 1 else 0 in
    let amp l =
      Array.fold_left
        (fun m row -> Float.max m (Complex.norm row.(l + offset)))
        0.0 dyn_data
    in
    let peak = ref 0.0 in
    Array.iteri (fun l _ -> peak := Float.max !peak (amp l)) freqs;
    let first = ref f_max in
    Array.iteri
      (fun l f -> if amp l >= 0.02 *. !peak && f < !first then first := f)
      freqs;
    Float.max f_min (Float.min (!first /. 4.0) (f_max /. 100.0))
  in
  Log.info (fun m -> m "active band: %.3e .. %.3e Hz" f_active f_max);
  let make_freq_poles count =
    Vf.Pole.initial_frequency ~f_min:f_active ~f_max ~count
  in
  let freq_scale = Float.max (rms_of_rows dyn_data) 1e-300 in
  let freq_opts =
    {
      config.freq_opts with
      Vf.Vfit.max_magnitude = 100.0 *. 2.0 *. Float.pi *. f_max;
    }
  in
  let freq_model, freq_info =
    Obs.stage obs "rvf.frequency_stage" (fun () ->
        Vf.Vfit.fit_auto ~opts:freq_opts ?cancel ?obs ?pool
          ~label:"vf.freq" ~make_poles:make_freq_poles ~start:config.freq_start
          ~step:config.freq_step ~max_poles:config.max_freq_poles
          ~tol:(config.eps *. freq_scale) ~points:points_f ~data:dyn_data ())
  in
  Log.info (fun m ->
      m "frequency stage: %d poles, rms %.3e (scale %.3e)"
        freq_info.Vf.Vfit.pole_count freq_info.Vf.Vfit.rms freq_scale);
  let xs = Array.map (fun (s : Tft.Dataset.sample) -> s.Tft.Dataset.x.(0)) samples in
  let x_lo = Array.fold_left Float.min Float.infinity xs in
  let x_hi = Array.fold_left Float.max Float.neg_infinity xs in
  if x_hi <= x_lo then invalid_arg "Rvf.extract: degenerate state range";
  {
    fs_model = freq_model;
    fs_info = freq_info;
    xs;
    x_lo;
    x_hi;
    x0 = samples.(0).Tft.Dataset.x.(0);
    y0 = samples.(0).Tft.Dataset.y.(output);
    dc = Tft.Dataset.dc_trace dataset ~input ~output;
  }

(* Deterministic Hammerstein reassembly from the three fitted VF models.
   Pure in its arguments, so a resume that deserializes the models from a
   checkpoint rebuilds the identical analytical model the original run
   assembled. *)
let assemble_model ~freq_model ~residue_model ~static_model ~has_const ~x0 ~y0 =
  let p = Vf.Model.n_poles freq_model in
  let stage_fn pi =
    Ratfn.to_static_fn
      (Ratfn.set_value (Ratfn.of_model residue_model ~elem:pi) ~at:x0 ~value:0.0)
  in
  let static_base =
    Ratfn.to_static_fn
      (Ratfn.set_value (Ratfn.of_model static_model ~elem:0) ~at:x0 ~value:y0)
  in
  let static_path =
    if has_const then
      (* direct-feedthrough path: ∫ d(x) du joins the static nonlinearity *)
      Hammerstein.Static_fn.add static_base (stage_fn p)
    else static_base
  in
  Assemble.hammerstein ~name:"rvf" ~freq_poles:freq_model.Vf.Model.poles
    ~stage:stage_fn ~static_path

let extract ?(config = default_config) ?cancel ?metrics ?obs ?pool
    ~dataset ~input ~output () =
  let t_start = Clock.now () in
  let obs =
    if Option.is_none obs then Option.map Obs.of_metrics metrics else obs
  in
  let stage =
    frequency_stage ~config ?cancel ?obs ?pool ~dataset ~input ~output ()
  in
  let freq_model = stage.fs_model and freq_info = stage.fs_info in
  let xs = stage.xs and x_lo = stage.x_lo and x_hi = stage.x_hi in
  (* --- state stage: fit every residue coefficient trace over x --- *)
  let points_x = Array.map (fun x -> { Complex.re = x; im = 0.0 }) xs in
  let p = Vf.Model.n_poles freq_model in
  (* trace p..(p) is the per-sample constant term d(x) when the frequency
     stage used one; its integral joins the static path below *)
  let has_const = config.freq_opts.Vf.Vfit.with_const in
  let n_traces = p + if has_const then 1 else 0 in
  (* each trace is normalized to unit RMS for the fit (traces of wildly
     different magnitudes would otherwise dominate the common-pole
     search), then the fitted coefficients are unscaled *)
  let raw_trace pi =
    Array.init (Array.length xs) (fun k ->
        if pi < p then freq_model.Vf.Model.coeffs.(k).(pi)
        else freq_model.Vf.Model.consts.(k))
  in
  let trace_scales =
    Array.init n_traces (fun pi ->
        let t = raw_trace pi in
        let rms =
          sqrt
            (Array.fold_left (fun s v -> s +. (v *. v)) 0.0 t
            /. float_of_int (Array.length t))
        in
        Float.max rms 1e-300)
  in
  let trace_data =
    Array.init n_traces (fun pi ->
        let t = raw_trace pi in
        Array.map (fun v -> { Complex.re = v /. trace_scales.(pi); im = 0.0 }) t)
  in
  (* one probe invocation per extraction: an armed burst of k makes k
     consecutive extract calls fail here, which walks the pipeline's
     escalation ladder rung by rung *)
  if
    Fault.should_fire "rvf.trace_nan"
    && n_traces > 0
    && Array.length trace_data.(0) > 0
  then trace_data.(0).(0) <- { Complex.re = Float.nan; im = 0.0 };
  Array.iteri
    (fun pi t ->
      if not (Guard.finite_complex_array t) then
        Guard.fail ~site:"rvf.trace"
          (Printf.sprintf "non-finite residue coefficient trace %d" pi))
    trace_data;
  let min_imag = config.min_imag_fraction *. (x_hi -. x_lo) in
  let state_opts =
    {
      config.state_opts with
      Vf.Vfit.min_imag;
      (* a pole pair far outside the hull is nearly affine over it, and
         the fit cancels it against the affine term with huge
         coefficients that leave only rounding noise *)
      max_magnitude = 100.0 *. Float.max (Float.abs x_lo) (Float.abs x_hi);
    }
  in
  let make_state_poles count = Vf.Pole.initial_real_axis ~lo:x_lo ~hi:x_hi ~count in
  let residue_model, residue_info =
    Obs.stage obs "rvf.state_stage" (fun () ->
        Vf.Vfit.fit_auto ~opts:state_opts ?cancel ?obs ?pool
          ~label:"vf.state" ~make_poles:make_state_poles
          ~start:config.state_start ~step:config.state_step
          ~max_poles:config.max_state_poles ~tol:config.eps ~points:points_x
          ~data:trace_data ())
  in
  (* per-trace fit quality: one RMS per residue trajectory, so a single
     badly-fitted trace is visible even when the pooled RMS looks fine *)
  (match obs with
  | None -> ()
  | Some _ ->
      for pi = 0 to n_traces - 1 do
        let acc = ref 0.0 in
        Array.iteri
          (fun l z ->
            let err = Complex.sub (Vf.Model.eval residue_model ~elem:pi z)
                        trace_data.(pi).(l) in
            acc := !acc +. Complex.norm2 err)
          points_x;
        let rms = sqrt (!acc /. float_of_int (Array.length points_x)) in
        Obs.observe obs "rvf.residue_trace_rms" rms
      done);
  let residue_model =
    {
      residue_model with
      Vf.Model.coeffs =
        Array.mapi
          (fun pi row -> Array.map (fun c -> c *. trace_scales.(pi)) row)
          residue_model.Vf.Model.coeffs;
      consts =
        Array.mapi
          (fun pi d -> d *. trace_scales.(pi))
          residue_model.Vf.Model.consts;
      slopes =
        Array.mapi
          (fun pi h -> h *. trace_scales.(pi))
          residue_model.Vf.Model.slopes;
    }
  in
  Log.info (fun m ->
      m "state stage: %d poles, normalized rms %.3e"
        residue_info.Vf.Vfit.pole_count residue_info.Vf.Vfit.rms);
  (* --- static stage: DC conductance trace H(x, 0) --- *)
  let static_data =
    [| Array.map (fun v -> { Complex.re = v; im = 0.0 }) stage.dc |]
  in
  if not (Guard.finite_complex_array static_data.(0)) then
    Guard.fail ~site:"rvf.static_trace" "non-finite DC conductance trace";
  let static_scale = Float.max (rms_of_rows static_data) 1e-300 in
  let static_model, static_info =
    Obs.stage obs "rvf.static_stage" (fun () ->
        Vf.Vfit.fit_auto ~opts:state_opts ?cancel ?obs ?pool
          ~label:"vf.static" ~make_poles:make_state_poles
          ~start:config.state_start ~step:config.state_step
          ~max_poles:config.max_state_poles ~tol:(config.eps *. static_scale)
          ~points:points_x ~data:static_data ())
  in
  (* --- integration and Hammerstein assembly --- *)
  let x0 = stage.x0 and y0 = stage.y0 in
  let model =
    assemble_model ~freq_model ~residue_model ~static_model ~has_const ~x0 ~y0
  in
  Obs.note obs "rvf.freq_poles" (string_of_int freq_info.Vf.Vfit.pole_count);
  Obs.note obs "rvf.state_poles"
    (string_of_int residue_info.Vf.Vfit.pole_count);
  Obs.note obs "rvf.static_poles"
    (string_of_int static_info.Vf.Vfit.pole_count);
  {
    model;
    freq_model;
    freq_info;
    residue_model;
    residue_info;
    static_model;
    static_info;
    x_range = (x_lo, x_hi);
    x0;
    y0;
    has_const;
    build_seconds = Clock.now () -. t_start;
  }
