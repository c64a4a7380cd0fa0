type t = {
  x_poles : Complex.t array;
  inner : Vf.Model.t;  (** elements: one per x-basis slot, then the d(y) trace *)
  inner_scales : float array;  (** per-trace normalization undone at eval *)
}

let x_pole_count t = Array.length t.x_poles
let y_pole_count t = Vf.Model.n_poles t.inner

let state_opts_for ~lo ~hi =
  {
    Vf.Vfit.default_state_opts with
    Vf.Vfit.min_imag = 0.02 *. (hi -. lo);
  }

let fit_traces ?cancel ?obs ?(label = "recursion") ~eps ~max_poles ~points
    ~traces ~lo ~hi () =
  (* normalize each trace to unit rms, fit with common poles, unscale *)
  let scales =
    Array.map
      (fun row ->
        let rms =
          sqrt
            (Array.fold_left (fun s v -> s +. (v *. v)) 0.0 row
            /. float_of_int (Array.length row))
        in
        Float.max rms 1e-300)
      traces
  in
  let data =
    Array.mapi
      (fun e row ->
        Array.map (fun v -> { Complex.re = v /. scales.(e); im = 0.0 }) row)
      traces
  in
  let opts = state_opts_for ~lo ~hi in
  let make_poles count = Vf.Pole.initial_real_axis ~lo ~hi ~count in
  let model, info =
    Vf.Vfit.fit_auto ~opts ?cancel ?obs ~label ~make_poles ~start:2 ~step:2
      ~max_poles ~tol:eps ~points ~data ()
  in
  (model, scales, info)

let fit ?(eps = 1e-3) ?(max_x_poles = 20) ?(max_y_poles = 20) ?cancel ?obs ~xs
    ~ys ~data () =
  let nx = Array.length xs and ny = Array.length ys in
  if Array.length data <> nx then invalid_arg "Recursion.fit: data rows <> xs";
  Array.iter
    (fun row -> if Array.length row <> ny then invalid_arg "Recursion.fit: ragged data")
    data;
  let x_lo = Array.fold_left Float.min Float.infinity xs in
  let x_hi = Array.fold_left Float.max Float.neg_infinity xs in
  let y_lo = Array.fold_left Float.min Float.infinity ys in
  let y_hi = Array.fold_left Float.max Float.neg_infinity ys in
  if x_hi <= x_lo || y_hi <= y_lo then
    invalid_arg "Recursion.fit: degenerate grid";
  (* stage 1: fit along x, one element per y grid line, common x-poles *)
  let points_x = Array.map (fun x -> { Complex.re = x; im = 0.0 }) xs in
  let columns =
    Array.init ny (fun j -> Array.init nx (fun i -> data.(i).(j)))
  in
  let x_model, x_scales, _ =
    Obs.stage obs "recursion.x_stage" (fun () ->
        fit_traces ?cancel ?obs ~label:"recursion.x" ~eps ~max_poles:max_x_poles
          ~points:points_x ~traces:columns ~lo:x_lo ~hi:x_hi ())
  in
  let p = Vf.Model.n_poles x_model in
  (* stage 2: every x-coefficient (and the constant) becomes a trace in y *)
  let points_y = Array.map (fun y -> { Complex.re = y; im = 0.0 }) ys in
  let traces =
    Array.init (p + 1) (fun slot ->
        Array.init ny (fun j ->
            let unscale = x_scales.(j) in
            if slot < p then x_model.Vf.Model.coeffs.(j).(slot) *. unscale
            else x_model.Vf.Model.consts.(j) *. unscale))
  in
  let inner, inner_scales, _ =
    Obs.stage obs "recursion.y_stage" (fun () ->
        fit_traces ?cancel ?obs ~label:"recursion.y" ~eps ~max_poles:max_y_poles
          ~points:points_y ~traces ~lo:y_lo ~hi:y_hi ())
  in
  Obs.note obs "recursion.depth" "2";
  Obs.note obs "recursion.x_poles" (string_of_int p);
  Obs.note obs "recursion.y_poles" (string_of_int (Vf.Model.n_poles inner));
  { x_poles = x_model.Vf.Model.poles; inner; inner_scales }

let coeff_at t ~slot ~y =
  t.inner_scales.(slot) *. Vf.Model.eval_real t.inner ~elem:slot y

let eval t ~x ~y =
  let p = Array.length t.x_poles in
  let phi = Vf.Basis.row t.x_poles { Complex.re = x; im = 0.0 } in
  let acc = ref (coeff_at t ~slot:p ~y) in
  for slot = 0 to p - 1 do
    acc := !acc +. (coeff_at t ~slot ~y *. phi.(slot).Complex.re)
  done;
  !acc

let rms_error t ~xs ~ys ~data =
  let acc = ref 0.0 and count = ref 0 in
  Array.iteri
    (fun i x ->
      Array.iteri
        (fun j y ->
          let d = eval t ~x ~y -. data.(i).(j) in
          acc := !acc +. (d *. d);
          incr count)
        ys)
    xs;
  sqrt (!acc /. float_of_int (Stdlib.max 1 !count))

(* antiderivative of the x-basis pair (slots k, k+1) between x0 and x *)
let pair_integral ~beta ~alpha ~c1 ~c2 ~x0 ~x =
  let part z =
    let dz = z -. beta in
    (c1 *. log ((dz *. dz) +. (alpha *. alpha)))
    -. (2.0 *. c2 *. atan (dz /. alpha))
  in
  part x -. part x0

let integral_x t ~x0 ~x ~y =
  let p = Array.length t.x_poles in
  let acc = ref (coeff_at t ~slot:p ~y *. (x -. x0)) in
  List.iter
    (fun slot ->
      match slot with
      | Vf.Pole.Single k ->
          (* real x-poles are excluded by min_imag in [fit]; if a caller
             built a model by hand with one, integrate as ln|x−a| *)
          let a = t.x_poles.(k).Complex.re in
          acc :=
            !acc
            +. coeff_at t ~slot:k ~y
               *. (log (Float.abs (x -. a)) -. log (Float.abs (x0 -. a)))
      | Vf.Pole.Pair_first k ->
          let pole = t.x_poles.(k) in
          acc :=
            !acc
            +. pair_integral ~beta:pole.Complex.re
                 ~alpha:(Float.abs pole.Complex.im)
                 ~c1:(coeff_at t ~slot:k ~y)
                 ~c2:(coeff_at t ~slot:(k + 1) ~y)
                 ~x0 ~x)
    (Vf.Pole.structure t.x_poles);
  !acc
