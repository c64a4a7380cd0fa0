type pair_term = { beta : float; alpha : float; c1 : float; c2 : float }

type t = { pairs : pair_term array; const : float; offset : float }

exception Not_integrable of string

let of_model (m : Vf.Model.t) ~elem =
  let coeffs = m.Vf.Model.coeffs.(elem) in
  (* a NaN compares unequal to 0, so the structural tests below would
     misreport a corrupt element as a slope term or a real pole. A plain
     loop over the unboxed floats: the check allocates nothing *)
  let finite =
    ref
      (Float.is_finite m.Vf.Model.slopes.(elem)
      && Float.is_finite m.Vf.Model.consts.(elem))
  in
  for k = 0 to Array.length coeffs - 1 do
    if not (Float.is_finite coeffs.(k)) then finite := false
  done;
  if not !finite then
    Guard.fail ~site:"rvf.ratfn" "non-finite model coefficients";
  if m.Vf.Model.slopes.(elem) <> 0.0 then
    raise (Not_integrable "model has a linear slope term");
  let pairs = ref [] in
  List.iter
    (fun slot ->
      match slot with
      | Vf.Pole.Single k ->
          if coeffs.(k) <> 0.0 then
            raise
              (Not_integrable
                 (Printf.sprintf "real pole %g on the state axis"
                    m.Vf.Model.poles.(k).Complex.re))
      | Vf.Pole.Pair_first k ->
          let a = m.Vf.Model.poles.(k) in
          pairs :=
            {
              beta = a.Complex.re;
              alpha = Float.abs a.Complex.im;
              c1 = coeffs.(k);
              c2 = coeffs.(k + 1);
            }
            :: !pairs)
    (Vf.Pole.structure m.Vf.Model.poles);
  {
    pairs = Array.of_list (List.rev !pairs);
    const = m.Vf.Model.consts.(elem);
    offset = 0.0;
  }

let deriv t x =
  let acc = ref t.const in
  Array.iter
    (fun { beta; alpha; c1; c2 } ->
      let dx = x -. beta in
      let den = (dx *. dx) +. (alpha *. alpha) in
      acc := !acc +. (((2.0 *. c1 *. dx) -. (2.0 *. c2 *. alpha)) /. den))
    t.pairs;
  !acc

(* the offset is added last, so [set_value ~at ~value:0.0] makes the
   function vanish at [at] exactly: the sum of the terms there cancels
   against its own negation, however large the terms are *)
let eval t x =
  let acc = ref (t.const *. x) in
  Array.iter
    (fun { beta; alpha; c1; c2 } ->
      let dx = x -. beta in
      let den = (dx *. dx) +. (alpha *. alpha) in
      acc :=
        !acc +. (c1 *. log den) -. (2.0 *. c2 *. atan (dx /. alpha)))
    t.pairs;
  !acc +. t.offset

let set_value t ~at ~value =
  let terms = eval { t with offset = 0.0 } at in
  { t with offset = value -. terms }

let formula t =
  let buf = Buffer.create 256 in
  let first = ref true in
  let plus () =
    if !first then first := false else Buffer.add_string buf " + "
  in
  if t.offset <> 0.0 || Array.length t.pairs = 0 then begin
    plus ();
    Printf.bprintf buf "%.6g" t.offset
  end;
  if t.const <> 0.0 then begin
    plus ();
    Printf.bprintf buf "%.6g*x" t.const
  end;
  Array.iter
    (fun { beta; alpha; c1; c2 } ->
      if c1 <> 0.0 then begin
        plus ();
        Printf.bprintf buf "%.6g*ln((x%+.6g)^2 + %.6g)" c1 (-.beta)
          (alpha *. alpha)
      end;
      if c2 <> 0.0 then begin
        plus ();
        Printf.bprintf buf "%.6g*atan((x%+.6g)/%.6g)" (-2.0 *. c2) (-.beta) alpha
      end)
    t.pairs;
  Buffer.contents buf

let to_static_fn t =
  Hammerstein.Static_fn.make ~analytic:true ~formula:(formula t) ~eval:(eval t)
    ~deriv:(deriv t) ()
