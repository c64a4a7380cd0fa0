type t = {
  poles : Complex.t array;
  coeffs : float array array;
  consts : float array;
  slopes : float array;
}

let n_elements t = Array.length t.coeffs
let n_poles t = Array.length t.poles

(* [d + h·z + Σ c·φ] with the basis row [phi] of [z] given *)
let eval_row t ~elem z phi =
  let acc = ref { Complex.re = t.consts.(elem); im = 0.0 } in
  acc := Complex.add !acc (Complex.mul { Complex.re = t.slopes.(elem); im = 0.0 } z);
  Array.iteri
    (fun p c ->
      if c <> 0.0 then
        acc := Complex.add !acc { Complex.re = c *. phi.(p).Complex.re;
                                  im = c *. phi.(p).Complex.im })
    t.coeffs.(elem);
  !acc

let eval t ~elem z = eval_row t ~elem z (Basis.row t.poles z)

let eval_real t ~elem x = (eval t ~elem { Complex.re = x; im = 0.0 }).Complex.re

let residues t ~elem = Basis.residues_of_coeffs t.poles t.coeffs.(elem)

(* the basis is evaluated once per point and shared by the elements *)
let errors t ~points ~data =
  let e = n_elements t in
  if Array.length data <> e then invalid_arg "Model.errors: element count mismatch";
  let phi = Basis.table t.poles points in
  let sum2 = ref 0.0 and count = ref 0 and worst = ref 0.0 in
  for el = 0 to e - 1 do
    Array.iteri
      (fun l z ->
        let d =
          Complex.norm (Complex.sub (eval_row t ~elem:el z phi.(l)) data.(el).(l))
        in
        sum2 := !sum2 +. (d *. d);
        worst := Float.max !worst d;
        incr count)
      points
  done;
  (sqrt (!sum2 /. float_of_int (Stdlib.max 1 !count)), !worst)
