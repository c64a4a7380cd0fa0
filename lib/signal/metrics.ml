let db_floor = -400.0

let db20 x = if x = 0.0 then db_floor else 20.0 *. log10 (Float.abs x)

let check a b =
  if Array.length a <> Array.length b || Array.length a = 0 then
    invalid_arg "Metrics: need equal nonempty arrays"

let rmse a b =
  check a b;
  let n = Array.length a in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    let d = a.(k) -. b.(k) in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int n)

let max_abs_err a b =
  check a b;
  let best = ref 0.0 in
  for k = 0 to Array.length a - 1 do
    best := Float.max !best (Float.abs (a.(k) -. b.(k)))
  done;
  !best

let mean a =
  if Array.length a = 0 then invalid_arg "Metrics.mean: empty";
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let relative_rmse ~reference a =
  check reference a;
  let rms_ref =
    sqrt
      (Array.fold_left (fun s x -> s +. (x *. x)) 0.0 reference
      /. float_of_int (Array.length reference))
  in
  if rms_ref = 0.0 then rmse reference a else rmse reference a /. rms_ref
