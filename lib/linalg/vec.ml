type t = float array

let create n = Array.make n 0.0
let copy = Array.copy

let check_dims a b =
  if Array.length a <> Array.length b then invalid_arg "Vec: dimension mismatch"

let add a b =
  check_dims a b;
  Array.mapi (fun k x -> x +. b.(k)) a

let sub a b =
  check_dims a b;
  Array.mapi (fun k x -> x -. b.(k)) a

let axpy a x y =
  check_dims x y;
  for k = 0 to Array.length x - 1 do
    y.(k) <- (a *. x.(k)) +. y.(k)
  done

let dot a b =
  check_dims a b;
  let acc = ref 0.0 in
  for k = 0 to Array.length a - 1 do
    acc := !acc +. (a.(k) *. b.(k))
  done;
  !acc

let norm2 a = sqrt (dot a a)

(* a loop over a float ref, not a fold: the fold's closure boxes a float
   per element. [Float.max] keeps a NaN entry in the result. *)
let norm_inf a =
  let m = ref 0.0 in
  for k = 0 to Array.length a - 1 do
    m := Float.max !m (Float.abs a.(k))
  done;
  !m

let dist_inf a b = norm_inf (sub a b)

let approx_equal ?(tol = 1e-9) a b =
  Array.length a = Array.length b && dist_inf a b <= tol
