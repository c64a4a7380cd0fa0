type factor =
  | Power of int
  | Exponential of float
  | Tanh of float * float
  | Gauss of float * float

type term = factor list

let factor_rank = function
  | Power _ -> 0
  | Exponential _ -> 1
  | Tanh _ -> 2
  | Gauss _ -> 3

let simplify term =
  let power = ref 0 and expc = ref 0.0 and others = ref [] in
  List.iter
    (fun f ->
      match f with
      | Power n -> power := !power + n
      | Exponential c -> expc := !expc +. c
      | Tanh _ | Gauss _ -> others := f :: !others)
    term;
  let base =
    (if !power > 0 then [ Power !power ] else [])
    @ if !expc <> 0.0 then [ Exponential !expc ] else []
  in
  base
  @ List.sort
      (fun a b -> compare (factor_rank a, a) (factor_rank b, b))
      (List.rev !others)

let eval_factor f x =
  match f with
  | Power n -> x ** float_of_int n
  | Exponential c -> exp (c *. x)
  | Tanh (a, b) -> tanh (a *. (x -. b))
  | Gauss (a, b) -> exp (-.a *. (x -. b) *. (x -. b))

let eval_term term x =
  List.fold_left (fun acc f -> acc *. eval_factor f x) 1.0 term

let complexity term = 1 + List.length term

let factor_to_string = function
  | Power 1 -> "x"
  | Power n -> Printf.sprintf "x^%d" n
  | Exponential c -> Printf.sprintf "exp(%.4g*x)" c
  | Tanh (a, b) -> Printf.sprintf "tanh(%.4g*(x%+.4g))" a (-.b)
  | Gauss (a, b) -> Printf.sprintf "exp(-%.4g*(x%+.4g)^2)" a (-.b)

let term_to_string = function
  | [] -> "1"
  | fs -> String.concat "*" (List.map factor_to_string fs)

(* ∫ x^n exp(cx) dx = exp(cx) · Σ_{k=0}^{n} (−1)^k · n!/(n−k)! · x^{n−k} / c^{k+1} *)
let poly_exp_integral n c =
  let coeffs =
    Array.init (n + 1) (fun k ->
        let rec falling acc j = if j = 0 then acc else falling (acc *. float_of_int (n - j + 1)) (j - 1) in
        let fall = falling 1.0 k in
        (if k mod 2 = 0 then 1.0 else -1.0) *. fall /. (c ** float_of_int (k + 1)))
  in
  fun x ->
    let s = ref 0.0 in
    for k = 0 to n do
      s := !s +. (coeffs.(k) *. (x ** float_of_int (n - k)))
    done;
    exp (c *. x) *. !s

let integrate_term term =
  match simplify term with
  | [] -> (Some (fun x -> x), "x")
  | [ Power n ] ->
      let e = float_of_int (n + 1) in
      ( Some (fun x -> (x ** e) /. e),
        Printf.sprintf "x^%d/%d" (n + 1) (n + 1) )
  | [ Exponential c ] ->
      (Some (fun x -> exp (c *. x) /. c), Printf.sprintf "exp(%.4g*x)/%.4g" c c)
  | [ Power n; Exponential c ] ->
      ( Some (poly_exp_integral n c),
        Printf.sprintf "exp(%.4g*x)*P_%d(x) (by parts)" c n )
  | [ Tanh (a, b) ] ->
      (* overflow-safe ln cosh z = |z| − ln 2 + ln(1 + exp(−2|z|)) *)
      let ln_cosh z =
        let az = Float.abs z in
        az -. log 2.0 +. Float.log1p (exp (-2.0 *. az))
      in
      ( Some (fun x -> ln_cosh (a *. (x -. b)) /. a),
        Printf.sprintf "ln(cosh(%.4g*(x%+.4g)))/%.4g" a (-.b) a )
  | fs ->
      ( None,
        Printf.sprintf "no closed form for %s (manual/numeric integration needed)"
          (term_to_string fs) )
