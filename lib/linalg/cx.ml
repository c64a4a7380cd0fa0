type t = Complex.t

let zero = Complex.zero
let one = Complex.one
let re x = { Complex.re = x; im = 0.0 }
let make re im = { Complex.re; im }
let ( +: ) = Complex.add
let ( -: ) = Complex.sub
let ( *: ) = Complex.mul
let ( /: ) = Complex.div
let conj = Complex.conj
let inv = Complex.inv
let scale k z = { Complex.re = k *. z.Complex.re; im = k *. z.Complex.im }
let norm = Complex.norm
let norm2 = Complex.norm2
let is_finite z = Float.is_finite z.Complex.re && Float.is_finite z.Complex.im

let approx_equal ?(tol = 1e-9) a b =
  Float.abs (a.Complex.re -. b.Complex.re) <= tol
  && Float.abs (a.Complex.im -. b.Complex.im) <= tol

let pp ppf z = Format.fprintf ppf "%g%+gi" z.Complex.re z.Complex.im
let to_string z = Format.asprintf "%a" pp z
