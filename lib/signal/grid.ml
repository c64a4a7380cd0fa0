let linspace a b n =
  if n < 1 then invalid_arg "Grid.linspace: n must be >= 1";
  if n = 1 then [| a |]
  else
    Array.init n (fun k ->
        a +. ((b -. a) *. float_of_int k /. float_of_int (n - 1)))

let logspace a b n =
  if a <= 0.0 || b <= 0.0 then invalid_arg "Grid.logspace: endpoints must be > 0";
  Array.map Stdlib.exp (linspace (Stdlib.log a) (Stdlib.log b) n)

let frequencies_hz ~f_min ~f_max ~points = logspace f_min f_max points

let two_pi = 2.0 *. Float.pi

let s_of_hz f = { Complex.re = 0.0; im = two_pi *. f }
