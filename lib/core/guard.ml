(* The numerical safety policy of the extraction stack.

   Every stage *checks* unconditionally (reciprocal-condition floors on
   the Newton factorizations, NaN/Inf sentinels on solver outputs,
   pole-runaway detection) and either *repairs* locally (snapshot
   quarantine, transient step halving, unstable-pole reflection) or
   raises the typed {!Violation} that the pipeline's escalation ladder
   knows how to catch. Checks are read-only: when nothing trips, a run
   performs exactly the floating-point operations it would without
   them. *)

let rcond_min = 1e-12
let max_step_halvings = 4
let max_pole_growth = 1e4

type violation = { site : string; detail : string }

exception Violation of violation

let describe { site; detail } =
  Printf.sprintf "guard violation at %s: %s" site detail

let fail ~site detail = raise (Violation { site; detail })

(* the raised-exception rendering, so [Printexc.to_string] users see
   the site instead of an opaque constructor *)
let () =
  Printexc.register_printer (function
    | Violation v -> Some ("Guard.Violation: " ^ describe v)
    | _ -> None)

(* a monomorphic loop: the polymorphic [Array.for_all] would box every
   element of the float array it reads *)
let finite_array (a : float array) =
  let rec from i =
    i >= Array.length a
    || (Float.is_finite (Array.unsafe_get a i) && from (i + 1))
  in
  from 0

let finite_complex_array a =
  Array.for_all
    (fun (z : Complex.t) ->
      Float.is_finite z.Complex.re && Float.is_finite z.Complex.im)
    a

let check_vec ~site v =
  if not (finite_array v) then fail ~site "non-finite entries in solver output"
