(* Numerical guard layer for the extraction stack.

   A [t] is a bundle of thresholds threaded through the numerical
   layers as an optional [?guard] argument, exactly like [?obs]:
   [None] makes every check a no-op branch, so the unguarded
   path performs bit-for-bit the same floating-point operations as a
   build without the guard layer at all. With a guard attached, each
   stage *checks* (reciprocal-condition estimates on LU pivots,
   NaN/Inf sentinels on solver outputs, pole-runaway detection) and
   either *repairs* locally (snapshot quarantine, transient
   step-halving, unstable-pole reflection) or raises the typed
   {!Violation} that the pipeline's escalation ladder knows how to
   catch. Guard checks are read-only: when nothing trips, a guarded
   run returns bit-identical results to an unguarded one. *)

type repair = Drop | Interpolate

type t = {
  rcond_min : float;
      (* factorizations whose diagonal-ratio reciprocal-condition
         estimate falls below this raise Singular *)
  check_finite : bool;  (* NaN/Inf sentinels on solver outputs *)
  max_step_halvings : int;
      (* transient step retry budget: the k-th retry splits the failed
         step into 2^k backward-Euler substeps *)
  snapshot_repair : repair;
      (* what Dataset.of_snapshots does with quarantined snapshots *)
  max_pole_growth : float;
      (* a relocated pole whose magnitude exceeds this multiple of the
         largest fit point is a runaway *)
}

let default =
  {
    rcond_min = 1e-12;
    check_finite = true;
    max_step_halvings = 4;
    snapshot_repair = Interpolate;
    max_pole_growth = 1e4;
  }

let repair_to_string = function Drop -> "drop" | Interpolate -> "interpolate"

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

let finite_array a = Array.for_all Float.is_finite a

let finite_complex_array a =
  Array.for_all
    (fun (z : Complex.t) ->
      Float.is_finite z.Complex.re && Float.is_finite z.Complex.im)
    a

(* finite-output sentinel: no-op without a guard or with [check_finite]
   off, a raise naming [site] otherwise *)
let check_vec guard ~site v =
  match guard with
  | None -> ()
  | Some g ->
      if g.check_finite && not (finite_array v) then
        fail ~site "non-finite entries in solver output"

let check_complex_vec guard ~site v =
  match guard with
  | None -> ()
  | Some g ->
      if g.check_finite && not (finite_complex_array v) then
        fail ~site "non-finite entries in solver output"
