(* Tests for pole handling, the partial-fraction basis and vector fitting. *)

let cx re im = { Complex.re; im }
let check_close tol = Alcotest.(check (float tol))

(* ---------------- Pole ---------------- *)

let test_pole_initial_frequency () =
  let poles = Vf.Pole.initial_frequency ~f_min:1e3 ~f_max:1e9 ~count:8 in
  Alcotest.(check int) "count" 8 (Array.length poles);
  (* pairs adjacent, stable, imag spans the band *)
  ignore (Vf.Pole.structure poles);
  Array.iter
    (fun a -> Alcotest.(check bool) "stable" true (a.Complex.re < 0.0))
    poles;
  let w_lo = 2.0 *. Float.pi *. 1e3 and w_hi = 2.0 *. Float.pi *. 1e9 in
  check_close 1.0 "lowest" w_lo (Float.abs poles.(0).Complex.im);
  check_close (w_hi /. 1e6) "highest" w_hi (Float.abs poles.(7).Complex.im)

let test_pole_initial_real_axis () =
  let poles = Vf.Pole.initial_real_axis ~lo:0.4 ~hi:1.4 ~count:6 in
  Alcotest.(check int) "count" 6 (Array.length poles);
  ignore (Vf.Pole.structure poles);
  Array.iter
    (fun a ->
      Alcotest.(check bool) "centers in range" true
        (a.Complex.re >= 0.4 && a.Complex.re <= 1.4);
      Alcotest.(check bool) "nonzero width" true (a.Complex.im <> 0.0))
    poles

let test_pole_initial_odd_rejected () =
  Alcotest.(check bool) "odd count rejected" true
    (match Vf.Pole.initial_frequency ~f_min:1.0 ~f_max:10.0 ~count:3 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_pole_structure () =
  let poles = [| cx (-1.0) 0.0; cx (-2.0) 3.0; cx (-2.0) (-3.0) |] in
  match Vf.Pole.structure poles with
  | [ Vf.Pole.Single 0; Vf.Pole.Pair_first 1 ] -> ()
  | _ -> Alcotest.fail "unexpected structure"

let test_pole_structure_rejects_unpaired () =
  Alcotest.(check bool) "unpaired complex rejected" true
    (match Vf.Pole.structure [| cx (-1.0) 2.0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_pole_normalize_stabilize () =
  let out = Vf.Pole.normalize ~enforce_stable:true [| cx 2.0 5.0; cx 2.0 (-5.0) |] in
  Array.iter
    (fun a -> Alcotest.(check bool) "flipped to LHP" true (a.Complex.re < 0.0))
    out;
  Alcotest.(check int) "count preserved" 2 (Array.length out)

let test_pole_normalize_min_imag () =
  (* two real eigenvalues merge into a complex pair in state-space mode *)
  let out = Vf.Pole.normalize ~min_imag:0.05 [| cx 1.0 0.0; cx 1.2 0.0 |] in
  Alcotest.(check int) "count preserved" 2 (Array.length out);
  Array.iter
    (fun a ->
      Alcotest.(check bool) "imag >= min" true (Float.abs a.Complex.im >= 0.05))
    out;
  ignore (Vf.Pole.structure out)

(* ---------------- Basis ---------------- *)

let test_basis_real_pole () =
  let poles = [| cx (-2.0) 0.0 |] in
  let row = Vf.Basis.row poles (cx 1.0 0.0) in
  check_close 1e-12 "1/(z-a)" (1.0 /. 3.0) row.(0).Complex.re

let test_basis_pair_real_on_real_axis () =
  (* pair basis functions are real at real points *)
  let poles = [| cx 0.9 0.2; cx 0.9 (-0.2) |] in
  let row = Vf.Basis.row poles (cx 0.5 0.0) in
  check_close 1e-14 "phi1 imag" 0.0 row.(0).Complex.im;
  check_close 1e-14 "phi2 imag" 0.0 row.(1).Complex.im;
  (* analytic values: phi1 = 2(x-b)/D, phi2 = -2a/D with D=(x-b)^2+a^2 *)
  let d = ((0.5 -. 0.9) ** 2.0) +. 0.04 in
  check_close 1e-12 "phi1 value" (2.0 *. (0.5 -. 0.9) /. d) row.(0).Complex.re;
  check_close 1e-12 "phi2 value" (-2.0 *. 0.2 /. d) row.(1).Complex.re

let test_basis_residue_roundtrip () =
  let poles = [| cx (-1.0) 0.0; cx (-2.0) 3.0; cx (-2.0) (-3.0) |] in
  let coeffs = [| 1.5; 0.25; -0.75 |] in
  let residues = Vf.Basis.residues_of_coeffs poles coeffs in
  let back = Vf.Basis.coeffs_of_residues poles residues in
  Array.iteri
    (fun k c -> check_close 1e-14 (Printf.sprintf "coeff %d" k) c back.(k))
    coeffs;
  (* conjugate symmetry *)
  Alcotest.(check bool) "conjugate pair" true
    (Linalg.Cx.approx_equal residues.(2) (Complex.conj residues.(1)))

let test_basis_state_matrices_transfer () =
  (* c^T (zI - A)^{-1} b equals the basis combination *)
  let poles = [| cx (-2.0) 3.0; cx (-2.0) (-3.0); cx (-5.0) 0.0 |] in
  let poles = Vf.Pole.normalize poles in
  let a, b = Vf.Basis.state_matrices poles in
  let c = [| 0.7; -0.3; 1.1 |] in
  let z = cx 0.5 1.5 in
  (* evaluate via basis *)
  let row = Vf.Basis.row poles z in
  let direct = ref Complex.zero in
  Array.iteri
    (fun k phi -> direct := Complex.add !direct (Linalg.Cx.scale c.(k) phi))
    row;
  (* evaluate via state space: solve (zI - A) w = b *)
  let n = Array.length c in
  let zi_a =
    Linalg.Cmat.init n n (fun i j ->
        let aij = Linalg.Mat.get a i j in
        if i = j then Complex.sub z (cx aij 0.0) else cx (-.aij) 0.0)
  in
  let w = Linalg.Clu.solve_system zi_a (Array.map (fun x -> cx x 0.0) b) in
  let ss = ref Complex.zero in
  Array.iteri (fun k ck -> ss := Complex.add !ss (Linalg.Cx.scale ck w.(k))) c;
  Alcotest.(check bool) "realization matches basis" true
    (Complex.norm (Complex.sub !direct !ss) < 1e-10)

(* ---------------- Vfit: frequency domain ---------------- *)

let synth_h poles residues d s =
  let acc = ref (cx d 0.0) in
  Array.iteri
    (fun k a -> acc := Complex.add !acc (Complex.div residues.(k) (Complex.sub s a)))
    poles;
  !acc

let test_vfit_exact_recovery () =
  let true_poles = [| cx (-5e3) 0.0; cx (-2e4) 1.5e5; cx (-2e4) (-1.5e5) |] in
  let true_res = [| cx 3e4 0.0; cx 2e4 4e4; cx 2e4 (-4e4) |] in
  let freqs = Signal.Grid.logspace 1e2 1e6 60 in
  let points = Array.map Signal.Grid.s_of_hz freqs in
  let data = [| Array.map (synth_h true_poles true_res 0.0) points |] in
  let poles0 = Vf.Pole.initial_frequency ~f_min:1e2 ~f_max:1e6 ~count:4 in
  let model, info = Vf.Vfit.fit ~poles:poles0 ~points ~data () in
  Alcotest.(check bool) "tiny rms" true (info.Vf.Vfit.rms < 1e-8);
  (* true poles recovered among the fitted ones *)
  Array.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "pole %s found" (Linalg.Cx.to_string a))
        true
        (Array.exists
           (fun b -> Complex.norm (Complex.sub a b) < 1e-3 *. Complex.norm a)
           model.Vf.Model.poles))
    true_poles

let test_vfit_stability_enforced () =
  (* data from an unstable system still yields stable poles *)
  let true_poles = [| cx 2e4 1.5e5; cx 2e4 (-1.5e5) |] in
  let true_res = [| cx 1e4 2e4; cx 1e4 (-2e4) |] in
  let freqs = Signal.Grid.logspace 1e3 1e6 50 in
  let points = Array.map Signal.Grid.s_of_hz freqs in
  let data = [| Array.map (synth_h true_poles true_res 0.0) points |] in
  let poles0 = Vf.Pole.initial_frequency ~f_min:1e3 ~f_max:1e6 ~count:6 in
  let model, _ = Vf.Vfit.fit ~poles:poles0 ~points ~data () in
  Array.iter
    (fun a -> Alcotest.(check bool) "pole stable" true (a.Complex.re < 0.0))
    model.Vf.Model.poles

let test_vfit_common_poles_multi_element () =
  (* many elements share poles; residues vary *)
  let true_poles = [| cx (-3e4) 2e5; cx (-3e4) (-2e5) |] in
  let freqs = Signal.Grid.logspace 1e3 1e6 40 in
  let points = Array.map Signal.Grid.s_of_hz freqs in
  let data =
    Array.init 20 (fun e ->
        let r = cx (1e4 +. (500.0 *. float_of_int e)) (2e4 -. (300.0 *. float_of_int e)) in
        Array.map (synth_h true_poles [| r; Complex.conj r |] 0.0) points)
  in
  let poles0 = Vf.Pole.initial_frequency ~f_min:1e3 ~f_max:1e6 ~count:2 in
  let model, info = Vf.Vfit.fit ~poles:poles0 ~points ~data () in
  Alcotest.(check bool) "rms small" true (info.Vf.Vfit.rms < 1e-6);
  Alcotest.(check int) "element count" 20 (Vf.Model.n_elements model);
  (* residues recovered per element *)
  let r5 = (Vf.Model.residues model ~elem:5).(0) in
  let expected = cx (1e4 +. 2500.0) (2e4 -. 1500.0) in
  Alcotest.(check bool) "residue recovered" true
    (Complex.norm (Complex.sub r5 expected) < 1.0
    || Complex.norm (Complex.sub (Complex.conj r5) expected) < 1.0)

let test_vfit_constant_term () =
  let true_poles = [| cx (-1e4) 5e4; cx (-1e4) (-5e4) |] in
  let true_res = [| cx 5e3 1e3; cx 5e3 (-1e3) |] in
  let freqs = Signal.Grid.logspace 1e2 1e6 50 in
  let points = Array.map Signal.Grid.s_of_hz freqs in
  let data = [| Array.map (synth_h true_poles true_res 0.7) points |] in
  let opts = { Vf.Vfit.default_frequency_opts with Vf.Vfit.with_const = true } in
  let poles0 = Vf.Pole.initial_frequency ~f_min:1e2 ~f_max:1e6 ~count:2 in
  let model, info = Vf.Vfit.fit ~opts ~poles:poles0 ~points ~data () in
  Alcotest.(check bool) "rms small" true (info.Vf.Vfit.rms < 1e-6);
  check_close 1e-4 "constant recovered" 0.7 model.Vf.Model.consts.(0)

let test_vfit_auto_escalation () =
  (* 6-pole system: fit_auto must escalate beyond the start count *)
  let true_poles =
    [| cx (-1e4) 6e4; cx (-1e4) (-6e4); cx (-4e4) 2.5e5; cx (-4e4) (-2.5e5);
       cx (-8e3) 0.0; cx (-9e5) 0.0 |]
  in
  let true_res =
    [| cx 1e4 3e3; cx 1e4 (-3e3); cx (-2e4) 5e3; cx (-2e4) (-5e3);
       cx 4e3 0.0; cx 8e5 0.0 |]
  in
  let freqs = Signal.Grid.logspace 1e2 1e6 80 in
  let points = Array.map Signal.Grid.s_of_hz freqs in
  let data = [| Array.map (synth_h true_poles true_res 0.0) points |] in
  let mk n = Vf.Pole.initial_frequency ~f_min:1e2 ~f_max:1e6 ~count:n in
  let _, info =
    Vf.Vfit.fit_auto ~make_poles:mk ~start:2 ~tol:1e-6 ~points ~data ()
  in
  Alcotest.(check bool) "escalated" true (info.Vf.Vfit.pole_count >= 6);
  Alcotest.(check bool) "met tolerance" true (info.Vf.Vfit.rms <= 1e-6)

let test_vfit_too_few_points () =
  let points = Array.map Signal.Grid.s_of_hz [| 1e3; 2e3 |] in
  let data = [| [| Complex.one; Complex.one |] |] in
  let poles0 = Vf.Pole.initial_frequency ~f_min:1e2 ~f_max:1e6 ~count:8 in
  Alcotest.(check bool) "underdetermined rejected" true
    (match Vf.Vfit.fit ~poles:poles0 ~points ~data () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------------- Vfit: state domain ---------------- *)

let test_vfit_state_domain_lorentzian () =
  (* exact recovery of a Lorentzian pair on the real axis *)
  let f x = (3.0 *. (x -. 0.8)) /. (((x -. 0.8) ** 2.0) +. 0.09) in
  let xs = Signal.Grid.linspace 0.0 2.0 81 in
  let points = Array.map (fun x -> cx x 0.0) xs in
  let data = [| Array.map (fun z -> cx (f z.Complex.re) 0.0) points |] in
  let opts = { Vf.Vfit.default_state_opts with Vf.Vfit.min_imag = 0.01 } in
  let poles0 = Vf.Pole.initial_real_axis ~lo:0.0 ~hi:2.0 ~count:2 in
  let model, info = Vf.Vfit.fit ~opts ~poles:poles0 ~points ~data () in
  Alcotest.(check bool) "rms tiny" true (info.Vf.Vfit.rms < 1e-9);
  (* pole at 0.8 +/- 0.3j in the x plane *)
  let found = model.Vf.Model.poles.(0) in
  check_close 1e-6 "center" 0.8 found.Complex.re;
  check_close 1e-6 "width" 0.3 (Float.abs found.Complex.im)

let test_vfit_state_domain_tanh () =
  let f x = tanh (4.0 *. (x -. 1.0)) in
  let xs = Signal.Grid.linspace 0.0 2.0 101 in
  let points = Array.map (fun x -> cx x 0.0) xs in
  let data = [| Array.map (fun z -> cx (f z.Complex.re) 0.0) points |] in
  let opts = { Vf.Vfit.default_state_opts with Vf.Vfit.min_imag = 0.02 } in
  let mk n = Vf.Pole.initial_real_axis ~lo:0.0 ~hi:2.0 ~count:n in
  let model, info =
    Vf.Vfit.fit_auto ~opts ~make_poles:mk ~start:2 ~tol:1e-4 ~points ~data ()
  in
  Alcotest.(check bool) "fit meets tol" true (info.Vf.Vfit.rms <= 1e-4);
  (* model is real on the real axis *)
  let z = Vf.Model.eval model ~elem:0 (cx 0.77 0.0) in
  check_close 1e-10 "real-valued" 0.0 z.Complex.im;
  check_close 1e-3 "matches target" (f 0.77) z.Complex.re

let test_vfit_state_no_real_poles () =
  (* min_imag forbids real poles so closed-form integration always works *)
  let f x = 1.0 /. (x +. 3.0) in
  let xs = Signal.Grid.linspace 0.0 2.0 60 in
  let points = Array.map (fun x -> cx x 0.0) xs in
  let data = [| Array.map (fun z -> cx (f z.Complex.re) 0.0) points |] in
  let opts = { Vf.Vfit.default_state_opts with Vf.Vfit.min_imag = 0.05 } in
  let mk n = Vf.Pole.initial_real_axis ~lo:0.0 ~hi:2.0 ~count:n in
  let model, _ =
    Vf.Vfit.fit_auto ~opts ~make_poles:mk ~start:2 ~tol:1e-5 ~points ~data ()
  in
  Array.iter
    (fun a ->
      Alcotest.(check bool) "no real poles" true (Float.abs a.Complex.im >= 0.05))
    model.Vf.Model.poles

(* ---------------- Model ---------------- *)

let test_model_eval_real_matches_eval () =
  let poles = Vf.Pole.initial_real_axis ~lo:0.0 ~hi:1.0 ~count:4 in
  let model =
    {
      Vf.Model.poles;
      coeffs = [| [| 1.0; 2.0; -0.5; 0.3 |] |];
      consts = [| 0.25 |];
      slopes = [| 0.0 |];
    }
  in
  let x = 0.42 in
  check_close 1e-12 "eval_real consistent"
    (Vf.Model.eval model ~elem:0 (cx x 0.0)).Complex.re
    (Vf.Model.eval_real model ~elem:0 x)

let test_model_errors_zero_for_own_samples () =
  let poles = [| cx (-1.0) 2.0; cx (-1.0) (-2.0) |] in
  let model =
    { Vf.Model.poles; coeffs = [| [| 1.0; 0.5 |] |]; consts = [| 0.0 |]; slopes = [| 0.0 |] }
  in
  let points = Array.map (fun x -> cx 0.0 x) [| 1.0; 2.0; 5.0 |] in
  let data = [| Array.map (Vf.Model.eval model ~elem:0) points |] in
  let rms, worst = Vf.Model.errors model ~points ~data in
  check_close 1e-14 "self rms" 0.0 rms;
  check_close 1e-14 "self max" 0.0 worst

let test_vfit_stable_under_noise () =
  (* the paper: "the model is guaranteed stable by construction" — even
     fitting noisy data must never produce right-half-plane poles *)
  let st = Random.State.make [| 2024 |] in
  let true_poles = [| cx (-3e4) 2e5; cx (-3e4) (-2e5); cx (-8e3) 0.0 |] in
  let true_res = [| cx 1e4 2e4; cx 1e4 (-2e4); cx 5e3 0.0 |] in
  let freqs = Signal.Grid.logspace 1e3 1e6 60 in
  let points = Array.map Signal.Grid.s_of_hz freqs in
  let noisy z =
    let n () = 0.05 *. (Random.State.float st 2.0 -. 1.0) in
    Complex.add z
      { Complex.re = n () *. Complex.norm z; im = n () *. Complex.norm z }
  in
  let data =
    Array.init 8 (fun _ ->
        Array.map (fun p -> noisy (synth_h true_poles true_res 0.0 p)) points)
  in
  let mk n = Vf.Pole.initial_frequency ~f_min:1e3 ~f_max:1e6 ~count:n in
  (* force escalation to the cap: even overfitted poles stay stable *)
  let model, _ =
    Vf.Vfit.fit_auto ~make_poles:mk ~start:2 ~max_poles:12 ~tol:1e-12 ~points
      ~data ()
  in
  Array.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "pole %s stable" (Linalg.Cx.to_string a))
        true (a.Complex.re < 0.0))
    model.Vf.Model.poles

let prop_fit_residues_conjugate =
  QCheck.Test.make ~count:15 ~name:"fitted residues are conjugate-symmetric"
    QCheck.(int_bound 1000)
    (fun seed ->
      let st = Random.State.make [| seed; 99 |] in
      let a = cx (-.(1e4 +. Random.State.float st 1e5)) (2e5 +. Random.State.float st 1e5) in
      let r = cx (Random.State.float st 1e4) (Random.State.float st 1e4) in
      let freqs = Signal.Grid.logspace 1e3 1e6 40 in
      let points = Array.map Signal.Grid.s_of_hz freqs in
      let data = [| Array.map (synth_h [| a; Complex.conj a |] [| r; Complex.conj r |] 0.0) points |] in
      let poles0 = Vf.Pole.initial_frequency ~f_min:1e3 ~f_max:1e6 ~count:2 in
      let model, _ = Vf.Vfit.fit ~poles:poles0 ~points ~data () in
      let res = Vf.Model.residues model ~elem:0 in
      List.for_all
        (fun slot ->
          match slot with
          | Vf.Pole.Single k -> res.(k).Complex.im = 0.0
          | Vf.Pole.Pair_first k ->
              Linalg.Cx.approx_equal ~tol:1e-6 res.(k + 1) (Complex.conj res.(k)))
        (Vf.Pole.structure model.Vf.Model.poles))

let prop_vfit_recovers_random_pairs =
  QCheck.Test.make ~count:15 ~name:"vfit recovers random 2-pole systems"
    QCheck.(triple (float_range 0.1 0.9) (float_range 0.3 3.0) (float_range (-2.0) 2.0))
    (fun (damp, wmag, rre) ->
      let w = wmag *. 1e5 in
      let a = cx (-.damp *. w) w in
      let r = cx (rre *. 1e4) 5e3 in
      let freqs = Signal.Grid.logspace 1e2 1e6 50 in
      let points = Array.map Signal.Grid.s_of_hz freqs in
      let data =
        [| Array.map (synth_h [| a; Complex.conj a |] [| r; Complex.conj r |] 0.0) points |]
      in
      let poles0 = Vf.Pole.initial_frequency ~f_min:1e2 ~f_max:1e6 ~count:2 in
      let _, info = Vf.Vfit.fit ~poles:poles0 ~points ~data () in
      info.Vf.Vfit.rms < 1e-6 *. Complex.norm r)

let test_vfit_lc_ladder_response () =
  (* classic VF use case: fit a resonant passive network's simulated
     frequency response; the fit must be stable and accurate, and the
     model must reproduce the passband/stopband levels *)
  let nl = Circuits.Library.lc_ladder () in
  let mna =
    Engine.Mna.build ~inputs:[ Circuits.Library.lc_input ]
      ~outputs:[ Circuits.Library.lc_output ] nl
  in
  let at = Engine.Dc.solve mna in
  let freqs = Signal.Grid.logspace 1e4 1e7 80 in
  let h = Engine.Ac.sweep_siso mna ~at ~freqs_hz:freqs in
  let points = Array.map Signal.Grid.s_of_hz freqs in
  let mk n = Vf.Pole.initial_frequency ~f_min:1e4 ~f_max:1e7 ~count:n in
  let model, info =
    Vf.Vfit.fit_auto ~make_poles:mk ~start:2 ~max_poles:10 ~tol:1e-8
      ~points ~data:[| h |] ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "5th-order network fitted (rms %.1e, %d poles)"
       info.Vf.Vfit.rms info.Vf.Vfit.pole_count)
    true
    (info.Vf.Vfit.rms < 1e-8);
  Array.iter
    (fun a -> Alcotest.(check bool) "stable" true (a.Complex.re < 0.0))
    model.Vf.Model.poles;
  (* passband level 0.5 (matched 50-ohm divider), strong stopband rolloff *)
  let eval f = Complex.norm (Vf.Model.eval model ~elem:0 (Signal.Grid.s_of_hz f)) in
  check_close 1e-3 "passband" 0.5 (eval 2e4);
  Alcotest.(check bool) "stopband rolloff" true (eval 1e7 < 5e-3)

(* ---------------- escalation-ladder rung coverage ---------------- *)

(* exercise fit_auto's individual escalation rungs deterministically,
   without fault injection, using seeded degenerate inputs *)

let degenerate_grid_data () =
  (* 6 well-separated poles but only a handful of sample points: enough
     for small pole counts, underdetermined for larger ones *)
  let exact =
    Array.init 6 (fun k ->
        { Complex.re = -.(10.0 ** (3.0 +. (0.5 *. float_of_int k))); im = 0.0 })
  in
  let residues = Array.map (fun p -> Complex.neg p) exact in
  let points =
    Array.map Signal.Grid.s_of_hz (Signal.Grid.logspace 1e2 1e6 7)
  in
  let data =
    Array.map
      (fun s ->
        let acc = ref Complex.zero in
        Array.iteri
          (fun i p ->
            acc := Complex.add !acc (Complex.div residues.(i) (Complex.sub s p)))
          exact;
        !acc)
      points
  in
  (points, [| data |])

let test_fit_auto_rms_escalation_keeps_best () =
  (* rung 1 (rms above tol -> escalate) followed by rung 2 (attempt
     raises Invalid_argument -> stop with the best model so far): on the
     degenerate grid an unreachable tolerance walks the ladder until the
     unknown count exceeds the 7 points, and fit_auto must settle on the
     best admissible model instead of raising *)
  let points, data = degenerate_grid_data () in
  let obs = Obs.create () in
  let _, info =
    Vf.Vfit.fit_auto ~obs ~make_poles:(fun n ->
        Vf.Pole.initial_frequency ~f_min:1e2 ~f_max:1e6 ~count:n)
      ~start:2 ~step:2 ~max_poles:40 ~tol:1e-300 ~points ~data ()
  in
  let attempts = Obs.counter obs "vfit.attempts" in
  Alcotest.(check bool)
    (Printf.sprintf "several rungs exercised (%d attempts)" attempts)
    true (attempts >= 3);
  Alcotest.(check bool) "kept an admissible model" true
    (Float.is_finite info.Vf.Vfit.rms && info.Vf.Vfit.pole_count >= 2);
  Alcotest.(check bool) "settled_poles note recorded" true
    (List.assoc_opt "vfit.settled_poles" (Obs.notes obs)
    = Some (string_of_int info.Vf.Vfit.pole_count))

let test_fit_auto_guard_violation_escalates () =
  (* rung 3 (Guard.Violation -> count it and keep climbing): one NaN
     sample makes every attempt's model non-finite, so the ladder must
     be exhausted and the exhaustion report must carry the last rung's
     guard detail *)
  let points, data = degenerate_grid_data () in
  data.(0).(3) <- { Complex.re = Float.nan; im = 0.0 };
  let obs = Obs.create () in
  (match
     Vf.Vfit.fit_auto ~obs ~make_poles:(fun n ->
         Vf.Pole.initial_frequency ~f_min:1e2 ~f_max:1e6 ~count:n)
       ~start:2 ~step:2 ~max_poles:6 ~tol:1e-12 ~points ~data ()
   with
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "exhaustion names the last rung (%s)" msg)
        true
        ((* the message must identify the final attempt, not be a bare
            "no successful fit" *)
         let has sub =
           let ls = String.length sub and lm = String.length msg in
           let rec scan i = i + ls <= lm && (String.sub msg i ls = sub || scan (i + 1)) in
           scan 0
         in
         has "last attempt" && has "6 poles")
  | _ -> Alcotest.fail "a fully-guarded ladder cannot produce a model");
  Alcotest.(check int) "every rung attempted" 3
    (Obs.counter obs "vfit.attempts");
  Alcotest.(check int) "every rung guarded" 3
    (Obs.counter obs "vfit.guard_violations");
  Alcotest.(check bool) "exhaustion recorded as an error event" true
    (List.exists (fun (kind, _, _) -> kind = `Error) (Obs.messages obs))

let test_fit_auto_start_beyond_max () =
  (* rung 0: an empty ladder reports that nothing was attempted *)
  let points, data = degenerate_grid_data () in
  match
    Vf.Vfit.fit_auto ~make_poles:(fun n ->
        Vf.Pole.initial_frequency ~f_min:1e2 ~f_max:1e6 ~count:n)
      ~start:10 ~max_poles:4 ~tol:1e-6 ~points ~data ()
  with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the empty ladder" true
        (let sub = "no pole count attempted" in
         let ls = String.length sub and lm = String.length msg in
         let rec scan i = i + ls <= lm && (String.sub msg i ls = sub || scan (i + 1)) in
         scan 0)
  | _ -> Alcotest.fail "start > max_poles cannot fit"

(* ---------------- Dense vs Fast relocation kernels ---------------- *)

(* both kernels perform the same per-entry arithmetic (the fast one just
   factors in place, hoists the shared phi0 factorization and skips the
   copies), so agreement is asserted on raw float bits, not a tolerance *)
let float_bits_eq a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let cx_bits_eq (a : Complex.t) (b : Complex.t) =
  float_bits_eq a.Complex.re b.Complex.re
  && float_bits_eq a.Complex.im b.Complex.im

let models_bitwise_equal (a : Vf.Model.t) (b : Vf.Model.t) =
  Array.length a.Vf.Model.poles = Array.length b.Vf.Model.poles
  && Array.for_all2 cx_bits_eq a.Vf.Model.poles b.Vf.Model.poles
  && Array.for_all2
       (fun x y -> Array.for_all2 float_bits_eq x y)
       a.Vf.Model.coeffs b.Vf.Model.coeffs
  && Array.for_all2 float_bits_eq a.Vf.Model.consts b.Vf.Model.consts
  && Array.for_all2 float_bits_eq a.Vf.Model.slopes b.Vf.Model.slopes

let fit_both_kernels ~opts ~poles ~points ~data =
  let run kernel =
    fst
      (Vf.Vfit.fit
         ~opts:{ opts with Vf.Vfit.relocation_kernel = kernel }
         ~poles ~points ~data ())
  in
  models_bitwise_equal (run Vf.Vfit.Dense) (run Vf.Vfit.Fast)

let grid_points = Array.map Signal.Grid.s_of_hz Oracle.Gen.grid_hz

let prop_kernel_parity_rational =
  (* inverse-square-root weighting: the general per-element QR path *)
  QCheck.Test.make ~count:10 ~name:"dense/fast parity: random rationals"
    (Oracle.Gen.arb ())
    (fun sd ->
      let r = Oracle.Gen.rational sd in
      let data = [| Oracle.Ladder.sample r grid_points |] in
      let n = Array.length r.Oracle.Ladder.poles in
      let poles0 = Vf.Pole.initial_frequency ~f_min:1e2 ~f_max:1e7 ~count:n in
      fit_both_kernels ~opts:Vf.Vfit.default_frequency_opts ~poles:poles0
        ~points:grid_points ~data)

let prop_kernel_parity_rc_ladder_uniform =
  (* uniform weighting with several elements: the shared-Q1 fast path *)
  QCheck.Test.make ~count:10 ~name:"dense/fast parity: rc ladders, uniform"
    (Oracle.Gen.arb ())
    (fun sd ->
      let o = Oracle.Gen.rc_ladder sd in
      let row = Oracle.Ladder.sample o.Oracle.Ladder.exact grid_points in
      (* identical rows model the state-independent linear TFT surface *)
      let data = [| row; Array.copy row; Array.copy row |] in
      let n = Array.length o.Oracle.Ladder.exact.Oracle.Ladder.poles in
      let poles0 =
        Vf.Pole.initial_frequency ~f_min:1e2 ~f_max:1e7
          ~count:(if n mod 2 = 0 then n else n + 1)
      in
      let opts =
        { Vf.Vfit.default_frequency_opts with Vf.Vfit.weighting = Vf.Vfit.Uniform }
      in
      fit_both_kernels ~opts ~poles:poles0 ~points:grid_points ~data)

let prop_kernel_parity_residue_traces =
  (* real state axis, relaxed sigma, no constant-free columns *)
  QCheck.Test.make ~count:10 ~name:"dense/fast parity: residue traces"
    (Oracle.Gen.arb ())
    (fun sd ->
      let xs, data = Oracle.Gen.residue_traces sd in
      let points = Array.map (fun x -> cx x 0.0) xs in
      let opts = { Vf.Vfit.default_state_opts with Vf.Vfit.min_imag = 0.05 } in
      let poles0 = Vf.Pole.initial_real_axis ~lo:0.0 ~hi:1.0 ~count:4 in
      fit_both_kernels ~opts ~poles:poles0 ~points ~data)

let test_kernel_parity_pool () =
  (* the pooled fast path writes disjoint rows per element: bit-identical
     to both sequential kernels *)
  let sd = { Oracle.Gen.seed = 42; size = 3 } in
  let xs, data = Oracle.Gen.residue_traces ~traces:5 sd in
  let points = Array.map (fun x -> cx x 0.0) xs in
  let opts = { Vf.Vfit.default_state_opts with Vf.Vfit.min_imag = 0.05 } in
  let poles0 = Vf.Pole.initial_real_axis ~lo:0.0 ~hi:1.0 ~count:4 in
  let seq, _ = Vf.Vfit.fit ~opts ~poles:poles0 ~points ~data () in
  Exec.with_pool ~domains:3 (fun pool ->
      let par, _ = Vf.Vfit.fit ~opts ~pool ~poles:poles0 ~points ~data () in
      Alcotest.(check bool) "pooled = sequential, bitwise" true
        (models_bitwise_equal seq par))

(* A Table-I-shaped state fit: 7 residue traces over 100 real points,
   uniform weighting, relaxed sigma and a constant term, at every pole
   count of the state stage's escalation up to 24. It runs the
   real-axis row layout, the shared-phi0 sigma step and the shared
   residue identification at the sizes of the buffer extraction; the
   random residue-trace property reaches them only at 4 poles. *)
let test_kernel_parity_table1_shape () =
  let n = 100 and lo = -0.4 and hi = 1.2 in
  let points =
    Array.init n (fun k ->
        cx (lo +. ((hi -. lo) *. float_of_int k /. float_of_int (n - 1))) 0.0)
  in
  (* smooth saturating traces of unit order, like Rvf's normalized ones *)
  let data =
    Array.init 7 (fun j ->
        let a = 2.0 +. float_of_int j and b = 0.1 *. float_of_int j in
        Array.map
          (fun z ->
            let x = z.Complex.re in
            cx (tanh (a *. (x -. b)) +. (0.2 *. x *. x) -. (0.1 *. b)) 0.0)
          points)
  in
  let opts =
    {
      Vf.Vfit.default_state_opts with
      Vf.Vfit.min_imag = 0.02 *. (hi -. lo);
      max_magnitude = 100.0 *. Float.max (Float.abs lo) (Float.abs hi);
    }
  in
  let fit kernel count =
    Vf.Vfit.fit
      ~opts:{ opts with Vf.Vfit.relocation_kernel = kernel }
      ~poles:(Vf.Pole.initial_real_axis ~lo ~hi ~count)
      ~points ~data ()
  in
  for k = 1 to 12 do
    let count = 2 * k in
    let md, id = fit Vf.Vfit.Dense count in
    let mf, i_f = fit Vf.Vfit.Fast count in
    Alcotest.(check bool)
      (Printf.sprintf "%d poles: models bitwise" count)
      true
      (models_bitwise_equal md mf
      && float_bits_eq id.Vf.Vfit.rms i_f.Vf.Vfit.rms)
  done

(* the condensed per-element [R22 | Q2tV] blocks must describe the same
   least-squares problem as the naive stacked system over all unknowns
   (per-element coefficients + shared sigma columns): solve both for the
   shared block and compare. Mathematical equivalence, not bitwise — the
   naive path eliminates nothing. *)
let test_condensed_blocks_match_naive_stack () =
  let st = Random.State.make [| 0xb10c; 5 |] in
  let n_elems = 3 and m = 14 and n1 = 4 and n2 = 3 in
  let elems =
    Array.init n_elems (fun _ ->
        ( Linalg.Mat.random st m (n1 + n2),
          Array.init m (fun _ -> Random.State.float st 2.0 -. 1.0) ))
  in
  (* naive: block-diagonal in the per-element columns, shared trailing
     columns, one global least squares *)
  let big =
    Linalg.Mat.init (n_elems * m)
      ((n_elems * n1) + n2)
      (fun r c ->
        let e = r / m and i = r mod m in
        let a, _ = elems.(e) in
        if c >= n_elems * n1 then Linalg.Mat.get a i (n1 + (c - (n_elems * n1)))
        else if c / n1 = e then Linalg.Mat.get a i (c mod n1)
        else 0.0)
  in
  let big_rhs =
    Array.init (n_elems * m) (fun r -> (snd elems.(r / m)).(r mod m))
  in
  let naive = Linalg.Qr.least_squares big big_rhs in
  let naive_shared = Array.sub naive (n_elems * n1) n2 in
  (* condensed: per-element QR, keep R22 and Q2tV *)
  let ws = Linalg.Qr.workspace () in
  let cond = Linalg.Mat.create (n_elems * n2) n2 in
  let cond_rhs = Array.make (n_elems * n2) 0.0 in
  Array.iteri
    (fun e (a, b) ->
      let w = Linalg.Qr.ws_matrix ws ~rows:m ~cols:(n1 + n2) in
      for i = 0 to m - 1 do
        for j = 0 to n1 + n2 - 1 do
          Linalg.Mat.set w i j (Linalg.Mat.get a i j)
        done
      done;
      let t = Linalg.Qr.factor_into ws w in
      Linalg.Qr.r22_block t ~split:n1 cond (e * n2);
      Linalg.Qr.apply_qt_block t ~split:n1 b cond_rhs (e * n2))
    elems;
  let condensed = Linalg.Qr.least_squares cond cond_rhs in
  Array.iteri
    (fun k x ->
      Alcotest.(check (float 1e-8))
        (Printf.sprintf "shared unknown %d" k)
        x condensed.(k))
    naive_shared

let suite =
  [
    Alcotest.test_case "pole initial frequency" `Quick test_pole_initial_frequency;
    Alcotest.test_case "pole initial real axis" `Quick test_pole_initial_real_axis;
    Alcotest.test_case "pole odd count" `Quick test_pole_initial_odd_rejected;
    Alcotest.test_case "pole structure" `Quick test_pole_structure;
    Alcotest.test_case "pole unpaired" `Quick test_pole_structure_rejects_unpaired;
    Alcotest.test_case "pole stabilize" `Quick test_pole_normalize_stabilize;
    Alcotest.test_case "pole min imag merge" `Quick test_pole_normalize_min_imag;
    Alcotest.test_case "basis real pole" `Quick test_basis_real_pole;
    Alcotest.test_case "basis pair real on axis" `Quick test_basis_pair_real_on_real_axis;
    Alcotest.test_case "basis residue roundtrip" `Quick test_basis_residue_roundtrip;
    Alcotest.test_case "basis realization" `Quick test_basis_state_matrices_transfer;
    Alcotest.test_case "vfit exact recovery" `Quick test_vfit_exact_recovery;
    Alcotest.test_case "vfit stability" `Quick test_vfit_stability_enforced;
    Alcotest.test_case "vfit common poles" `Quick test_vfit_common_poles_multi_element;
    Alcotest.test_case "vfit constant term" `Quick test_vfit_constant_term;
    Alcotest.test_case "vfit auto escalation" `Quick test_vfit_auto_escalation;
    Alcotest.test_case "vfit underdetermined" `Quick test_vfit_too_few_points;
    Alcotest.test_case "vfit lorentzian" `Quick test_vfit_state_domain_lorentzian;
    Alcotest.test_case "vfit tanh" `Quick test_vfit_state_domain_tanh;
    Alcotest.test_case "vfit no real poles" `Quick test_vfit_state_no_real_poles;
    Alcotest.test_case "model eval_real" `Quick test_model_eval_real_matches_eval;
    Alcotest.test_case "model self error" `Quick test_model_errors_zero_for_own_samples;
    Alcotest.test_case "vfit stable under noise" `Quick test_vfit_stable_under_noise;
    Alcotest.test_case "vfit lc ladder" `Quick test_vfit_lc_ladder_response;
    Alcotest.test_case "fit_auto keeps best on degenerate grid" `Quick
      test_fit_auto_rms_escalation_keeps_best;
    Alcotest.test_case "fit_auto guard rung coverage" `Quick
      test_fit_auto_guard_violation_escalates;
    Alcotest.test_case "fit_auto empty ladder" `Quick
      test_fit_auto_start_beyond_max;
    Alcotest.test_case "kernel parity with pool" `Quick test_kernel_parity_pool;
    Alcotest.test_case "kernel parity: table I state fit" `Quick
      test_kernel_parity_table1_shape;
    Alcotest.test_case "condensed blocks = naive stack" `Quick
      test_condensed_blocks_match_naive_stack;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [
        prop_vfit_recovers_random_pairs;
        prop_fit_residues_conjugate;
        prop_kernel_parity_rational;
        prop_kernel_parity_rc_ladder_uniform;
        prop_kernel_parity_residue_traces;
      ]
